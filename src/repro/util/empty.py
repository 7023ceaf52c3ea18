"""A shared, read-only empty dict for containers created on first use.

Per-rank state holds several dicts that only rare paths ever fill
(rendezvous, deferred sends, recovery, receiver GC).  An empty dict
is 64 bytes, paid per container per rank, so such a slot starts out
as :data:`EMPTY_DICT` instead:
every read — ``get``, ``in``, iteration, truthiness, ``pop`` with a
default, ``clear`` — behaves as on an empty dict, and the one writer
that first inserts swaps in a fresh ``{}``::

    if self._deferred is EMPTY_DICT:
        self._deferred = {}
    self._deferred[key] = value

Inserting into the shared instance itself raises ``TypeError``, so a
writer that forgot the swap fails loudly instead of leaking entries
into every rank.
"""

from __future__ import annotations


class _ReadOnlyEmptyDict(dict):
    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(
            "EMPTY_DICT is shared and read-only: replace it with a fresh "
            "dict before inserting"
        )

    __setitem__ = setdefault = update = __ior__ = _refuse


#: The one shared instance; compare with ``is``.
EMPTY_DICT: dict = _ReadOnlyEmptyDict()
