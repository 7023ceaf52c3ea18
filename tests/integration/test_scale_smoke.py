"""Scale smoke: memory is linear in rank count.

A 16384-rank exact ring must finish with a few hundred MiB of resident
growth.  With any per-pair (nranks x nranks) container in the simulator
this run needs gigabytes — the flat channel table alone was 2 GiB — so
the bound is the executable form of "no O(n^2) state".  The run happens
in a fresh interpreter: ``ru_maxrss`` is a process-lifetime high-water
mark, and inside the pytest process earlier tests have already raised
it past anything this run could add.  The CI ``perf-smoke`` job runs
this file under ``ulimit -v`` as well (the child inherits the limit).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

NRANKS = 16384
MAX_GROWTH_MIB = 400  # ~150 MiB measured

_RUN = f"""
import json, resource
from repro.apps.synthetic import ring_app
from repro.core.clusters import ClusterMap
from repro.harness.runner import run_spbc

def maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

before = maxrss_mib()
res = run_spbc(
    ring_app(iters=2, msg_bytes=4096, compute_ns=200_000),
    {NRANKS}, ClusterMap.block({NRANKS}, 2048), trace=False,
)
print(json.dumps({{
    "growth_mib": maxrss_mib() - before,
    "results": len(res.results),
    "channels": sum(1 for _ in res.world.network.chan_state_items()),
}}))
"""


def test_16384_rank_exact_ring_runs_in_linear_memory():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["results"] == NRANKS
    # Every rank sends to its successor: O(n) channel entries.
    assert out["channels"] <= 4 * NRANKS
    assert out["growth_mib"] < MAX_GROWTH_MIB, f"ru_maxrss grew {out['growth_mib']:.0f} MiB"
