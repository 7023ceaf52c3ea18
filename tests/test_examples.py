"""The documentation that runs: the package docstring's quickstart and
every script under ``examples/`` execute to the end (each example
asserts its own correctness against a reference run)."""

import pathlib
import runpy
import textwrap

import pytest

import repro

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_package_docstring_quickstart_runs(capsys):
    doc = repro.__doc__
    snippet = textwrap.dedent(doc[doc.index("Quickstart::") + len("Quickstart::"):])
    exec(compile(snippet, "<repro.__doc__ quickstart>", "exec"), {})
    makespan_ns, bytes_logged = map(int, capsys.readouterr().out.split())
    assert makespan_ns > 0 and bytes_logged > 0


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path, monkeypatch, capsys):
    # Anything a script writes lands under tmp_path: trace_a_run.py takes
    # its output path as argv[1], the others take no arguments.
    out = tmp_path / "example.trace.json"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", [str(script), str(out)])
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as e:
        assert not e.code
    assert capsys.readouterr().out.strip()
    if script.name == "trace_a_run.py":
        assert out.stat().st_size > 0
