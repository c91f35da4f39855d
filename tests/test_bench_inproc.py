"""The benchmark's traced in-process pass, run as the benchmark runs it.

`bench/inproc.py --traced 1` runs every operation of a workload in one
interpreter, through `cli.main(argv)`, with the wrappers of its TARGETS
installed over psqm's functions.  Every report must still match its
golden SHA-256 in `bench/goldens.json`.  The `bounds` workload is left
out: only `bench/run.py` writes its table files.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload", ["transcripts", "ghz-verify"])
def test_the_traced_pass_matches_every_golden(workload, seed, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(BENCH / "inproc.py"), "--workload", workload,
         "--seed", str(seed), "--traced", "1"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["traced"] and payload["wrappers"] > 0
    goldens = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))["reports"]
    ops = workloads.operations(workload, seed)
    assert len(payload["ops"]) == len(ops)
    for op, result in zip(ops, payload["ops"]):
        assert result["code"] == 0, result["stderr"]
        assert not op.golden or result["sha256"] == goldens[op.key], op.key
