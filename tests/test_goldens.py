"""Reports of the benchmark's `run` and `verify` operations stay
byte-identical to the SHA-256 goldens recorded in bench/goldens.json.

Every such operation of every workload and input variant runs in-process
through `cli.main`, `verify --protocol dj --n 8` included.  Operations
come from `bench/workloads.operations` without a root, so no table file
is written and nothing under bench/ changes.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from psqm import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("psqm_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def golden_operations() -> dict:
    workloads = _workloads()
    ops = {}
    for name in workloads.WORKLOADS:
        for seed in range(workloads.VARIANTS):
            for op in workloads.operations(name, seed, None):
                if op.golden and op.argv[0] in ("run", "verify"):
                    ops[op.key] = op.argv
    return ops


def test_reports_match_bench_goldens(capsys):
    goldens = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))["reports"]
    ops = golden_operations()
    assert len(ops) > 100
    mismatched = []
    for key, argv in sorted(ops.items()):
        code = cli.main(list(argv))
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        if code != 0 or digest != goldens[key]:
            mismatched.append((key, code))
    assert not mismatched
