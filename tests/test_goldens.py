"""Reports of the benchmark's operations stay byte-identical to the
SHA-256 goldens recorded in bench/goldens.json.

Every `run` and `verify` operation of every workload and input variant
runs in-process through `cli.main`, `verify --protocol dj --n 8`
included; they come from `bench/workloads.operations` without a root, so
no table file is written.  The `bounds` workload's `bound` and `stats`
operations run for every 8th variant, with their table files written
below a temporary directory that serves as the working directory.
Nothing under bench/ changes.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from psqm import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDENS = json.loads((BENCH / "goldens.json").read_text(encoding="utf-8"))["reports"]


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


def mismatched_reports(ops: dict, capsys) -> list:
    """(key, exit code) of each operation whose report misses its golden."""
    mismatched = []
    for key, argv in sorted(ops.items()):
        code = cli.main(list(argv))
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        if code != 0 or digest != GOLDENS[key]:
            mismatched.append((key, code))
    return mismatched


def test_reports_match_bench_goldens(capsys):
    ops = golden_operations()
    assert len(ops) > 100
    assert not mismatched_reports(ops, capsys)


def test_bound_and_stats_reports_match_bench_goldens(tmp_path, monkeypatch, capsys):
    workloads = _workloads()
    monkeypatch.chdir(tmp_path)  # the goldens' table paths are relative to the checkout
    ops = {}
    for seed in range(0, workloads.VARIANTS, 8):
        for op in workloads.operations("bounds", seed, tmp_path):
            ops[op.key] = op.argv
    assert len(ops) == 1 + 4 * workloads.VARIANTS // 8
    assert not mismatched_reports(ops, capsys)
