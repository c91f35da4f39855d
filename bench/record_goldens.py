"""Record the golden SHA-256 of every report the benchmark can ask for.

    python3 bench/record_goldens.py

Run from the root of a psqm checkout whose reports are the reference.
Every operation of every workload and input variant runs once as a
fresh `psqm` process; each must exit 0.  Writes bench/goldens.json.
Re-record only when a change to the reports is intended.
"""

import hashlib
import json
import sys
from pathlib import Path

import workloads
from run import BENCH_DIR, child_env, spawn

TIMEOUT_S = 600.0


def main() -> int:
    root = Path.cwd()
    (root / workloads.WORK_DIR).mkdir(exist_ok=True)
    env = child_env(root)
    ops = {}
    for name in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            for op in workloads.operations(name, variant, root):
                if op.golden:
                    ops.setdefault(op.key, op)
    reports = {}
    for i, (key, op) in enumerate(sorted(ops.items())):
        result = spawn([sys.executable, "-m", "psqm.cli", *op.argv], env, root, TIMEOUT_S)
        if result.code != 0:
            print(f"psqm {key}: exit {result.code}: {result.stderr.strip()[-300:]}",
                  file=sys.stderr)
            return 1
        reports[key] = hashlib.sha256(result.stdout).hexdigest()
        print(f"[{i + 1}/{len(ops)}] {result.wall:7.2f}s psqm {key}", flush=True)
    payload = {"variants": workloads.VARIANTS, "reports": reports}
    with open(BENCH_DIR / "goldens.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
