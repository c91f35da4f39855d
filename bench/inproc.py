"""One pass of a workload inside this process, with or without tracing.

    python3 bench/inproc.py --workload NAME --seed N --traced 0|1

Run from the checkout root with `src` on PYTHONPATH; run.py starts it.
Each operation calls `psqm.cli.main` with the operation's arguments and
captures the report it writes to stdout.  With `--traced 1` the public
functions listed in TARGETS are wrapped first, from outside: each
wrapper counts calls and measures inclusive and self time, so every
layer is timed without changing a file under `src/`.  The wrappers exist
only in this process.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import sys
import time
import traceback

import workloads

# module -> public names to wrap: module functions, classes (their
# constructor is wrapped) or methods defined by classes of the module
TARGETS = {
    "qsim": (
        "apply_gate",
        "StateVector",
        "DensityMatrix",
        "measure",
        "apply_phase_oracle",
        "matrix_distance",
    ),
    "protocols": (
        "message_state",
        "averaged_message",
        "output_distribution",
        "run",
        "party_message_state",
    ),
    "gf2m": ("mul", "from_bits", "to_bits"),
    "verify": (
        "check_correctness",
        "check_privacy",
        "check_weight_sums",
        "check_purity_bounds",
        "check_collision_bound",
    ),
    "bounds": (
        "alpha",
        "beta",
        "is_non_degenerate",
        "exact_smp_clique_sizes",
        "psqm_lower_bound",
    ),
    "cli": ("canonical_json",),
}


def layer_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TARGETS.items() for name in names]


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    """Call counts, inclusive time and self time per wrapped function.

    Self time is a call's duration minus the time spent in wrapped calls
    it made.  Inclusive time counts only the outermost call of a
    recursion, so it never exceeds wall time.
    """

    def __init__(self):
        self.stats = {label: _Stat() for label in layer_names()}
        self.missing: list[str] = []
        self.averaged_keys: set = set()
        self.op_index = 0
        self._children: list[float] = []

    def _wrap(self, label, fn, on_call=None):
        stat = self.stats[label]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stat.calls += 1
            stat.depth += 1
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stat.self_s += elapsed - children.pop()
                if not stat.depth:
                    stat.total_s += elapsed
                if children:
                    children[-1] += elapsed

        traced.bench_traced = True
        return traced

    def _note_averaged(self, args):
        # args are (self, inputs): distinct inputs per operation
        self.averaged_keys.add((self.op_index, tuple(args[1])))

    def install(self):
        for module_name, names in TARGETS.items():
            module = importlib.import_module(f"psqm.{module_name}")
            classes = [
                obj
                for obj in vars(module).values()
                if inspect.isclass(obj) and obj.__module__ == module.__name__
            ]
            for name in names:
                label = f"{module_name}.{name}"
                hook = self._note_averaged if label == "protocols.averaged_message" else None
                obj = getattr(module, name, None)
                if inspect.isclass(obj):
                    obj.__init__ = self._wrap(label, obj.__init__)
                elif callable(obj):
                    setattr(module, name, self._wrap(label, obj, hook))
                else:
                    owners = [cls for cls in classes if name in vars(cls)]
                    for cls in owners:
                        setattr(cls, name, self._wrap(label, vars(cls)[name], hook))
                    if not owners:
                        self.missing.append(label)


def _installed_wrappers() -> int:
    """Number of benchmark wrappers reachable from the psqm modules."""
    count = 0
    for module_name in TARGETS:
        module = sys.modules.get(f"psqm.{module_name}")
        for obj in vars(module).values() if module else ():
            targets = [obj]
            if inspect.isclass(obj):
                targets = list(vars(obj).values())
            count += sum(getattr(t, "bench_traced", False) for t in targets)
    return count


def run_operation(op: workloads.Operation) -> dict:
    """Run one CLI operation in-process and describe its outcome; the
    report text itself is kept only when it has no golden."""
    from psqm import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:  # a psqm process would die here with status 1
        code = 1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    report = out.getvalue().encode("utf-8")
    return {
        "code": code,
        "wall_s": wall,
        "bytes": len(report),
        "sha256": hashlib.sha256(report).hexdigest(),
        "report": None if op.golden else report.decode("utf-8"),
        "stderr": err.getvalue(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    ops = workloads.operations(args.workload, args.seed)
    import psqm.cli  # noqa: F401  (load every module before timing)

    tracer = Tracer() if args.traced else None
    if tracer:
        tracer.install()
    results = []
    for index, op in enumerate(ops):
        if tracer:
            tracer.op_index = index
        results.append(run_operation(op))
    payload = {
        "traced": bool(tracer),
        "wrappers": _installed_wrappers(),
        "ops": results,
    }
    if tracer:
        payload["missing"] = tracer.missing
        payload["stats"] = {
            label: [s.calls, s.self_s, s.total_s] for label, s in tracer.stats.items()
        }
        payload["averaged_distinct"] = len(tracer.averaged_keys)
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
