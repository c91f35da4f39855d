"""The psqm benchmark: one workload as a closed loop of CLI operations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a psqm checkout; it benchmarks the code under
`src/` there.  NAME is a workload from workloads.py, or `all` to run
every workload in turn.  See bench/README.md for the metrics.

With `--trace 0` one client runs passes over the workload's operations
until S seconds have gone by.  Each operation is a fresh `psqm`
process, started when the previous one has ended, under an
address-space limit and a timeout.  Its report must match the golden
SHA-256 in goldens.json.

With `--trace 1` the passes run inside child processes instead (see
inproc.py), alternately with and without wrappers around the public
functions of every psqm module; the traced passes give the per-layer
metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from inproc import layer_names

BENCH_DIR = Path(__file__).resolve().parent
# The shared machine's speed drifts by up to 1.6x within minutes.  So
# speed_probe.py runs right before and right after each operation, and the
# operation's times are divided by the machine speed those runs show: their
# mean wall time over PROBE_REFERENCE_S, the probe's time on the 2-core
# machine the benchmark was tuned on.  A set-up sample is divided by the
# speed of the probe run just before it.  Set-up is sampled SETUP_BEFORE
# times before the window, then after operations at most every
# SETUP_EVERY_S, and topped up to SETUP_RUNS samples at the end.
PROBE_REFERENCE_S = 0.30
SETUP_BEFORE = 3
SETUP_RUNS = 7
SETUP_EVERY_S = 2.0
ADDRESS_SPACE_LIMIT = 4 << 30  # bytes per operation process
RUN_LIMIT_S = 170.0  # every operation is killed by this time after start
METRICS = (
    ("wall_s", "s", "median wall time of one pass, successful passes only, "
                    "at reference speed"),
    ("cpu_s", "s", "median user+system CPU time of one pass's processes, "
                   "at reference speed"),
    ("peak_rss_mb", "MB", "median over passes of the largest child max RSS"),
    ("setup_s", "s", "median time of a fresh interpreter importing psqm and "
                     "building the workload's protocols and tables, at reference speed"),
)


@dataclass
class Spawned:
    """Outcome of one child process."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: str
    timed_out: bool


def _limit_address_space():
    # runs in the child between fork and exec: the limit binds that child only
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def spawn(cmd, env, cwd, timeout) -> Spawned:
    """Run `cmd` to completion; CPU time and peak RSS come from wait4."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=env, cwd=cwd,
            preexec_fn=_limit_address_space,
        )
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def kill():
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["reaped"] = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Spawned(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            out.read(),
            err.read().decode("utf-8", "replace"),
            state["killed"],
        )


def _failure_reason(code, stderr, timed_out) -> str:
    lines = [line for line in stderr.splitlines() if line.strip()]
    last = lines[-1].strip() if lines else "(no stderr)"
    if timed_out:
        return f"killed after timeout: {last}"
    return f"exit {code}: {last}"


def judge(op, goldens, code, sha256, report, stderr, timed_out=False):
    """None when the operation succeeded, else the reason it failed."""
    if timed_out or code != 0:
        return _failure_reason(code, stderr, timed_out)
    if op.golden:
        expected = goldens.get(op.key)
        if expected is None:
            return "no golden report recorded for this operation"
        return None if sha256 == expected else f"report differs from golden {expected[:12]}"
    try:
        checks = json.loads(report)["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable report: {exc}"
    failing = [c.get("name") for c in checks if not c.get("pass")]
    return f"checks failed: {', '.join(map(str, failing))}" if failing else None


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's sources first on
    PYTHONPATH; BLAS thread settings are left as the user has them."""
    path = os.environ.get("PYTHONPATH")
    src = str(root / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Runner:
    """Shared state of one benchmark invocation."""

    def __init__(self, root: Path, seconds: float):
        self.root = root
        self.seconds = seconds
        self.started = time.perf_counter()
        self.env = child_env(root)
        with open(BENCH_DIR / "goldens.json", encoding="utf-8") as fh:
            self.goldens = json.load(fh)["reports"]

    def remaining(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def python(self, *args) -> Spawned:
        return spawn([sys.executable, *args], self.env, self.root, self.remaining())

    def _timed(self, what, *args) -> float:
        result = self.python(*args)
        if result.code != 0:
            reason = _failure_reason(result.code, result.stderr, result.timed_out)
            raise RuntimeError(f"{what} failed: {reason}")
        return result.wall

    def speed(self) -> float:
        """The machine's current speed relative to the reference."""
        return self._timed("speed probe", str(BENCH_DIR / "speed_probe.py")) / PROBE_REFERENCE_S

    def setup_sample(self, ops) -> float:
        """Set-up wall time of a fresh interpreter, scaled by the speed."""
        speed = self.speed()
        argvs = json.dumps([list(op.argv) for op in ops])
        return self._timed("set-up probe", str(BENCH_DIR / "setup_probe.py"), argvs) / speed

    def plain_passes(self, ops):
        """Closed loop of fresh psqm processes: one dict per pass, the
        speed measured around each operation and the set-up samples."""
        passes, speeds = [], []
        setup = [self.setup_sample(ops) for _ in range(SETUP_BEFORE)]
        last_setup = time.perf_counter()
        window_end = last_setup + self.seconds
        while True:
            record = {"wall": 0.0, "cpu": 0.0, "raw_wall": 0.0, "rss": 0.0, "failures": []}
            before = self.speed()
            for op in ops:
                result = self.python("-m", "psqm.cli", *op.argv)
                after = self.speed()
                speed = (before + after) / 2
                speeds.append(speed)
                reason = judge(
                    op, self.goldens, result.code, hashlib.sha256(result.stdout).hexdigest(),
                    result.stdout.decode("utf-8", "replace"), result.stderr,
                    result.timed_out,
                )
                record["rss"] = max(record["rss"], result.rss_mb)
                if reason:
                    record["failures"].append((op.key, reason))
                else:
                    record["wall"] += result.wall / speed
                    record["cpu"] += result.cpu / speed
                    record["raw_wall"] += result.wall
                if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                    setup.append(self.setup_sample(ops))
                    last_setup = time.perf_counter()
                    after = self.speed()
                before = after
            passes.append(record)
            now = time.perf_counter()
            if now >= window_end or now - self.started > RUN_LIMIT_S / 2:
                break
        while len(setup) < SETUP_RUNS:
            setup.append(self.setup_sample(ops))
        return passes, speeds, setup

    def inproc_pass(self, name, seed, traced, ops):
        result = self.python(
            str(BENCH_DIR / "inproc.py"), "--workload", name, "--seed", str(seed),
            "--traced", str(int(traced)),
        )
        if result.code != 0:
            reason = _failure_reason(result.code, result.stderr, result.timed_out)
            return None, [(op.key, f"in-process pass died: {reason}") for op in ops]
        payload = json.loads(result.stdout)
        failures = []
        for op, res in zip(ops, payload["ops"]):
            reason = judge(op, self.goldens, res["code"], res["sha256"], res["report"], res["stderr"])
            if reason:
                failures.append((op.key, reason))
        if traced != payload["traced"] or (payload["wrappers"] > 0) != traced:
            failures.append(("tracer", f"wrappers installed={payload['wrappers']} in a "
                                       f"{'traced' if traced else 'plain'} pass"))
        payload["wall"] = sum(res["wall_s"] for res in payload["ops"])
        return payload, failures


def _median(values):
    return statistics.median(values) if values else None


def _tail(values) -> str:
    """Sample count, the highest percentile with ten samples beyond it,
    and the samples themselves."""
    n = len(values)
    samples = " ".join(f"{v:.3f}" for v in values)
    if n < 11:
        return f"n={n}; no percentile has ten samples beyond it; samples: {samples}"
    rank = n - 10
    return f"n={n}; p{100 * rank / n:.0f}={sorted(values)[rank - 1]:.4f}; samples: {samples}"


def run_plain(runner, ops):
    passes, speeds, setup = runner.plain_passes(ops)
    good = [p for p in passes if not p["failures"]]
    samples = {
        "wall_s": [p["wall"] for p in good],
        "cpu_s": [p["cpu"] for p in good],
        "peak_rss_mb": [p["rss"] for p in passes],
        "setup_s": setup,
    }
    raw_wall = _median([p["raw_wall"] for p in good])
    print(f"  machine speed: median {_median(speeds):.3f} x the reference "
          f"(speed probe {PROBE_REFERENCE_S} s)  [{_tail(speeds)}]")
    if raw_wall is not None:
        print(f"  unscaled pass wall time: median {raw_wall:.4f} s")
    out = {}
    for metric, unit, meaning in METRICS:
        value = _median(samples[metric])
        if value is None:
            print(f"  {metric:<12} n/a (no successful pass)")
            continue
        print(f"  {metric:<12} {value:.4f} {unit}  {meaning}  [{_tail(samples[metric])}]")
        out[metric] = {"value": value, "unit": unit}
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(passes) * len(ops)
    print(f"  {'fail_ratio':<12} {len(failures) / attempted:.4f} ratio  "
          f"({len(failures)} of {attempted} operations failed)")
    return out, attempted, failures


def run_traced(runner, name, seed, ops):
    """Alternate traced and plain in-process passes until the window
    closes, with at least two traced passes and one plain pass."""
    traced, plain, failures = [], [], []
    runs = 0
    window_end = time.perf_counter() + runner.seconds
    for is_traced in itertools.cycle((True, False)):
        now = time.perf_counter()
        if runs >= 3 and (now >= window_end or now - runner.started > RUN_LIMIT_S / 2):
            break
        payload, fails = runner.inproc_pass(name, seed, is_traced, ops)
        runs += 1
        failures.extend(fails)
        if payload is not None:
            (traced if is_traced else plain).append(payload)
    attempted = runs * len(ops)

    metrics = {}
    if traced:
        counts = [{k: v[0] for k, v in t["stats"].items()} for t in traced]
        if any(c != counts[0] for c in counts[1:]):
            failures.append(("tracer", "call counts differ between traced passes"))
        for label in layer_names():
            metrics[f"{label}.calls"] = (counts[0][label], "count")
            metrics[f"{label}.self_s"] = (_median([t["stats"][label][1] for t in traced]), "s")
            metrics[f"{label}.total_s"] = (_median([t["stats"][label][2] for t in traced]), "s")
        calls = counts[0]["protocols.averaged_message"]
        distinct = traced[0]["averaged_distinct"]
        metrics["protocols.averaged_message.useful_ratio"] = (
            distinct / calls if calls else 0.0, "ratio")
        metrics["cli.report_bytes"] = (sum(r["bytes"] for r in traced[0]["ops"]), "B")
        traced_wall = _median([t["wall"] for t in traced])
        metrics["trace.wall_s"] = (traced_wall, "s")
        if plain:
            metrics["trace.overhead_ratio"] = (traced_wall / _median([p["wall"] for p in plain]), "ratio")
        for label in traced[0]["missing"]:
            print(f"  note: {label} is not defined by this version of psqm; its counts are 0")
        top = sorted(layer_names(), key=lambda label: -metrics[f"{label}.self_s"][0])[:8]
        print(f"  traced passes={len(traced)} plain passes={len(plain)} "
              f"traced wall={traced_wall:.4f} s")
        for label in top:
            calls_, self_s = metrics[f"{label}.calls"][0], metrics[f"{label}.self_s"][0]
            print(f"  {label:<36} calls={calls_:<9} self={self_s:.4f} s "
                  f"({100 * self_s / traced_wall:.1f}% of traced wall)")
        for metric in ("protocols.averaged_message.useful_ratio", "cli.report_bytes",
                       "trace.overhead_ratio"):
            if metric in metrics:
                value, unit = metrics[metric]
                print(f"  {metric} = {value:.4g} {unit}")
    print(f"  {'fail_ratio':<12} {len(failures) / attempted:.4f} ratio  "
          f"({len(failures)} of {attempted} operations failed)")
    out = {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}
    return out, attempted, failures


def machine_facts(runner) -> str:
    probe = runner.python("-c", (
        "import json, platform, numpy, psqm\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
        "except Exception as exc:\n"
        "    blas = f'unknown ({exc})'\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'blas': blas, 'psqm': psqm.__file__}))\n"
    ))
    if probe.code != 0:
        raise RuntimeError("cannot import psqm: " + _failure_reason(probe.code, probe.stderr, False))
    facts = json.loads(probe.stdout)
    expected = runner.root / "src" / "psqm"
    if Path(facts["psqm"]).resolve().parent != expected.resolve():
        raise RuntimeError(f"psqm resolves to {facts['psqm']}, not to {expected}")
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return (f"nproc={os.cpu_count()} affinity={affinity} python={facts['python']} "
            f"numpy={facts['numpy']} blas={facts['blas']} num_threads_env={threads or 'unset'}")


def run_workload(runner, name, seed, trace):
    ops = workloads.operations(name, seed, runner.root)
    workload = workloads.WORKLOADS[name]
    print(f"workload {name}: {workload.why}")
    print(f"  seed={seed} (input variant {seed % workloads.VARIANTS}); operations:")
    for op in ops:
        print(f"    psqm {op.key}")
    if trace:
        metrics, attempted, failures = run_traced(runner, name, seed, ops)
    else:
        metrics, attempted, failures = run_plain(runner, ops)
    reasons = {}
    for key, reason in failures:
        reasons[(key, reason)] = reasons.get((key, reason), 0) + 1
    for (key, reason), count in reasons.items():
        print(f"  FAILED x{count}: psqm {key}: {reason}")
    return metrics, attempted, len(failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "psqm" / "cli.py").is_file():
        print(f"error: no psqm sources under {root / 'src'}; run from a psqm checkout",
              file=sys.stderr)
        return 2
    (root / workloads.WORK_DIR).mkdir(exist_ok=True)
    runner = Runner(root, args.seconds)
    load_before = os.getloadavg()
    try:
        print(f"psqm benchmark: seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print(f"machine: {machine_facts(runner)} loadavg_before={load_before}")
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            if len(names) > 1:
                runner.started = time.perf_counter()
            m, a, f = run_workload(runner, name, args.seed, args.trace)
            attempted += a
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"loadavg_after={os.getloadavg()}")
    if "psqm" in sys.modules:
        print("error: psqm was imported by run.py itself", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
