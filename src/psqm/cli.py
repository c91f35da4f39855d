"""Deterministic command-line harness.

Four subcommands: ``run`` executes a protocol on given or enumerated
inputs, ``verify`` runs the full check suite, ``bound`` evaluates the
combinatorial quantities on a function table, ``stats`` samples random
small tables.  Each command takes only its own options (``_READS``), and
each protocol only its own sizes (``_SIZES``); any other exits 2.  Every
command writes one canonical JSON report (sorted keys, floats rounded to
12 significant digits, a config that echoes ``_PROTO_KEYS``) to --out or
stdout, so re-runs with the same seed are byte-identical; wall-clock
time and a human summary go to stderr.  Exit codes: 0 all checks passed,
1 a check failed, 2 configuration error, 3 any other error (out of
memory, for example), reported as one ``error:`` line on stderr.
OpenBLAS runs one thread per process unless OPENBLAS_NUM_THREADS is
already set.

Run as the program (``main()`` with no argv: the ``psqm`` console script
and ``python -m psqm.cli``), main keeps the cyclic garbage collector off
until the command is done.  No command leaves a reference cycle per unit
of work, so collections would only rescan what the imports and the
parser leave, which lives until exit anyway.  The heap is then frozen and
the collector turned back on, so shutdown's collections skip it too.  A
caller that passes argv (tests, library code) keeps its collector.
"""

import argparse
import gc
import json
import math
import os
import sys
import time

# Each command imports what it runs when it starts: `bound` and `stats` the
# pure-Python bounds module, `run` and `verify` the numpy-backed modules
# (see _build_protocol).  Neither side loads the other's.
from . import DEFAULT_BUDGET, DEFAULT_TOL, ENUMERATION_CAP, __version__, check_limits, check_record


# Each option once; a command takes those its list names and --out, no other.
_OPTIONS = {
    "protocol": {"choices": ["sum2", "geq", "dj"]},
    "k": {"type": int, "help": "number of parties (sum2, geq)"},
    "l": {"type": int, "help": "number of blocks (geq)"},
    "n": {"type": int, "help": "input length (dj) or table size (stats)"},
    "tol": {"type": float, "default": DEFAULT_TOL},
    "seed": {"type": int},
    "budget": {"type": int, "default": DEFAULT_BUDGET},
    "inputs": {"help": "comma-separated per-party bit strings"},
    "table": {"help": "path to a function-table JSON file"},
    "trials": {"type": int},
    "exhaustive": {"action": "store_true"},
    "out": {"help": "write the JSON report here instead of stdout"},
}
_READS = {
    "run": ("execute one protocol", "protocol k l n tol budget inputs"),
    "verify": ("run the full check suite", "protocol k l n tol seed budget"),
    "bound": ("combinatorial quantities of a table", "protocol n table"),
    "stats": ("random small-table statistics", "n seed budget trials exhaustive"),
}
_SIZES = {"sum2": ("k",), "geq": ("k", "l"), "dj": ("n",)}  # the size options each reads
_PROTO_KEYS = ("protocol", "k", "l", "n", "tol", "seed", "budget")  # every config echoes them


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psqm",
        description="simulate, verify and bound small private simultaneous-message protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, names) in _READS.items():
        p = sub.add_parser(command, help=text)
        for name in [*names.split(), "out"]:
            p.add_argument(f"--{name}", **_OPTIONS[name])
    return parser


def _canon(value):
    """JSON-safe copy with floats rounded to 12 significant digits."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}") if math.isfinite(value) else str(value)  # inf, -inf, nan
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(report: dict) -> str:
    return json.dumps(_canon(report), sort_keys=True, separators=(",", ":"))


def _emit(report: dict, out_path, checks, elapsed_ms: float):
    text = canonical_json(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    for check in checks:
        status = "PASS" if check["pass"] else "FAIL"
        if isinstance(check.get("witnesses"), dict) and "skipped" in check["witnesses"]:
            status = "SKIP"
        sys.stderr.write(f"{check['name']}: {status}\n")
    sys.stderr.write(f"elapsed_ms={elapsed_ms:.1f}\n")


def _build_protocol(args):
    # Import protocols before verify or numpy: the order in which the
    # modules are compiled and loaded shows in the process's peak RSS.
    from . import protocols

    if not args.protocol:
        raise ValueError("--protocol is required")
    names = _SIZES[args.protocol]
    for name in "kln":
        if name not in names and getattr(args, name) is not None:
            raise ValueError(f"{args.protocol} takes no --{name}")
    sizes = [getattr(args, name) for name in names]
    if None in sizes:
        raise ValueError(f"{args.protocol} needs " + " and ".join(f"--{s}" for s in names))
    return getattr(protocols, f"{args.protocol}_protocol")(*sizes)


def _config_echo(args) -> dict:  # a command that takes no tol or budget echoes its default
    return {key: getattr(args, key, _OPTIONS[key].get("default")) for key in _PROTO_KEYS}


def _transcript(protocol, randomness, record) -> dict:
    """Report entry of one execution under one randomness value."""
    entry = {
        "randomness": protocol.format_randomness(randomness),
        "outcomes": record.outcome_distribution,
        "outputs": {
            protocol.format_output(o): p for o, p in record.output_distribution.items()
        },
    }
    if record.message_state is not None and record.message_state.size <= 64:
        entry["message_amplitudes"] = [[amp.real, amp.imag] for amp in record.message_state]
    if record.message_distribution is not None:
        entry["message_distribution"] = {
            f"{a},{b}": p for (a, b), p in record.message_distribution.items()
        }
    return entry


def cmd_run(args) -> tuple[dict, list, tuple | None]:
    protocol = _build_protocol(args)
    import numpy as np

    if args.inputs is not None:
        requested = np.array([protocol._codes(args.inputs.split(","))])
        detailed = True
    else:
        if protocol.domain_size() > min(args.budget, ENUMERATION_CAP):
            raise ValueError(
                f"input domain exceeds --budget or the {ENUMERATION_CAP}-input cap;"
                " pass --inputs to pick runs"
            )
        requested = protocol.input_domain()
        detailed = False
    checks = []
    domain = protocol.randomness_domain
    columns = protocol._reference(requested).tolist()
    for start, block in protocol._blocks(requested, 8 * len(protocol.output_domain)):
        masses = protocol._output_masses(block)
        averaged = np.cumsum(masses / len(domain), axis=1)[:, -1]  # summed in domain order
        rows = zip(block.tolist(), columns[start : start + len(block)], masses, averaged.tolist())
        for codes, column, law, row in rows:
            witnesses = {
                "reference": "promise-violation"
                if column < 0
                else protocol.format_output(protocol.output_domain[column]),
                "output_distribution": {
                    protocol.format_output(o): p
                    for o, p in zip(protocol.output_domain, row)
                    if p > 0.0
                },
                "randomness_values": len(domain),
            }
            if detailed:
                runs = zip(domain, protocol._runs(codes, protocol._domain_ints))
                witnesses["per_randomness"] = [_transcript(protocol, *run) for run in runs]
            passed = column < 0 or bool(law[:, column].min() >= 1.0 - args.tol)
            coverage = f"randomness-exhaustive:{len(domain)}"
            name = f"run[{protocol._format_input(codes)}]"
            checks.append(check_record(name, passed, witnesses, coverage))
    config = _config_echo(args) | {"inputs": args.inputs}
    return config, checks, protocol.cost()


def cmd_verify(args) -> tuple[dict, list, tuple | None]:
    protocol = _build_protocol(args)
    from . import verify

    sweep = verify.check_sweep(protocol, tol=args.tol, budget=args.budget, seed=args.seed)
    checks = [
        sweep.correctness,
        sweep.privacy,
        *(verify.check_weight_sums(protocol, j, tol=args.tol) for j in range(protocol.party_count)),
        sweep.purity_bounds,
        sweep.collision_bound,
    ]
    return _config_echo(args), checks, protocol.cost()


def _load_table(args):
    """The FunctionTable that --table or --protocol dj --n names."""
    from . import bounds

    if args.table:
        if args.protocol or args.n is not None:
            raise ValueError("bound takes --table FILE or --protocol dj --n N, not both")
        with open(args.table, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed table file: {exc}") from exc
        return bounds.FunctionTable.from_json(payload)
    if args.protocol == "dj":
        if args.n is None:
            raise ValueError("dj table synthesis needs --n")
        return bounds.dj_table(args.n)
    raise ValueError("bound needs --table FILE or --protocol dj --n N")


def cmd_bound(args) -> tuple[dict, list, tuple | None]:
    from . import bounds

    table = _load_table(args)
    mu = bounds.InputDistribution.uniform_defined(table)
    checks = []

    def step(name, compute, witnesses=lambda value: {"value": value}):
        """Record compute()'s witnesses and return its value, or record the
        ValueError it raised as the reason the quantity was skipped."""
        try:
            value = compute()
        except ValueError as exc:
            checks.append(check_record(name, True, {"value": None, "skipped": str(exc)}))
            return None
        checks.append(check_record(name, True, witnesses(value)))
        return value

    def alpha_witnesses(result):
        witness = result.witness and {
            side: rect._asdict() for side, rect in zip(("first", "second"), result.witness)
        }
        return result._asdict() | {"witness": witness}

    nondeg = step("non_degenerate", lambda: bounds.is_non_degenerate(table, mu))
    alpha_result = step("alpha", lambda: bounds.alpha(table, mu), alpha_witnesses)
    beta_value = step("beta", lambda: bounds.beta(table, mu))
    hmin = step("min_entropy", lambda: bounds.min_entropy(mu))
    step(
        "lower_bound",
        lambda: bounds._lower_bound(nondeg, alpha_result, beta_value, hmin),
        lambda result: {"value": result.value},
    )
    # tuples serialize as lists, so the named fields are the witnesses as they stand
    step("cliques", lambda: bounds.exact_smp_clique_sizes(table), lambda c: c._asdict())

    config = _config_echo(args) | {"table": args.table, "mu": "uniform-defined"}
    return config, checks, None


def cmd_stats(args) -> tuple[dict, list, tuple | None]:
    if args.n is None:
        raise ValueError("stats needs --n")
    for name in ("trials", "seed"):
        if args.exhaustive and getattr(args, name) is not None:
            raise ValueError(f"--exhaustive enumerates every table; drop --{name}")
    if not args.exhaustive:
        if args.trials is None:
            raise ValueError("stats needs --trials (or --exhaustive for n=1)")
        if args.trials > args.budget:
            raise ValueError(f"--trials {args.trials} exceeds --budget {args.budget}")
    from . import bounds

    if args.exhaustive and 1 <= args.n <= bounds.STATS_N_CAP:
        tables = 1 << 4**args.n  # every table on n-bit inputs
        if tables > args.budget:
            raise ValueError(f"--exhaustive's {tables} tables exceed --budget {args.budget}")
    summary = bounds.random_function_stats(
        args.n, args.trials or 0, args.seed, exhaustive=args.exhaustive
    )
    checks = [check_record("random_function_stats", True, summary, summary["coverage"])]
    config = _config_echo(args) | {"trials": args.trials, "exhaustive": args.exhaustive}
    return config, checks, None


_COMMANDS = {
    "run": cmd_run,
    "verify": cmd_verify,
    "bound": cmd_bound,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    """Run the command `argv` names (sys.argv when None) and return its
    exit code; with argv None, main also owns the collector (see above)."""
    if argv is not None:
        return _main(argv)
    gc.disable()
    try:
        return _main(argv)
    finally:
        gc.freeze()
        gc.enable()


def _main(argv) -> int:
    if "numpy" not in sys.modules:
        # OpenBLAS sizes its pool when numpy loads.  psqm's work is serial
        # Python and small numpy calls, so a second thread mostly spins on
        # another core.  A process that already loaded numpy keeps its pool.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        check_limits(getattr(args, "tol", None), getattr(args, "budget", None))
        config, checks, cost = _COMMANDS[args.command](args)
        report = {
            "version": __version__,
            "config": {"command": args.command} | config,
            "checks": checks,
            "cost": {"value": cost[0], "unit": cost[1]} if cost else None,
        }
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        _emit(report, args.out, checks, elapsed_ms)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # exit 1 means a check failed, so never let one escape
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        sys.stderr.write(f"error: {message}\n")
        return 3
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
