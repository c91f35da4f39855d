import collections
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from psqm import bounds, cli, protocols, qsim, verify

from test_mutants import FlippedDecodeSum2


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(stdout: str) -> dict:
    return json.loads(stdout)


def test_canonical_json_rounding_and_order():
    text = cli.canonical_json({"b": 0.1 + 0.2, "a": True, "c": [1e-17, 2]})
    assert text == '{"a":true,"b":0.3,"c":[1e-17,2]}'
    assert cli.canonical_json({"x": float("inf")}) == '{"x":"inf"}'
    assert cli.canonical_json({"x": float("-inf")}) == '{"x":"-inf"}'
    assert cli.canonical_json({"x": float("nan")}) == '{"x":"nan"}'
    with pytest.raises(TypeError):
        cli.canonical_json({"x": object()})


def test_canonical_json_numpy_scalars():
    """Records hold Python scalars: np.float64 is a float, and any other
    numpy scalar is refused."""
    assert cli.canonical_json([np.float64(1 / 3)]) == "[0.333333333333]"
    for value in (np.float32(0.1), np.int64(3), np.bool_(True), object()):
        with pytest.raises(TypeError):
            cli.canonical_json({"x": value})


def test_canonical_json_nested_key_sort():
    text = cli.canonical_json({"z": {"b": 1, "a": 2}, "y": (3, 4)})
    assert text == '{"y":[3,4],"z":{"a":2,"b":1}}'


def test_verify_sum2_report_shape(capsys):
    code, out, err = run_main(["verify", "--protocol", "sum2", "--k", "2"], capsys)
    assert code == 0
    report = parse(out)
    assert report["version"] == cli.__version__
    assert report["config"]["command"] == "verify"
    assert report["config"]["protocol"] == "sum2"
    assert "out" not in report["config"]
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "correctness",
        "privacy",
        "weight_sums_party0",
        "weight_sums_party1",
        "purity_bounds",
        "collision_bound",
    ]
    assert all(c["pass"] for c in report["checks"])
    assert report["cost"] == {"value": 2, "unit": "qubits"}
    assert "elapsed_ms" in err and "elapsed_ms" not in out


@pytest.mark.parametrize(
    "argv, mutant, want",
    [
        (["--protocol", "sum2", "--k", "3"], None, 0),
        (["--protocol", "geq", "--k", "2", "--l", "1"], None, 0),
        (["--protocol", "dj", "--n", "4"], None, 0),
        (["--protocol", "sum2", "--k", "3"], FlippedDecodeSum2, 1),
    ],
    ids=["sum2-3", "geq-2-1", "dj-4", "flipped-decode-sum2-3"],
)
def test_verify_prints_the_library_check_records(argv, mutant, want, monkeypatch, capsys):
    """`psqm verify`'s checks are the library's check records, in report
    order, rounded by canonical_json and nothing else."""
    if mutant is not None:
        monkeypatch.setattr(cli, "_build_protocol", lambda args: mutant(args.k))
    code, out, _ = run_main(["verify", *argv], capsys)
    assert code == want
    proto = cli._build_protocol(cli.build_parser().parse_args(["verify", *argv]))
    sweep = verify.check_sweep(proto)
    records = [
        sweep.correctness,
        sweep.privacy,
        *(verify.check_weight_sums(proto, j) for j in range(proto.party_count)),
        sweep.purity_bounds,
        sweep.collision_bound,
    ]
    assert parse(out)["checks"] == json.loads(cli.canonical_json(records))


def test_verify_dj_skips_but_exits_zero(capsys):
    code, out, _ = run_main(["verify", "--protocol", "dj", "--n", "2"], capsys)
    assert code == 0
    report = parse(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert "skipped" in by_name["weight_sums_party0"]["witnesses"]
    assert "skipped" in by_name["collision_bound"]["witnesses"]
    assert by_name["collision_bound"]["pass"]
    assert report["cost"] == {"value": 2, "unit": "bits"}


def block_rows(argv, item_bytes) -> tuple:
    """The protocol that argv names, and the rows per block that
    `_blocks` gives its hooks when they hold item_bytes(protocol) bytes
    per input and randomness value."""
    proto = cli._build_protocol(cli.build_parser().parse_args(argv))
    size = len(proto.randomness_domain) * item_bytes(proto)
    return proto, max(1, protocols._BLOCK_BYTES // size)


@pytest.mark.parametrize(
    "argv,count",
    [(["--protocol", "sum2", "--k", "3"], 4**3), (["--protocol", "dj", "--n", "4"], 112)],
    ids=["sum2-k3", "dj-n4"],
)
def test_verify_builds_each_averaged_message_once(argv, count, monkeypatch, capsys):
    """Each input's averaged matrix is built once, in at most ceil(N / B)
    block calls of B > 1 rows, and only class representatives could
    become validated `DensityMatrix` objects."""
    blocks, validated = [], []
    for cls in (protocols._GhzMaskProtocol, protocols.DJProtocol):
        def counted(self, codes, _original=cls._averaged_matrix):
            blocks.append([tuple(row) for row in codes.tolist()])
            return _original(self, codes)

        monkeypatch.setattr(cls, "_averaged_matrix", counted)

    def counted_init(self, matrix, _original=qsim.DensityMatrix.__init__):
        validated.append(matrix)
        _original(self, matrix)

    monkeypatch.setattr(qsim.DensityMatrix, "__init__", counted_init)
    code, out, _ = run_main(["verify"] + argv, capsys)
    assert code == 0
    _, rows = block_rows(["verify"] + argv, lambda proto: 16 << proto.cost()[0])
    assert rows > 1 and len(blocks) <= math.ceil(count / rows)
    inputs = [x for block in blocks for x in block]
    assert len(inputs) == len(set(inputs)) == count
    classes = parse(out)["checks"][1]["witnesses"]["classes"]
    assert len(validated) <= len(classes)
    assert parse(out)["checks"][1]["coverage"] == f"exhaustive:{count}"


@pytest.mark.parametrize(
    "argv",
    [
        ["--protocol", "sum2", "--k", "3"],
        ["--protocol", "geq", "--k", "2", "--l", "1"],
        ["--protocol", "dj", "--n", "4"],
    ],
    ids=["sum2-k3", "geq-k2-l1", "dj-n4"],
)
def test_verify_sizes_draws_and_walks_its_sweep_once(argv, monkeypatch, capsys):
    """One `_preflight`, one `_distribution` and one walk per `verify`:
    the rows of the `_output_masses` calls, and those of the
    `_averaged_matrix` calls, are the sweep's rows once each, in order."""
    seen = collections.defaultdict(list)

    def recorded(name, original, rows_of):
        def wrapper(*args):
            result = original(*args)
            seen[name].append(rows_of(args, result))
            return result

        return wrapper

    for name, rows_of in (
        ("_preflight", lambda args, result: result),
        ("_distribution", lambda args, result: result[0].tolist()),  # the sweep's codes
    ):
        monkeypatch.setattr(verify, name, recorded(name, getattr(verify, name), rows_of))
    for cls in (protocols._GhzMaskProtocol, protocols.DJProtocol):
        for hook in ("_output_masses", "_averaged_matrix"):
            wrapped = recorded(hook, getattr(cls, hook), lambda args, result: args[1].tolist())
            monkeypatch.setattr(cls, hook, wrapped)
    code, _, _ = run_main(["verify"] + argv, capsys)
    assert code == 0
    assert len(seen["_preflight"]) == 1
    (sweep,) = seen["_distribution"]
    for hook in ("_output_masses", "_averaged_matrix"):
        assert [row for rows in seen[hook] for row in rows] == sweep, hook


@pytest.mark.parametrize(
    "argv,count",
    [
        (["verify", "--protocol", "sum2", "--k", "3"], 4**3),
        (["verify", "--protocol", "geq", "--k", "2", "--l", "1"], 4**2),
        (["verify", "--protocol", "dj", "--n", "4"], 112),
        (["run", "--protocol", "sum2", "--k", "3"], 4**3),
        (["run", "--protocol", "dj", "--n", "4"], 112),
        (["run", "--protocol", "sum2", "--k", "3", "--inputs", "01,10,11"], 1),
        (["run", "--protocol", "geq", "--k", "2", "--l", "2", "--inputs", "0110,1011"], 1),
        (["run", "--protocol", "dj", "--n", "4", "--inputs", "0110,0101"], 1),
    ],
    ids=[
        "verify-sum2-k3", "verify-geq-k2-l1", "verify-dj-n4", "run-sum2-k3", "run-dj-n4",
        "run-inputs-sum2-k3", "run-inputs-geq-k2-l2", "run-inputs-dj-n4",
    ],
)
def test_output_masses_once_per_input_and_no_runs(argv, count, monkeypatch, capsys):
    """Correctness, and `run`, read every input's output masses over the
    whole randomness domain once, in at most ceil(N / B) block calls, and
    never call `run`: `run --inputs` takes all R transcripts of an input
    from one `_runs` call."""
    blocks, runs, transcripts = [], [], []
    for cls in (protocols._GhzMaskProtocol, protocols.DJProtocol):
        def counted(self, codes, _original=cls._output_masses):
            blocks.append([tuple(row) for row in codes.tolist()])
            return _original(self, codes)

        def counted_runs(self, codes, randomness, _original=cls._runs):
            transcripts.append(len(randomness[0]))  # parsed: one array entry per value
            return _original(self, codes, randomness)

        monkeypatch.setattr(cls, "_output_masses", counted)
        monkeypatch.setattr(cls, "_runs", counted_runs)

    def run(self, inputs, randomness, _original=protocols.ProtocolInstance.run):
        runs.append((tuple(inputs), randomness))
        return _original(self, inputs, randomness)

    monkeypatch.setattr(protocols.ProtocolInstance, "run", run)
    code, _, _ = run_main(argv, capsys)
    assert code == 0
    proto, rows = block_rows(argv, lambda proto: 8 * len(proto.output_domain))
    assert len(blocks) <= math.ceil(count / rows)
    assert count == 1 or rows > 1
    inputs = [x for block in blocks for x in block]
    assert len(inputs) == len(set(inputs)) == count
    assert runs == []
    assert transcripts == ([len(proto.randomness_domain)] if "--inputs" in argv else [])


def test_dj_verify_computes_message_laws_once_per_xor(monkeypatch, capsys):
    """Output masses and averaged messages depend on the inputs only
    through x XOR y: at n = 4 the promise sweep has 7 distinct values
    (0000 and the six strings of weight 2)."""
    calls = []
    laws = protocols.DJProtocol._message_laws

    def counted(self, w, randomness_values):
        calls.append(w)
        return laws(self, w, randomness_values)

    monkeypatch.setattr(protocols.DJProtocol, "_message_laws", counted)
    code, _, _ = run_main(["verify", "--protocol", "dj", "--n", "4"], capsys)
    assert code == 0
    assert len(calls) == len(set(calls)) == 7


# SHA-256 of each report, recorded before dj's private laws took x XOR y in
# place of the input pair; no benchmark golden reaches dj's transcripts
DJ_REPORT_SHA256 = {
    "run --protocol dj --n 2 --inputs 01,10":
        "c722bb36c2f9041d197961e8d022de5305fde30a6a105509c190b923b926784b",
    "run --protocol dj --n 4 --inputs 0110,0101":
        "a2cda6f9f4bf6989d89bbf138f712815df587b1c6416cbe084d0586ad056bd7a",
    "run --protocol dj --n 8 --inputs 00001111,00110011":
        "ce5a2cab846d156825343b940330f7725ab0d135abecfb4b4bebd4b785deed20",
    "verify --protocol dj --n 2":
        "bd5cd1e2441d822cf80580ffd442b2322349641742c39053af0354219ab9a829",
    "verify --protocol dj --n 4":
        "7563d0cc34865750db1479fb2c0c9bb8b38b25f109ee94dee09c005110097655",
}


@pytest.mark.parametrize("command", DJ_REPORT_SHA256)
def test_dj_reports_keep_their_bytes(command, capsys):
    """`run --inputs` prints every transcript's message law; 01,10 is off
    the promise."""
    code, out, _ = run_main(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DJ_REPORT_SHA256[command]


def test_verify_enumerates_nondegeneracy_once(monkeypatch, capsys):
    """Each of the five weight-sum parties and the collision bound ask
    whether the reference is non-degenerate; the enumeration runs for the
    first only.  A sampled sweep reads no full domain, so every full-domain
    `_reference` call is that enumeration: one per verify."""
    full = []
    reference = protocols.Sum2Protocol._reference

    def counted(self, codes):
        full.append(len(codes) == self.domain_size())
        return reference(self, codes)

    monkeypatch.setattr(protocols.Sum2Protocol, "_reference", counted)
    argv = ["verify", "--protocol", "sum2", "--k", "5", "--budget", "1", "--seed", "1"]
    for _ in range(2):
        code, out, _ = run_main(argv, capsys)
        assert code == 0 and '"coverage":"sampled:' in out
    assert full.count(True) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--protocol", "dj", "--n", "4"],
        ["verify", "--protocol", "geq", "--k", "3", "--l", "1"],
        ["run", "--protocol", "dj", "--n", "4", "--inputs", "0110,0101"],
    ],
)
def test_no_protocol_outlives_main(argv, monkeypatch, capsys):
    """Nothing caches a protocol past the `main()` call that built it."""
    refs = []
    build = cli._build_protocol

    def tracked(args):
        protocol = build(args)
        refs.append(weakref.ref(protocol))
        return protocol

    monkeypatch.setattr(cli, "_build_protocol", tracked)
    code, _, _ = run_main(argv, capsys)
    assert code == 0
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


def test_run_explicit_inputs(capsys):
    code, out, _ = run_main(
        ["run", "--protocol", "sum2", "--k", "2", "--inputs", "01,10"], capsys
    )
    assert code == 0
    report = parse(out)
    (record,) = report["checks"]
    assert record["name"] == "run[01,10]"
    assert record["pass"]
    w = record["witnesses"]
    assert w["reference"] == "11"
    assert abs(w["output_distribution"]["11"] - 1.0) < 1e-9
    assert len(w["per_randomness"]) == 2
    assert "message_amplitudes" in w["per_randomness"][0]


def test_run_promise_violation_reported_not_failed(capsys):
    code, out, _ = run_main(
        ["run", "--protocol", "dj", "--n", "4", "--inputs", "0000,0001"], capsys
    )
    assert code == 0
    (record,) = parse(out)["checks"]
    assert record["pass"]
    assert record["witnesses"]["reference"] == "promise-violation"


def test_run_enumerates_domain(capsys):
    code, out, _ = run_main(["run", "--protocol", "geq", "--k", "2", "--l", "1"], capsys)
    assert code == 0
    report = parse(out)
    assert len(report["checks"]) == 16
    assert all(c["pass"] for c in report["checks"])


def test_run_budget_guard(capsys):
    code, _, err = run_main(
        ["run", "--protocol", "dj", "--n", "8", "--budget", "100"], capsys
    )
    assert code == 2
    assert "--inputs" in err


def test_exit_one_on_check_failure(monkeypatch, capsys):
    """Party 0 flipping its X makes the referee's first-bit parity wrong."""
    frames = protocols.Sum2Protocol._frames

    def flipped(self, inputs, randomness_values):
        xmasks, zmasks = frames(self, inputs, randomness_values)
        return xmasks ^ (1 << (self._qubits - 1)), zmasks

    monkeypatch.setattr(protocols.Sum2Protocol, "_frames", flipped)
    code, out, _ = run_main(
        ["run", "--protocol", "sum2", "--k", "2", "--inputs", "01,10"], capsys
    )
    assert code == 1
    assert not parse(out)["checks"][0]["pass"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--protocol", "sum2"],
        ["verify", "--protocol", "geq", "--k", "2"],
        ["verify", "--protocol", "dj"],
        ["verify"],
        ["run", "--protocol", "sum2", "--k", "2", "--inputs", "0,00"],
        ["bound"],
        ["stats"],
        ["stats", "--n", "2", "--trials", "5"],
        ["stats", "--n", "1", "--trials", "5"],
        ["verify", "--protocol", "sum2", "--k", "2", "--tol", "nan"],
        ["verify", "--protocol", "sum2", "--k", "2", "--tol", "-1"],
        ["verify", "--protocol", "sum2", "--k", "2", "--tol", "inf"],
        ["stats", "--n", "1", "--exhaustive", "--trials", "7"],  # --exhaustive ignores --trials
    ],
)
def test_config_errors_exit_two(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--protocol", "sum2", "--k", "3", "--budget", "-5"],
        ["verify", "--protocol", "sum2", "--k", "3", "--budget", "-5", "--seed", "1"],
        ["stats", "--n", "1", "--exhaustive", "--budget", "-5"],
    ],
    ids=["run", "verify", "stats"],
)
def test_negative_budget_exits_two(argv, capsys):
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: --budget must be nonnegative, got -5\n"


TAKES = {
    "run": ["protocol", "k", "l", "n", "tol", "budget", "inputs"],
    "verify": ["protocol", "k", "l", "n", "tol", "seed", "budget"],
    "bound": ["protocol", "n", "table"],
    "stats": ["n", "seed", "budget", "trials", "exhaustive"],
}
VALID = {
    "run": ["run", "--protocol", "sum2", "--k", "2"],
    "verify": ["verify", "--protocol", "sum2", "--k", "2"],
    "bound": ["bound", "--protocol", "dj", "--n", "2"],
    "stats": ["stats", "--n", "1", "--exhaustive"],
}
VALUES = {"protocol": "dj", "tol": "0.5", "inputs": "01,10", "table": "t.json"}


def option_argv(name) -> list[str]:
    return [f"--{name}"] if name == "exhaustive" else [f"--{name}", VALUES.get(name, "3")]


@pytest.mark.parametrize("command", sorted(TAKES))
def test_each_command_takes_only_the_options_it_reads(command, capsys):
    """Every option that another command reads is refused by argparse, as
    an unknown option is: exit 2, nothing on stdout.  The command's own
    options, and --out, still parse."""
    parser = cli.build_parser()
    for name in [*TAKES[command], "out"]:
        parser.parse_args(VALID[command] + option_argv(name))
    others = {name for names in TAKES.values() for name in names} - set(TAKES[command])
    for name in sorted(others):
        code, out, err = run_main(VALID[command] + option_argv(name), capsys)
        assert (code, out) == (2, ""), name
        assert f"unrecognized arguments: --{name}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--protocol", "sum2", "--k", "3", "--l", "2"], "sum2 takes no --l"),
        (["run", "--protocol", "sum2", "--k", "3", "--n", "4"], "sum2 takes no --n"),
        (["verify", "--protocol", "geq", "--k", "2", "--l", "1", "--n", "4"], "geq takes no --n"),
        (["verify", "--protocol", "dj", "--n", "4", "--k", "9"], "dj takes no --k"),
        (["run", "--protocol", "dj", "--n", "4", "--l", "1"], "dj takes no --l"),
        (
            ["bound", "--table", "t.json", "--protocol", "dj", "--n", "4"],
            "bound takes --table FILE or --protocol dj --n N, not both",
        ),
        (
            ["bound", "--table", "t.json", "--n", "4"],
            "bound takes --table FILE or --protocol dj --n N, not both",
        ),
        (
            ["stats", "--n", "1", "--exhaustive", "--seed", "4"],
            "--exhaustive enumerates every table; drop --seed",
        ),
    ],
    ids=[
        "sum2-l", "sum2-n", "geq-n", "dj-k", "dj-l", "bound-table-dj", "bound-table-n",
        "stats-exhaustive-seed",
    ],
)
def test_options_the_protocol_or_mode_does_not_read_exit_two(argv, message, capsys):
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_verify_refuses_what_cannot_finish_before_any_sweep(monkeypatch, capsys):
    """geq (2,5) would build a 511.5 MiB state stack for each of 56,333
    sampled inputs; it exits 2 at once, naming the size."""

    def no_sweep(*args):
        raise AssertionError("the sweep began")

    monkeypatch.setattr(verify, "_sweep", no_sweep)
    argv = ["verify", "--protocol", "geq", "--k", "2", "--l", "5", "--seed", "1"]
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: one input's message stack would hold 511.5 MiB, over the 128 MiB limit\n"


def test_argparse_errors_exit_two(capsys):
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "--protocol", "what"]) == 2
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()


def test_bound_from_table_file(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(
        json.dumps(
            {
                "rows": ["0", "1"],
                "cols": ["0", "1"],
                "entries": [[1, 0], [0, 1]],
            }
        )
    )
    code, out, _ = run_main(["bound", "--table", str(path)], capsys)
    assert code == 0
    by_name = {c["name"]: c for c in parse(out)["checks"]}
    assert by_name["non_degenerate"]["witnesses"]["value"] is True
    assert by_name["alpha"]["witnesses"]["value"] == 1.0
    assert by_name["beta"]["witnesses"]["value"] == 0.5
    assert by_name["min_entropy"]["witnesses"]["value"] == 2.0
    assert by_name["lower_bound"]["witnesses"]["value"] == 0.0
    assert by_name["cliques"]["witnesses"]["row_clique_size"] == 2


def test_bound_malformed_table_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_main(["bound", "--table", str(path)], capsys)
    assert code == 2 and "malformed" in err
    path.write_text(json.dumps({"rows": ["a"]}))
    code, _, err = run_main(["bound", "--table", str(path)], capsys)
    assert code == 2 and "malformed" in err
    code, _, err = run_main(["bound", "--table", str(tmp_path / "nope.json")], capsys)
    assert code == 2


def test_bound_dj8_clique_guard_is_reported(capsys):
    code, out, err = run_main(["bound", "--protocol", "dj", "--n", "8"], capsys)
    assert code == 0
    checks = parse(out)["checks"]
    assert [c["name"] for c in checks] == [
        "non_degenerate",
        "alpha",
        "beta",
        "min_entropy",
        "lower_bound",
        "cliques",
    ]
    skipped = {
        "non_degenerate": "undefined entry inside the support at (00000000, 00000001)",
        "alpha": "rectangle enumeration capped at 6x6 tables",
        "lower_bound": "table is degenerate or partial under mu",
        "cliques": "clique search capped at 20 vertices",
    }
    for check in checks:
        if check["name"] in skipped:
            assert check["witnesses"] == {"value": None, "skipped": skipped[check["name"]]}
            assert f"{check['name']}: SKIP" in err
        else:
            assert check["witnesses"]["value"] > 0


@pytest.mark.parametrize(
    "entries,reason",
    [
        ([[int(i == j) for j in range(7)] for i in range(7)], "alpha enumeration refused"),
        ([[0, 1], [1, 1]], "beta is zero"),
    ],
    ids=["identity-7x7", "beta-zero"],
)
def test_bound_lower_bound_skip_reasons(entries, reason, tmp_path, capsys):
    labels = [str(i) for i in range(len(entries))]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"rows": labels, "cols": labels, "entries": entries}))
    code, out, err = run_main(["bound", "--table", str(path)], capsys)
    assert code == 0
    by_name = {c["name"]: c["witnesses"] for c in parse(out)["checks"]}
    assert by_name["non_degenerate"] == {"value": True}
    assert by_name["lower_bound"] == {"value": None, "skipped": reason}
    assert "lower_bound: SKIP" in err
    if reason == "beta is zero":
        assert by_name["beta"] == {"value": 0.0}
    else:
        assert by_name["alpha"]["skipped"] == "rectangle enumeration capped at 6x6 tables"


@pytest.mark.parametrize("command", ["verify", "run"])
def test_enumeration_past_the_cap_is_refused_up_front(command, monkeypatch, capsys):
    # dj n=16 has 843,513,856 promise inputs; the budget alone would let
    # both commands list them all
    def enumerate_inputs(self):
        raise AssertionError("the input domain was enumerated")

    monkeypatch.setattr(protocols.DJProtocol, "input_domain", enumerate_inputs)
    argv = [command, "--protocol", "dj", "--n", "16", "--budget", str(10**12)]
    code, out, err = run_main(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"{1 << 20}-input cap" in err


def test_out_file_and_stderr_summary(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run_main(
        ["verify", "--protocol", "sum2", "--k", "2", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert "correctness: PASS" in err
    report = json.loads(target.read_text())
    assert report["config"]["command"] == "verify"


def test_reports_are_byte_identical_across_processes(tmp_path):
    cmd = [
        sys.executable,
        "-m",
        "psqm.cli",
        "verify",
        "--protocol",
        "geq",
        "--k",
        "2",
        "--l",
        "1",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--protocol", "sum2", "--k", "4"],
        ["--protocol", "geq", "--k", "2", "--l", "2"],
        ["--protocol", "dj", "--n", "4"],
    ],
    ids=["sum2-4", "geq-2-2", "dj-4"],
)
def test_reports_do_not_depend_on_the_blas_thread_count(argv):
    cmd = [sys.executable, "-m", "psqm.cli", "verify", *argv]
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(cmd, capture_output=True, env=env)
        assert done.returncode == 0, done.stderr
        reports.append(done.stdout)
    assert reports[0] == reports[1]


WATCHED = ["psqm.protocols", "numpy", "psqm.verify", "psqm.bounds"]


def collections_as_the_program(argv) -> dict:
    """How the collector ran while a fresh interpreter ran `cli.main()`
    as the program, with sys.argv set to `argv`: the generation of each
    collection begun inside main, the modules of WATCHED in the order
    their imports began, and the collector's state after main returned."""
    script = (
        "import contextlib, gc, io, json, sys\n"
        "from psqm import cli\n"
        f"watched = {WATCHED!r}\n"
        "began, collections, inside = [], [], False\n"
        "class Recorder:\n"
        "    def find_spec(name, path=None, target=None):\n"
        "        if name in watched:\n"
        "            began.append(name)\n"
        "sys.meta_path.insert(0, Recorder)\n"
        "def record(phase, info):\n"
        "    if inside and phase == 'start':\n"
        "        collections.append(info['generation'])\n"
        "gc.callbacks.append(record)\n"
        f"sys.argv = ['psqm', *{list(argv)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    inside = True\n"
        "    code = cli.main()\n"
        "    inside = False\n"
        "print(json.dumps({'code': code, 'collections': collections, 'began': began,\n"
        "                  'freeze_count': gc.get_freeze_count(), 'enabled': gc.isenabled()}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (
            ["verify", "--protocol", "sum2", "--k", "5"],
            0,
            ["psqm.protocols", "numpy", "psqm.verify"],
        ),
        (["run", "--protocol", "sum2", "--k", "4"], 0, ["psqm.protocols", "numpy"]),
        (["bound", "--protocol", "dj", "--n", "8"], 0, ["psqm.bounds"]),
        (["stats", "--n", "2", "--trials", "300", "--seed", "1"], 0, ["psqm.bounds"]),
        (["verify", "--protocol", "sum2"], 2, ["psqm.protocols", "numpy"]),
    ],
    ids=["verify", "run", "bound", "stats", "exit-2"],
)
def test_the_program_collects_nothing_and_freezes_once_done(argv, code, modules):
    """Run as the program, main collects nothing, neither while numpy
    loads (some 30 collections with the collector on) nor while the
    command allocates (each of these commands sets off collections with
    it on); once the command is done, with or without a report, the heap
    is frozen and the collector is back on, so shutdown skips it.  Each
    command loads its modules in its own import order."""
    seen = collections_as_the_program(argv)
    assert seen["code"] == code
    assert seen["began"] == modules
    assert seen["collections"] == []
    assert seen["freeze_count"] > 0
    assert seen["enabled"]


def garbage_left_by(argv) -> int:
    """Objects that gc.collect() finds once a fresh interpreter, its
    collector off from the start, has imported psqm.cli and run `argv`."""
    script = (
        "import contextlib, gc, io\n"
        "gc.disable()\n"
        "from psqm import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
        "print(gc.collect())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return int(done.stdout)


@pytest.mark.parametrize(
    "small, large",
    [
        (
            ["stats", "--n", "2", "--trials", "2", "--seed", "1"],
            ["stats", "--n", "2", "--trials", "300", "--seed", "1"],
        ),
        (
            ["verify", "--protocol", "sum2", "--k", "2"],
            ["verify", "--protocol", "sum2", "--k", "4"],
        ),
        (["run", "--protocol", "sum2", "--k", "2"], ["run", "--protocol", "sum2", "--k", "4"]),
        (["bound", "--protocol", "dj", "--n", "2"], ["bound", "--protocol", "dj", "--n", "4"]),
    ],
    ids=["stats", "verify", "run", "bound"],
)
def test_the_garbage_a_command_leaves_does_not_grow_with_its_work(small, large):
    """The program runs with its collector off, so a reference cycle
    left per input or trial would pile up until exit.  Only the parser
    and the imports leave cyclic garbage, the same for any amount of
    work."""
    assert garbage_left_by(small) == garbage_left_by(large)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--protocol", "sum2", "--k", "2"], 0),
        (["bound", "--protocol", "dj", "--n", "2"], 0),
        (["verify", "--protocol", "sum2"], 2),
        (["stats", "--n", "2", "--trials", "2", "--seed", "1"], 3),
    ],
    ids=["verify", "bound", "exit-2", "exit-3"],
)
def test_a_caller_passing_argv_keeps_its_collector(argv, code, enabled, monkeypatch, capsys):
    """Tests, the in-process benchmark and library callers own their
    collector: main neither enables, disables nor freezes it."""

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "stats", broken)
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        returned = cli.main(argv)
        state = gc.isenabled(), gc.get_freeze_count()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()
    assert returned == code
    assert state == (enabled, frozen)


def test_stats_command_round_trip(capsys):
    code, out, _ = run_main(
        ["stats", "--n", "2", "--trials", "25", "--seed", "13"], capsys
    )
    assert code == 0
    report = parse(out)
    summary = report["checks"][0]["witnesses"]
    assert summary["tables"] == 25
    assert report["cost"] is None
    assert report["config"]["trials"] == 25


def test_stats_trials_over_budget_exit_two_before_drawing(monkeypatch, capsys):
    argv = ["stats", "--n", "2", "--trials", "4", "--seed", "1", "--budget", "4"]
    code, out, _ = run_main(argv, capsys)
    assert code == 0 and parse(out)["checks"][0]["witnesses"]["tables"] == 4

    def drawing(*args, **kwargs):
        raise AssertionError("a table was drawn")  # main reports it as exit 3

    monkeypatch.setattr(bounds, "random_function_stats", drawing)
    for argv in (
        ["stats", "--n", "2", "--trials", "100000000", "--seed", "1"],
        ["stats", "--n", "2", "--trials", "5", "--seed", "1", "--budget", "4"],
    ):
        code, out, err = run_main(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --trials") and "exceeds --budget" in err


def test_stats_exhaustive_over_budget_exits_two_before_building(monkeypatch, capsys):
    """`--exhaustive` enumerates the 2^(4^n) = 16 tables of n = 1, so a
    --budget below 16 refuses it, as a --trials over --budget is refused."""
    argv = ["stats", "--n", "1", "--exhaustive", "--budget"]
    code, out, _ = run_main([*argv, "16"], capsys)
    assert code == 0 and parse(out)["checks"][0]["coverage"] == "exhaustive:16"

    def building(*args, **kwargs):
        raise AssertionError("a table was built")  # main reports it as exit 3

    monkeypatch.setattr(bounds, "random_function_stats", building)
    for budget in ("15", "3", "0"):
        code, out, err = run_main([*argv, budget], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --exhaustive's 16 tables exceed --budget {budget}\n"


def test_float_rounding_is_idempotent():
    # 12 significant digits survive a json round trip unchanged
    for value in (1 / 3, 2 ** -20, 0.1 + 0.2, 1e-300, math.pi):
        once = cli._canon(value)
        assert cli._canon(once) == once
        assert json.loads(json.dumps(once)) == once


@pytest.mark.parametrize(
    "exc",
    [MemoryError("Unable to allocate 64.0 GiB\nfor an array"), RuntimeError("boom")],
    ids=["memory", "runtime"],
)
def test_unexpected_error_exits_three(exc, monkeypatch, capsys):
    def broken(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    code, out, err = run_main(["verify", "--protocol", "sum2", "--k", "2"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {type(exc).__name__}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_verify_dj16_sampled_bounds_the_informational_gram(capsys):
    code, out, _ = run_main(
        ["verify", "--protocol", "dj", "--n", "16", "--seed", "1"], capsys
    )
    assert code == 0
    by_name = {c["name"]: c for c in parse(out)["checks"]}
    for party in (0, 1):
        witnesses = by_name[f"weight_sums_party{party}"]["witnesses"]
        assert "skipped" in witnesses
        assert witnesses["gram_inputs"] == 256
