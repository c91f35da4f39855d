"""The package surface of `psqm`, resolved lazily, and the modules each
CLI command loads."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import psqm
from psqm import bounds, cli, verify

EXPORTS = {
    "protocols": ("PROMISE_VIOLATION", "dj_protocol", "geq_protocol", "sum2_protocol"),
    "verify": ("check_sweep", "check_weight_sums"),
    "bounds": (
        "FunctionTable",
        "InputDistribution",
        "alpha",
        "beta",
        "dj_table",
        "exact_smp_clique_sizes",
        "is_non_degenerate",
        "min_entropy",
        "psqm_lower_bound",
        "random_function_stats",
    ),
}
NAMES = [name for names in EXPORTS.values() for name in names]


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in EXPORTS.items() for name in names],
)
def test_every_export_is_its_submodule_object(module, name):
    assert getattr(psqm, name) is getattr(importlib.import_module(f"psqm.{module}"), name)


def test_all_and_star_import_are_exactly_the_exports():
    assert sorted(psqm.__all__) == sorted(["__version__", *NAMES])
    namespace = {}
    exec("from psqm import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(psqm.__all__)
    assert namespace["__version__"] == psqm.__version__
    assert namespace["alpha"] is bounds.alpha


def test_dir_lists_exports_and_unknown_names_raise():
    listed = dir(psqm)
    assert set(psqm.__all__) <= set(listed)
    assert {"bounds", "protocols", "verify", "qsim", "gf2m"} <= set(listed)
    assert psqm.qsim is importlib.import_module("psqm.qsim")
    with pytest.raises(AttributeError, match="no_such_name"):
        psqm.no_such_name
    assert not hasattr(psqm, "cmd_run")


def test_default_budget_has_one_source():
    assert verify.DEFAULT_BUDGET is psqm.DEFAULT_BUDGET == 1 << 16
    assert verify.DEFAULT_TOL is psqm.DEFAULT_TOL == 1e-9
    args = cli.build_parser().parse_args(["verify", "--protocol", "sum2", "--k", "2"])
    assert args.budget == psqm.DEFAULT_BUDGET
    assert args.tol is psqm.DEFAULT_TOL


NUMPY_SIDE = ("numpy", "psqm.protocols", "psqm.verify", "psqm.qsim", "psqm.gf2m")


def modules_loaded_by(argv, watched=NUMPY_SIDE) -> list[str]:
    """The modules of `watched` that a fresh interpreter loads while it
    runs `cli.main(argv)`, in the order their imports began; modules the
    interpreter already had at start-up do not count.  The test session
    itself has them all loaded."""
    script = (
        "import sys\n"
        "at_start = sorted(sys.modules)\n"
        "import contextlib, io, json\n"
        "from psqm import cli\n"
        "began = []\n"
        "class Recorder:\n"
        "    def find_spec(name, path=None, target=None):\n"
        "        began.append(name)\n"
        "sys.meta_path.insert(0, Recorder)\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "assert code == 0, code\n"
        "print(json.dumps([began, sorted(sys.modules), at_start]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    began, loaded, at_start = json.loads(done.stdout)
    began = [name for name in began if name in watched]
    assert sorted(began) == sorted(set(loaded) & set(watched) - set(at_start))
    return began


# what `FunctionTable` and the median would cost as `dataclass` and
# `statistics.median`: dataclasses loads inspect, statistics loads
# fractions and decimal
STDLIB_EXTRAS = ("dataclasses", "inspect", "statistics", "fractions", "decimal")


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--protocol", "dj", "--n", "2"],
        ["stats", "--n", "1", "--exhaustive"],
        ["stats", "--n", "2", "--trials", "3", "--seed", "1"],
    ],
)
def test_lower_bound_commands_load_no_numpy(argv):
    """Nor do `bound` and `stats` load the standard-library modules
    behind a dataclass or `statistics.median`: `FunctionTable` is a plain
    class and the median is read off the sorted values."""
    assert modules_loaded_by(argv, NUMPY_SIDE + STDLIB_EXTRAS) == []


def test_run_loads_protocols_but_not_verify():
    loaded = modules_loaded_by(
        ["run", "--protocol", "sum2", "--k", "2"], NUMPY_SIDE + ("psqm.bounds",)
    )
    assert loaded[0] == "psqm.protocols"
    assert set(loaded) == set(NUMPY_SIDE) - {"psqm.verify"}


def test_verify_loads_protocols_before_numpy_and_verify():
    """protocols.py compiled while numpy is resident raises a `verify`
    process's peak RSS by about 1 MB, so protocols is imported first.
    `verify` takes `collision_beta` from the package, not from bounds."""
    loaded = modules_loaded_by(
        ["verify", "--protocol", "sum2", "--k", "2"], NUMPY_SIDE + ("psqm.bounds",)
    )
    assert loaded[0] == "psqm.protocols"
    assert set(loaded) == set(NUMPY_SIDE)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--protocol", "geq", "--k", "2", "--l", "1", "--inputs", "01,11"],
        ["verify", "--protocol", "geq", "--k", "2", "--l", "1"],
        ["verify", "--protocol", "dj", "--n", "2"],
    ],
)
def test_run_and_verify_load_no_dataclasses(argv):
    """Transcripts and GF(2^m) moduli are plain classes or named tuples,
    and check records dicts: building dataclasses cost every `run` and
    `verify` process milliseconds."""
    assert modules_loaded_by(argv, ("dataclasses",)) == []


def test_collision_beta_has_one_source():
    assert bounds.collision_beta is verify.collision_beta is psqm.collision_beta


def test_check_record_has_one_source():
    assert cli.check_record is verify.check_record is psqm.check_record


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_library_example_runs(capsys):
    """The first Python block under README's "## Library" runs, and each
    line it prints equals the `# ...` comment on the line that prints it."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    printing = [line for line in code.splitlines() if line.startswith("print(")]
    assert printing and all("  # " in line for line in printing)
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == [
        line.rpartition("  # ")[2] for line in printing
    ]


VERIFY = ["verify", "--protocol", "sum2", "--k", "2"]


def blas_pin_after(argv, preset=None) -> tuple:
    """OPENBLAS_NUM_THREADS and the thread count (None where
    /proc/self/task does not exist) of a fresh interpreter after it runs
    `cli.main(argv)`, with the variable unset or set to `preset` before."""
    script = (
        "import contextlib, io, json, os\n"
        "from psqm import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "assert code == 0, code\n"
        "task = '/proc/self/task'\n"
        "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return tuple(json.loads(done.stdout))


def test_cli_runs_one_blas_thread_by_default():
    value, threads = blas_pin_after(VERIFY)
    assert value == "1"
    if not sys.platform.startswith("linux"):
        pytest.skip("thread count read from /proc/self/task")
    assert threads == 1


def test_cli_keeps_a_preset_blas_thread_count():
    assert blas_pin_after(VERIFY, preset="2")[0] == "2"


def test_cli_leaves_the_environment_alone_once_numpy_is_loaded(monkeypatch):
    """A library caller or test session that loaded numpy first keeps
    its BLAS pool: main pins nothing it could no longer apply."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert "numpy" in sys.modules
    before = dict(os.environ)
    assert cli.main(VERIFY) == 0
    assert dict(os.environ) == before
