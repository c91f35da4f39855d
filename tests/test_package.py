"""The package surface of `psqm`, resolved lazily, and the modules each
CLI command loads."""

import importlib
import json
import subprocess
import sys

import pytest

import psqm
from psqm import bounds, cli, verify

EXPORTS = {
    "protocols": ("PROMISE_VIOLATION", "dj_protocol", "geq_protocol", "sum2_protocol"),
    "verify": ("check_correctness", "check_messages", "check_weight_sums"),
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
    args = cli.build_parser().parse_args(["bound", "--protocol", "dj", "--n", "2"])
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


@pytest.mark.parametrize(
    "argv",
    [["bound", "--protocol", "dj", "--n", "2"], ["stats", "--n", "1", "--exhaustive"]],
)
def test_lower_bound_commands_load_no_numpy(argv):
    """Nor does `bound` load `statistics` (and with it `fractions` and
    `decimal`): only `stats` takes a median."""
    watched = NUMPY_SIDE + (("statistics",) if argv[0] == "bound" else ())
    assert modules_loaded_by(argv, watched) == []


def test_run_loads_protocols_but_not_verify():
    loaded = modules_loaded_by(["run", "--protocol", "sum2", "--k", "2"])
    assert loaded[0] == "psqm.protocols"
    assert set(loaded) == set(NUMPY_SIDE) - {"psqm.verify"}


def test_verify_loads_protocols_before_numpy_and_verify():
    """protocols.py compiled while numpy is resident raises a `verify`
    process's peak RSS by about 1 MB, so protocols is imported first."""
    loaded = modules_loaded_by(["verify", "--protocol", "sum2", "--k", "2"])
    assert loaded[0] == "psqm.protocols"
    assert set(loaded) == set(NUMPY_SIDE)
