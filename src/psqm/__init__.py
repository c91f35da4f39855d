"""Simulation and machine verification of small private simultaneous-message
protocols, plus brute-force evaluation of the matching combinatorial lower
bounds.

The re-exported names below resolve on first use (PEP 562), so that
`import psqm` loads only the modules a caller touches: the pure-Python
`bounds` needs no numpy, while `protocols` and `verify` load it.  What
both sides share is defined here, so neither loads the other: the
defaults, `collision_beta`, `check_record` and `check_limits`."""

import importlib
import math

__version__ = "0.1.0"
DEFAULT_BUDGET = 1 << 16  # inputs an exhaustive sweep may visit; --budget's default
ENUMERATION_CAP = 1 << 20  # inputs a sweep or `run` may list at once, whatever --budget says
DEFAULT_TOL = 1e-9  # slack of every gated check; --tol's default


def collision_beta(masses_by_class: dict) -> float:
    """Class-wise 1 - sum w^2 / (sum w)^2, minimized over classes: `beta`
    of a table, and the collision bound that `verify` checks."""
    best = None
    for masses in masses_by_class.values():
        total = sum(masses)
        if total <= 0:
            continue
        value = 1.0 - sum(m * m for m in masses) / (total * total)
        best = value if best is None else min(best, value)
    if best is None:
        raise ValueError("no output class has positive mass")
    return best


def check_record(name: str, passed: bool, witnesses, coverage=None) -> dict:
    """One entry of a report's `checks` list, as `verify`'s checks return
    it and every CLI command prints it."""
    return {"name": name, "pass": passed, "witnesses": witnesses, "coverage": coverage}


def check_limits(tol=None, budget=None) -> None:
    """Raise the ValueError that the CLI prints for a tol that is not finite
    and nonnegative or a negative budget (None: unchecked)."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"--tol must be finite and nonnegative, got {tol}")
    if budget is not None and budget < 0:
        raise ValueError(f"--budget must be nonnegative, got {budget}")


_EXPORTS = {
    "PROMISE_VIOLATION": "protocols",
    "dj_protocol": "protocols",
    "geq_protocol": "protocols",
    "sum2_protocol": "protocols",
    "check_sweep": "verify",
    "check_weight_sums": "verify",
    "FunctionTable": "bounds",
    "InputDistribution": "bounds",
    "alpha": "bounds",
    "beta": "bounds",
    "dj_table": "bounds",
    "exact_smp_clique_sizes": "bounds",
    "is_non_degenerate": "bounds",
    "min_entropy": "bounds",
    "psqm_lower_bound": "bounds",
    "random_function_stats": "bounds",
}
# submodules that `import psqm` used to load, still reachable as attributes
_SUBMODULES = frozenset({"bounds", "gf2m", "protocols", "qsim", "verify"})

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
