"""Simulation and machine verification of small private simultaneous-message
protocols, plus brute-force evaluation of the matching combinatorial lower
bounds."""

__version__ = "0.1.0"

from .protocols import (  # noqa: F401
    PROMISE_VIOLATION,
    dj_protocol,
    geq_protocol,
    sum2_protocol,
)
from .verify import (  # noqa: F401
    check_correctness,
    check_messages,
    check_weight_sums,
)
from .bounds import (  # noqa: F401
    FunctionTable,
    InputDistribution,
    alpha,
    beta,
    dj_table,
    exact_smp_clique_sizes,
    is_non_degenerate,
    min_entropy,
    psqm_lower_bound,
    random_function_stats,
)
