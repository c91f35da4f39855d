"""Machine checks for correctness, privacy and information bounds.

Every check enumerates the protocol's randomness exhaustively.  Input
sweeps are exhaustive while the domain fits the budget (default 2^16);
larger domains fall back to a seeded stratified sample with at least 64
inputs per output class, and reports carry a coverage label so partial
sweeps are never silent.  A sample that draws the whole domain is the
exhaustive sweep, in domain order and labelled as such.  Each check
returns its record (`psqm.check_record`): the entry that `psqm verify`
prints in its report's `checks`, before the floats are rounded.

`check_sweep` derives correctness, privacy, the purity bounds and the
collision bound from one sweep and one walk over it.  It first refuses a
protocol whose per-input message stack is too big, then takes its inputs
from `_distribution`, which refuses an empty sweep and reads their
reference values in one vectorised `_reference` call.  The walk reads
output masses a block of inputs per `_output_masses` call, and splits
each block into the smaller blocks whose randomness-averaged messages
rho_x one `_averaged_matrix` call builds, so each rho_x is built once.
The purity, the distance and the rho_bar sum stay per input, in sweep
order, so reports keep their float noise bit for bit.  The walk reads the
raw matrices with numpy (purity <rho, rho>, distance a Frobenius norm):
a convex combination of states is a density matrix by construction, and
one walk builds all of one shape, so none is validated or shape-checked.
Validation stays at the API edge: the public `averaged_message` is the
one route to a validated `qsim.DensityMatrix`, a privacy class's
witnesses name its representative input and keep no matrix, and the
purity bounds gate the average.  Inputs are checked at the edge too:
`psqm.check_limits` refuses the tol or budget that the CLI refuses, and a
sweep holds rows of integer codes from the protocol's own input domain
or sampler, so only the bit strings that key a supplied mu are parsed,
once each, and report fields (`worst_input`, `representative_input`)
are formatted back to bit strings.

The per-party weight sums build no states: a sum2 or geq party state is,
up to sign, one phi-basis vector, so the sums count equal local outcomes,
and dj's party states overlap in closed form (`weight_sum_maxima`).

Two checks mirror inequalities whose hypotheses (a total, non-degenerate
reference function) do not hold for every protocol: the per-party weight
sums and the collision bound on averaged purity.  The hypothesis is
decided exactly, with no size cap: a total reference is non-degenerate
when, for every party, the rows of its own-input x other-inputs table are
pairwise distinct, so one pass over the input domain decides it, once
per protocol (`_kary_nondegenerate`).  When the hypothesis fails (dj's
promise reference is partial) the check is vacuous and is reported as
skipped, with informational witnesses still attached; no check is
skipped for size.
"""

import itertools
import math
import random
from typing import NamedTuple

import numpy as np

from . import DEFAULT_BUDGET, DEFAULT_TOL, ENUMERATION_CAP
from . import check_limits, check_record, collision_beta
from .protocols import ProtocolInstance

PURITY_TOL = 1e-10
_GRAM_INPUT_CAP = 256  # inputs in the informational witness of a skipped weight-sum check
_SAMPLES_PER_CLASS = 64
_VACUOUS = "reference is partial or degenerate; bound is vacuous"
_STACK_BYTES_CAP = 128 << 20  # geq (2,5) needs 511.5 MiB, every other configuration <= 24 MiB


def _preflight(protocol: ProtocolInstance) -> int:
    """Bytes of the per-input stack that the checks build: R message states
    of 2^cost complex amplitudes (dj: R message laws of 2^cost entries).
    Above _STACK_BYTES_CAP a ValueError refuses the run before any sweep."""
    size = len(protocol.randomness_domain) << protocol.cost()[0] << 4
    if size > _STACK_BYTES_CAP:
        raise ValueError(
            f"one input's message stack would hold {size / (1 << 20):.1f} MiB,"
            f" over the {_STACK_BYTES_CAP >> 20} MiB limit"
        )
    return size


def _sweep(protocol: ProtocolInstance, budget: int, seed):
    """(N, party_count) codes of the inputs to examine, and a coverage label."""
    size = protocol.domain_size()
    if size <= budget:
        if size > ENUMERATION_CAP:
            raise ValueError(
                f"an exhaustive sweep of {size} inputs exceeds the {ENUMERATION_CAP}-input cap;"
                " lower --budget to sample"
            )
        return protocol.input_domain(), f"exhaustive:{size}"
    if seed is None:
        raise ValueError("seed required once the input sweep is sampled")
    rng = random.Random(seed)
    chosen, drawn = [], set()  # the inputs kept; every input drawn so far
    short = [_SAMPLES_PER_CLASS] * len(protocol.output_domain)  # per class, inputs still wanted
    attempts, cap = 0, 200_000
    # a small domain may hold fewer than _SAMPLES_PER_CLASS inputs of a class
    while attempts < cap and len(chosen) < size and any(short):
        # No draw but a batch's last can end the sweep, so it draws what one
        # draw at a time would, with one `_reference` call for its new inputs.
        batch = min(cap - attempts, sum(short), size - len(chosen))
        draws = [protocol.sample_input(rng) for _ in range(batch)]
        attempts += batch
        new = list(dict.fromkeys(x for x in draws if x not in drawn))
        drawn.update(new)
        refs = dict(zip(new, protocol._reference(np.array(new)).tolist())) if new else {}
        for x in draws:
            y = refs.pop(x, -1)  # -1: off the promise, or drawn before
            if y >= 0:
                chosen.append(x)
                short[y] = max(short[y] - 1, 0)
    if len(chosen) == size:  # a sample that holds the whole domain is the exhaustive sweep
        return protocol.input_domain(), f"exhaustive:{size}"
    return np.array(chosen).reshape(-1, protocol.party_count), f"sampled:{len(chosen)}"


def _distribution(protocol, mu, budget, seed):
    """(codes, targets, weights, coverage): the inputs, their reference
    columns and weights, uniform over the sweep when mu is None."""
    if mu is not None:
        if not mu:
            raise ValueError("mu is empty")
        keys = list(mu.keys())
        weights = np.array([mu[x] for x in keys], dtype=float)
        finite = all(map(math.isfinite, weights))
        if not finite or weights.min() < 0 or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("mu must be finite, nonnegative and sum to 1")
        inputs = np.array([protocol._codes(x) for x in keys])
        targets = protocol._reference(inputs)
        off = np.flatnonzero(targets < 0)
        if off.size:
            raise ValueError(f"mu puts weight on promise-violating input {keys[off[0]]}")
        return inputs, targets, weights, f"supplied:{len(inputs)}"
    inputs, coverage = _sweep(protocol, budget, seed)  # promise inputs only
    if not len(inputs):
        raise ValueError("nothing to check: empty sweep")
    weights = np.full(len(inputs), 1.0 / len(inputs))
    return inputs, protocol._reference(inputs), weights, coverage


def check_weight_sums(protocol: ProtocolInstance, party: int, tol: float = DEFAULT_TOL) -> dict:
    """Summed squared overlaps of one party's message states.

    For every randomness pair (r, r') and every input x of the party,
    sums |<psi(x;r)|psi(z;r')>|^2 over z != x and over all z; both sums
    must stay at most 1.  The protocol's `weight_sum_maxima` gives the
    maxima: sum2 and geq count inputs with equal local phi-basis
    outcomes, dj uses its closed-form overlap.  The bound is an
    implication of a total, non-degenerate reference, so when that
    hypothesis fails the check is vacuous: it is reported as skipped with
    one informational pair, over at most the party's first 256 inputs
    (`gram_inputs` says how many when that truncates the party's inputs).
    Returns the check record `weight_sums_party{party}`.
    """
    check_limits(tol)
    if not 0 <= party < protocol.party_count:
        raise ValueError(f"no party {party}")
    full = protocol._kary_nondegenerate
    domain = protocol.randomness_domain
    own = protocol.party_inputs(party)
    shown = own if full else own[:_GRAM_INPUT_CAP]
    excl, incl = protocol.weight_sum_maxima(party, shown, domain if full else domain[:1])
    pair_count = len(domain) ** 2 if full else 1
    witnesses = {
        "party": party,
        "max_excluding_self": excl,
        "max_including_self": incl,
        "randomness_pairs": pair_count,
    }
    if not full:
        witnesses["skipped"] = _VACUOUS
    if len(shown) < len(own):
        witnesses["gram_inputs"] = len(shown)
    passed = not full or (excl <= 1.0 + tol and incl <= 1.0 + tol)
    return check_record(
        f"weight_sums_party{party}", passed, witnesses, f"randomness-pairs:{pair_count}"
    )


class SweepReports(NamedTuple):
    correctness: dict
    privacy: dict
    purity_bounds: dict
    collision_bound: dict


def check_sweep(
    protocol: ProtocolInstance,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    seed=None,
    mu=None,
) -> SweepReports:
    """Correctness, privacy, purity bounds and the collision bound, from one
    walk over the inputs that reads each input's output masses and builds
    its randomness-averaged message rho_x once.

    The inputs are mu's keys with its weights, or the sweep with uniform
    weights when mu is None; all four check records cover those inputs.
    A check that is vacuous passes and names why in its `skipped` witness.

    Correctness: the referee's output mass on the reference value, worst
    case over the inputs and over every randomness value; the first
    minimum in sweep order names the worst pair.

    Privacy: rho_x must agree within each output class.  Each rho_x is
    compared to its class representative in Frobenius distance, and a
    failing report names the input farthest from its representative.
    `cross_orthogonality`, the largest norm of a product of two classes'
    representatives, is informational and not gated: perfect correctness
    for every randomness value already puts different classes in
    orthogonal referee subspaces, and the correctness check gates that.

    Purity bounds: 1/dim <= tr(rho_bar^2) <= 1 for the weighted average
    rho_bar, within PURITY_TOL.  No rho_x is validated, so this check is
    what catches an average that is not a density matrix.

    Collision bound: tr(rho_bar^2) <= beta^-1 * sum over distinct input
    pairs of mu mu' tr(rho rho'), with beta the worst-class probability
    that two independent mu-draws in an output class differ.  The
    cross-term sum is evaluated through the exact identity
    tr(rho_bar^2) - sum_x mu(x)^2 tr(rho_x^2).  Requires a total,
    non-degenerate reference and beta > 0; otherwise skipped as vacuous.
    """
    check_limits(tol, budget)
    _preflight(protocol)
    inputs, targets, weights, coverage = _distribution(protocol, mu, budget, seed)
    domain = protocol.randomness_domain
    message_bytes = 16 << protocol.cost()[0]
    min_mass, worst_x, worst_r = float("inf"), None, None
    classes: dict = {}  # output -> the witnesses of its privacy class
    representatives: dict = {}  # output -> its class representative's rho_x
    masses_by_class: dict = {}
    max_distance, farthest = 0.0, None
    rho_bar = None
    self_terms = 0.0
    for start, block in protocol._blocks(inputs, 8 * len(protocol.output_domain)):
        rows = np.arange(len(block))
        masses = protocol._output_masses(block)[rows, :, targets[start + rows]]
        i = int(np.argmin(masses))  # the first minimum in sweep order: the first worst pair
        if masses.flat[i] < min_mass:
            row, r = divmod(i, len(domain))
            min_mass, worst_x, worst_r = float(masses.flat[i]), block[row].tolist(), domain[r]
        for offset, part in protocol._blocks(block, message_bytes):
            span = slice(start + offset, start + offset + len(part))
            entries = zip(part.tolist(), targets[span].tolist(), weights[span])
            for (x, column, w), rho in zip(entries, protocol._averaged_matrix(part)):
                y = protocol.output_domain[column]
                rho_bar = w * rho if rho_bar is None else np.add(rho_bar, w * rho, out=rho_bar)
                purity = float(np.vdot(rho, rho).real)  # tr(rho^2), rho Hermitian
                self_terms += float(w) ** 2 * purity
                masses_by_class.setdefault(y, []).append(float(w))
                if y not in classes:  # a copy, so that no block outlives its loop
                    representatives[y] = rho.copy()
                    classes[y] = {
                        "size": 1,
                        "max_distance": 0.0,
                        "purity": purity,
                        "representative_input": ",".join(protocol._input_strings(x)),
                    }
                    continue
                cls = classes[y]
                cls["size"] += 1
                dist = float(np.linalg.norm(representatives[y] - rho))
                cls["max_distance"] = max(cls["max_distance"], dist)
                if dist > max_distance:
                    max_distance, farthest = dist, x

    correctness = check_record(
        "correctness",
        min_mass >= 1.0 - tol,
        {
            "min_mass": min_mass,
            "worst_input": ",".join(protocol._input_strings(worst_x)),
            "worst_randomness": protocol.format_randomness(worst_r),
            "cases": len(inputs) * len(domain),
        },
        f"{coverage} x randomness-exhaustive:{len(domain)}",
    )

    cross = 0.0
    for a, b in itertools.combinations(sorted(representatives, key=repr), 2):
        prod = representatives[a] @ representatives[b]
        cross = max(cross, float(np.linalg.norm(prod)))
    witnesses = {
        "max_distance": max_distance,
        "cross_orthogonality": cross,
        "classes": {protocol.format_output(y): c for y, c in classes.items()},
    }
    note = protocol._privacy_note(representatives)
    if note:
        witnesses["note"] = note
    passed = max_distance <= tol
    if not passed and farthest is not None:
        witnesses["worst_input"] = ",".join(protocol._input_strings(farthest))
    privacy = check_record("privacy", passed, witnesses, coverage)

    lhs = float(np.vdot(rho_bar, rho_bar).real)
    dim = len(rho_bar)
    passed = (1.0 / dim - PURITY_TOL) <= lhs <= 1.0 + PURITY_TOL
    witnesses = {"purity": lhs, "dim": dim, "floor": 1.0 / dim}
    purity_bounds = check_record("purity_bounds", passed, witnesses, coverage)

    if not protocol._kary_nondegenerate:
        witnesses = {"lhs": 0.0, "rhs": 0.0, "beta": 0.0, "cross_terms": 0.0, "skipped": _VACUOUS}
        collision = check_record("collision_bound", True, witnesses, "none")
    else:
        beta = collision_beta(masses_by_class)
        cross_terms = lhs - self_terms
        vacuous = beta <= 0.0
        rhs = 0.0 if vacuous else cross_terms / beta
        witnesses = {"lhs": lhs, "rhs": rhs, "beta": beta, "cross_terms": cross_terms}
        if vacuous:
            witnesses["skipped"] = "beta is zero; inequality is vacuous"
        passed = vacuous or lhs <= rhs + tol
        collision = check_record("collision_bound", passed, witnesses, coverage)
    return SweepReports(correctness, privacy, purity_bounds, collision)
