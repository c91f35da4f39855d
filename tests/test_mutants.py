"""Deliberately broken protocols that a check must catch.

Each sum2 and geq mutant overrides a hook of the Pauli-frame path
(`_party_frames`, `_output_columns`, `_averaged_matrix`) or narrows the
randomness domain; the package has no gate simulator, so nothing else
can stand in for that path.  A mutant that models one party's
misbehaviour overrides `_party_frames`, so the whole message and the
weight sums both see it.  The dj mutants add zero masks to their
randomness domain or fix its r.
"""

import numpy as np
import pytest

from psqm.protocols import DJProtocol, GeqProtocol, Sum2Protocol
from psqm.verify import check_sweep, check_weight_sums

from _oracles import domain_strings, weight_sum_maxima

def restrict_randomness(proto, keep):
    """Narrow the randomness domain of a protocol to the values `keep`
    accepts; the domain's setter re-derives all that is read off it."""
    proto.randomness_domain = tuple(r for r in proto.randomness_domain if keep(r))
    return proto


def named_randomness(proto, formatted):
    """The one randomness value that a report names by its formatted string."""
    values = [r for r in proto.randomness_domain if proto.format_randomness(r) == formatted]
    assert len(values) == 1
    return values[0]


def representative(proto, privacy, output):
    """The validated averaged message of an output class's representative."""
    cls = privacy["witnesses"]["classes"][proto.format_output(output)]
    return proto.averaged_message(cls["representative_input"].split(","))


def assert_privacy_names_a_leaking_input(proto, privacy):
    assert not privacy["pass"]
    worst = tuple(privacy["witnesses"]["worst_input"].split(","))
    assert worst in domain_strings(proto)
    rep = representative(proto, privacy, proto.reference(worst))
    distance = np.linalg.norm(rep.matrix - proto.averaged_message(worst).matrix)
    assert distance == pytest.approx(privacy["witnesses"]["max_distance"]) and distance > 1.0


def test_sum2_with_one_randomness_value_leaks_inputs():
    """Without the random X mask the message state depends on the inputs
    themselves, so it stays correct but stops being private.  The
    averaged messages then spread over more orthogonal states than the
    output alone allows, so the collision bound fails too, while the
    purity bounds of their average still hold."""
    first = Sum2Protocol(4).randomness_domain[0]
    proto = restrict_randomness(Sum2Protocol(4), lambda r: r == first)

    correctness, privacy, purity, collision = check_sweep(proto)
    assert correctness["pass"]
    assert correctness["witnesses"]["cases"] == 4**4

    assert_privacy_names_a_leaking_input(proto, privacy)
    assert purity["pass"]
    bound = collision["witnesses"]
    assert not collision["pass"] and "skipped" not in bound
    assert bound["lhs"] == purity["witnesses"]["purity"]
    assert bound["lhs"] > bound["rhs"]


def test_geq_with_the_field_mask_fixed_to_one_leaks_sums():
    """With the mask fixed to the field element 1 (bit string "10",
    constant term first) each party sends its input unmasked, so the
    referee learns the coordinate sums, not only whether they vanish."""
    proto = restrict_randomness(GeqProtocol(2, 1), lambda r: r[1] == "10")
    assert len(proto.randomness_domain) == 2
    correctness, privacy, _, _ = check_sweep(proto)
    assert correctness["pass"]
    assert_privacy_names_a_leaking_input(proto, privacy)
    assert proto.reference(privacy["witnesses"]["worst_input"].split(",")) == 0
    # accept-class messages still agree
    assert privacy["witnesses"]["classes"]["1"]["max_distance"] == 0.0


class FlippedXSum2(Sum2Protocol):
    """sum2 whose party 0 flips its X: the referee's first-bit parity is
    then always wrong."""

    def _party_frames(self, parties, codes, randomness):
        xmasks, zmasks = super()._party_frames(parties, codes, randomness)
        return xmasks ^ np.where(parties == 0, 1 << (self._qubits - 1), 0)[:, None], zmasks


class DroppedZGeq(GeqProtocol):
    """geq whose party 0 drops its Z's: the referee then misreads the odd
    coordinate sums whenever party 0's masked input has an odd bit set."""

    def _party_frames(self, parties, codes, randomness):
        xmasks, zmasks = super()._party_frames(parties, codes, randomness)
        return xmasks, np.where(parties[:, None] == 0, 0, zmasks)


def assert_correctness_names_a_wrong_run(proto):
    report = check_sweep(proto).correctness
    assert not report["pass"]
    witness = report["witnesses"]
    assert witness["min_mass"] == 0.0
    worst = tuple(witness["worst_input"].split(","))
    assert worst in domain_strings(proto)
    domain = proto.randomness_domain
    assert witness["worst_randomness"] in map(proto.format_randomness, domain)
    randomness = named_randomness(proto, witness["worst_randomness"])
    wrong = proto.run(worst, randomness).output_distribution
    assert wrong.get(proto.reference(worst), 0.0) == 0.0


def test_flipped_x_fails_correctness():
    assert_correctness_names_a_wrong_run(FlippedXSum2(4))


def test_geq_with_party_0_dropping_its_z_fails_correctness():
    assert_correctness_names_a_wrong_run(DroppedZGeq(2, 1))


class IgnoredSecondBitSum2(Sum2Protocol):
    """sum2 whose party 0 ignores its second input bit: inputs 00 and 01
    then give party 0 the same local state under every randomness value."""

    def _party_frames(self, parties, codes, randomness):
        codes = np.where(parties == 0, codes & 0b10, codes)
        return super()._party_frames(parties, codes, randomness)


def test_sum2_ignoring_a_bit_fails_weight_sums():
    """Two inputs sharing each local state put a weight of 2 on one
    message, above the bound of 1 that a non-degenerate reference needs."""
    proto = IgnoredSecondBitSum2(3)
    report = check_weight_sums(proto, 0)
    w = report["witnesses"]
    assert not report["pass"] and "skipped" not in w
    assert w["max_including_self"] == w["max_excluding_self"] == 2.0
    # the Gram oracle folds honest sum2's gates: party 0's i-th input sends
    # what the honest party 0 sends for the input's first bit and a 0
    heard = proto.party_inputs(0) & 0b10
    assert weight_sum_maxima(Sum2Protocol(3), 0, own=heard) == pytest.approx((2.0, 2.0), abs=1e-12)
    assert check_weight_sums(proto, 1)["pass"]


class FlippedDecodeSum2(Sum2Protocol):
    """sum2 whose referee flips the second output bit: the messages are
    untouched, so privacy holds, but every answer is wrong."""

    @property
    def _output_columns(self):
        return super()._output_columns ^ 1  # column 2a + b holds the output (a, b)


def test_sum2_with_a_flipped_decoder_fails_correctness_only():
    proto = FlippedDecodeSum2(4)
    assert_correctness_names_a_wrong_run(proto)
    assert check_sweep(proto).privacy["pass"]


class HalvedAverageSum2(Sum2Protocol):
    """sum2 whose averaged messages carry half their mass: every rho_x of
    a block is scaled alike, so privacy holds, and the referee's outcomes
    are untouched, so correctness holds too."""

    def _averaged_matrix(self, codes):
        return super()._averaged_matrix(codes) / 2


def test_sum2_with_halved_averages_fails_purity_bounds():
    """The true average is maximally mixed on 4 qubits, purity 1/16, so
    the halved one has purity 1/64, under the floor 1/dim.  No rho_x is
    validated during the walk; the public averaged_message still rejects
    the trace of 1/2."""
    proto = HalvedAverageSum2(3)
    correctness, privacy, purity, _ = check_sweep(proto)
    assert correctness["pass"]
    assert privacy["pass"]
    assert not purity["pass"]
    w = purity["witnesses"]
    assert w["dim"] == 16 and w["purity"] == pytest.approx(1 / 64, abs=1e-15)
    with pytest.raises(ValueError, match="trace"):
        proto.averaged_message(("00",) * 3)


class HalvedAverageGeq(GeqProtocol):
    """geq whose averaged messages carry half their mass, as in
    HalvedAverageSum2."""

    def _averaged_matrix(self, codes):
        return super()._averaged_matrix(codes) / 2


class HalvedAverageDJ(DJProtocol):
    """dj whose averaged message laws carry half their mass, as in
    HalvedAverageSum2."""

    def _averaged_matrix(self, codes):
        return super()._averaged_matrix(codes) / 2


@pytest.mark.parametrize(
    "proto,dim,purity,collision_skipped",
    [(HalvedAverageGeq(2, 1), 4, 1 / 16, False), (HalvedAverageDJ(4), 16, 13 / 784, True)],
    ids=["geq-2-1", "dj-4"],
)
def test_geq_and_dj_with_halved_averages_fail_only_purity_bounds(
    proto, dim, purity, collision_skipped
):
    """Halving every rho_x quarters the purity of their average: geq
    (2,1)'s 1/4 falls to 1/16 and dj n=4's 13/196 to 13/784, each under
    its floor 1/dim.  Correctness, privacy and the collision bound still
    pass; dj's collision bound passes as skipped."""
    correctness, privacy, purity_bounds, collision = check_sweep(proto)
    assert correctness["pass"] and privacy["pass"] and collision["pass"]
    assert not purity_bounds["pass"]
    w = purity_bounds["witnesses"]
    assert w["dim"] == dim and w["purity"] == pytest.approx(purity, abs=1e-15)
    assert w["purity"] < w["floor"] == 1 / dim
    assert ("skipped" in collision["witnesses"]) == collision_skipped


def test_dj_with_a_zero_mask_fails_correctness():
    """With r = 0 the mask p(r)p(outcome) + p(r') sends every outcome to
    p(r'), so the two messages always agree and the referee accepts
    half-distance inputs.  The message law of such a value still sums to
    1: colliding outcomes add their masses."""
    proto = DJProtocol(4)
    zero = tuple(("00", format(v, "02b")) for v in range(4))
    proto.randomness_domain += zero
    report = check_sweep(proto).correctness
    w = report["witnesses"]
    assert not report["pass"] and w["min_mass"] < 1e-9
    x, y = w["worst_input"].split(",")
    assert sum(a != b for a, b in zip(x, y)) == 2
    randomness = named_randomness(proto, w["worst_randomness"])
    assert randomness in zero
    assert w["worst_randomness"].startswith("00;")
    law = proto.run((x, y), randomness).message_distribution
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(law) == 1


def test_a_supplied_mu_reaches_correctness():
    """Correctness covers mu's inputs, as the message checks do: on the
    flipped decoder the one input fails correctness and is named, while
    its messages stay private; honest sum2 passes on the same input."""
    x = ("01", "10", "11")
    correctness, privacy, _, _ = check_sweep(FlippedDecodeSum2(3), mu={x: 1.0})
    assert not correctness["pass"] and correctness["witnesses"]["worst_input"] == ",".join(x)
    assert correctness["coverage"] == "supplied:1 x randomness-exhaustive:8"
    assert privacy["pass"] and privacy["coverage"] == "supplied:1"
    honest = check_sweep(Sum2Protocol(3), mu={x: 1.0}).correctness
    assert honest["pass"] and honest["coverage"] == correctness["coverage"]


def test_geq_with_party_0_dropping_its_z_fails_weight_sums():
    """At l = 2 party 0's dropped Z's leave four of its inputs with each
    local state, a weight of 4 where the bound allows 1; party 1 is
    honest."""
    proto = DroppedZGeq(2, 2)
    report = check_weight_sums(proto, 0)
    w = report["witnesses"]
    assert not report["pass"] and "skipped" not in w
    assert w["max_excluding_self"] == w["max_including_self"] == 4.0
    assert check_weight_sums(proto, 1)["pass"]


@pytest.mark.parametrize("k,rhs", [(3, 0.05), (4, 0.0595238095238)])
def test_geq_with_one_randomness_value_fails_the_collision_bound(k, rhs):
    """Under its first randomness value alone geq stays correct, but its
    averaged messages spread over more orthogonal states than the output
    allows, so their average is purer than the cross terms bound.  (At
    k = 2 the two sides meet within 3e-17 and the bound holds.)"""
    first = GeqProtocol(k, 1).randomness_domain[0]
    proto = restrict_randomness(GeqProtocol(k, 1), lambda r: r == first)
    correctness, _, purity, collision = check_sweep(proto)
    assert correctness["pass"] and purity["pass"]
    bound = collision["witnesses"]
    assert not collision["pass"] and "skipped" not in bound
    assert bound["lhs"] == pytest.approx(0.0625)
    assert bound["rhs"] == pytest.approx(rhs)


@pytest.mark.parametrize(
    "n,distance,worst",
    [(4, 0.5**0.5, ("0000", "0101")), (8, 0.5, ("00000000", "00110011"))],
)
def test_dj_with_r_fixed_to_one_leaks_inputs(n, distance, worst):
    """With r fixed to the field's 1 (constant term first) and r' still
    uniform, each mask is still a bijection, so dj stays correct, but the
    reject class's message laws then differ from input to input.  Every
    other fixed r leaks as much."""
    one = "1".ljust(n.bit_length() - 1, "0")
    proto = restrict_randomness(DJProtocol(n), lambda r: r[0] == one)
    assert len(proto.randomness_domain) == n
    correctness, privacy, _, _ = check_sweep(proto)
    assert correctness["pass"]
    assert not privacy["pass"]
    assert privacy["witnesses"]["max_distance"] == pytest.approx(distance)
    assert privacy["witnesses"]["worst_input"] == ",".join(worst)
    rep = representative(proto, privacy, 0)
    got = np.linalg.norm(rep.matrix - proto.averaged_message(worst).matrix)
    assert got == pytest.approx(distance)


def first_worst_witnesses(proto) -> dict:
    """What `check_sweep` must name, by brute force over the public
    per-input API in `input_domain` order: the first (input, randomness)
    pair of least mass on the reference, the first input farthest from
    its class's first averaged message, and each class's size, largest
    distance and first input."""
    least = farthest = None
    classes, firsts = {}, {}
    for x in domain_strings(proto):
        y = proto.reference(x)
        masses = proto.output_masses(x)[:, proto.output_domain.index(y)]
        for r, mass in zip(proto.randomness_domain, masses.tolist()):
            if least is None or mass < least[0]:
                least = (mass, ",".join(x), proto.format_randomness(r))
        rho = proto.averaged_message(x).matrix
        name = proto.format_output(y)
        if name not in classes:
            firsts[name] = rho
            classes[name] = {"size": 0, "max_distance": 0.0, "representative_input": ",".join(x)}
        distance = float(np.linalg.norm(firsts[name] - rho))
        classes[name]["size"] += 1
        classes[name]["max_distance"] = max(classes[name]["max_distance"], distance)
        if farthest is None or distance > farthest[0]:
            farthest = (distance, ",".join(x))
    return {"least": least, "farthest": farthest, "classes": classes}


@pytest.mark.parametrize(
    "make",
    [
        lambda: FlippedDecodeSum2(3),
        lambda: restrict_randomness(Sum2Protocol(4), lambda r: r == "0000"),
        lambda: restrict_randomness(DJProtocol(4), lambda r: r[0] == "10"),
    ],
    ids=["flipped-decode-sum2-3", "sum2-4-one-randomness", "dj-4-r-one"],
)
def test_witnesses_name_the_first_worst_in_sweep_order(make):
    """Every witness that names an input or randomness value names the
    first worst one in sweep order, and the figures beside it are that
    one's, bit for bit."""
    proto = make()
    want = first_worst_witnesses(proto)
    correctness, privacy, _, _ = check_sweep(make())
    w = correctness["witnesses"]
    assert (w["min_mass"], w["worst_input"], w["worst_randomness"]) == want["least"]
    w = privacy["witnesses"]
    assert w["max_distance"] == want["farthest"][0]
    if privacy["pass"]:
        assert "worst_input" not in w
    else:
        assert w["worst_input"] == want["farthest"][1]
    got = {
        name: {key: cls[key] for key in ("size", "max_distance", "representative_input")}
        for name, cls in w["classes"].items()
    }
    assert got == want["classes"]
