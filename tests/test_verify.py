import collections
import functools
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqm import cli, protocols, verify
from psqm.protocols import dj_protocol, geq_protocol, sum2_protocol
from psqm.verify import check_sweep, check_weight_sums

from _oracles import (
    domain_strings,
    key_count_weight_sum_maxima,
    pairwise_nondegenerate,
    party_message,
    phi_basis,
    sum2_overlap_sq,
    weight_sum_maxima,
)
from test_mutants import IgnoredSecondBitSum2
from test_protocols import bitstrings, geq_masked_bits


def sum2_class_state(k: int, output) -> np.ndarray:
    """Uniform mixture of the basis states with matching parity tag,
    assembled directly from the measurement basis."""
    p = k if k % 2 == 0 else k + 1
    basis = phi_basis(p)
    members = []
    for y in range(1 << (p - 1)):
        parity = bin(y).count("1") & 1
        if parity == output[0]:
            members.append((y << 1) | output[1])
    mats = [np.outer(basis[i], basis[i].conj()) for i in members]
    return sum(mats) / len(mats)


@pytest.mark.parametrize("k", [2, 4])
def test_sum2_privacy_class_states(k):
    proto = sum2_protocol(k)
    report = check_sweep(proto).privacy
    w = report["witnesses"]
    assert report["pass"]
    assert w["max_distance"] <= 1e-9
    assert w["cross_orthogonality"] <= 1e-9
    for output in proto.output_domain:
        cls = w["classes"][proto.format_output(output)]
        expected = sum2_class_state(k, output)
        rho = proto.averaged_message(cls["representative_input"].split(","))
        assert np.abs(rho.matrix - expected).max() < 1e-10
        assert abs(cls["purity"] - 2.0 ** -(k - 2)) < 1e-9
        assert cls["size"] == 4 ** k // 4


def test_sum2_averaged_message_direct():
    proto = sum2_protocol(2)
    rho = proto.averaged_message(("01", "10"))
    expected = sum2_class_state(2, (1, 1))
    assert np.abs(rho.matrix - expected).max() < 1e-12


@pytest.mark.parametrize("k,l", [(2, 1), (3, 1)])
def test_geq_privacy_classes(k, l):
    proto = geq_protocol(k, l)
    report = check_sweep(proto).privacy
    w = report["witnesses"]
    assert report["pass"]
    p = proto.cost()[0] // l
    sizes = {y: cls["size"] for y, cls in w["classes"].items()}
    assert sizes["1"] == (1 << (2 * l)) ** (k - 1)
    assert sizes["0"] == (1 << (2 * l)) ** k - sizes["1"]
    # accept class: uniform over 2^((p-2)l) orthogonal pure states
    accept_purity = w["classes"]["1"]["purity"]
    assert abs(accept_purity - 2.0 ** -((p - 2) * l)) < 1e-9
    assert "note" not in w  # only dj notes its reject class


def test_correctness_reports():
    proto = sum2_protocol(2)
    rep = check_sweep(proto).correctness
    w = rep["witnesses"]
    assert rep["pass"] and abs(w["min_mass"] - 1.0) < 1e-9
    assert rep["coverage"] == "exhaustive:16 x randomness-exhaustive:2"
    assert w["cases"] == 16 * 2
    assert set(w) == {"min_mass", "worst_input", "worst_randomness", "cases"}


# ------------------------------------------------------------ dj classes


def test_dj_accept_class_distribution():
    proto = dj_protocol(4)
    rho = proto.averaged_message(("0101", "0101"))
    diag = np.diag(rho.matrix).real
    expected = np.zeros(16)
    for a in range(4):
        expected[a * 4 + a] = 0.25
    assert np.abs(diag - expected).sum() < 1e-9  # total variation x2
    assert np.abs(rho.matrix - np.diag(diag)).max() < 1e-12


def test_dj_reject_class_distribution():
    proto = dj_protocol(4)
    rho = proto.averaged_message(("0000", "0011"))
    diag = np.diag(rho.matrix).real
    expected = np.full((4, 4), 1.0 / 12)
    np.fill_diagonal(expected, 0.0)
    assert np.abs(diag - expected.reshape(-1)).sum() < 1e-9


def test_dj_privacy_report():
    proto = dj_protocol(4)
    report = check_sweep(proto).privacy
    w = report["witnesses"]
    assert report["pass"]
    assert w.get("note") is not None and "0.25" in w["note"]
    assert abs(w["classes"]["1"]["purity"] - 0.25) < 1e-9
    assert abs(w["classes"]["0"]["purity"] - 1.0 / 12) < 1e-9


# ------------------------------------------------------------ weight sums


def test_sum2_weight_sums_match_closed_form():
    proto = sum2_protocol(2)
    domain = proto.randomness_domain
    for party in (0, 1):
        for r in domain:
            for rp in domain:
                states = {x: party_message(proto, party, x, r) for x in bitstrings(2)}
                states_p = {z: party_message(proto, party, z, rp) for z in bitstrings(2)}
                for x in bitstrings(2):
                    for z in bitstrings(2):
                        got = abs(np.vdot(states[x], states_p[z])) ** 2
                        want = sum2_overlap_sq(x, z, r, rp, party)
                        assert abs(got - want) < 1e-12


def geq_overlap_sq(x, z, r, rp, party, l):
    """Closed form for one single-qubit party: per block, X and Z
    exponents of the masked inputs must both agree."""
    blocks_r, mask_r = r
    blocks_rp, mask_rp = rp
    a = geq_masked_bits(x, mask_r)
    c = geq_masked_bits(z, mask_rp)
    out = 1.0
    for b in range(l):
        ex = int(a[2 * b]) ^ int(blocks_r[b][party])
        ez = int(c[2 * b]) ^ int(blocks_rp[b][party])
        out *= float(ex == ez and a[2 * b + 1] == c[2 * b + 1])
    return out


@pytest.mark.parametrize("l", [1, 2])
def test_geq_weight_sums_match_closed_form(l):
    proto = geq_protocol(2, l)
    domain = proto.randomness_domain[:: 7 if l == 2 else 1]
    inputs = bitstrings(2 * l)
    for party in (0, 1):
        for r in domain:
            for rp in domain:
                for x in inputs[:: 3 if l == 2 else 1]:
                    sx = party_message(proto, party, x, r)
                    for z in inputs[:: 3 if l == 2 else 1]:
                        sz = party_message(proto, party, z, rp)
                        got = abs(np.vdot(sx, sz)) ** 2
                        want = geq_overlap_sq(x, z, r, rp, party, l)
                        assert abs(got - want) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sum2_weight_sum_check(k):
    proto = sum2_protocol(k)
    dom = len(proto.randomness_domain)
    for party in range(k):
        rep = check_weight_sums(proto, party)
        w = rep["witnesses"]
        assert rep["pass"] and "skipped" not in w
        assert w["randomness_pairs"] == dom * dom
        assert w["max_excluding_self"] <= 1.0 + 1e-9
        assert w["max_including_self"] <= 1.0 + 1e-9


WEIGHT_SUM_CONFIGS = [("sum2", k) for k in (2, 3, 4, 5)] + [
    ("geq", k, l) for k, l in ((2, 1), (3, 1), (4, 1), (2, 2))
]


def build(config):
    name, *args = config
    return sum2_protocol(*args) if name == "sum2" else geq_protocol(*args)


@pytest.mark.parametrize(
    "config", WEIGHT_SUM_CONFIGS, ids=["-".join(map(str, c)) for c in WEIGHT_SUM_CONFIGS]
)
def test_weight_sums_match_pairwise_grams(config):
    proto = build(config)
    for party in range(proto.party_count):
        w = check_weight_sums(proto, party)["witnesses"]
        excl, incl = weight_sum_maxima(proto, party)
        assert w["max_excluding_self"] == pytest.approx(excl, abs=1e-12)
        assert w["max_including_self"] == pytest.approx(incl, abs=1e-12)


# the weight-sum mutant of test_mutants joins the protocols here
RULE_CONFIGS = WEIGHT_SUM_CONFIGS + [("geq", 2, 3), ("geq", 3, 2), ("ignored-sum2", 3)]


@functools.cache
def built(config):
    name, *args = config
    return IgnoredSecondBitSum2(*args) if name == "ignored-sum2" else build(config)


@pytest.mark.parametrize("config", RULE_CONFIGS, ids=["-".join(map(str, c)) for c in RULE_CONFIGS])
def test_weight_sum_rule_matches_key_counts_per_pair(config):
    """The one-pass rule against a key histogram per randomness pair, for
    every party, over the whole randomness domain and over one value."""
    proto = built(config)
    domain = proto.randomness_domain
    for party in range(proto.party_count):
        own = proto.party_inputs(party)
        for values in (domain, domain[:1]):
            got = proto.weight_sum_maxima(party, own, values)
            assert got == key_count_weight_sum_maxima(proto, party, own, values)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_weight_sum_rule_matches_key_counts_on_subsets(data):
    """Subsets of inputs and randomness values give rows whose largest key
    counts differ; a small chunk makes the one pass take several."""
    proto = built(data.draw(st.sampled_from(RULE_CONFIGS)))
    party = data.draw(st.integers(0, proto.party_count - 1))
    inputs = proto.party_inputs(party).tolist()
    own = data.draw(st.lists(st.sampled_from(inputs), min_size=1, unique=True))
    domain = proto.randomness_domain
    values = data.draw(st.lists(st.sampled_from(domain), min_size=1, max_size=40, unique=True))
    chunk = data.draw(st.integers(1, 64))
    with mock.patch.object(protocols, "_KEY_CHUNK", chunk):
        got = proto.weight_sum_maxima(party, own, values)
    assert got == key_count_weight_sum_maxima(proto, party, own, values)


BLOCK_CONFIGS = [("sum2", 5), ("geq", 2, 3), ("geq", 3, 2)]
AVERAGED_CONFIGS = [("sum2", k) for k in range(2, 7)] + [
    ("geq", k, l) for k, l in ((2, 1), (3, 1), (4, 1), (2, 2))
]


@pytest.mark.parametrize(
    "config", AVERAGED_CONFIGS, ids=["-".join(map(str, c)) for c in AVERAGED_CONFIGS]
)
def test_block_averaged_matrices_equal_the_per_input_matmul_bit_for_bit(config):
    """Every input's averaged matrix, from blocks of the size that
    `check_sweep` builds them in (one stacked matmul per block), equals the
    one 2-D matmul of that input's R transcript states alone, in every
    bit: the float noise that reports carry stays the same, wherever a
    block starts."""
    proto = build(config)
    domain = proto.randomness_domain
    w = np.full(len(domain), 1.0 / len(domain))
    sizes = []
    for _, block in proto._blocks(proto.input_domain(), 16 << proto.cost()[0]):
        sizes.append(len(block))
        for codes, rho in zip(block.tolist(), proto._averaged_matrix(block)):
            records = proto._runs(codes, proto._domain_ints)
            states = np.array([record.message_state for record in records])
            alone = (states.T * w) @ states.conj()
            assert np.array_equal(rho.view(np.float64), alone.view(np.float64)), codes
    assert max(sizes) > 1


@pytest.mark.parametrize("config", BLOCK_CONFIGS, ids=["-".join(map(str, c)) for c in BLOCK_CONFIGS])
def test_weight_sum_rule_with_several_column_blocks_per_chunk(config):
    """A budget of 40 outcome histograms gives each bincount 5 columns
    (values of r') and each chunk 40 * histogram size / |own| of them, so
    a chunk takes several blocks and its last one is often short."""
    proto = built(config)
    domain = proto.randomness_domain
    for party in range(proto.party_count):
        own = proto.party_inputs(party)
        size = 1 << proto._qubits
        budget = 8 * 5 * size
        assert budget // len(own) > (budget >> 3) // size == 5
        with mock.patch.object(protocols, "_KEY_CHUNK", budget):
            got = proto.weight_sum_maxima(party, own, domain)
        assert got == key_count_weight_sum_maxima(proto, party, own, domain)


@pytest.mark.parametrize("config", [("sum2", 3), ("geq", 2, 1)], ids=["sum2-3", "geq-2-1"])
def test_weight_sums_without_self_under_one_randomness_value(config):
    """With a single randomness value every input's local state is its
    own, so the sum without z = x drops to 0 while the sum with it is 1."""
    proto = build(config)
    proto.randomness_domain = proto.randomness_domain[:1]
    for party in range(proto.party_count):
        w = check_weight_sums(proto, party)["witnesses"]
        assert (w["max_excluding_self"], w["max_including_self"]) == (0.0, 1.0)
        assert weight_sum_maxima(proto, party) == pytest.approx((0.0, 1.0), abs=1e-12)


def test_a_domain_set_after_first_use_is_the_one_checked():
    """Setting `randomness_domain` re-derives all that is read off it, so a
    protocol that already swept or ran checks and runs the new domain, as
    a fresh protocol given the same domain does."""
    used, fresh = sum2_protocol(4), sum2_protocol(4)
    check_sweep(used)
    for proto in (used, fresh):
        proto.randomness_domain = proto.randomness_domain[:1]
    reports = check_sweep(used)
    assert reports == check_sweep(fresh)
    assert not reports.privacy["pass"] and not reports.collision_bound["pass"]

    zero = tuple(("00", format(v, "02b")) for v in range(4))  # r = 0 merges every outcome
    used, fresh = dj_protocol(4), dj_protocol(4)
    check_sweep(used)
    for proto in (used, fresh):
        proto.randomness_domain += zero
    reports = check_sweep(used)
    assert reports == check_sweep(fresh) and not reports.correctness["pass"]

    proto = sum2_protocol(3)
    proto.run(("01", "10", "11"), "0101")
    proto.randomness_domain = proto.randomness_domain[:1]
    with pytest.raises(ValueError, match="not in the domain"):
        proto.run(("01", "10", "11"), "0101")


@pytest.mark.parametrize("n", [2, 4, 8])
def test_dj_skipped_weight_sums_match_dense_gram(n):
    """The skipped check's informational pair, from dj's closed-form
    overlap, against a dense Gram of the party states over the same
    inputs and randomness value."""
    proto = dj_protocol(n)
    domain = proto.randomness_domain
    for party in (0, 1):
        w = check_weight_sums(proto, party)["witnesses"]
        assert "skipped" in w
        own = proto.party_inputs(party)[: verify._GRAM_INPUT_CAP]
        excl, incl = weight_sum_maxima(proto, party, own, domain[:1])
        assert w["max_excluding_self"] == pytest.approx(excl, abs=1e-12)
        assert w["max_including_self"] == pytest.approx(incl, abs=1e-12)


def test_weight_sum_party_range():
    with pytest.raises(ValueError):
        check_weight_sums(sum2_protocol(2), 2)


def test_dj_weight_sums_skipped_with_witnesses():
    proto = dj_protocol(4)
    rep = check_weight_sums(proto, 0)
    w = rep["witnesses"]
    assert "skipped" in w and rep["pass"]
    assert "partial" in w["skipped"]
    # the purified pre-measurement overlaps genuinely break the bound:
    # sum_z (1 - 2 d(x,z)/n)^2 = 3 excluding self at n = 4
    assert abs(w["max_excluding_self"] - 3.0) < 1e-9
    assert w["randomness_pairs"] == 1
    # all 16 inputs fit the informational Gram, so no truncation is reported
    assert "gram_inputs" not in w


# ------------------------------------------------- purity and collisions


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sum2_purity_floor_is_exact(k):
    proto = sum2_protocol(k)
    rep = check_sweep(proto).purity_bounds
    w = rep["witnesses"]
    assert rep["pass"]
    # averaging over everything hits the maximally mixed state
    assert abs(w["purity"] - 1.0 / w["dim"]) < 1e-12


def test_geq_purity_bounds():
    rep = check_sweep(geq_protocol(2, 1)).purity_bounds
    w = rep["witnesses"]
    assert rep["pass"]
    assert 1.0 / w["dim"] - 1e-10 <= w["purity"] <= 1.0 + 1e-10


def test_purity_with_supplied_mu():
    proto = sum2_protocol(2)
    inputs = domain_strings(proto)
    mu = {x: 0.0 for x in inputs}
    mu[("00", "00")] = 0.5
    mu[("01", "11")] = 0.5
    reports = check_sweep(proto, mu=mu)
    assert reports.correctness["coverage"] == "supplied:16 x randomness-exhaustive:2"
    assert all(rep["coverage"] == "supplied:16" for rep in reports[1:])
    assert all(rep["pass"] for rep in reports)
    # privacy reads every key of mu, weighted or not
    classes = reports.privacy["witnesses"]["classes"]
    assert sum(cls["size"] for cls in classes.values()) == 16
    # rho_bar mixes two orthogonal class messages evenly
    want = 0.25 * (classes["00"]["purity"] + classes["10"]["purity"])
    purity = reports.purity_bounds["witnesses"]["purity"]
    assert abs(purity - want) < 1e-12
    assert reports.collision_bound["witnesses"]["lhs"] == purity
    only = {("10", "01"): 1.0}
    rep = check_sweep(proto, mu=only).privacy
    assert rep["coverage"] == "supplied:1"
    assert [cls["representative_input"] for cls in rep["witnesses"]["classes"].values()] == [
        "10,01"
    ]
    with pytest.raises(ValueError):
        check_sweep(proto, mu={("00", "00"): 0.7})
    # a NaN weight fails no comparison, so it needs its own test
    with pytest.raises(ValueError, match="finite"):
        check_sweep(proto, mu={("00", "00"): float("nan"), ("01", "11"): 1.0})
    with pytest.raises(ValueError, match="mu is empty"):
        check_sweep(proto, mu={})
    with pytest.raises(ValueError):
        check_sweep(dj_protocol(2), mu={("00", "11"): 1.0})  # promise violation


def counting_input_checks(monkeypatch) -> collections.Counter:
    seen = collections.Counter()
    real = protocols.ProtocolInstance._codes

    def counted(self, inputs):
        seen[tuple(inputs)] += 1
        return real(self, inputs)

    monkeypatch.setattr(protocols.ProtocolInstance, "_codes", counted)
    return seen


def test_verify_validates_inputs_only_at_the_edge(monkeypatch, capsys):
    """The sweep walks the protocol's own input domain, so no check of a
    `verify` re-validates its inputs; keys of a supplied mu come from the
    caller and are validated once each."""
    seen = counting_input_checks(monkeypatch)
    assert cli.main(["verify", "--protocol", "dj", "--n", "4"]) == 0
    capsys.readouterr()
    assert sum(seen.values()) == 0
    proto = sum2_protocol(2)
    mu = {x: 1.0 / 16 for x in domain_strings(proto)}
    check_sweep(proto, mu=mu)
    assert seen == collections.Counter(mu.keys())
    with pytest.raises(ValueError, match="bad 2-bit input"):
        check_sweep(proto, mu={("0", "00"): 1.0})


@pytest.mark.parametrize(
    "factory",
    [
        lambda: sum2_protocol(2),
        lambda: sum2_protocol(3),
        lambda: geq_protocol(2, 1),
    ],
)
def test_collision_bound_cross_terms_literal(factory):
    proto = factory()
    rep = check_sweep(proto).collision_bound
    bound = rep["witnesses"]
    assert rep["pass"] and "skipped" not in bound
    inputs = domain_strings(proto)
    w = 1.0 / len(inputs)
    rhos = [proto.averaged_message(x).matrix for x in inputs]
    literal = 0.0
    for i, a in enumerate(rhos):
        for j, b in enumerate(rhos):
            if i != j:
                literal += w * w * float(np.trace(a @ b).real)
    assert abs(bound["cross_terms"] - literal) < 1e-9
    assert abs(bound["rhs"] - literal / bound["beta"]) < 1e-9
    assert bound["lhs"] <= bound["rhs"] + 1e-9


def test_collision_bound_sum2_k2_is_tight():
    w = check_sweep(sum2_protocol(2)).collision_bound["witnesses"]
    assert abs(w["lhs"] - 0.25) < 1e-12
    assert abs(w["rhs"] - 0.25) < 1e-9
    assert abs(w["beta"] - 0.75) < 1e-12


def test_collision_bound_beta_matches_class_masses():
    proto = sum2_protocol(3)
    w = check_sweep(proto).collision_bound["witnesses"]
    inputs = domain_strings(proto)
    sizes: dict = {}
    for x in inputs:
        sizes[proto.reference(x)] = sizes.get(proto.reference(x), 0) + 1
    want = min(1.0 - 1.0 / s for s in sizes.values())
    assert abs(w["beta"] - want) < 1e-12


def test_collision_bound_skipped_for_dj():
    rep = check_sweep(dj_protocol(2)).collision_bound
    assert "skipped" in rep["witnesses"] and rep["pass"]
    assert "partial" in rep["witnesses"]["skipped"]


# ------------------------------------------------------- sweeps and misc


def test_kary_nondegeneracy():
    for proto, want in (
        (sum2_protocol(3), True),
        (sum2_protocol(4), True),
        (geq_protocol(2, 1), True),
        (geq_protocol(3, 1), True),
        (dj_protocol(2), False),
        (dj_protocol(4), False),
    ):
        assert proto._kary_nondegenerate is pairwise_nondegenerate(proto) is want
    # 2^16 inputs, past the 2^20 input pairs the pairwise test allowed
    assert geq_protocol(2, 4)._kary_nondegenerate is True


def test_geq_2_4_weight_sums_are_evaluated():
    proto = geq_protocol(2, 4)
    rep = check_weight_sums(proto, 0)
    w = rep["witnesses"]
    assert rep["pass"] and "skipped" not in w
    assert (w["max_excluding_self"], w["max_including_self"]) == (1.0, 1.0)
    assert w["randomness_pairs"] == len(proto.randomness_domain) ** 2


class DegenerateReferenceSum2(protocols.Sum2Protocol):
    """sum2 whose reference ignores party 0's second bit: still total, but
    inputs 00 and 01 of party 0 give equal rows of its output table."""

    def _reference(self, codes):
        codes = codes.copy()
        codes[:, 0] &= 0b10
        return super()._reference(codes)


def test_degenerate_total_reference_makes_the_bounds_vacuous():
    proto = DegenerateReferenceSum2(3)
    assert proto.reference_total
    assert proto._kary_nondegenerate is False
    assert pairwise_nondegenerate(proto) is False
    for party in range(3):
        rep = check_weight_sums(proto, party)
        w = rep["witnesses"]
        assert "skipped" in w and rep["pass"] and w["randomness_pairs"] == 1
        assert w["skipped"] == "reference is partial or degenerate; bound is vacuous"
    collision = check_sweep(proto).collision_bound
    w = collision["witnesses"]
    assert "skipped" in w and collision["pass"]
    assert w["skipped"] == "reference is partial or degenerate; bound is vacuous"


class TableProtocol(protocols.ProtocolInstance):
    """A total reference given by an output column per input, in input
    domain order, nothing else."""

    name = "table"
    reference_total = True
    output_domain = (0, 1, 2)

    def __init__(self, input_lengths, columns):
        self.input_lengths = tuple(input_lengths)
        self.party_count = len(input_lengths)
        self.columns = np.reshape(columns, [1 << n for n in input_lengths])

    def _reference(self, codes):
        return self.columns[tuple(codes.T)]


@st.composite
def small_tables(draw):
    lengths = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    size = 1 << sum(lengths)
    codes = draw(st.lists(st.integers(0, draw(st.integers(1, 2))), min_size=size, max_size=size))
    return TableProtocol(lengths, codes)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_tables())
def test_distinct_rows_match_pairwise_enumeration(proto):
    assert proto._kary_nondegenerate is pairwise_nondegenerate(proto)


def test_sampled_sweep_requires_seed_and_is_deterministic():
    proto = dj_protocol(8)
    with pytest.raises(ValueError):
        check_sweep(proto, budget=500)
    rep1 = check_sweep(proto, budget=500, seed=3).correctness
    rep2 = check_sweep(proto, budget=500, seed=3).correctness
    assert rep1["coverage"] == rep2["coverage"]
    assert rep1["coverage"].startswith("sampled:")
    assert rep1["witnesses"]["min_mass"] == rep2["witnesses"]["min_mass"]
    assert rep1["pass"]
    count = int(rep1["coverage"].split(":")[1].split(" ")[0])
    assert count >= 2 * 64  # both classes filled


SMALL_SAMPLED = [("sum2", 2), ("geq", 2, 1), ("dj", 2)]


@pytest.mark.parametrize("config", SMALL_SAMPLED, ids=["-".join(map(str, c)) for c in SMALL_SAMPLED])
def test_sampled_sweep_stops_once_it_has_every_input(config):
    """A domain too small to give every output class 64 inputs is drawn in
    full, and the sweep stops at the draw that completes it instead of
    drawing on to its attempt cap.  That sample is the exhaustive sweep:
    the domain in its own order, labelled exhaustive."""
    name, *args = config
    proto = dj_protocol(*args) if name == "dj" else build(config)
    draws = []
    sample = proto.sample_input

    def counted(rng):
        draws.append(sample(rng))
        return draws[-1]

    proto.sample_input = counted
    inputs, coverage = verify._sweep(proto, budget=1, seed=1)
    assert inputs.tolist() == proto.input_domain().tolist()
    assert coverage == f"exhaustive:{proto.domain_size()}"
    assert len(set(draws)) == proto.domain_size()
    assert draws.index(draws[-1]) == len(draws) - 1  # the last draw was the first of it


def test_exhaustive_sweep_below_budget():
    rep = check_sweep(dj_protocol(4)).correctness
    assert rep["coverage"].startswith("exhaustive:112")
    assert rep["pass"]


def test_protocol_cost_and_default_tol():
    assert sum2_protocol(5).cost() == (6, "qubits")
    assert dj_protocol(4).cost() == (4, "bits")
    assert verify.DEFAULT_TOL == 1e-9


@pytest.mark.parametrize(
    "call,argv",
    [
        (lambda p: check_sweep(p, tol=float("nan")), ["--tol", "nan"]),
        (lambda p: check_sweep(p, tol=-1.0), ["--tol", "-1"]),
        (lambda p: check_sweep(p, tol=math.inf), ["--tol", "inf"]),
        (lambda p: check_weight_sums(p, 0, tol=float("nan")), ["--tol", "nan"]),
        (lambda p: check_sweep(p, budget=-1, seed=1), ["--budget", "-1", "--seed", "1"]),
    ],
    ids=["sweep-nan", "sweep-negative", "sweep-inf", "weight-sums-nan", "sweep-budget"],
)
def test_the_library_refuses_what_the_cli_refuses(call, argv, capsys):
    """A tol that is not finite and nonnegative, or a negative budget, is
    refused by the library as by `psqm verify`, with the same message."""
    with pytest.raises(ValueError, match="must be") as exc:
        call(sum2_protocol(3))
    assert cli.main(["verify", "--protocol", "sum2", "--k", "3", *argv]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_a_zero_tol_is_accepted():
    """tol=0 gates exactly, as `--tol 0` does; it is not refused."""
    proto = sum2_protocol(2)
    correctness, privacy, _, _ = check_sweep(proto, tol=0)
    assert correctness["pass"] and privacy["pass"]
    assert check_weight_sums(proto, 0, tol=0)["pass"]


def test_exhaustive_sweep_cap_boundary(monkeypatch):
    proto = sum2_protocol(2)  # 16 inputs
    monkeypatch.setattr(verify, "ENUMERATION_CAP", 16)
    assert verify._sweep(proto, 16, None)[1] == "exhaustive:16"
    monkeypatch.setattr(verify, "ENUMERATION_CAP", 15)
    with pytest.raises(ValueError, match="15-input cap"):
        verify._sweep(proto, 16, None)
    # a sampled sweep is not capped, and one that draws every input is exhaustive
    assert verify._sweep(proto, 15, 1)[1] == "exhaustive:16"


# every configuration the CLI accepts: sum2 and geq within the 10-qubit
# cap (parties rounded up to even, l blocks of them), dj up to n = 16
ACCEPTED = (
    [("sum2", k) for k in range(2, 11)]
    + [("geq", k, l) for k in range(2, 11) for l in range(1, 6) if (k + k % 2) * l <= 10]
    + [("dj", n) for n in (2, 4, 8, 16)]
)


def test_the_preflight_refuses_only_geq_2_5():
    """The estimate needs only the randomness domain and the cost, so every
    accepted configuration is sized here without running it: geq (2,5)'s
    32,736 states of 1,024 amplitudes take 511.5 MiB per input, and the
    next largest, geq (9,1) and (10,1), take 24 MiB."""
    assert len(ACCEPTED) == 28
    build = {"sum2": sum2_protocol, "geq": geq_protocol, "dj": dj_protocol}
    sizes, refused = {}, []
    for name, *params in ACCEPTED:
        try:
            sizes[name, *params] = verify._preflight(build[name](*params))
        except ValueError as exc:
            refused.append((name, *params, str(exc)))
    assert refused == [
        ("geq", 2, 5, "one input's message stack would hold 511.5 MiB, over the 128 MiB limit")
    ]
    assert max(sizes.values()) == sizes["geq", 9, 1] == sizes["geq", 10, 1] == 24 << 20


def test_the_sweep_refuses_before_it_sweeps(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep began")

    monkeypatch.setattr(verify, "_sweep", no_sweep)
    monkeypatch.setattr(verify, "_distribution", no_sweep)
    with pytest.raises(ValueError, match="511.5 MiB"):
        check_sweep(geq_protocol(2, 5), seed=1)


class OffPromiseDJ(protocols.DJProtocol):
    """dj whose sampler only draws (0, 1), at distance 1: off the promise
    for n = 4, so a sampled sweep keeps none of its draws."""

    def sample_input(self, rng):
        return (0, 1)


def test_the_sweep_refuses_an_empty_sampled_sweep():
    """The sampler spends its whole attempt cap drawing nothing, and the
    sweep refuses the empty sample."""
    proto = OffPromiseDJ(4)
    empty = verify._sweep(proto, budget=1, seed=1)
    assert empty[0].shape == (0, 2) and empty[1] == "sampled:0"
    with pytest.raises(ValueError, match="^nothing to check: empty sweep$"):
        check_sweep(proto, budget=1, seed=1)


def test_a_sampled_sweep_takes_references_by_batch(monkeypatch):
    """The draws' references come a batch at a time, and only for inputs
    not drawn before: the empty sweep of OffPromiseDJ(4) draws exactly its
    200,000-attempt cap with a handful of `_reference` calls, not one per
    draw."""
    proto = OffPromiseDJ(4)
    calls, draws = [], []

    def counted(self, codes, _original=OffPromiseDJ._reference):
        calls.append(len(codes))
        return _original(self, codes)

    def sample(rng, _original=proto.sample_input):
        draws.append(_original(rng))
        return draws[-1]

    monkeypatch.setattr(OffPromiseDJ, "_reference", counted)
    proto.sample_input = sample
    assert verify._sweep(proto, budget=1, seed=1)[1] == "sampled:0"
    assert len(draws) == 200_000
    assert len(calls) <= 300


@pytest.mark.parametrize(
    "proto",
    [sum2_protocol(3), geq_protocol(2, 1), dj_protocol(4)],
    ids=["sum2-3", "geq-2-1", "dj-4"],
)
def test_check_records_hold_only_python_scalars(proto):
    """json.dumps takes every record as it is: no numpy integer or bool
    (which it refuses) stands where a report prints a number or a flag."""
    records = [
        *check_sweep(proto),
        *(check_weight_sums(proto, j) for j in range(proto.party_count)),
    ]
    assert json.loads(json.dumps(records)) == records
