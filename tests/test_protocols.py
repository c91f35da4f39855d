import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqm import gf2m
from psqm.protocols import PROMISE_VIOLATION, dj_protocol, geq_protocol, sum2_protocol

from _oracles import (
    apply_gate,
    bitstrings,
    dj_joint_outcome,
    dj_reference,
    field_mul,
    geq_mask_identity_check,
    geq_reference,
    ghz,
    ghz_gate_ops,
    input_strings,
    oracle_irreducible,
    referee_output,
    sum2_reference,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

# smallest-encoding irreducible moduli, fixed by hand (see test_gf2m)
MODULI = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 6: 0b1000011}


def ghz_amps(p: int) -> np.ndarray:
    v = np.zeros(1 << p, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v


def kron_all(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


# ------------------------------------------------------------------ sum2


def expected_sum2_state(internal_inputs, r):
    """Z then X per party, assembled as one explicit kron product."""
    mats = []
    for j, x in enumerate(internal_inputs):
        m = I2
        if x[1] == "1":
            m = Z @ m
        if int(x[0]) ^ int(r[j]):
            m = X @ m
        mats.append(m)
    return kron_all(mats) @ ghz_amps(len(internal_inputs))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sum2_message_state_formula(k):
    proto = sum2_protocol(k)
    p = proto.cost()[0]
    rng = random.Random(5)
    cases = [
        (
            tuple(rng.choice(bitstrings(2)) for _ in range(k)),
            rng.choice(proto.randomness_domain),
        )
        for _ in range(25)
    ]
    for inputs, r in cases:
        internal = list(inputs) + (["00"] if p > k else [])
        expected = expected_sum2_state(internal, r)
        got = proto.run(inputs, r).message_state
        np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
def test_sum2_exhaustive_correctness(k):
    proto = sum2_protocol(k)
    for inputs in itertools.product(bitstrings(2), repeat=k):
        want = sum2_reference(inputs)
        assert want == (
            sum(int(x[0]) for x in inputs) % 2,
            sum(int(x[1]) for x in inputs) % 2,
        )
        for r in proto.randomness_domain:
            dist = proto.run(inputs, r).output_distribution
            assert abs(dist.get(want, 0.0) - 1.0) < 1e-9, (inputs, r)


def test_sum2_randomness_domain_parity():
    proto = sum2_protocol(3)
    dom = proto.randomness_domain
    assert len(dom) == 8  # parity-even 4-bit strings
    assert all(s.count("1") % 2 == 0 for s in dom)


def test_sum2_virtual_party_ownership():
    proto = sum2_protocol(3)
    assert proto.cost() == (4, "qubits")


def test_local_operations_compose_to_message_state():
    """Each party's gates, written from the paper, fold densely into the
    message state."""
    proto = sum2_protocol(3)
    rng = random.Random(9)
    for _ in range(10):
        inputs = tuple(rng.choice(bitstrings(2)) for _ in range(3))
        r = rng.choice(proto.randomness_domain)
        state = ghz(4)
        for party in range(3):
            for gate, qubit in ghz_gate_ops(proto, party, inputs[party], r):
                state = apply_gate(state, gate, qubit)
        np.testing.assert_allclose(
            state.amplitudes,
            proto.run(inputs, r).message_state,
            atol=1e-12,
        )


def test_sum2_input_validation():
    proto = sum2_protocol(2)
    with pytest.raises(ValueError):
        proto.run(("00",), "00")
    with pytest.raises(ValueError):
        proto.run(("0", "00"), "00")
    with pytest.raises(ValueError):
        proto.run(("0x", "00"), "00")
    with pytest.raises(ValueError):
        sum2_protocol(1)
    with pytest.raises(ValueError):
        sum2_protocol(11)  # 12 internal qubits, over the cap


# ------------------------------------------------------------------- geq


def pack(bits: str) -> int:
    """Packed field value of a bit string, constant term first."""
    return sum((c == "1") << i for i, c in enumerate(bits))


def geq_masked_bits(x: str, mask: str, modulus=None) -> str:
    """Field product via the oracle arithmetic, constant term first."""
    width = len(mask)
    prod = field_mul(pack(x), pack(mask), modulus or MODULI[width])
    return "".join(str((prod >> i) & 1) for i in range(width))


def expected_geq_state(internal_inputs, randomness, l):
    blocks, mask = randomness
    p = len(internal_inputs)
    per_qubit = [I2] * (p * l)
    for j, x in enumerate(internal_inputs):
        a = geq_masked_bits(x, mask)
        for b in range(l):
            m = I2
            if a[2 * b + 1] == "1":
                m = Z @ m
            if int(a[2 * b]) ^ int(blocks[b][j]):
                m = X @ m
            per_qubit[b * p + j] = m
    block_amps = ghz_amps(p)
    amps = block_amps
    for _ in range(l - 1):
        amps = np.kron(amps, block_amps)
    return kron_all(per_qubit) @ amps


@pytest.mark.parametrize("k,l", [(2, 1), (2, 2), (3, 1)])
def test_geq_message_state_formula(k, l):
    proto = geq_protocol(k, l)
    p = proto.cost()[0] // l
    rng = random.Random(13)
    for _ in range(20):
        inputs = tuple(rng.choice(bitstrings(2 * l)) for _ in range(k))
        r = rng.choice(proto.randomness_domain)
        internal = list(inputs) + (["0" * 2 * l] if p > k else [])
        expected = expected_geq_state(internal, r, l)
        got = proto.run(inputs, r).message_state
        np.testing.assert_allclose(got, expected, atol=1e-12)


def masked_input(proto, x: str, mask: str) -> str:
    """A party's masked input as geq reads it off `gf2m.product_table`."""
    product = gf2m.product_table(len(mask))[int(mask, 2), int(x, 2)]
    return format(int(product), f"0{len(mask)}b")


def test_geq_masked_input_matches_oracle():
    proto = geq_protocol(2, 1)
    for mask in bitstrings(2):
        if mask == "00":
            continue
        for x in bitstrings(2):
            assert masked_input(proto, x, mask) == geq_masked_bits(x, mask)


@pytest.mark.parametrize("l", [2, 3, 5])
def test_geq_masked_input_wider_fields(l):
    """The product table against the oracle: every pair where MODULI has
    the modulus, else a seeded sample under the protocol's modulus, which
    the factorization oracle confirms irreducible (l = 5)."""
    proto = geq_protocol(2, l)
    strings = bitstrings(2 * l)
    if 2 * l in MODULI:
        pairs = itertools.product(strings[1:], strings)
        modulus = MODULI[2 * l]
    else:
        rng = random.Random(l)
        pairs = [(rng.choice(strings[1:]), rng.choice(strings)) for _ in range(2000)]
        modulus = gf2m.find_irreducible(2 * l)
        assert modulus.bit_length() == 2 * l + 1 and oracle_irreducible(modulus)
    for mask, x in pairs:
        assert masked_input(proto, x, mask) == geq_masked_bits(x, mask, modulus)


def test_geq_exhaustive_correctness_small():
    proto = geq_protocol(2, 1)
    for inputs in itertools.product(bitstrings(2), repeat=2):
        want = geq_reference(inputs)
        assert want == int(inputs[0] == inputs[1])
        for r in proto.randomness_domain:
            dist = proto.run(inputs, r).output_distribution
            assert abs(dist.get(want, 0.0) - 1.0) < 1e-9, (inputs, r)


def test_geq_randomness_domain_shape():
    proto = geq_protocol(2, 2)
    dom = proto.randomness_domain
    # two parity-even 2-bit strings per block pair, 15 nonzero masks
    assert len(dom) == 2 * 2 * 15
    blocks, mask = dom[0]
    assert len(blocks) == 2 and len(mask) == 4


def test_geq_cost_and_guards():
    assert geq_protocol(3, 1).cost() == (4, "qubits")
    assert geq_protocol(4, 2).cost() == (8, "qubits")
    with pytest.raises(ValueError):
        geq_protocol(2, 0)
    with pytest.raises(ValueError):
        geq_protocol(5, 2)  # 12 qubits, over the cap


def test_geq_mask_identity_seeded():
    rng = random.Random(21)
    for _ in range(300):
        l = rng.randint(1, 3)
        k = rng.randint(2, 5)
        inputs = [
            "".join(str(rng.getrandbits(1)) for _ in range(2 * l))
            for _ in range(k)
        ]
        mask = "0" * 2 * l
        while set(mask) == {"0"}:
            mask = "".join(str(rng.getrandbits(1)) for _ in range(2 * l))
        assert geq_mask_identity_check(inputs, mask)
    with pytest.raises(ValueError):
        geq_mask_identity_check(["01", "11"], "00")
    for inputs, mask in [(["01", "110"], "11"), (["01", "1x"], "11"), (["01"], "1b")]:
        with pytest.raises(ValueError):
            geq_mask_identity_check(inputs, mask)


# ------------------------------------------------------------ decoding

# every sum2 and geq configuration within the 10-qubit cap: parties are
# rounded up to even, l blocks of them
CAPPED_GHZ = [("sum2", k, 1) for k in range(2, 11)] + [
    ("geq", k, l) for k in range(2, 11) for l in range(1, 6) if (k + k % 2) * l <= 10
]


@pytest.mark.parametrize("name,k,l", CAPPED_GHZ, ids=str)
def test_decode_matches_the_bit_string_rule(name, k, l):
    proto = sum2_protocol(k) if name == "sum2" else geq_protocol(k, l)
    assert len(proto._output_columns) == 1 << proto._qubits
    for o, column in enumerate(proto._output_columns):
        got, want = proto.output_domain[column], referee_output(proto, o)
        assert got == want
        assert all(type(v) is int for v in (got if name == "sum2" else (got,)))


# -------------------------------------------------------------------- dj


@pytest.mark.parametrize("n", [2, 4])
def test_dj_joint_outcomes_match_oracle(n):
    proto = dj_protocol(n)
    for x in bitstrings(n):
        for y in bitstrings(n):
            got = proto._outcome_law(int(x, 2) ^ int(y, 2))
            np.testing.assert_allclose(got, dj_joint_outcome(x, y), atol=1e-12)


def test_dj_equal_inputs_diagonal_uniform():
    proto = dj_protocol(4)
    pkl = proto._outcome_law(0b0110 ^ 0b0110)
    np.testing.assert_allclose(pkl, np.eye(4) / 4, atol=1e-12)


def test_dj_half_distance_zero_diagonal():
    proto = dj_protocol(4)
    for x, y in [(0b0000, 0b0011), (0b1010, 0b0110)]:
        pkl = proto._outcome_law(x ^ y)
        assert np.abs(np.diag(pkl)).max() < 1e-12


def test_dj_reference_promise():
    two, four = dj_protocol(2), dj_protocol(4)
    assert four.reference(("0101", "0101")) == 1
    assert four.reference(("0000", "1100")) == 0
    assert four.reference(("0000", "1000")) is PROMISE_VIOLATION
    assert two.reference(("00", "11")) is PROMISE_VIOLATION  # distance n, not n/2
    with pytest.raises(ValueError):
        two.reference(("00", "000"))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_dj_reference_matches_the_string_oracle_on_every_pair(n):
    """Every pair of n-bit strings, off the promise too: the vectorised
    reference, and the public one, give the oracle's value, so
    PROMISE_VIOLATION exactly off the promise.  The input domain holds the
    promise pairs: equal pairs, then x against x XOR h for each h of
    weight n/2, h increasing."""
    proto = dj_protocol(n)
    strings = bitstrings(n)
    pairs = list(itertools.product(strings, repeat=2))
    want = [dj_reference(x, y) for x, y in pairs]
    columns = proto._reference(np.array([(int(x, 2), int(y, 2)) for x, y in pairs]))
    assert [PROMISE_VIOLATION if c < 0 else proto.output_domain[c] for c in columns] == want
    assert [proto.reference(pair) for pair in pairs] == want
    half = [h for h in strings if h.count("1") == n // 2]
    promise = [(x, x) for x in strings]
    promise += [(x, format(int(x, 2) ^ int(h, 2), f"0{n}b")) for x in strings for h in half]
    assert [input_strings(proto, row) for row in proto.input_domain()] == promise


# every input of these configurations, against the string oracles
REFERENCE_CONFIGS = [("sum2", k) for k in (2, 3, 4, 5)]
REFERENCE_CONFIGS += [("geq", k, l) for k, l in ((2, 1), (2, 2), (3, 1), (4, 1))]


@pytest.mark.parametrize(
    "config", REFERENCE_CONFIGS, ids=["-".join(map(str, c)) for c in REFERENCE_CONFIGS]
)
def test_reference_matches_the_string_oracle_on_every_input(config):
    """The input domain runs through the parties' bit strings in
    itertools.product order, and the vectorised and public references
    agree with the oracle on each input."""
    name, *args = config
    proto = sum2_protocol(*args) if name == "sum2" else geq_protocol(*args)
    oracle = sum2_reference if name == "sum2" else geq_reference
    strings = list(itertools.product(*(bitstrings(n) for n in proto.input_lengths)))
    domain = proto.input_domain()
    assert [input_strings(proto, row) for row in domain] == strings
    want = [oracle(x) for x in strings]
    assert [proto.output_domain[c] for c in proto._reference(domain)] == want
    assert [proto.reference(x) for x in strings] == want


def test_dj_masking_is_a_bijection():
    """Every row of the masks is a permutation of GF(2^m), at every n the
    cap admits: `_message_laws` moves each outcome's mass unmerged."""
    for n in (2, 4, 8, 16):
        proto = dj_protocol(n)
        masks = proto._masks(proto.randomness_domain)
        assert masks.shape == (len(proto.randomness_domain), n)
        assert (np.sort(masks, axis=1) == np.arange(n)).all(), n


def test_dj_messages_agree_iff_outcomes_agree():
    proto = dj_protocol(4)
    domain = proto.randomness_domain
    masks = proto._masks(domain)
    rng = random.Random(3)
    for _ in range(50):
        i = rng.randrange(len(domain))
        a, b = rng.randrange(proto.n), rng.randrange(proto.n)
        assert (masks[i, a] == masks[i, b]) == (a == b)


@st.composite
def dj_cases(draw):
    """(protocol, promise input codes, randomness index) for n up to the cap."""
    proto = dj_protocol(draw(st.sampled_from([2, 4, 8, 16])))
    n = proto.n
    x = draw(st.text("01", min_size=n, max_size=n))
    flips = set(draw(st.permutations(range(n)))[: n // 2]) if draw(st.booleans()) else set()
    y = "".join(str(int(c) ^ (i in flips)) for i, c in enumerate(x))
    return proto, (int(x, 2), int(y, 2)), draw(st.integers(0, len(proto.randomness_domain) - 1))


@settings(derandomize=True, deadline=None)
@given(dj_cases())
def test_dj_masks_and_laws_match_oracle_property(case):
    """A mask row is p(r)p(v) + p(r') under the oracle arithmetic, and the
    message law under that value is the outcome law pushed through it."""
    proto, inputs, i = case
    r, rp = proto.randomness_domain[i]
    (row,) = proto._masks([(r, rp)])
    m = proto.m
    expected = [
        field_mul(pack(r), pack(format(v, f"0{m}b")), MODULI[m]) ^ pack(rp)
        for v in range(proto.n)
    ]
    assert row.tolist() == expected
    w = inputs[0] ^ inputs[1]
    pkl = proto._outcome_law(w)
    pushed = np.zeros((proto.n, proto.n))
    for k in range(proto.n):
        for l in range(proto.n):
            pushed[expected[k], expected[l]] += pkl[k, l]
    np.testing.assert_array_equal(proto._message_laws(w, [(r, rp)])[0], pushed)


def test_dj_run_message_law_by_hand():
    proto = dj_protocol(2)
    rec = proto.run(("00", "00"), ("1", "0"))
    # equal inputs: K = L uniform; mask r=1, rp=0 is the identity map
    assert set(rec.message_distribution) == {("0", "0"), ("1", "1")}
    assert all(
        abs(v - 0.5) < 1e-12 for v in rec.message_distribution.values()
    )
    assert abs(rec.output_distribution[1] - 1.0) < 1e-12
    rec = proto.run(("01", "01"), ("1", "1"))
    # K = L uniform again; rp=1 shifts both messages identically
    assert set(rec.message_distribution) == {("1", "1"), ("0", "0")}


def test_dj_domain_and_sampling():
    proto = dj_protocol(4)
    domain = proto.input_domain()
    assert len(domain) == proto.domain_size() == 16 * (1 + 6)
    assert all(
        dj_reference(*input_strings(proto, row)) is not PROMISE_VIOLATION for row in domain
    )
    rng = random.Random(17)
    for _ in range(200):
        x, y = input_strings(proto, proto.sample_input(rng))
        assert dj_reference(x, y) is not PROMISE_VIOLATION


def test_dj_cost_and_guards():
    assert dj_protocol(8).cost() == (6, "bits")
    for bad in (0, 1, 3, 6, 32):
        with pytest.raises(ValueError):
            dj_protocol(bad)
