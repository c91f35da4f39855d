"""The Pauli-frame path of sum2 and geq against the dense simulator.

sum2 and geq build message states by index arithmetic (an XOR mask and
a parity sign), never by simulating gates.  For every configuration
within the message-qubit cap, this file compares that path with a dense
fold of `_oracles.apply_gate` over the oracle gate lists of
`_oracles.ghz_gate_ops`, which share no code with the protocols, on the
all-zero input and three seeded inputs: message amplitudes, referee
outcome laws (against the full basis matrix) and output masses (that law
pushed through the referee's decoder), to 1e-12.  They cover every
randomness value where R * 2^q <= 2^20 (R randomness values, q message
qubits); above that, a seeded sample of 512.  Where every randomness
value is covered and R * 4^q <= 2^25, averaged messages are compared
with `_oracles.mix` too.  A hypothesis property draws further
(configuration, input, randomness) triples.  dj's output masses are
checked against its transcripts, exactly, and its outcome law against
the dense Hadamard fold, bit for bit.  Each party's frame, which defines
sum2 and geq, is compared with its gate list folded into masks
(`_oracles.ghz_party_frame`), on every (party, input, randomness) triple
where the inputs times R are at most 2^12, and on a seeded 16 x 16 grid
of inputs and randomness values per party above that.  sum2 is geq's
l = 1 case under the field's 1: at every k from 2 to 9 its frames and
decoder are checked against geq (k, 1)'s.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqm.protocols import _MAX_PROTOCOL_QUBITS, DJProtocol, GeqProtocol, Sum2Protocol

from _oracles import (
    StateVector,
    apply_gate,
    dense_dj_fold,
    domain_strings,
    ghz_blocks,
    ghz_gate_ops,
    ghz_party_frame,
    input_strings,
    mix,
    phi_basis,
    referee_output,
)

TOL = 1e-12
FULL_COVER_CAP = 1 << 20
SAMPLED_RANDOMNESS = 512
MIX_CAP = 1 << 25
PARTY_FRAME_CAP = 1 << 12
SAMPLED_PARTY_FRAMES = 16  # inputs, and randomness values, per party above the cap


def _internal_count(k):
    return k + (k & 1)


CONFIGS = [
    ("sum2", k, 1) for k in range(2, 11) if _internal_count(k) <= _MAX_PROTOCOL_QUBITS
]
CONFIGS += [
    ("geq", k, l)
    for k in range(2, 11)
    for l in range(1, _MAX_PROTOCOL_QUBITS // _internal_count(k) + 1)
]


@functools.cache
def build(name, k, l):
    return Sum2Protocol(k) if name == "sum2" else GeqProtocol(k, l)


def message_operations(proto, inputs, r) -> tuple:
    return tuple(
        op for party, x in enumerate(inputs) for op in ghz_gate_ops(proto, party, x, r)
    )


@functools.cache
def shared_state(proto) -> StateVector:
    return ghz_blocks(_internal_count(proto.party_count), proto.blocks)


def dense_message(proto, ops) -> np.ndarray:
    state = shared_state(proto)
    for gate, qubit in ops:
        state = apply_gate(state, gate, qubit)
    return state.amplitudes


def joint_basis(proto, blocks) -> np.ndarray:
    per_block = phi_basis(_internal_count(proto.party_count))
    return functools.reduce(np.kron, [per_block] * blocks)


def decoder(proto, dim) -> np.ndarray:
    """One-hot (outcome, output) matrix of the referee's decoder, read off
    each outcome's bit string."""
    outputs = [referee_output(proto, o) for o in range(dim)]
    return np.array([[y == out for out in proto.output_domain] for y in outputs], dtype=float)


def covered_randomness(proto, seed):
    domain = proto.randomness_domain
    if len(domain) * shared_state(proto).dim <= FULL_COVER_CAP:
        return list(domain), True
    return random.Random(seed).sample(domain, SAMPLED_RANDOMNESS), False


def assert_close(fast, dense):
    """Entrywise agreement of two equally shaped lists of arrays."""
    assert len(fast) == len(dense)
    flat = [np.concatenate([np.ravel(a) for a in arrays]) for arrays in (fast, dense)]
    assert np.abs(flat[0] - flat[1]).max() <= TOL


def check_against_dense(proto, blocks, seed):
    rng = random.Random(seed)
    inputs = [tuple("0" * n for n in proto.input_lengths)]
    inputs += [input_strings(proto, proto.sample_input(rng)) for _ in range(3)]
    randomness, full = covered_randomness(proto, seed)
    basis = joint_basis(proto, blocks)
    dim = shared_state(proto).dim
    decode = decoder(proto, dim)
    index = {r: i for i, r in enumerate(proto.randomness_domain)}
    rows = [index[r] for r in randomness]  # output_masses rows of the covered values
    for x in inputs:
        dense_states, folded = [], {}
        for r in randomness:
            ops = message_operations(proto, x, r)
            if ops not in folded:  # the dense fold reads only the operations
                folded[ops] = dense_message(proto, ops)
            dense_states.append(folded[ops])
        dense_states = np.array(dense_states)
        fast_states, fast_laws = [], []
        for r in randomness:
            record = proto.run(x, r)
            fast_states.append(record.message_state)
            law = np.zeros(dim)
            for outcome, prob in record.outcome_distribution.items():
                law[int(outcome, 2)] = prob
            fast_laws.append(law)
        dense_laws = np.abs(dense_states @ basis.conj().T) ** 2
        assert_close(fast_states, dense_states)
        assert_close(fast_laws, dense_laws)
        assert_close([proto.output_masses(x)[rows]], [dense_laws @ decode])
        if full and len(randomness) * dim * dim <= MIX_CAP:
            w = 1.0 / len(randomness)
            mixed = mix([(w, StateVector(s)) for s in dense_states])
            assert_close([proto.averaged_message(x).matrix], [mixed.matrix])


@pytest.mark.parametrize("name,k,l", CONFIGS, ids=[f"{n}-{k}-{l}" for n, k, l in CONFIGS])
def test_fast_path_matches_dense_fold(name, k, l):
    check_against_dense(build(name, k, l), l, seed=1000 * k + l)


@st.composite
def cases(draw):
    """(protocol, inputs, randomness) within the cap."""
    proto = build(*draw(st.sampled_from(CONFIGS)))
    inputs = tuple(draw(st.text("01", min_size=n, max_size=n)) for n in proto.input_lengths)
    domain = proto.randomness_domain
    return proto, inputs, domain[draw(st.integers(0, len(domain) - 1))]


@settings(derandomize=True, deadline=None)
@given(cases())
def test_fast_path_matches_dense_fold_property(case):
    proto, inputs, r = case
    dense = dense_message(proto, message_operations(proto, inputs, r))
    assert np.abs(proto.run(inputs, r).message_state - dense).max() <= TOL


def party_frame_mismatches(proto, seed) -> list:
    """(party, input code, randomness) triples on which `_party_frames`
    differs from the folded gate list; one `_party_frames` call covers
    every party's rows."""
    n = proto.input_lengths[0]
    inputs, domain = list(range(1 << n)), list(proto.randomness_domain)
    if len(inputs) * len(domain) > PARTY_FRAME_CAP:
        rng = random.Random(seed)
        inputs = rng.sample(inputs, min(len(inputs), SAMPLED_PARTY_FRAMES))
        domain = rng.sample(domain, SAMPLED_PARTY_FRAMES)
    parties = np.repeat(np.arange(proto.party_count, dtype=np.int16), len(inputs))
    codes = np.tile(inputs, proto.party_count)
    xmasks, zmasks = proto._party_frames(parties, codes, proto._randomness_ints(domain))
    mismatches = []
    for row, (party, x) in enumerate(zip(parties.tolist(), codes.tolist())):
        for column, r in enumerate(domain):
            want = ghz_party_frame(proto, party, format(x, f"0{n}b"), r)
            if (xmasks[row, column], zmasks[row, column]) != want:
                mismatches.append((party, x, r))
    return mismatches


@pytest.mark.parametrize("name,k,l", CONFIGS, ids=[f"{n}-{k}-{l}" for n, k, l in CONFIGS])
def test_party_frames_match_gate_fold(name, k, l):
    assert party_frame_mismatches(build(name, k, l), seed=1000 * k + l) == []


class DroppedVirtualFlipSum2(Sum2Protocol):
    """sum2 whose last real party, k odd, leaves out r's X flip of the
    virtual party's qubit (bit 0)."""

    def _party_frames(self, parties, codes, randomness):
        xmasks, zmasks = super()._party_frames(parties, codes, randomness)
        last = parties[:, None] == self.party_count - 1
        return xmasks ^ np.where(last, randomness[0] & 1, 0), zmasks


def test_party_frame_fold_catches_a_dropped_virtual_flip():
    """Exactly the last party's frames under r with an odd last bit differ."""
    proto = DroppedVirtualFlipSum2(3)
    mismatches = party_frame_mismatches(proto, seed=0)
    odd = [r for r in proto.randomness_domain if r[-1] == "1"]
    assert sorted(mismatches) == sorted((2, x, r) for x in range(4) for r in odd)


@pytest.mark.parametrize("k", range(2, 10))
def test_sum2_is_geq_under_the_identity_mask(k):
    """sum2's frames are geq (k, 1)'s under the field's 1 (bit string
    "10", constant term first), for every party, input code and block
    string; and sum2 decodes (0, 0) exactly where geq decodes 1."""
    sum2, geq = Sum2Protocol(k), GeqProtocol(k, 1)
    strings = list(sum2.randomness_domain)
    parties = np.repeat(np.arange(k, dtype=np.int16), 4)
    codes = np.tile(np.arange(4), k)
    got = sum2._party_frames(parties, codes, sum2._randomness_ints(strings))
    unmasked = geq._randomness_ints([((s,), "10") for s in strings])
    want = geq._party_frames(parties, codes, unmasked)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(sum2._output_columns == 0, geq._output_columns == 1)


@pytest.mark.parametrize("n", [2, 4])
def test_dj_output_masses_match_run(n):
    """Each row of dj's output masses is exactly its transcript's output
    law, for every promise input and every randomness value."""
    proto = DJProtocol(n)
    domain = proto.randomness_domain
    for x in domain_strings(proto):
        laws = [proto.run(x, r).output_distribution for r in domain]
        expected = [[law[y] for y in proto.output_domain] for law in laws]
        assert proto.output_masses(x).tolist() == expected, x


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_dj_law_is_the_dense_hadamard_fold(n):
    """dj's outcome law equals the dense fold bit for bit, over every
    x XOR y up to n = 8 and a seeded 64 at n = 16.
    The fold's float noise reaches reports (`verify --protocol dj --n 4`
    prints `max_distance` 5.28699740953e-34), so a transform that rounds
    differently, such as a fast Walsh-Hadamard, would change their bytes."""
    proto = DJProtocol(n)
    rng = random.Random(n)
    if n <= 8:
        patterns = range(1 << n)
    else:
        patterns = [rng.getrandbits(n) for _ in range(64)]
    for w in patterns:
        x = rng.getrandbits(n)
        inputs = (format(x, f"0{n}b"), format(x ^ w, f"0{n}b"))
        law = np.abs(dense_dj_fold(n, inputs, range(2 * proto.m))) ** 2
        assert proto._outcome_law(w).tobytes() == law.reshape(n, n).tobytes(), inputs
