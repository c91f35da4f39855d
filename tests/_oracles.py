"""Independent brute-force oracles the tests compare against.

Everything here is written from the definitions with the dumbest
possible loops, sharing no code with the package: polynomial arithmetic
works on coefficient lists, rectangle search enumerates ordered tuples
directly via itertools.permutations, cliques come from a full subset
scan, and quantum states come from a dense gate simulator that applies
one named gate at a time.  `enumerated_alpha` borrows only the package's
result containers, so that its answer compares with `bounds.alpha` by
repr, and the simulator only the validated `DensityMatrix` container of
`psqm.qsim`; its states are this file's `StateVector`, since the package
reports message states as plain amplitude arrays.  Party message states are
dense folds too, and `weight_sum_maxima` builds its Grams from them.
The reference functions work on bit strings, character by character:
they are the oracle for the protocols' vectorised references on integer
codes.  `geq_mask_identity_check` reads the package's product table, the
thing it checks.
`ghz_party_frame` folds one party's gate list into the X and Z masks
that the protocols' `_party_frames` must give.
`key_count_weight_sum_maxima` reads the keys off the protocol's own
party frames: it is the reference for how the package combines them.
Slow on purpose; only used at small sizes.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np

from psqm import gf2m
from psqm.bounds import AlphaResult, Rectangle
from psqm.protocols import PROMISE_VIOLATION, _outcome_tables
from psqm.qsim import CONSTRUCTION_TOL, DensityMatrix


# ---------------------------------------------------------------- GF(2)[a]


def poly_mul(a: int, b: int) -> int:
    """Schoolbook product of packed polynomials via coefficient lists."""
    ca = [(a >> i) & 1 for i in range(max(a.bit_length(), 1))]
    cb = [(b >> i) & 1 for i in range(max(b.bit_length(), 1))]
    out = [0] * (len(ca) + len(cb))
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            out[i + j] ^= x & y
    return sum(bit << i for i, bit in enumerate(out))


def poly_rem(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def reducible_products(degree: int) -> set:
    """Every polynomial of the given degree that factors nontrivially."""
    out = set()
    for d1 in range(1, degree):
        d2 = degree - d1
        for a in range(1 << d1, 1 << (d1 + 1)):
            for b in range(1 << d2, 1 << (d2 + 1)):
                out.add(poly_mul(a, b))
    return out


def oracle_irreducible(poly: int) -> bool:
    d = poly.bit_length() - 1
    if d < 1:
        return False
    return poly not in reducible_products(d)


def field_mul(a: int, b: int, modulus: int) -> int:
    return poly_rem(poly_mul(a, b), modulus)


# ------------------------------------------------ dense gate simulator


MAX_QUBITS = 12


class StateVector:
    """Normalized pure state on `qubit_count` qubits."""

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError("amplitude vector length must be a power of two")
        q = amps.size.bit_length() - 1
        if q > MAX_QUBITS:
            raise ValueError(f"{q} qubits exceeds the {MAX_QUBITS}-qubit cap")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"state not normalized (norm {norm})")
        self.amplitudes = amps
        self.qubit_count = q

    @property
    def dim(self) -> int:
        return self.amplitudes.size


_GATES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}


def ghz(k: int) -> StateVector:
    """(|0..0> + |1..1>)/sqrt(2) on k qubits."""
    if k < 1:
        raise ValueError("need at least one qubit")
    amps = np.zeros(1 << k, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(amps)


def apply_gate(state: StateVector, gate: str, qubit: int) -> StateVector:
    """Apply a named single-qubit gate (X, Z or H) to one qubit."""
    if gate not in _GATES:
        raise ValueError(f"unknown gate {gate!r}")
    q = state.qubit_count
    if not 0 <= qubit < q:
        raise ValueError(f"qubit {qubit} out of range for {q} qubits")
    tensor = state.amplitudes.reshape([2] * q)
    tensor = np.moveaxis(np.tensordot(_GATES[gate], tensor, axes=([1], [qubit])), 0, qubit)
    return StateVector(tensor.reshape(-1))


def apply_phase_oracle(state: StateVector, signs) -> StateVector:
    """Multiply each computational amplitude by the matching +/-1 sign."""
    signs = np.asarray(signs)
    if signs.shape != (state.dim,):
        raise ValueError("sign vector length must match the state dimension")
    if not np.all(np.abs(signs * signs - 1) == 0):
        raise ValueError("signs must be +1 or -1")
    return StateVector(state.amplitudes * signs)


def phi_basis(k: int) -> np.ndarray:
    """GHZ-type basis {(|y,0> + (-1)^z |~y,1>)/sqrt(2)} on k qubits, as the
    unitary matrix whose row i is basis vector i.

    Basis vector index is the integer with bits y_1..y_{k-1} z, so y is
    carried by the first k-1 qubits and the last qubit separates the
    two branches.  The protocols read their outcomes off Pauli frames;
    this matrix is the tests' dense oracle for them.
    """
    if k < 2:
        raise ValueError("basis needs at least two qubits")
    rows = np.arange(1 << k)
    y0 = rows & ~1  # |y,0>; its complement |~y,1> is y0 ^ (2^k - 1)
    root = 1 / np.sqrt(2)
    mat = np.zeros((rows.size, rows.size), dtype=complex)
    mat[rows, y0] = root
    mat[rows, y0 ^ (rows.size - 1)] = np.where(rows & 1, -root, root)
    return mat


def mix(ensemble) -> DensityMatrix:
    """Density matrix sum_i w_i |psi_i><psi_i| of a weighted ensemble."""
    ensemble = list(ensemble)
    if not ensemble:
        raise ValueError("empty ensemble")
    weights = np.array([w for w, _ in ensemble], dtype=float)
    if weights.min() < 0 or abs(weights.sum() - 1.0) > CONSTRUCTION_TOL:
        raise ValueError("weights must be nonnegative and sum to 1")
    states = np.array([s.amplitudes for _, s in ensemble])
    return DensityMatrix((states.T * weights) @ states.conj())


# --------------------------------------------------- rectangle quantities


def rect_weight(weights, rows, cols) -> float:
    return sum(weights[i][j] for i in rows for j in cols)


def induced(entries, rows, cols):
    return tuple(tuple(entries[i][j] for j in cols) for i in rows)


def oracle_alpha(entries, weights) -> float:
    """Max over ordered pairs of similar disjoint rectangles of the
    smaller rectangle weight, by literal enumeration."""
    n1, n2 = len(entries), len(entries[0])
    best = 0.0
    for a in range(1, n1 + 1):
        for b in range(1, n2 + 1):
            for S in itertools.permutations(range(n1), a):
                for T in itertools.permutations(range(n2), b):
                    mat = induced(entries, S, T)
                    w1 = rect_weight(weights, S, T)
                    for S2 in itertools.permutations(range(n1), a):
                        rows_moved = all(i != i2 for i, i2 in zip(S, S2))
                        for T2 in itertools.permutations(range(n2), b):
                            if not rows_moved and any(
                                j == j2 for j, j2 in zip(T, T2)
                            ):
                                continue
                            if induced(entries, S2, T2) != mat:
                                continue
                            w2 = rect_weight(weights, S2, T2)
                            best = max(best, min(w1, w2))
    return best


def enumerated_pairs(table, mu):
    """Yield (min_weight, cells, S, T, sigma, tau) index tuples for every
    pair of similar disjoint rectangles, in `bounds.alpha`'s visit order.

    Canonical form: the first rectangle's rows S and columns T are
    sorted; sigma and tau are the position-wise images forming the
    second rectangle.  Weights are exact `Fraction` sums.
    """
    n1, n2 = len(table.entries), len(table.entries[0])
    e = table.entries
    w = [[Fraction(v) for v in row] for row in mu.weights]
    # bit y * n2 + y' of row_mask[x][x'] is set when e[x][y] == e[x'][y']
    row_mask = [
        [
            sum(1 << (y * n2 + yp) for y in range(n2) for yp in range(n2) if e[x][y] == e[xp][yp])
            for xp in range(n1)
        ]
        for x in range(n1)
    ]

    def extend(S, sigma, mask, row_disjoint, colw1, colw2, start, T, tau, w_first, w_second):
        for y in range(start, n2):
            for yp in range(n2):
                if yp in tau or not mask >> (y * n2 + yp) & 1:
                    continue
                T2, tau2 = T + (y,), tau + (yp,)
                nw1, nw2 = w_first + colw1[y], w_second + colw2[yp]
                if row_disjoint or all(j != jp for j, jp in zip(T2, tau2)):
                    yield min(nw1, nw2), len(S) * len(T2), S, T2, sigma, tau2
                if len(T2) < n2:
                    yield from extend(
                        S, sigma, mask, row_disjoint, colw1, colw2, y + 1, T2, tau2, nw1, nw2
                    )

    for a in range(1, n1 + 1):
        for S in itertools.combinations(range(n1), a):
            colw1 = [sum(w[s][y] for s in S) for y in range(n2)]  # each column's weight on S
            for sigma in itertools.permutations(range(n1), a):
                mask = (1 << (n2 * n2)) - 1
                for s, t in zip(S, sigma):
                    mask &= row_mask[s][t]
                if mask:
                    row_disjoint = all(s != t for s, t in zip(S, sigma))
                    colw2 = [sum(w[t][y] for t in sigma) for y in range(n2)]
                    yield from extend(
                        S, sigma, mask, row_disjoint, colw1, colw2, 0, (), (), 0, 0
                    )


def enumerated_alpha(table, mu) -> AlphaResult:
    """alpha by visiting every pair: the first pair of largest min-weight
    is the witness, and max_cells is the largest pair's cell count; the
    value is the exact maximum rounded once to a float."""
    best, witness, max_cells = 0, None, 0
    for value, cells, S, T, sigma, tau in enumerated_pairs(table, mu):
        max_cells = max(max_cells, cells)
        if value > best:
            best, witness = value, (S, T, sigma, tau)
    if witness is None:
        return AlphaResult(float(best), None, max_cells)
    S, T, sigma, tau = witness
    rows, cols = table.rows, table.cols
    return AlphaResult(
        float(best),
        (
            Rectangle(tuple(rows[i] for i in S), tuple(cols[j] for j in T)),
            Rectangle(tuple(rows[i] for i in sigma), tuple(cols[j] for j in tau)),
        ),
        max_cells,
    )


def oracle_beta(entries, weights) -> float:
    support = [
        (i, j)
        for i in range(len(entries))
        for j in range(len(entries[0]))
        if weights[i][j] > 0
    ]
    per_class: dict = {}
    for i, j in support:
        per_class.setdefault(entries[i][j], []).append(weights[i][j])
    ratios = []
    for masses in per_class.values():
        total = sum(masses)
        if total <= 0:
            continue
        distinct = sum(
            w1 * w2
            for a, w1 in enumerate(masses)
            for b, w2 in enumerate(masses)
            if a != b
        )
        ratios.append(distinct / (total * total))
    return min(ratios)


def oracle_min_entropy(weights) -> float:
    import math

    return -math.log2(max(v for row in weights for v in row))


def oracle_bound(entries, weights) -> float:
    import math

    a = oracle_alpha(entries, weights)
    b = oracle_beta(entries, weights)
    return math.log2(1.0 / a) + oracle_min_entropy(weights) - math.log2(1.0 / b) - 1.0


def oracle_nondegenerate(entries) -> bool:
    """Total tables only: all row vectors pairwise distinct and all
    column vectors pairwise distinct."""
    rows = [tuple(r) for r in entries]
    cols = [tuple(r[j] for r in entries) for j in range(len(entries[0]))]
    return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


# ------------------------------------------------------------- cliques


def oracle_max_clique(count: int, edge) -> tuple:
    """(size, members) of a maximum clique by full subset scan."""
    best, members = 0, ()
    for mask in range(1 << count):
        chosen = [i for i in range(count) if (mask >> i) & 1]
        if len(chosen) <= best:
            continue
        if all(edge(i, j) for i, j in itertools.combinations(chosen, 2)):
            best, members = len(chosen), tuple(chosen)
    return best, members


# -------------------------------------------------- protocol-side oracles


def bitstrings(length):
    return ["".join(bits) for bits in itertools.product("01", repeat=length)]


def input_strings(proto, codes) -> tuple:
    """One input's codes as bit strings, big-endian, one per party."""
    return tuple(format(int(c), f"0{n}b") for c, n in zip(codes, proto.input_lengths))


def domain_strings(proto) -> list:
    """The protocol's input domain as tuples of bit strings, in its order."""
    return [input_strings(proto, row) for row in proto.input_domain()]


def sum2_reference(inputs) -> tuple[int, int]:
    """(sum of first bits, sum of second bits), both mod 2."""
    return (
        sum(int(x[0]) for x in inputs) & 1,
        sum(int(x[1]) for x in inputs) & 1,
    )


def geq_reference(inputs) -> int:
    """1 iff the coordinate-wise XOR of all inputs is the zero string."""
    return int(all(sum(int(x[i]) for x in inputs) % 2 == 0 for i in range(len(inputs[0]))))


def dj_reference(x: str, y: str):
    """1 if equal, 0 at Hamming distance n/2, PROMISE_VIOLATION otherwise."""
    if len(x) != len(y):
        raise ValueError("inputs must have equal length")
    dist = sum(a != b for a, b in zip(x, y))
    if dist == 0:
        return 1
    if dist * 2 == len(x):
        return 0
    return PROMISE_VIOLATION


def geq_mask_identity_check(inputs, mask: str) -> bool:
    """Whether masking each input then summing equals masking the sum.

    Both sides live in GF(2^len(mask)); the mask must be nonzero.
    """
    if set(mask) == {"0"}:
        raise ValueError("mask must be nonzero")
    if {len(x) for x in inputs} - {len(mask)} or set("".join(inputs) + mask) - {"0", "1"}:
        raise ValueError(f"inputs and mask must be {len(mask)}-bit strings")
    row = gf2m.product_table(len(mask))[int(mask, 2)]
    total = xor = 0
    for x in inputs:
        total ^= int(row[int(x, 2)])
        xor ^= int(x, 2)
    return total == int(row[xor])



def ghz_gate_ops(proto, party, own_input, randomness) -> list:
    """(gate, qubit) list of one real party of sum2 or geq, written from
    the protocol description, Z's before X's on the party's GHZ shares.

    Qubit b*P + j is block b's share of internal party j (P internal
    parties); the last real party also plays the virtual internal party
    with the all-zero input when the real party count is odd.  sum2:
    Z if the second input bit is set, X if x[0] ^ r[j].  geq: the field
    product a = mask * x (bit strings, constant term first) gives, per
    block b, Z if a[2b+1] is set and X if a[2b] ^ blocks[b][j].
    """
    k = proto.party_count
    internal_count = k + (k & 1)
    internals = [party]
    if internal_count > k and party == k - 1:
        internals.append(internal_count - 1)
    ops = []
    for j in internals:
        x = own_input if j == party else "0" * len(own_input)
        if proto.name == "sum2":
            zs, xs = [(int(x[1]), j)], [(int(x[0]) ^ int(randomness[j]), j)]
        else:
            blocks, mask = randomness
            packed = [sum(int(c) << i for i, c in enumerate(s)) for s in (mask, x)]
            value = field_mul(*packed, gf2m.find_irreducible(len(x)))
            a = [(value >> i) & 1 for i in range(len(x))]
            qubits = [b * internal_count + j for b in range(len(blocks))]
            zs = [(a[2 * b + 1], q) for b, q in enumerate(qubits)]
            xs = [(a[2 * b] ^ int(blocks[b][j]), q) for b, q in enumerate(qubits)]
        ops += [("Z", q) for bit, q in zs if bit]
        ops += [("X", q) for bit, q in xs if bit]
    return ops


def ghz_party_frame(proto, party, own_input, randomness) -> tuple[int, int]:
    """(xmask, zmask) of one real party's gates (`ghz_gate_ops`) folded into
    the operator X^xmask Z^zmask, over big-endian bits of the message's
    qubits: the Z's come before the X's and each gate flips one bit."""
    qubits = proto.cost()[0]
    masks = {"X": 0, "Z": 0}
    for gate, q in ghz_gate_ops(proto, party, own_input, randomness):
        masks[gate] ^= 1 << (qubits - 1 - q)
    return masks["X"], masks["Z"]


def ghz_blocks(width: int, blocks: int) -> StateVector:
    """`blocks` GHZ states of `width` qubits each, as one state."""
    return StateVector(functools.reduce(np.kron, [ghz(width).amplitudes] * blocks))


def dense_party_message(proto, party, own_input, randomness) -> np.ndarray:
    """One real party's gates (`ghz_gate_ops`) applied densely to its shares
    of the GHZ blocks, each block's shares preceded by a reference qubit
    that holds the block's branch: per block, (|0>v0 + |1>v1)/sqrt(2) with
    v0/v1 the gates applied to the all-zero / all-one share.

    The layout is `ghz_gate_ops`'s: qubit b*P + j belongs to real party
    min(j, k - 1), for P internal parties and k real ones."""
    k = proto.party_count
    internal_count = k + (k & 1)
    qubits = range(internal_count * proto.blocks)
    owned = [q for q in qubits if min(q % internal_count, k - 1) == party]
    share = len(owned) // proto.blocks
    # block b of the register holds [reference, share...]; owned qubits
    # are block-major, so the i-th one sits at register qubit i + i//share + 1
    state = ghz_blocks(share + 1, proto.blocks)
    for gate, q in ghz_gate_ops(proto, party, own_input, randomness):
        i = owned.index(q)
        state = apply_gate(state, gate, i + i // share + 1)
    return state.amplitudes


def dense_dj_fold(n: int, inputs, qubits) -> np.ndarray:
    """dj's shared state (1/sqrt(n)) sum_i |i>|i> phased by (-1)^(x_i + y_j)
    at |i>|j>, then H on each of `qubits`."""
    amps = np.zeros(n * n, dtype=complex)
    amps[np.arange(n) * (n + 1)] = 1 / np.sqrt(n)
    x, y = ([int(c) for c in s] for s in inputs)
    signs = np.array([1 - 2 * ((a + b) & 1) for a in x for b in y])
    state = apply_phase_oracle(StateVector(amps), signs)
    for qubit in qubits:
        state = apply_gate(state, "H", qubit)
    return state.amplitudes


def party_message(proto, party, own_input, randomness) -> np.ndarray:
    """Purified message state of one party, the others' inputs aside.

    sum2/geq: `dense_party_message`.  dj: the party's share of the phased
    state, Hadamard-transformed, referenced by the other party's copy (the
    other input all zeros); it does not depend on the randomness."""
    if proto.name != "dj":
        return dense_party_message(proto, party, own_input, randomness)
    m, zeros = proto.m, "0" * proto.n
    inputs = (own_input, zeros) if party == 0 else (zeros, own_input)
    return dense_dj_fold(proto.n, inputs, range(party * m, party * m + m))


def referee_output(proto, outcome_index: int):
    """The sum2/geq referee's output, read off the outcome's bit string:
    per GHZ block, the parity of every bit but the last, and the last bit.
    sum2 outputs that pair; geq outputs 1 iff both are 0 in every block."""
    p = proto._parties
    bits = format(outcome_index, f"0{p * proto.blocks}b")
    chunks = [bits[b * p : (b + 1) * p] for b in range(proto.blocks)]
    pairs = [(chunk[:-1].count("1") & 1, int(chunk[-1])) for chunk in chunks]
    if proto.name == "sum2":
        return pairs[0]
    return int(all(pair == (0, 0) for pair in pairs))


def sum2_overlap_sq(x, z, r, rp, internal_party) -> float:
    """Squared overlap of one party's purified message states in the
    two-bit-sum protocol: 1 iff the X exponents and Z exponents agree."""
    s = int(x[0]) ^ int(r[internal_party])
    t = int(z[0]) ^ int(rp[internal_party])
    return float(s == t and x[1] == z[1])


def dj_joint_outcome(x: str, y: str) -> np.ndarray:
    """Exact joint outcome law for the promise protocol, built from the
    textbook formula with explicit Hadamard matrices."""
    n = len(x)
    m = n.bit_length() - 1
    state = np.zeros((n, n), dtype=complex)
    for i in range(n):
        state[i, i] = 1.0 / np.sqrt(n)
    for i in range(n):
        state[i, :] *= (-1) ** int(x[i])
        state[:, i] *= (-1) ** int(y[i])
    had = np.array(
        [
            [(-1) ** bin(a & i).count("1") for i in range(n)]
            for a in range(n)
        ],
        dtype=complex,
    ) / np.sqrt(n)
    out = had @ state @ had.T
    return np.abs(out) ** 2


def projector_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance of the rank-one projectors of two amplitude
    vectors; zero iff the states are equal up to global phase."""
    return float(np.linalg.norm(np.outer(a, a.conj()) - np.outer(b, b.conj())))


def weight_sum_maxima(protocol, party, own=None, domain=None) -> tuple:
    """Largest summed squared overlap of one party's message states, over
    every randomness pair (r, r') and input x: (sum over z != x, sum over
    all z) of |<psi(x;r)|psi(z;r')>|^2, one small Gram per pair of the
    `party_message` folds.  `own` and `domain` default to all of the
    party's inputs (codes) and randomness; entry i of `own` is the input
    that the party's i-th message state is folded from."""
    domain = protocol.randomness_domain if domain is None else domain
    own = protocol.party_inputs(party) if own is None else own
    own = [format(int(x), f"0{protocol.input_lengths[party]}b") for x in own]
    states = {r: np.array([party_message(protocol, party, x, r) for x in own]) for r in domain}
    max_excl = max_incl = 0.0
    for r in domain:
        for rp in domain:
            w = np.abs(states[r].conj() @ states[rp].T) ** 2
            incl = w.sum(axis=1)
            excl = incl - np.diag(w)
            max_excl = max(max_excl, float(excl.max()))
            max_incl = max(max_incl, float(incl.max()))
    return max_excl, max_incl


def pairwise_nondegenerate(protocol) -> bool:
    """k-ary non-degeneracy by enumerating input pairs: every pair of one
    party's inputs is split by some assignment of the other parties, with
    both outputs defined.  |own|^2 * |rest| evaluations per party."""
    if not protocol.reference_total:
        return False
    k = protocol.party_count
    strings = [bitstrings(n) for n in protocol.input_lengths]
    for party in range(k):
        others = list(itertools.product(*(strings[j] for j in range(k) if j != party)))
        for a, b in itertools.combinations(strings[party], 2):
            if not any(
                protocol.reference(rest[:party] + (a,) + rest[party:])
                != protocol.reference(rest[:party] + (b,) + rest[party:])
                for rest in others
            ):
                return False
    return True


def key_count_weight_sum_maxima(protocol, party, own, domain) -> tuple:
    """sum2/geq weight-sum maxima by counting equal keys for every
    randomness pair (r, r'): for each r' a histogram of the keys under r',
    read at every input's key under every r.  R^2 * |own| reads; the keys
    are the referee's outcome tables read at the protocol's own party
    frames."""
    own = np.asarray(own)
    parties = np.full(own.size, party, dtype=np.int16)
    xmasks, zmasks = protocol._party_frames(parties, own, protocol._randomness_ints(domain))
    ys, zs = _outcome_tables(protocol._parties, protocol.blocks)
    keys = (ys[xmasks] | zs[zmasks]).T  # one row per randomness value
    max_excl = max_incl = 0
    for row in keys:  # r'
        incl = np.bincount(row, minlength=ys.size)[keys]
        max_incl = max(max_incl, int(incl.max()))
        max_excl = max(max_excl, int((incl - (keys == row)).max()))
    return float(max_excl), float(max_incl)
