"""Concrete private simultaneous-message protocols.

Three referee-style protocols are provided, each with exhaustive
randomness domains and deterministic input enumeration.  The factory
names are the classes, which share one set of public methods:

* ``sum2_protocol(k)``: k parties, 2-bit inputs, one shared GHZ state
  masked by a parity-constrained random string; the referee measures in
  the GHZ-type basis and reads off the two coordinate-wise input sums.
* ``geq_protocol(k, l)``: 2l-bit inputs; l GHZ blocks plus a nonzero
  field mask decide whether all 2l coordinate sums vanish.
* ``dj_protocol(n)``: two parties with n-bit inputs promised equal
  or at Hamming distance n/2; EPR-correlated measurements are masked
  into classical messages and executed in distribution (no sampling).
  Every dj law is real and depends on the inputs only through x XOR y.

Party inputs are bit strings at the public edge (`reference`,
`output_masses`, `averaged_message`, `run`), where `_codes` validates each
one and reads it, once, as a big-endian integer: its code.  Everything
private takes codes: `input_domain` is an (N, party_count) code array, and
`_reference`, `_output_masses` and `_averaged_matrix` each take a block of
its rows at once (`_runs` takes one input under randomness values as
`_randomness_ints` parses them).  dj's messages are classical, so its
`_averaged_matrix` gives each row's law, the diagonal, which only
`averaged_message` lifts to a matrix.  `_blocks` sizes the blocks to at
most _BLOCK_BYTES of states or masses, and each public method above calls
a hook with a block of one row.  Randomness components and classical
messages are bit strings.  Setting `randomness_domain` re-derives all that
is read off it, through `_randomness_ints`, which refuses a value of the
wrong shape; an empty domain is refused too.  sum2 and geq share one
implementation, defined party by party by the Pauli X and Z masks that
each party applies to the qubits it sends (`_party_frames`); sum2 is its
l = 1 case with the mask fixed to the field's 1, and each protocol holds
only data.  Odd party counts are handled by an internal virtual party with
the all-zero input whose qubits are sent by the last real party.  Outputs:
sum2 yields the pair (sum of first bits, sum of second bits); geq and dj
yield 1 for "all sums zero" / "equal" and 0 otherwise.  Inputs off the dj
promise map to PROMISE_VIOLATION, a distinguished non-output.
"""

import functools
import itertools
from types import SimpleNamespace

import numpy as np

from . import gf2m, qsim


class _PromiseViolation:
    def __repr__(self):
        return "promise-violation"


PROMISE_VIOLATION = _PromiseViolation()

_MAX_PROTOCOL_QUBITS = 10  # density matrices over the full message space stay desk-scale
_MAX_DJ_QUBITS = 8
_KEY_CHUNK = 1 << 21  # (input, randomness) keys that weight_sum_maxima holds at once
_BLOCK_BYTES = 1 << 16  # a block's states or output masses; 1 << 18 raised verify's peak RSS 4%
_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def _bitstrings(length: int):
    return [format(v, f"0{length}b") for v in range(1 << length)]


def _even_strings(length: int):
    """The bit strings of even parity: one GHZ block's randomness values."""
    return [s for s in _bitstrings(length) if not _PARITY[int(s, 2)]]


def _fits(value, template) -> bool:
    """Whether value is a string of as many bits as the template string, or
    a tuple whose items fit those of the template tuple."""
    if type(template) is str:
        return type(value) is str and len(value) == len(template) and not value.strip("01")
    return type(value) is tuple and len(value) == len(template) and all(map(_fits, value, template))


def _refuse_misfits(randomness_values, template):
    """Refuse, with a ValueError that names it, a randomness value that does
    not fit the template: the check of every `_randomness_ints`."""
    for value in randomness_values:
        if not _fits(value, template):
            raise ValueError(f"randomness value {value!r} is not shaped like {template!r}")


def _popcount(values, bits: int):
    """Set bits of each value below 2^bits; np.bitwise_count needs numpy 2."""
    return sum((values >> b) & 1 for b in range(bits))


# the parity of every index within the cap
_PARITY = _popcount(np.arange(1 << _MAX_PROTOCOL_QUBITS), _MAX_PROTOCOL_QUBITS) & 1


def _draw(rng, bits: int) -> int:
    """A code from `bits` calls of rng.getrandbits(1), the first most significant."""
    code = 0
    for _ in range(bits):
        code = code << 1 | rng.getrandbits(1)
    return code


class TranscriptRecord(SimpleNamespace):
    """One protocol execution under a fixed randomness value: its
    outcome_distribution and output_distribution, and its message_state
    (amplitudes, big-endian) or message_distribution (a classical law), the
    other None.  No field is a class attribute: `bench/inproc.py --traced 1`
    wraps this module's class attributes that share a layer's name."""


class ProtocolInstance:
    """Common interface: what `verify` and `run` read of a protocol.

    That is the randomness domain, the input domain and reference, the
    message states of `run`, the exact output law under every randomness
    value, the randomness-averaged messages and each party's weight-sum
    maxima.  Each party's message depends only on its own input and the
    shared randomness or entanglement, which stays private to the class.
    """

    name: str
    party_count: int
    input_lengths: tuple[int, ...]
    output_domain: tuple
    reference_total: bool

    @property
    def randomness_domain(self) -> tuple:
        """The pre-shared randomness, enumerated in full."""
        return self._randomness_domain

    @randomness_domain.setter
    def randomness_domain(self, values):
        """Set the domain and all read off it: its ints, set and an empty memo.
        An empty domain, or one with a malformed value, is refused and leaves
        the domain as it was."""
        values = tuple(values)
        if not values:
            raise ValueError("the randomness domain is empty")
        self._domain_ints = self._randomness_ints(values)
        self._randomness_domain = values
        self._randomness_set = frozenset(values)
        self._memo: dict = {}

    def cost(self) -> tuple[int, str]:
        raise NotImplementedError

    def reference(self, inputs):
        """The reference function's value, or PROMISE_VIOLATION."""
        (column,) = self._reference(np.array([self._codes(inputs)]))
        return PROMISE_VIOLATION if column < 0 else self.output_domain[column]

    def _reference(self, codes: np.ndarray) -> np.ndarray:
        """Column of output_domain that the reference gives each row of an
        (N, party_count) code array, or -1 off the promise."""
        raise NotImplementedError

    def input_domain(self) -> np.ndarray:
        """Every input as a row of codes, party 0's most significant in the
        row order, in the narrowest unsigned dtype that holds them."""
        sizes = [1 << n for n in self.input_lengths]
        grid = np.indices(sizes, dtype=np.min_scalar_type(max(sizes) - 1))
        return grid.reshape(len(sizes), -1).T

    def domain_size(self) -> int:
        return 1 << sum(self.input_lengths)

    def sample_input(self, rng) -> tuple[int, ...]:
        return tuple(_draw(rng, n) for n in self.input_lengths)

    def party_inputs(self, party: int) -> np.ndarray:
        if not 0 <= party < self.party_count:
            raise ValueError(f"no party {party}")
        return np.arange(1 << self.input_lengths[party])

    def run(self, inputs, randomness) -> TranscriptRecord:
        if randomness not in self._randomness_set:
            raise ValueError(f"randomness {randomness!r} is not in the domain")
        return next(self._runs(self._codes(inputs), self._randomness_ints([randomness])))

    def _runs(self, codes, randomness):
        """`run` of one input's codes under each randomness value, in turn,
        the values parsed by `_randomness_ints`."""
        raise NotImplementedError

    def output_masses(self, inputs) -> np.ndarray:
        """Exact output law under every randomness value: row i is for
        randomness_domain[i], column j the mass on output_domain[j]."""
        return self._output_masses(np.array([self._codes(inputs)]))[0]

    def _output_masses(self, codes) -> np.ndarray:
        """`output_masses` of each row of a block of codes, stacked."""
        raise NotImplementedError

    def _averaged_matrix(self, codes) -> np.ndarray:
        """Randomness-averaged message of each row of a block of codes, stacked
        and unvalidated: a matrix, or a classical message's diagonal.  Each
        is a convex combination of states, so PSD by construction."""
        raise NotImplementedError

    def averaged_message(self, inputs) -> qsim.DensityMatrix:
        """The randomness-averaged message, a diagonal lifted, validated."""
        rho = self._averaged_matrix(np.array([self._codes(inputs)]))[0]
        return qsim.DensityMatrix(np.diag(rho) if rho.ndim == 1 else rho)

    def _blocks(self, codes, item_bytes: int):
        """(start, rows) slices of an (N, party_count) code array for the
        block hooks, which hold item_bytes per input and randomness value:
        at most _BLOCK_BYTES in all, and one row at least."""
        step = max(1, _BLOCK_BYTES // (len(self.randomness_domain) * item_bytes))
        return ((start, codes[start : start + step]) for start in range(0, len(codes), step))

    def weight_sum_maxima(self, party: int, own_inputs, randomness_values) -> tuple[float, float]:
        """Largest sums over z in own_inputs (codes) of |<psi(x;r)|psi(z;r')>|^2,
        over x in own_inputs and r, r' in randomness_values: (z != x, all z)."""
        own = np.asarray(own_inputs)
        if not (own.size and np.isin(own, self.party_inputs(party)).all()):
            raise ValueError(f"own_inputs must be one or more of party {party}'s codes")
        if not (len(randomness_values) and self._randomness_set.issuperset(randomness_values)):
            raise ValueError("randomness_values must be one or more values of the domain")
        return self._weight_sum_maxima(party, own, randomness_values)

    @functools.cached_property
    def _kary_nondegenerate(self) -> bool:
        """Whether the reference is total and every pair of one party's inputs
        is distinguished by some assignment of the other parties: for a total
        reference, whether each party's rows of the own x rest output table
        are pairwise distinct.  One `_reference` call over the input domain,
        whose rows run through every party's codes with party 0's slowest."""
        if not self.reference_total:
            return False
        table = self._reference(self.input_domain())
        table = table.reshape([1 << n for n in self.input_lengths])
        for party in range(self.party_count):
            rows = np.moveaxis(table, party, 0).reshape(table.shape[party], -1)
            if len({row.tobytes() for row in rows}) < len(rows):
                return False
        return True

    def _privacy_note(self, averages: dict) -> str | None:
        """The privacy report's note, from each class's averaged message."""
        return None

    def format_randomness(self, randomness) -> str:
        return str(randomness)

    def format_output(self, output) -> str:
        return str(output)

    def _codes(self, inputs) -> tuple[int, ...]:
        """Validate one bit string per party and read each as a big-endian
        integer: the one place that parses inputs."""
        if len(inputs) != self.party_count:
            raise ValueError(f"expected {self.party_count} inputs, got {len(inputs)}")
        for x, n in zip(inputs, self.input_lengths):
            if not isinstance(x, str) or len(x) != n or set(x) - {"0", "1"}:
                raise ValueError(f"bad {n}-bit input {x!r}")
        return tuple(int(x, 2) for x in inputs)

    def _format_input(self, codes) -> str:
        """The comma-joined bit strings of one input's codes, as reports name it."""
        return ",".join(format(c, f"0{n}b") for c, n in zip(codes, self.input_lengths))


def _framed_states(amps: np.ndarray, xmasks: np.ndarray, zmasks: np.ndarray) -> np.ndarray:
    """The real state `amps` under each operator X^xmask Z^zmask, along a
    new last axis of the mask arrays' shape, masks over big-endian index
    bits.

    Z negates the amplitude at index i when |i & zmask| is odd, then X
    moves it to i ^ xmask.  Only real parts are written, so every zero
    stays +0.0.
    """
    shape = xmasks.shape + amps.shape
    xmasks, zmasks = xmasks.reshape(-1, 1), zmasks.reshape(-1, 1)
    support = np.flatnonzero(amps)
    values = amps.real[support]
    odd = _PARITY[support & zmasks]
    states = np.zeros((len(xmasks), amps.size), dtype=complex)
    states.real[np.arange(len(xmasks))[:, None], support ^ xmasks] = np.where(odd, -values, values)
    return states.reshape(shape)


@functools.cache
def _outcome_tables(width: int, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """(ys, zs) for `blocks` GHZ states of `width` qubits each: the
    phi-basis outcome of X^xmask Z^zmask applied to them is
    ys[xmask] | zs[zmask], with certainty.

    Per block of p qubits, X^x Z^z takes the GHZ state to
    +-(|x> + (-1)^|z| |~x>)/sqrt(2): the basis vector whose leading
    p-1 bits are those of whichever of x and ~x ends in 0, and whose
    last bit is the parity of z.  int16, like the masks: width * blocks
    is at most the qubit cap."""
    index = np.arange(1 << (width * blocks), dtype=np.int16)
    ys, zs = np.zeros_like(index), np.zeros_like(index)
    for b in range(blocks):
        shift = (blocks - 1 - b) * width
        block = (index >> shift) & ((1 << width) - 1)
        ys |= (np.where(block & 1, ~block, block) & ((1 << width) - 2)) << shift
        zs |= _PARITY[block] << shift
    ys.flags.writeable = zs.flags.writeable = False  # shared by every caller
    return ys, zs


def _ghz_blocks(width: int, blocks: int) -> np.ndarray:
    """Amplitudes of `blocks` GHZ states (|0..0> + |1..1>)/sqrt(2) of
    `width` qubits each."""
    ghz = np.zeros(1 << width, dtype=complex)
    ghz[0] = ghz[-1] = 1 / np.sqrt(2)
    return functools.reduce(np.kron, [ghz] * blocks)


def _hadamards(amps: np.ndarray) -> np.ndarray:
    """Real big-endian amplitudes with the real H applied to every qubit in
    turn, by a dense gate simulator's tensordot per qubit: the float
    rounding of this fold shows in dj's reports."""
    shape = [2] * (amps.size.bit_length() - 1)
    for q in range(len(shape)):
        tensor = np.tensordot(_H, amps.reshape(shape), axes=([1], [q]))
        amps = np.moveaxis(tensor, 0, q).reshape(-1)
    return amps


class _GhzMaskProtocol(ProtocolInstance):
    """Shared skeleton for the GHZ-based protocols (sum2 and geq).

    Internally there are ``_parties`` players on ``blocks`` GHZ states of
    ``_parties`` qubits each, laid out block-major: qubit b*_parties + j
    is block b's share of internal party j.  A virtual internal party
    (all-zero input) absorbs odd real party counts; its qubits belong to
    the last real party.

    Parties apply only Pauli X and Z, so no gate is simulated: per party,
    own input and randomness value, ``_party_frames`` gives the X and Z
    masks that the party applies to the qubits it sends, from its input
    times a shared mask.  Those qubits are disjoint, so the XOR of all
    parties' masks is the whole message operator X^xmask Z^zmask
    (``_frames``), which moves each nonzero amplitude of the shared state
    to a new index and fixes its sign (stabilizer reasoning, Gottesman
    1998).  The referee's phi-basis outcome is then certain, and gives
    the 2l coordinate sums of the inputs.  A protocol supplies only data:
    ``_products[code, mask]`` (the product that a party encodes),
    ``_columns[sum]`` (the output column of the 2l-bit sum) and
    ``_randomness_ints`` (a randomness value's X flips and mask index).
    """

    blocks: int
    _parties: int  # internal party count, always even

    def _setup(self, k: int, blocks: int):
        if k < 2:
            raise ValueError("need at least two parties")
        self.party_count = k
        self.input_lengths = (2 * blocks,) * k
        self.reference_total = True
        self._parties = k if k % 2 == 0 else k + 1
        self.blocks = blocks
        self._qubits = qubits = self._parties * blocks
        if qubits > _MAX_PROTOCOL_QUBITS:
            raise ValueError(f"{qubits} message qubits exceeds the {_MAX_PROTOCOL_QUBITS} cap")
        self._shared = _ghz_blocks(self._parties, blocks)
        # the qubit bits each real party sends: its share of every block,
        # and for the last one the virtual party's (its own when k is even)
        column = sum(1 << (qubits - 1 - b * self._parties) for b in range(blocks))
        self._sent = (column >> np.arange(k)).astype(np.int16)  # int16 fits: qubits <= 10
        self._sent[-1] |= column >> (self._parties - 1)

    def cost(self):
        return (self._qubits, "qubits")

    def _reference(self, codes):
        """The output column of the XOR of the codes: its bits are the 2l
        coordinate sums."""
        return self._columns[np.bitwise_xor.reduce(codes, axis=1)]

    @functools.cached_property
    def _spread(self) -> np.ndarray:
        """Internal party 0's (X mask, Z mask) for the product of every
        (input, mask) pair in `_products`, an int16 table indexed [X or Z,
        input code, mask]: string bits 2b, 2b+1 of the product go to qubit
        b*_parties; party j's are these >> j.  An odd party count's virtual
        party inputs code 0 and gets no product frame (`_frames`), so a
        nonzero `_products[0]` row is refused."""
        if self.party_count % 2 and self._products[0].any():
            raise ValueError("nonzero _products[0] row: an odd count's virtual party has no frame")
        n = 2 * self.blocks
        a = np.arange(1 << n)
        spread = np.zeros((2, a.size), dtype=np.int16)
        for b in range(self.blocks):
            qubit = 1 << (self._qubits - 1 - b * self._parties)
            spread[0] |= np.where((a >> (n - 1 - 2 * b)) & 1, qubit, 0)
            spread[1] |= np.where((a >> (n - 2 - 2 * b)) & 1, qubit, 0)
        return spread[:, self._products]

    def _party_frames(self, parties, codes, randomness) -> tuple[np.ndarray, np.ndarray]:
        """(xmasks, zmasks), int16, that real party parties[i] applies on own
        input codes[i] to the qubits it sends (`_sent`), over global
        big-endian qubit bits: row i for the pair (parties[i], codes[i]),
        one column per randomness value, given as the (X flips, mask
        indices) arrays of `_randomness_ints`.  Party j masks its input
        with the mask; the product's bit pairs give X and Z on its block
        shares, and r's X flips land on the qubits it sends.  parties is an
        int16 array; the virtual party inputs zeros."""
        flips, masks = randomness
        spread = np.take(self._spread, codes, axis=1)
        spread >>= parties[:, None]
        xmasks, zmasks = np.take(spread, masks, axis=2)
        xmasks ^= flips & self._sent[parties][:, None]
        return xmasks, zmasks

    def _frames(self, codes, randomness) -> tuple[np.ndarray, np.ndarray]:
        """(xmasks, zmasks) of the message operator X^xmask Z^zmask of each row
        of a block of codes under each randomness value: one `_party_frames`
        call for all the block's parties, whose frames XOR to the message's
        because they act on disjoint qubits."""
        rows, k = codes.shape
        parties = np.tile(np.arange(k, dtype=np.int16), rows)
        frames = self._party_frames(parties, codes.ravel(), randomness)
        return tuple(np.bitwise_xor.reduce(m.reshape(rows, k, -1), axis=1) for m in frames)

    @functools.cached_property
    def _output_columns(self) -> np.ndarray:
        """Column of output_domain that the referee decodes each outcome to:
        per block, the parity of the leading bits and the last bit are two
        coordinate sums, and `_columns` maps the 2l-bit sum they form."""
        p, outcomes = self._parties, np.arange(1 << self._qubits)
        sums = np.zeros_like(outcomes)
        for b in reversed(range(self.blocks)):
            block = outcomes >> (b * p) & ((1 << p) - 1)
            sums = sums << 2 | _PARITY[block >> 1] << 1 | block & 1
        return self._columns[sums]

    def _outcomes(self, xmasks, zmasks) -> np.ndarray:
        """Referee outcome index under each frame X^xmask Z^zmask."""
        ys, zs = _outcome_tables(self._parties, self.blocks)
        outcomes = ys.take(xmasks)
        outcomes |= zs.take(zmasks)
        return outcomes

    def _runs(self, codes, randomness):
        """One frames call gives every outcome; the message amplitudes are
        framed _BLOCK_BYTES at a time."""
        (xmasks,), (zmasks,) = self._frames(np.array([codes]), randomness)
        outcomes = self._outcomes(xmasks, zmasks).tolist()
        step = max(1, _BLOCK_BYTES // self._shared.nbytes)
        for start in range(0, len(outcomes), step):
            block = slice(start, start + step)
            states = _framed_states(self._shared, xmasks[block], zmasks[block])
            for outcome, state in zip(outcomes[block], states):
                yield TranscriptRecord(
                    outcome_distribution={format(outcome, f"0{self._qubits}b"): 1.0},
                    output_distribution={self.output_domain[self._output_columns[outcome]]: 1.0},
                    message_state=state,
                    message_distribution=None,
                )

    def _output_masses(self, codes) -> np.ndarray:
        outcomes = self._outcomes(*self._frames(codes, self._domain_ints))
        return np.eye(len(self.output_domain))[self._output_columns[outcomes]]

    def _averaged_matrix(self, codes) -> np.ndarray:
        states = _framed_states(self._shared, *self._frames(codes, self._domain_ints))
        w = np.full(states.shape[1], 1.0 / states.shape[1])
        scaled = states.transpose(0, 2, 1) * w
        return scaled @ np.conjugate(states, out=states)  # in place: one stack fewer

    def _weight_sum_maxima(self, party, own, randomness_values):
        """Up to sign, a party state is fixed per block by which of its
        shares X flips and by the parity of its Z's.  The referee's outcome
        of the party's frame alone (its key, from `_outcomes`) reads exactly
        that, since the shares the party leaves alone decide whether a block
        reads x or ~x.  So keys label the party's states one to one, and two
        states overlap with modulus 1 if their keys agree and 0 otherwise:
        the sum over z counts the z whose key under r' is x's.

        So the sum over all z peaks at M, the largest count of one key under
        one r'.  Without z = x it reaches M only when such a key is also the
        key, under some r, of an input beyond those M; otherwise it peaks at
        M - 1.  One pass over r, in chunks of at most _KEY_CHUNK keys, finds
        both from each key's largest count and the inputs that reach it.
        One bincount per block of columns counts every r' at once, column
        c's keys offset by c * 2^qubits; a block's counts stay within the
        same budget."""
        parties = np.full(own.size, party, dtype=np.int16)
        size = 1 << self._qubits  # keys are referee outcome indices
        reach = np.zeros((own.size, size), dtype=bool)
        best = np.zeros(size, dtype=np.int64)
        chunk = max(1, _KEY_CHUNK // own.size)
        for start in range(0, len(randomness_values), chunk):
            randomness = self._randomness_ints(randomness_values[start : start + chunk])
            # one row per own input, one column per r
            keys = self._outcomes(*self._party_frames(parties, own, randomness))
            reach[np.arange(own.size)[:, None], keys] = True
            # columns (values of r') per bincount: an eighth of the budget keeps
            # its counts (2 MB) in cache, where all of it ran slower than a loop
            block = max(1, (_KEY_CHUNK >> 3) // size)
            for c in range(0, keys.shape[1], block):
                cols = min(block, keys.shape[1] - c)
                offset = keys[:, c : c + cols] + np.arange(cols) * size
                counts = np.bincount(offset.ravel(), minlength=cols * size)
                np.maximum(best, counts.reshape(cols, size).max(axis=0), out=best)
        top = int(best.max())
        beyond = (reach.sum(axis=0)[best == top] > top).any()
        return float(top if beyond else top - 1), float(top)


class Sum2Protocol(_GhzMaskProtocol):
    """Coordinate-wise mod-2 sums of k two-bit inputs: geq's frames at
    l = 1 under the single mask 1, with the 2-bit sum as the output."""

    name = "sum2"
    output_domain = ((0, 0), (0, 1), (1, 0), (1, 1))
    _products = np.arange(4)[:, None]  # one mask, the identity
    _columns = np.arange(4)

    def __init__(self, k: int):
        self._setup(k, blocks=1)
        self.randomness_domain = tuple(_even_strings(self._parties))

    def _randomness_ints(self, randomness_values):
        """(X flips of the strings, the one mask's index 0), each value a
        string of _parties bits."""
        _refuse_misfits(randomness_values, "0" * self._parties)
        flips = np.array([int(r, 2) for r in randomness_values], dtype=np.int16)
        return flips, np.zeros_like(flips)

    def format_output(self, output):
        return f"{output[0]}{output[1]}"


class GeqProtocol(_GhzMaskProtocol):
    """Whether all 2l coordinate-wise sums of k inputs vanish."""

    name = "geq"
    output_domain = (0, 1)

    def __init__(self, k: int, l: int):
        if l < 1:
            raise ValueError("need at least one block")
        self._setup(k, blocks=l)
        masks = [s for s in _bitstrings(2 * l) if s != "0" * 2 * l]
        self.randomness_domain = tuple(
            (blocks, mask)
            for blocks in itertools.product(_even_strings(self._parties), repeat=l)
            for mask in masks
        )
        self._products = gf2m.product_table(2 * l)  # symmetric
        self._columns = (np.arange(1 << 2 * l) == 0).astype(np.int8)  # 1 where all sums vanish

    def _randomness_ints(self, randomness_values):
        """(X flips of the block strings, field masks), each value a tuple of
        l strings of _parties bits and a 2l-bit mask."""
        p, l = self._parties, self.blocks
        _refuse_misfits(randomness_values, (("0" * p,) * l, "0" * 2 * l))
        flips = [int("".join(blocks), 2) for blocks, _ in randomness_values]
        return np.array(flips, dtype=np.int16), np.array([int(m, 2) for _, m in randomness_values])

    def format_randomness(self, randomness):
        block_strings, mask = randomness
        return f"{'|'.join(block_strings)};{mask}"


class DJProtocol(ProtocolInstance):
    """Equality-versus-half-distance on n-bit inputs, n a power of two.

    The shared state (1/sqrt(n)) sum_i |i>|i> is phased by both inputs,
    Hadamard-transformed and measured; the two m-bit outcomes are masked
    into classical messages p(r)p(outcome) + p(r') which agree exactly
    when the outcomes agree.  Execution is in distribution: every
    transcript carries the exact joint law of the message pair.  Every
    law depends on the inputs only through w = x XOR y, so the laws take w.
    """

    name = "dj"
    reference_total = False

    def __init__(self, n: int):
        if n < 2 or n & (n - 1):
            raise ValueError("input length must be a power of two, at least 2")
        m = n.bit_length() - 1
        if 2 * m > _MAX_DJ_QUBITS:
            raise ValueError(f"{2 * m} qubits exceeds the {_MAX_DJ_QUBITS} cap")
        self.n = n
        self.m = m
        self.party_count = 2
        self.input_lengths = (n, n)
        self.output_domain = (0, 1)
        strings = _bitstrings(m)
        self.randomness_domain = [(r, rp) for r in strings[1:] for rp in strings]  # r != 0

    def cost(self):
        return (2 * self.m, "bits")

    def _reference(self, codes):
        """1 at Hamming distance 0, 0 at n/2, -1 (off the promise) otherwise."""
        distance = _popcount(codes[:, 0] ^ codes[:, 1], self.n)
        return np.where(distance == 0, 1, np.where(2 * distance == self.n, 0, -1))

    def input_domain(self):
        """Promise inputs only: the equal pairs, then each x against x XOR h
        for every h of weight n/2, in increasing order of x, then h."""
        x = np.arange(1 << self.n, dtype=np.min_scalar_type((1 << self.n) - 1))
        half = x[2 * _popcount(x, self.n) == self.n]
        return np.column_stack([
            np.concatenate([x, np.repeat(x, half.size)]),
            np.concatenate([x, (x[:, None] ^ half).ravel()]),
        ])

    def domain_size(self):
        from math import comb

        return (1 << self.n) * (1 + comb(self.n, self.n // 2))

    def sample_input(self, rng):
        n = self.n
        x = _draw(rng, n)
        if rng.getrandbits(1):
            return (x, x)
        flips = rng.sample(range(n), n // 2)
        return (x, x ^ sum(1 << (n - 1 - i) for i in flips))

    def _outcome_law(self, w: int) -> np.ndarray:
        """Exact law of the two measured m-bit outcomes, an n-by-n matrix:
        the real fold squared.  The shared state is diagonal, so the phase
        (-1)^(x_i + y_i) of its entry i*n + i is (-1)^(w_i), bit 0 the most significant."""
        n = self.n
        amps = np.zeros(n * n)
        amps[:: n + 1] = (1 - 2 * ((w >> np.arange(n - 1, -1, -1)) & 1)) / np.sqrt(n)
        return (_hadamards(amps) ** 2).reshape(n, n)

    def _randomness_ints(self, randomness_values):
        """(r, r') of each randomness value, two m-bit strings, as integer
        arrays."""
        _refuse_misfits(randomness_values, ("0" * self.m,) * 2)
        return tuple(np.array([int(s[i], 2) for s in randomness_values], int) for i in (0, 1))

    def _masks(self, randomness) -> np.ndarray:
        """Message p(r)p(v) + p(r') of every outcome v under each randomness
        value (the (r, r') arrays of `_randomness_ints`), an (R, n) array.
        Column v is the outcome string read as a big-endian integer, and so
        is each entry: the message's bit string, constant term first, as
        `gf2m.product_table` encodes field values."""
        r, rp = randomness
        return gf2m.product_table(self.m)[r] ^ rp[:, None]

    def _message_laws(self, w: int, randomness) -> np.ndarray:
        """Joint law of the field-encoded message pair under each randomness
        value, an (R, n, n) array: the outcome law P pushed through that
        value's masks as 0/1 matrices, M^T P M.  For r != 0 the mask is a
        bijection of GF(2^m), so each entry is one outcome pair's mass plus
        exact zeros: the law is P permuted, bit for bit.  A mask that is
        not a bijection adds the masses of the outcomes it merges."""
        onehot = (self._masks(randomness)[:, :, None] == np.arange(self.n)).astype(float)
        return onehot.transpose(0, 2, 1) @ self._outcome_law(w) @ onehot

    def _runs(self, codes, randomness):
        bits = _bitstrings(self.m)
        for law in self._message_laws(codes[0] ^ codes[1], randomness):
            accept = float(np.trace(law))
            yield TranscriptRecord(
                outcome_distribution={"equal": accept, "different": 1.0 - accept},
                output_distribution={1: accept, 0: 1.0 - accept},
                message_state=None,
                message_distribution={
                    (bits[a], bits[b]): float(law[a, b]) for a, b in zip(*np.nonzero(law > 1e-15))
                },
            )

    def _domain_laws(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """(output masses, averaged message law flat, indexed a*n + b) of
        the inputs with x XOR y = w, computed once per w and domain."""
        if w not in self._memo:
            laws = self._message_laws(w, self._domain_ints)
            accept = np.trace(laws, axis1=1, axis2=2)  # the referee accepts equal messages
            masses = np.column_stack([1.0 - accept, accept])  # output_domain is (0, 1)
            average = laws.sum(axis=0).reshape(-1) / len(laws)
            masses.flags.writeable = average.flags.writeable = False  # shared by class w
            self._memo[w] = masses, average
        return self._memo[w]

    def _output_masses(self, codes) -> np.ndarray:
        return np.array([self._domain_laws(w)[0] for w in (codes[:, 0] ^ codes[:, 1]).tolist()])

    def _averaged_matrix(self, codes) -> np.ndarray:
        """Randomness-averaged law of each message pair, an (N, n^2) array:
        the diagonal of the classical message's matrix, indexed a*n + b
        (field-encoded messages)."""
        return np.array([self._domain_laws(w)[1] for w in (codes[:, 0] ^ codes[:, 1]).tolist()])

    def _weight_sum_maxima(self, party, own, randomness_values):
        """Party states do not depend on the randomness, and the Hadamards
        are unitary, so |<psi(x)|psi(z)>|^2 = (sum_i (-1)^(x_i + z_i) / n)^2."""
        signs = 1 - 2 * ((own[:, None] >> np.arange(self.n)) & 1)
        overlaps = (signs @ signs.T / self.n) ** 2
        incl = overlaps.sum(axis=1)
        return float((incl - np.diag(overlaps)).max()), float(incl.max())

    def _privacy_note(self, averages):
        """The all-zero message's mass in the reject class's averaged law."""
        if 0 not in averages:
            return None
        zero_mass = float(averages[0].reshape(self.n, self.n)[0, :].sum())
        return (
            "reject-class message pairs are uniform over ordered distinct "
            f"values; the all-zero message carries mass {zero_mass:.6g}"
        )

    def format_randomness(self, randomness):
        return f"{randomness[0]};{randomness[1]}"


sum2_protocol, geq_protocol, dj_protocol = Sum2Protocol, GeqProtocol, DJProtocol
