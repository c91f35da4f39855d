"""Brute-force combinatorial quantities behind the communication bounds.

Works on explicit partial function tables F: X1 x X2 -> {0,1,undefined}
with a caller-supplied input distribution (uniform by default; the max
over distributions is never searched).  Quantities:

* alpha: the largest min(mu(R), mu(R')) over pairs of similar, disjoint
  rectangles.  Rectangles are ordered tuples of distinct rows and
  columns; similar means the induced matrices agree position-wise;
  disjoint means row-wise or column-wise position-wise distinct.
* beta: worst-case probability that two independent mu-draws in the
  same output class are distinct inputs.
* min-entropy of mu, and the composed lower-bound value
  log2(1/alpha) + Hmin(mu) - log2(1/beta) - 1.
* exact maximum cliques of the two distinguishability graphs.
* random/exhaustive small-table statistics and the dj promise table.

Everything is exact: alpha is a pruned search over integer weight sums
that reaches only disjoint pairs (a row kept in place moves every column)
and returns the same first witness as visiting every pair would, its
value the exact sum rounded once; cliques come from branch and bound;
guards keep domains desk-scale (alpha: at most 6x6 tables, cliques: at
most 20 vertices per side).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import NamedTuple

from . import collision_beta  # re-exported: `beta` and `verify` share it

ALPHA_DOMAIN_CAP = 6
CLIQUE_VERTEX_CAP = 20
STATS_N_CAP = 2


class FunctionTable:
    """Partial binary function as an explicit labeled table of tuples, built
    from any sequences; immutable, compared and hashed by value."""

    __slots__ = ("rows", "cols", "entries", "__weakref__")
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple, ...]  # values 0, 1 or None

    def __init__(self, rows, cols, entries):
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "entries", tuple(map(tuple, entries)))
        if not self.rows or not self.cols:
            raise ValueError("table needs at least one row and one column")
        if not all(isinstance(label, str) for label in self.rows + self.cols):
            raise ValueError("row and column labels must be strings")
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise ValueError("row and column labels must be unique")
        if len(self.entries) != len(self.rows) or any(
            len(r) != len(self.cols) for r in self.entries
        ):
            raise ValueError("entry grid does not match the labels")
        for row in self.entries:
            for v in row:
                # exact types: True and 0.0 compare equal to 1 and 0
                if v is not None and not (type(v) is int and v in (0, 1)):
                    raise ValueError(f"entry {v!r} is not 0, 1 or undefined")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._key()

    def _key(self) -> tuple:
        return self.rows, self.cols, self.entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(rows={self.rows!r}, cols={self.cols!r},"
            f" entries={self.entries!r})"
        )

    @classmethod
    def from_json(cls, obj) -> "FunctionTable":
        try:
            if not all(isinstance(obj[key], list) for key in ("rows", "cols", "entries")):
                raise TypeError("rows, cols and entries must be lists")
            return cls(obj["rows"], obj["cols"], obj["entries"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed function table: {exc}") from exc

    def to_json(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "entries": [list(r) for r in self.entries],
        }

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def is_total(self) -> bool:
        return all(v is not None for row in self.entries for v in row)


class InputDistribution:
    """Probability weights over the cells of a function table."""

    def __init__(self, table: FunctionTable, weights):
        n1, n2 = table.shape
        w = [list(map(float, row)) for row in weights]
        if len(w) != n1 or any(len(r) != n2 for r in w):
            raise ValueError("weight grid does not match the table")
        flat = [v for row in w for v in row]
        if not all(map(math.isfinite, flat)) or min(flat) < 0 or abs(sum(flat) - 1.0) > 1e-12:
            raise ValueError("weights must be finite, nonnegative and sum to 1")
        self.table = table
        self.weights = w

    @classmethod
    def uniform(cls, table: FunctionTable) -> "InputDistribution":
        n1, n2 = table.shape
        return cls(table, [[1.0 / (n1 * n2)] * n2 for _ in range(n1)])

    @classmethod
    def uniform_defined(cls, table: FunctionTable) -> "InputDistribution":
        """Uniform over the defined cells only."""
        count = sum(v is not None for row in table.entries for v in row)
        if count == 0:
            raise ValueError("table has no defined entries")
        return cls(
            table,
            [
                [1.0 / count if v is not None else 0.0 for v in row]
                for row in table.entries
            ],
        )

    def row_support(self) -> list[int]:
        return [i for i, row in enumerate(self.weights) if sum(row) > 0]

    def col_support(self) -> list[int]:
        n1, n2 = self.table.shape
        return [j for j in range(n2) if sum(self.weights[i][j] for i in range(n1)) > 0]

    def support(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i, row in enumerate(self.weights)
            for j, v in enumerate(row)
            if v > 0
        ]


class Rectangle(NamedTuple):
    rows: tuple[str, ...]
    cols: tuple[str, ...]


class AlphaResult(NamedTuple):
    value: float
    witness: tuple[Rectangle, Rectangle] | None
    max_cells: int


class BoundResult(NamedTuple):
    value: float
    alpha: float
    beta: float
    min_entropy: float
    alpha_witness: tuple[Rectangle, Rectangle] | None


class CliqueResult(NamedTuple):
    row_clique_size: int
    col_clique_size: int
    row_clique: tuple[str, ...]
    col_clique: tuple[str, ...]


def is_non_degenerate(table: FunctionTable, mu: InputDistribution) -> bool:
    """Every pair of support rows is split by some support column, and
    symmetrically: the support rows are pairwise distinct, and so are the
    support columns.  Undefined entries inside the support rectangle are
    an error: the notion only makes sense for tables total there."""
    _check_same_shape(table, mu)
    supp1, supp2 = mu.row_support(), mu.col_support()
    for i in supp1:
        for j in supp2:
            if table.entries[i][j] is None:
                raise ValueError(
                    f"undefined entry inside the support at ({table.rows[i]}, {table.cols[j]})"
                )
    rows = {tuple(table.entries[i][j] for j in supp2) for i in supp1}
    cols = {tuple(table.entries[i][j] for i in supp1) for j in supp2}
    return len(rows) == len(supp1) and len(cols) == len(supp2)


def _check_same_shape(table, mu):
    if mu.table.shape != table.shape:
        raise ValueError("distribution does not match the table")


def _labeled(table: FunctionTable, S, T, sigma, tau) -> tuple[Rectangle, Rectangle]:
    first = Rectangle(
        tuple(table.rows[i] for i in S), tuple(table.cols[j] for j in T)
    )
    second = Rectangle(
        tuple(table.rows[i] for i in sigma), tuple(table.cols[j] for j in tau)
    )
    return first, second


def alpha(table: FunctionTable, mu: InputDistribution) -> AlphaResult:
    """Maximum min-weight over similar disjoint rectangle pairs (0 and
    no witness when none exists), with the largest pair's cell count.

    Canonical form: the first rectangle's rows S and columns T are
    sorted; sigma and tau are the position-wise images forming the
    second rectangle, so every ordered pair is covered up to the shared
    reindexing that leaves weights, similarity and disjointness alone.
    Undefined entries compare as a plain marker.

    One depth-first walk visits S by row count, then sigma position by
    position in `itertools.permutations` order, carrying the column
    images the row pairs (S[i], sigma[i]) allow and sigma's column
    weights, summed row by row.  A row that stays put (sigma[i] == S[i])
    allows no column its own image.  A column kept in place stays so in
    every larger T, so this drops only whole subtrees of non-disjoint
    pairs: the walk reaches exactly the disjoint pairs, in the same
    order, and tests none for disjointness.  A prefix is cut when the
    first side alone beats neither running best: not `max_cells` (a
    times the live columns) nor `best` (S's weight on them).  Extending
    a prefix only drops images, and the weights are non-negative, so
    that test only gets easier while both bests only grow: every pair
    cut would fail it at its leaf, and the same pairs reach the column
    search in the same order.  sigma's weights grow with the prefix:
    leaves alone test them.  The column search extends T in increasing
    order, each column with its image in tau, and is cut the same way,
    by the weight chosen plus the column weights still reachable on each
    side.  Both bests change only on a strict gain, so the first maximal
    pair in visit order stays the witness.  Every float weight is p/2^L,
    so all sums run on integer numerators over the largest such 2^L and
    are exact; the value is their maximum divided once, correctly rounded.
    """
    _check_same_shape(table, mu)
    n1, n2 = table.shape
    if n1 > ALPHA_DOMAIN_CAP or n2 > ALPHA_DOMAIN_CAP:
        raise ValueError(
            f"rectangle enumeration capped at {ALPHA_DOMAIN_CAP}x{ALPHA_DOMAIN_CAP} tables"
        )
    ratios = [[v.as_integer_ratio() for v in row] for row in mu.weights]
    unit = max(q for row in ratios for _, q in row)  # every q is a power of two
    w = [[p * (unit // q) for p, q in row] for row in ratios]
    e = table.entries
    bits = [1 << y for y in range(n2)]
    # bit y' of images[x][x'][y] is set when e[x][y] == e[x'][y'], and (x', y')
    # is another cell: a row that stays put leaves no column in place
    images = [[[sum(b for b, v in zip(bits, r) if v == u) for u in row] for r in e] for row in e]
    for x, same in enumerate(images):
        same[x] = [m & ~bit for m, bit in zip(same[x], bits)]
    popcount = [bin(v).count("1") for v in range(1 << n2)]
    best, max_cells, witness = 0, 0, None
    rows = colw2 = pairs2 = sigma = None  # the pair `walk` hands to `search`
    stack_t, stack_tau = [], []

    def search(start, used, w_first, w_second):
        """Extend T by columns y >= start, tau by images outside `used`;
        reads a, S, sigma and their column data from the walk."""
        nonlocal best, max_cells, witness
        depth = len(stack_t)
        live, free, hit = [], [], 0
        for y in range(start, n2):
            row = rows[y] & ~used
            if row:
                live.append(y)
                free.append(row)
                hit |= row
        left1 = [0]  # S's weight on the last k live columns, summed from the end
        for y in reversed(live):
            left1.append(left1[-1] + colw1[y])
        left2 = [0]  # sigma's weight on its k heaviest columns in `hit`
        for bit, weight in pairs2:
            if hit & bit:
                left2.append(left2[-1] + weight)
        room = len(left2) - 1  # `hit` holds no image in `used`: at most n2 - depth
        for i, y in enumerate(live):
            reach = min(room, len(live) - i)
            if (
                a * (depth + reach) <= max_cells
                and min(w_first + left1[len(live) - i], w_second + left2[reach]) <= best
            ):
                return
            nw1 = w_first + colw1[y]
            cand = free[i]
            while cand:
                bit = cand & -cand
                cand ^= bit
                yp = bit.bit_length() - 1
                stack_t.append(y)
                stack_tau.append(yp)
                nw2 = w_second + colw2[yp]
                if a * (depth + 1) > max_cells:
                    max_cells = a * (depth + 1)
                if min(nw1, nw2) > best:
                    best = min(nw1, nw2)
                    witness = (S, tuple(stack_t), sigma, tuple(stack_tau))
                if depth + 1 < n2:
                    search(y + 1, used | bit, nw1, nw2)
                stack_t.pop()
                stack_tau.pop()

    def walk(prefix, masks, weights2):
        """Extend sigma's prefix, whose column images and weights are
        `masks` and `weights2`, by each unused row."""
        nonlocal rows, colw2, pairs2, sigma
        s = S[len(prefix)]
        for t in range(n1):
            if t in prefix:
                continue
            m = images[s][t] if masks is None else list(map(operator.and_, masks, images[s][t]))
            hit, live, bound1 = 0, 0, 0
            for row, weight in zip(m, colw1):
                if row:
                    hit, live, bound1 = hit | row, live + 1, bound1 + weight
            # the first side's half of the leaf test below, for the whole subtree
            cells_cut = a * min(live, popcount[hit]) <= max_cells
            if cells_cut and bound1 <= best:
                continue
            w2 = [c + v for c, v in zip(weights2, w[t])]
            if len(prefix) + 1 < a:
                walk(prefix + (t,), m, w2)
            # a leaf: min(bound1, sigma's weight on `hit`) <= best cuts it
            elif not (cells_cut and sum(w2[y] for y in range(n2) if hit >> y & 1) <= best):
                rows, colw2, sigma = m, w2, prefix + (t,)
                pairs2 = sorted(zip(bits, w2), key=operator.itemgetter(1), reverse=True)
                search(0, 0, 0, 0)

    for a in range(1, n1 + 1):
        for S in itertools.combinations(range(n1), a):
            colw1 = [0] * n2  # each column's weight on S
            for s in S:
                colw1 = [c + v for c, v in zip(colw1, w[s])]
            walk((), None, [0] * n2)
    search = walk = None  # each closure reaches itself through its cells: free them now
    return AlphaResult(best / unit, _labeled(table, *witness) if witness else None, max_cells)


def beta(table: FunctionTable, mu: InputDistribution) -> float:
    """min over outputs y of Pr[two independent mu-draws differ | both
    map to y], by the class-wise closed form `collision_beta`."""
    _check_same_shape(table, mu)
    support = mu.support()
    for i, j in support:
        if table.entries[i][j] is None:
            raise ValueError("mu puts weight on an undefined entry")
    if not support:
        raise ValueError("empty support")
    masses: dict = {}
    for i, j in support:
        masses.setdefault(table.entries[i][j], []).append(mu.weights[i][j])
    return collision_beta(masses)


def min_entropy(mu: InputDistribution) -> float:
    """-log2 of the largest point mass."""
    peak = max(v for row in mu.weights for v in row)
    return -math.log2(peak)


def psqm_lower_bound(table: FunctionTable, mu: InputDistribution) -> BoundResult:
    """log2(1/alpha) + Hmin(mu) - log2(1/beta) - 1.

    Requires a non-degenerate table under mu and beta > 0, which puts
    alpha > 0: two support cells in one class form a similar, disjoint
    1x1 pair.
    """
    nondeg = is_non_degenerate(table, mu)  # a degenerate table is refused before alpha runs
    a, b = (alpha(table, mu), beta(table, mu)) if nondeg else (None, None)
    return _lower_bound(nondeg, a, b, min_entropy(mu))


def _lower_bound(nondeg, a: AlphaResult | None, b, h: float) -> BoundResult:
    """The composed bound from the non-degeneracy answer, alpha (None when
    its enumeration was refused), beta and Hmin(mu), already computed for
    one table; raises ValueError for the first precondition unmet."""
    if not nondeg:
        raise ValueError("table is degenerate or partial under mu")
    if a is None:
        raise ValueError("alpha enumeration refused")
    if b <= 0:
        raise ValueError("beta is zero")
    value = math.log2(1.0 / a.value) + h - math.log2(1.0 / b) - 1.0
    return BoundResult(value, a.value, b, h, a.witness)


def _max_clique_bits(adj: list[int]) -> int:
    """Exact maximum clique (bitmask) by branch and bound; vertices are
    assumed relabeled in descending degree order."""
    best = 0

    def expand(clique: int, size: int, cand: int):
        nonlocal best
        if size > bin(best).count("1"):
            best = clique
        while cand:
            if size + bin(cand).count("1") <= bin(best).count("1"):
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(clique | (1 << v), size + 1, cand & adj[v])

    expand(0, 0, (1 << len(adj)) - 1)
    expand = None  # the closure holds itself through its cell: free it now
    return best


def _distinguishability_clique(labels, vectors) -> tuple[int, tuple[str, ...]]:
    """Max clique of the graph joining vectors that differ at some
    position where both are defined."""
    n = len(labels)
    if n > CLIQUE_VERTEX_CAP:
        raise ValueError(f"clique search capped at {CLIQUE_VERTEX_CAP} vertices")
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if any(
                va is not None and vb is not None and va != vb
                for va, vb in zip(vectors[a], vectors[b])
            ):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    order = sorted(range(n), key=lambda v: bin(adj[v]).count("1"), reverse=True)
    pos = {v: i for i, v in enumerate(order)}
    relabeled = [0] * n
    for v in range(n):
        for u in range(n):
            if adj[v] & (1 << u):
                relabeled[pos[v]] |= 1 << pos[u]
    mask = _max_clique_bits(relabeled)
    members = tuple(
        labels[order[i]] for i in range(n) if mask & (1 << i)
    )
    return len(members), members


def exact_smp_clique_sizes(table: FunctionTable) -> CliqueResult:
    """Exact max cliques of the row and column distinguishability graphs."""
    rows = [table.entries[i] for i in range(len(table.rows))]
    cols = [
        tuple(table.entries[i][j] for i in range(len(table.rows)))
        for j in range(len(table.cols))
    ]
    r_size, r_members = _distinguishability_clique(table.rows, rows)
    c_size, c_members = _distinguishability_clique(table.cols, cols)
    return CliqueResult(r_size, c_size, r_members, c_members)


def dj_table(n: int) -> FunctionTable:
    """Promise table on n-bit strings: 1 when equal, 0 at distance n/2."""
    if n not in (2, 4, 8):
        raise ValueError("table synthesis supports n in {2, 4, 8}")
    labels = [format(v, f"0{n}b") for v in range(1 << n)]
    entries = []
    for x in labels:
        row = []
        for y in labels:
            dist = sum(a != b for a, b in zip(x, y))
            row.append(1 if dist == 0 else 0 if dist * 2 == n else None)
        entries.append(row)
    return FunctionTable(labels, labels, entries)


def _median(values: list[float]) -> float:
    """The middle value, or the mean of the two middle ones: the same
    float `statistics.median` gives, without importing it."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def random_function_stats(n: int, trials: int, seed, exhaustive: bool = False) -> dict:
    """Statistics over random (or, for n=1, all) total tables on n-bit
    inputs: non-degeneracy rate, lower-bound spread under uniform mu,
    and the largest similar-disjoint rectangle observed, with the
    2^n * n^2 reference value the asymptotic claim compares against."""
    if n > STATS_N_CAP or n < 1:
        raise ValueError(f"stats enumeration capped at n <= {STATS_N_CAP}")
    side = 1 << n
    labels = [format(v, f"0{n}b") for v in range(side)]
    cells = side * side

    def table_from_bits(bits: int) -> FunctionTable:
        entries = [
            [(bits >> (i * side + j)) & 1 for j in range(side)] for i in range(side)
        ]
        return FunctionTable(labels, labels, entries)

    if exhaustive:
        if n != 1:
            raise ValueError("exhaustive enumeration is only desk-scale for n=1")
        count = 1 << cells
        patterns = range(count)
        coverage = f"exhaustive:{count}"
    else:
        if trials < 0:
            raise ValueError("trials must be nonnegative")
        if seed is None and trials > 0:
            raise ValueError("seed required for sampled tables")
        rng = random.Random(seed)
        count = trials
        patterns = (rng.getrandbits(cells) for _ in range(trials))
        coverage = f"sampled:{count}"

    nondeg = 0
    beta_zero = 0
    bound_values = []
    max_cells_seen = 0
    for bits in patterns:  # one table alive at a time, so memory stays flat in the count
        table = table_from_bits(bits)
        mu = InputDistribution.uniform(table)
        a = alpha(table, mu)
        max_cells_seen = max(max_cells_seen, a.max_cells)
        if not is_non_degenerate(table, mu):
            continue
        nondeg += 1
        try:
            bound_values.append(_lower_bound(True, a, beta(table, mu), min_entropy(mu)).value)
        except ValueError:
            beta_zero += 1
    summary = {
        "n": n,
        "coverage": coverage,
        "tables": count,
        "fraction_nondegenerate": (nondeg / count) if count else None,
        "beta_zero": beta_zero,
        "bounds": {
            "count": len(bound_values),
            "min": min(bound_values) if bound_values else None,
            "median": _median(bound_values) if bound_values else None,
            "max": max(bound_values) if bound_values else None,
        },
        "max_similar_disjoint_cells": max_cells_seen,
        "cells_bound_reference": (1 << n) * n * n,
    }
    return summary
