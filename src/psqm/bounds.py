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

Everything is exact enumeration; guards keep domains desk-scale
(alpha: at most 6x6 tables, cliques: at most 20 vertices per side).
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import dataclass
from typing import NamedTuple

ALPHA_DOMAIN_CAP = 6
CLIQUE_VERTEX_CAP = 20
STATS_N_CAP = 2


@dataclass(frozen=True)
class FunctionTable:
    """Partial binary function as an explicit labeled table."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple, ...]  # values 0, 1 or None

    def __post_init__(self):
        if not self.rows or not self.cols:
            raise ValueError("table needs at least one row and one column")
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise ValueError("row and column labels must be unique")
        if len(self.entries) != len(self.rows) or any(
            len(r) != len(self.cols) for r in self.entries
        ):
            raise ValueError("entry grid does not match the labels")
        for row in self.entries:
            for v in row:
                if v not in (0, 1, None):
                    raise ValueError(f"entry {v!r} is not 0, 1 or undefined")

    @classmethod
    def build(cls, rows, cols, entries) -> "FunctionTable":
        return cls(tuple(rows), tuple(cols), tuple(tuple(r) for r in entries))

    @classmethod
    def from_json(cls, obj) -> "FunctionTable":
        try:
            return cls.build(obj["rows"], obj["cols"], obj["entries"])
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
        if min(flat) < 0 or abs(sum(flat) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
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
    symmetrically.  Undefined entries inside the support rectangle are
    an error: the notion only makes sense for tables total there."""
    if mu.table is not table:
        _check_same_shape(table, mu)
    supp1, supp2 = mu.row_support(), mu.col_support()
    for i in supp1:
        for j in supp2:
            if table.entries[i][j] is None:
                raise ValueError(
                    f"undefined entry inside the support at ({table.rows[i]}, {table.cols[j]})"
                )
    for a, b in itertools.combinations(supp1, 2):
        if all(table.entries[a][j] == table.entries[b][j] for j in supp2):
            return False
    for a, b in itertools.combinations(supp2, 2):
        if all(table.entries[i][a] == table.entries[i][b] for i in supp1):
            return False
    return True


def _check_same_shape(table, mu):
    if mu.table.shape != table.shape:
        raise ValueError("distribution does not match the table")


def _pairs_indexed(table: FunctionTable, mu: InputDistribution, size_cap=None):
    """Yield (min_weight, cells, S, T, sigma, tau) index tuples for every
    pair of similar disjoint rectangles.

    Canonical form: the first rectangle's rows S and columns T are
    sorted; sigma and tau are the position-wise images forming the
    second rectangle, so every ordered pair is covered up to the shared
    reindexing that leaves weights, similarity and disjointness alone.
    Undefined entries compare as a plain marker.
    """
    n1, n2 = table.shape
    if n1 > ALPHA_DOMAIN_CAP or n2 > ALPHA_DOMAIN_CAP:
        raise ValueError(
            f"rectangle enumeration capped at {ALPHA_DOMAIN_CAP}x{ALPHA_DOMAIN_CAP} tables"
        )
    if size_cap is not None and size_cap < 1:
        raise ValueError("size cap must be at least 1")
    cap_rows = min(size_cap, n1) if size_cap is not None else n1
    cap_cols = min(size_cap, n2) if size_cap is not None else n2
    e = table.entries
    w = mu.weights
    # compatibility bitmask over column pairs (y, y') for each row pair
    pair_bit = {(y, yp): 1 << (y * n2 + yp) for y in range(n2) for yp in range(n2)}
    row_mask = [[0] * n1 for _ in range(n1)]
    for x in range(n1):
        for xp in range(n1):
            m = 0
            for (y, yp), bit in pair_bit.items():
                if e[x][y] == e[xp][yp]:
                    m |= bit
            row_mask[x][xp] = m
    full = (1 << (n2 * n2)) - 1

    for a in range(1, cap_rows + 1):
        for S in itertools.combinations(range(n1), a):
            for sigma in itertools.permutations(range(n1), a):
                mask = full
                for s, t in zip(S, sigma):
                    mask &= row_mask[s][t]
                    if not mask:
                        break
                if not mask:
                    continue
                row_disjoint = all(s != t for s, t in zip(S, sigma))
                stack_t: list[int] = []
                stack_tau: list[int] = []

                def recurse(start, used, all_moved, w_first, w_second):
                    for y in range(start, n2):
                        col_w1 = None
                        for yp in range(n2):
                            if used & (1 << yp) or not mask & pair_bit[(y, yp)]:
                                continue
                            if col_w1 is None:
                                col_w1 = sum(w[s][y] for s in S)
                            stack_t.append(y)
                            stack_tau.append(yp)
                            moved = all_moved and y != yp
                            nw1 = w_first + col_w1
                            nw2 = w_second + sum(w[t][yp] for t in sigma)
                            if row_disjoint or moved:
                                yield (
                                    min(nw1, nw2),
                                    a * len(stack_t),
                                    S,
                                    tuple(stack_t),
                                    sigma,
                                    tuple(stack_tau),
                                )
                            if len(stack_t) < cap_cols:
                                yield from recurse(
                                    y + 1, used | (1 << yp), moved, nw1, nw2
                                )
                            stack_t.pop()
                            stack_tau.pop()

                yield from recurse(0, 0, True, 0.0, 0.0)


def _labeled(table: FunctionTable, S, T, sigma, tau) -> tuple[Rectangle, Rectangle]:
    first = Rectangle(
        tuple(table.rows[i] for i in S), tuple(table.cols[j] for j in T)
    )
    second = Rectangle(
        tuple(table.rows[i] for i in sigma), tuple(table.cols[j] for j in tau)
    )
    return first, second


def alpha(table: FunctionTable, mu: InputDistribution, size_cap=None) -> AlphaResult:
    """Maximum min-weight over similar disjoint rectangle pairs (0 and
    no witness when none exists)."""
    best = 0.0
    witness_idx = None
    max_cells = 0
    for value, cells, S, T, sigma, tau in _pairs_indexed(table, mu, size_cap):
        if cells > max_cells:
            max_cells = cells
        if value > best:
            best, witness_idx = value, (S, T, sigma, tau)
    witness = _labeled(table, *witness_idx) if witness_idx else None
    return AlphaResult(best, witness, max_cells)


def beta(table: FunctionTable, mu: InputDistribution) -> float:
    """min over outputs y of Pr[two independent mu-draws differ | both
    map to y], by the class-wise closed form `collision_beta`."""
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


def collision_beta(masses_by_class: dict) -> float:
    """Class-wise 1 - sum w^2 / (sum w)^2, minimized over classes."""
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


def min_entropy(mu: InputDistribution) -> float:
    """-log2 of the largest point mass."""
    peak = max(v for row in mu.weights for v in row)
    return -math.log2(peak)


def psqm_lower_bound(table: FunctionTable, mu: InputDistribution) -> BoundResult:
    """log2(1/alpha) + Hmin(mu) - log2(1/beta) - 1.

    Requires a non-degenerate table under mu and beta > 0; alpha = 0
    makes the value +inf.
    """
    if not is_non_degenerate(table, mu):
        raise ValueError("table is degenerate under mu")
    a = alpha(table, mu)
    b = beta(table, mu)
    if b <= 0:
        raise ValueError("beta is zero; bound undefined")
    h = min_entropy(mu)
    if a.value == 0:
        # defensive: beta > 0 forces two support cells in some class,
        # which already form a one-cell similar disjoint pair
        value = math.inf
    else:
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
    return FunctionTable.build(labels, labels, entries)


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
        return FunctionTable.build(labels, labels, entries)

    if exhaustive:
        if n != 1:
            raise ValueError("exhaustive enumeration is only desk-scale for n=1")
        tables = [table_from_bits(b) for b in range(1 << cells)]
        coverage = f"exhaustive:{len(tables)}"
    else:
        if trials < 0:
            raise ValueError("trials must be nonnegative")
        if seed is None and trials > 0:
            raise ValueError("seed required for sampled tables")
        rng = random.Random(seed)
        tables = [table_from_bits(rng.getrandbits(cells)) for _ in range(trials)]
        coverage = f"sampled:{len(tables)}"

    nondeg = 0
    beta_zero = 0
    bound_values = []
    max_cells_seen = 0
    for table in tables:
        mu = InputDistribution.uniform(table)
        a = alpha(table, mu)
        max_cells_seen = max(max_cells_seen, a.max_cells)
        if not is_non_degenerate(table, mu):
            continue
        nondeg += 1
        try:
            bound_values.append(psqm_lower_bound(table, mu).value)
        except ValueError:
            beta_zero += 1
    summary = {
        "n": n,
        "coverage": coverage,
        "tables": len(tables),
        "fraction_nondegenerate": (nondeg / len(tables)) if tables else None,
        "beta_zero": beta_zero,
        "bounds": {
            "count": len(bound_values),
            "min": min(bound_values) if bound_values else None,
            "median": statistics.median(bound_values) if bound_values else None,
            "max": max(bound_values) if bound_values else None,
        },
        "max_similar_disjoint_cells": max_cells_seen,
        "cells_bound_reference": (1 << n) * n * n,
    }
    return summary
