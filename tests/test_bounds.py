import copy
import gc
import itertools
import json
import math
import pickle
import random
import statistics
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psqm import bounds, cli
from psqm.bounds import (
    FunctionTable,
    InputDistribution,
    alpha,
    beta,
    collision_beta,
    dj_table,
    exact_smp_clique_sizes,
    is_non_degenerate,
    min_entropy,
    psqm_lower_bound,
    random_function_stats,
)

from _oracles import (
    enumerated_alpha,
    enumerated_pairs,
    oracle_alpha,
    oracle_beta,
    oracle_bound,
    oracle_max_clique,
    oracle_min_entropy,
    oracle_nondegenerate,
)


def table_of(entries, prefix=("x", "y")):
    rows = [f"{prefix[0]}{i}" for i in range(len(entries))]
    cols = [f"{prefix[1]}{j}" for j in range(len(entries[0]))]
    return FunctionTable(rows, cols, entries)


EQ1 = table_of([[1, 0], [0, 1]])


def random_table(rng, n1, n2, partial=False):
    choices = [0, 1, None] if partial else [0, 1]
    return table_of(
        [[rng.choice(choices) for _ in range(n2)] for _ in range(n1)]
    )


def similar_disjoint_pairs(table, mu):
    """Yield (min_weight, cells, (R, R')) with labeled rectangles."""
    for value, cells, S, T, sigma, tau in enumerated_pairs(table, mu):
        yield value, cells, bounds._labeled(table, S, T, sigma, tau)


def literal_similar_disjoint(table, first, second):
    """Validity check for a witness pair, straight from the definitions."""
    ri = {lbl: i for i, lbl in enumerate(table.rows)}
    ci = {lbl: j for j, lbl in enumerate(table.cols)}
    S = [ri[x] for x in first.rows]
    T = [ci[y] for y in first.cols]
    S2 = [ri[x] for x in second.rows]
    T2 = [ci[y] for y in second.cols]
    if len(S) != len(S2) or len(T) != len(T2):
        return False
    same = all(
        table.entries[i][j] == table.entries[i2][j2]
        for (i, i2) in zip(S, S2)
        for (j, j2) in zip(T, T2)
    )
    rows_moved = all(i != i2 for i, i2 in zip(S, S2))
    cols_moved = all(j != j2 for j, j2 in zip(T, T2))
    return same and (rows_moved or cols_moved)


# ------------------------------------------------------------ golden EQ


def test_eq1_golden_values():
    mu = InputDistribution.uniform(EQ1)
    assert is_non_degenerate(EQ1, mu)
    a = alpha(EQ1, mu)
    assert a.value == 1.0
    first, second = a.witness
    assert literal_similar_disjoint(EQ1, first, second)
    assert len(first.rows) == 2 and len(first.cols) == 2  # full rectangle
    assert beta(EQ1, mu) == 0.5
    assert min_entropy(mu) == 2.0
    bound = psqm_lower_bound(EQ1, mu)
    assert bound.value == 0.0


def test_eq1_matches_oracles():
    entries = [[1, 0], [0, 1]]
    weights = [[0.25, 0.25], [0.25, 0.25]]
    assert oracle_nondegenerate(entries)
    assert oracle_alpha(entries, weights) == 1.0
    assert oracle_beta(entries, weights) == 0.5
    assert oracle_min_entropy(weights) == 2.0
    assert oracle_bound(entries, weights) == 0.0
    mu = InputDistribution.uniform(EQ1)
    assert alpha(EQ1, mu).value == oracle_alpha(entries, weights)
    assert beta(EQ1, mu) == oracle_beta(entries, weights)


# ------------------------------------------------------- oracle sweeps


def test_alpha_matches_oracle_on_all_2x2_totals():
    for bits in itertools.product([0, 1], repeat=4):
        entries = [[bits[0], bits[1]], [bits[2], bits[3]]]
        table = table_of(entries)
        mu = InputDistribution.uniform(table)
        got = alpha(table, mu).value
        want = oracle_alpha(entries, mu.weights)
        assert abs(got - want) < 1e-12, entries


def test_alpha_matches_oracle_on_random_3x3(subtests=None):
    rng = random.Random(31)
    for trial in range(25):
        table = random_table(rng, 3, 3, partial=trial % 3 == 2)
        if trial % 2:
            raw = [[rng.random() for _ in range(3)] for _ in range(3)]
            total = sum(map(sum, raw))
            weights = [[v / total for v in row] for row in raw]
            mu = InputDistribution(table, weights)
        else:
            mu = InputDistribution.uniform(table)
        got = alpha(table, mu)
        want = oracle_alpha(table.entries, mu.weights)
        assert abs(got.value - want) < 1e-12, table.entries
        if got.witness is not None:
            assert literal_similar_disjoint(table, *got.witness)


def test_alpha_on_rectangular_table():
    rng = random.Random(4)
    for _ in range(10):
        table = random_table(rng, 2, 4)
        mu = InputDistribution.uniform(table)
        got = alpha(table, mu).value
        assert abs(got - oracle_alpha(table.entries, mu.weights)) < 1e-12


def test_alpha_domain_cap():
    table = table_of([[0] * 7 for _ in range(7)])
    with pytest.raises(ValueError):
        alpha(table, InputDistribution.uniform(table))
    assert bounds.ALPHA_DOMAIN_CAP == 6


def normalized(raw):
    total = sum(map(sum, raw))
    return [[v / total for v in row] for row in raw]


def distribution(table, kind, raw=None):
    if kind == "uniform":
        return InputDistribution.uniform(table)
    if kind == "uniform-defined":
        return InputDistribution.uniform_defined(table)
    return InputDistribution(table, normalized(raw))


@st.composite
def alpha_cases(draw):
    """(table, mu): 1x1 to 5x5, partial or total, with uniform,
    uniform-defined or random positive weights."""
    n1, n2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = st.sampled_from([0, 1, None] if draw(st.booleans()) else [0, 1])
    entries = draw(st.lists(st.lists(values, min_size=n2, max_size=n2), min_size=n1, max_size=n1))
    table = table_of(entries)
    kind = draw(st.sampled_from(["uniform", "uniform-defined", "random"]))
    assume(kind != "uniform-defined" or any(v is not None for row in entries for v in row))
    cell = st.integers(1, 1000)
    raw = draw(st.lists(st.lists(cell, min_size=n2, max_size=n2), min_size=n1, max_size=n1))
    return table, distribution(table, kind, raw)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(alpha_cases())
def test_alpha_matches_enumeration_property(case):
    """The pruned search gives the enumeration's value bits, witness and
    max_cells; random weights are not dyadic."""
    table, mu = case
    assert repr(alpha(table, mu)) == repr(enumerated_alpha(table, mu))


@st.composite
def weighted_tables(draw):
    """(table, mu): 1x1 to 4x4, partial or total, with random weights, some
    zero, on the defined cells only."""
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = st.sampled_from([0, 1, None])
    entries = draw(st.lists(st.lists(values, min_size=n2, max_size=n2), min_size=n1, max_size=n1))
    raw = [[0 if v is None else draw(st.integers(0, 3)) for v in row] for row in entries]
    assume(any(map(any, raw)))
    table = table_of(entries)
    return table, InputDistribution(table, normalized(raw))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(weighted_tables())
def test_positive_beta_forces_positive_alpha(case):
    """beta > 0 puts two support cells in one class, a similar, disjoint
    pair of 1x1 rectangles, so the composed bound never meets alpha = 0."""
    table, mu = case
    if beta(table, mu) > 0:
        assert alpha(table, mu).value > 0


def square_table(n, one):
    return table_of([[int(one(i, j)) for j in range(n)] for i in range(n)])


def zero_table_with(n, value, cells):
    entries = [[0] * n for _ in range(n)]
    for i, j in cells:
        entries[i][j] = value
    return table_of(entries)


# n -> n x n table: near-constant tables have many interchangeable rows
NAMED_SQUARE_TABLES = {
    "single-1": lambda n: zero_table_with(n, 1, [(0, 0)]),
    "one-undefined": lambda n: zero_table_with(n, None, [(0, 0)]),
    "two-undefined": lambda n: zero_table_with(n, None, [(0, 0), (1, 1)]),
    "constant": lambda n: square_table(n, lambda i, j: True),
    "identity": lambda n: square_table(n, lambda i, j: i == j),
    "greater-than": lambda n: square_table(n, lambda i, j: i > j),
    "inner-product": lambda n: square_table(n, lambda i, j: bin(i & j).count("1") % 2),
    "random-1": lambda n: random_table(random.Random(1), n, n),
    "random-2": lambda n: random_table(random.Random(2), n, n),
    "random-3": lambda n: random_table(random.Random(3), n, n),
}


ALPHA_6X6_CASES = [
    (1, "uniform"),
    (2, "uniform-defined"),
    (3, "random"),
    (4, "uniform"),
    (6, "uniform-defined"),
    (7, "random"),
    (8, "uniform-defined"),
]


@pytest.mark.parametrize(
    "seed,kind", ALPHA_6X6_CASES, ids=[f"{s}-{k}" for s, k in ALPHA_6X6_CASES]
)
def test_alpha_matches_enumeration_on_6x6(seed, kind):
    """Six rows give sigma prefixes of up to five rows to cut; random
    weights are not dyadic, and uniform-defined tables are partial."""
    rng = random.Random(seed)
    table = random_table(rng, 6, 6, partial=kind == "uniform-defined")
    mu = distribution(table, kind, [[rng.random() for _ in range(6)] for _ in range(6)])
    assert repr(alpha(table, mu)) == repr(enumerated_alpha(table, mu))


@pytest.mark.parametrize("name", ["single-1", "one-undefined", "constant"])
def test_alpha_matches_enumeration_on_near_constant_4x4(name):
    """Nearly every row pair of these tables is a row kept in place or an
    equal row, so most similar pairs are not disjoint."""
    table = NAMED_SQUARE_TABLES[name](4)
    mu = InputDistribution.uniform_defined(table)
    assert repr(alpha(table, mu)) == repr(enumerated_alpha(table, mu))


ALPHA_7X7_REPRS = json.loads((Path(__file__).parent / "alpha_7x7_reprs.json").read_text())


@pytest.mark.parametrize("name", list(ALPHA_7X7_REPRS))
def test_alpha_keeps_the_recorded_7x7_results(name, monkeypatch):
    """The reprs were recorded once from the walk that visited every
    similar pair and tested each for disjointness; it took up to a
    minute on the near-constant tables."""
    monkeypatch.setattr(bounds, "ALPHA_DOMAIN_CAP", 7)
    table = NAMED_SQUARE_TABLES[name](7)
    assert repr(alpha(table, InputDistribution.uniform_defined(table))) == ALPHA_7X7_REPRS[name]


def exact_weight(table, mu, rect):
    ri = {lbl: i for i, lbl in enumerate(table.rows)}
    ci = {lbl: j for j, lbl in enumerate(table.cols)}
    return sum(Fraction(mu.weights[ri[x]][ci[y]]) for x in rect.rows for y in rect.cols)


def test_alpha_witness_has_the_largest_exact_weight():
    """Non-dyadic weights whose two best pairs differ by 2^-58: float
    sums tie or swap them, exact sums report the heavier one."""
    table = table_of([[0, 0, 0], [0, 0, 1], [1, 0, 0]])
    raw = [[0.3, 0.7, 0.3], [0.6, 0.3, 0.2], [0.1, 0.1, 0.7]]
    mu = InputDistribution(table, normalized(raw))
    got = alpha(table, mu)
    assert repr(got) == repr(enumerated_alpha(table, mu))
    best = max(value for value, *_ in enumerated_pairs(table, mu))
    assert min(exact_weight(table, mu, r) for r in got.witness) == best
    assert got.value == float(best)
    assert got.witness[0].rows == ("x0", "x1", "x2")
    assert got.witness[0].cols == ("y0", "y2")


def test_alpha_is_the_exact_sum_rounded_once(tmp_path, capsys):
    """Uniform weights over 36 cells are not dyadic: the 6x6 identity's
    alpha is exactly 1, and a single 1 leaves 30 of the 36 cells.  On
    the constant table many pairs tie the best one, and exact sums let
    the search cut them all."""
    identity = square_table(6, lambda i, j: i == j)
    assert alpha(identity, InputDistribution.uniform_defined(identity)).value == 1.0
    single = square_table(6, lambda i, j: i == j == 0)
    value = alpha(single, InputDistribution.uniform_defined(single)).value
    assert value == float(30 * Fraction(1 / 36)) == 0.8333333333333333
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(square_table(6, lambda i, j: True).to_json()))
    started = time.perf_counter()
    assert cli.main(["bound", "--table", str(path)]) == 0
    assert time.perf_counter() - started < 5.0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["alpha"]["witnesses"]["value"] == 1.0


def counting_alpha(monkeypatch) -> list:
    calls = []
    real = bounds.alpha

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, "alpha", counted)
    return calls


def test_stats_computes_alpha_once_per_table(monkeypatch):
    calls = counting_alpha(monkeypatch)
    summary = random_function_stats(2, 20, seed=5)
    assert summary["bounds"]["count"] > 0  # some tables reach the composed bound
    assert len(calls) == 20


def test_stats_keeps_one_sampled_table_alive(monkeypatch):
    """Each table is drawn inside the loop, so `stats` memory stays flat in
    the trial count: while alpha runs, no earlier table is still held."""
    real, tables, most_alive = bounds.alpha, [], 0

    def tracking(table, *args, **kwargs):
        nonlocal most_alive
        tables.append(weakref.ref(table))
        most_alive = max(most_alive, sum(ref() is not None for ref in tables))
        return real(table, *args, **kwargs)

    monkeypatch.setattr(bounds, "alpha", tracking)
    random_function_stats(1, 30, seed=2)
    assert len(tables) == 30
    assert most_alive == 1


def test_alpha_and_the_clique_search_leave_no_garbage_cycles():
    """Their recursive closures are freed by reference counting when the
    call returns, so only the collector could find what they left."""
    table = random_table(random.Random(4), 4, 4)
    calls = (
        lambda: alpha(table, InputDistribution.uniform(table)),
        lambda: exact_smp_clique_sizes(table),
        lambda: random_function_stats(2, 100, 1),
    )
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_bound_command_computes_alpha_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(EQ1.to_json()))
    calls = counting_alpha(monkeypatch)
    assert cli.main(["bound", "--table", str(path)]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["lower_bound"]["witnesses"]["value"] == 0.0
    assert len(calls) == 1


def test_similar_disjoint_stream_is_valid():
    rng = random.Random(12)
    table = random_table(rng, 3, 3)
    mu = InputDistribution.uniform(table)
    seen = 0
    for value, cells, (first, second) in similar_disjoint_pairs(table, mu):
        assert literal_similar_disjoint(table, first, second)
        assert cells == len(first.rows) * len(first.cols)
        assert value <= 1.0 + 1e-12
        seen += 1
    assert seen > 0


def test_beta_matches_oracle():
    rng = random.Random(55)
    for trial in range(30):
        table = random_table(rng, 3, 4)
        if trial % 2:
            raw = [[rng.random() for _ in range(4)] for _ in range(3)]
            total = sum(map(sum, raw))
            mu = InputDistribution(
                table, [[v / total for v in row] for row in raw]
            )
        else:
            mu = InputDistribution.uniform(table)
        assert abs(beta(table, mu) - oracle_beta(table.entries, mu.weights)) < 1e-12


def test_beta_closed_form_agrees_with_literal():
    rng = random.Random(70)
    table = random_table(rng, 4, 4)
    mu = InputDistribution.uniform(table)
    masses: dict = {}
    for i, j in mu.support():
        masses.setdefault(table.entries[i][j], []).append(mu.weights[i][j])
    assert abs(beta(table, mu) - collision_beta(masses)) < 1e-12
    assert abs(beta(table, mu) - oracle_beta(table.entries, mu.weights)) < 1e-12


def test_beta_errors():
    partial = table_of([[1, None], [0, 1]])
    with pytest.raises(ValueError):
        beta(partial, InputDistribution.uniform(partial))
    # fine when the distribution avoids the hole
    ok = InputDistribution.uniform_defined(partial)
    assert beta(partial, ok) >= 0.0
    with pytest.raises(ValueError):
        collision_beta({})
    with pytest.raises(ValueError):
        collision_beta({0: [0.0]})


@pytest.mark.parametrize("f", [alpha, beta, is_non_degenerate, psqm_lower_bound])
def test_distribution_on_a_table_of_another_shape_is_refused(f):
    """Each lower-bound function checks mu's shape before reading its
    weights: a 3x3 mu on a 2x2 table would pass a partial read, and the
    reverse would index past the weights."""
    small = table_of([[0, 1], [1, 0]])
    large = table_of([[0, 1, 0], [1, 0, 1], [0, 0, 1]])
    for table, other in ((small, large), (large, small)):
        with pytest.raises(ValueError, match="does not match the table"):
            f(table, InputDistribution.uniform(other))


def test_bound_composition_matches_oracle():
    rng = random.Random(91)
    done = 0
    while done < 10:
        table = random_table(rng, 3, 3)
        mu = InputDistribution.uniform(table)
        if not is_non_degenerate(table, mu):
            continue
        try:
            got = psqm_lower_bound(table, mu)
        except ValueError:
            assert oracle_beta(table.entries, mu.weights) == 0.0
            done += 1
            continue
        want = oracle_bound(table.entries, mu.weights)
        assert abs(got.value - want) < 1e-12
        assert got.alpha == alpha(table, mu).value
        done += 1


def test_bound_errors():
    degenerate = table_of([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="degenerate"):
        psqm_lower_bound(degenerate, InputDistribution.uniform(degenerate))
    and_table = table_of([[0, 0], [0, 1]])
    with pytest.raises(ValueError, match="beta is zero"):
        psqm_lower_bound(and_table, InputDistribution.uniform(and_table))


def test_alpha_zero_when_no_pairs():
    # a single row cannot move, and single-column moves are blocked by
    # differing entries, so no similar disjoint pair exists at all
    table = table_of([[1, 0]])
    mu = InputDistribution.uniform(table)
    result = alpha(table, mu)
    assert result.value == 0.0
    assert result.witness is None and result.max_cells == 0
    # both output classes are singletons, so the bound is refused
    with pytest.raises(ValueError, match="beta is zero"):
        psqm_lower_bound(table, mu)


# --------------------------------------------------------- degeneracy


def test_non_degeneracy_cases():
    xor = table_of([[0, 1], [1, 0]])
    assert is_non_degenerate(xor, InputDistribution.uniform(xor))
    flat = table_of([[1, 1], [0, 1]])
    assert oracle_nondegenerate(flat.entries) == is_non_degenerate(
        flat, InputDistribution.uniform(flat)
    )
    rows_equal = table_of([[1, 0], [1, 0]])
    assert not is_non_degenerate(rows_equal, InputDistribution.uniform(rows_equal))


def test_non_degeneracy_matches_oracle_on_totals():
    rng = random.Random(44)
    for _ in range(40):
        table = random_table(rng, 3, 3)
        got = is_non_degenerate(table, InputDistribution.uniform(table))
        assert got == oracle_nondegenerate(table.entries)


def test_non_degeneracy_partial_support_error():
    partial = table_of([[1, None], [0, 1]])
    with pytest.raises(ValueError, match="undefined"):
        is_non_degenerate(partial, InputDistribution.uniform(partial))
    # the support is a rectangle, so the hole's whole row must go
    mu = InputDistribution(partial, [[0.0, 0.0], [0.5, 0.5]])
    assert is_non_degenerate(partial, mu) is True


# ------------------------------------------------------------- cliques


def test_dj2_clique_sizes():
    result = exact_smp_clique_sizes(dj_table(2))
    assert (result.row_clique_size, result.col_clique_size) == (2, 2)
    assert len(result.row_clique) == 2


def test_cliques_on_total_tables_count_distinct_lines():
    rng = random.Random(77)
    for _ in range(30):
        table = random_table(rng, 4, 4)
        result = exact_smp_clique_sizes(table)
        distinct_rows = len(set(table.entries))
        cols = list(zip(*table.entries))
        distinct_cols = len(set(cols))
        assert result.row_clique_size == distinct_rows
        assert result.col_clique_size == distinct_cols


def test_cliques_match_subset_oracle_on_partials():
    rng = random.Random(101)
    for _ in range(20):
        table = random_table(rng, 4, 5, partial=True)
        result = exact_smp_clique_sizes(table)

        def row_edge(i, j):
            return any(
                table.entries[i][c] is not None
                and table.entries[j][c] is not None
                and table.entries[i][c] != table.entries[j][c]
                for c in range(5)
            )

        def col_edge(a, b):
            return any(
                table.entries[r][a] is not None
                and table.entries[r][b] is not None
                and table.entries[r][a] != table.entries[r][b]
                for r in range(4)
            )

        assert result.row_clique_size == oracle_max_clique(4, row_edge)[0]
        assert result.col_clique_size == oracle_max_clique(5, col_edge)[0]


def test_clique_vertex_cap():
    assert bounds.CLIQUE_VERTEX_CAP == 20
    with pytest.raises(ValueError, match="capped"):
        exact_smp_clique_sizes(dj_table(8))


def test_max_clique_search_random_graphs():
    rng = random.Random(5)
    for _ in range(25):
        count = rng.randint(1, 10)
        edges = {
            (i, j): rng.random() < 0.5
            for i in range(count)
            for j in range(i + 1, count)
        }

        def edge(i, j):
            return edges[(min(i, j), max(i, j))]

        adj = [0] * count
        for (i, j), present in edges.items():
            if present:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        got = bounds._max_clique_bits(adj)
        assert bin(got).count("1") == oracle_max_clique(count, edge)[0]
        members = [i for i in range(count) if (got >> i) & 1]
        assert all(edge(i, j) for i, j in itertools.combinations(members, 2))


# ------------------------------------------------------------- tables


def test_function_table_json_round_trip():
    table = table_of([[1, None], [0, 1]])
    payload = json.loads(json.dumps(table.to_json()))
    assert FunctionTable.from_json(payload) == table
    assert not table.is_total()
    assert table.shape == (2, 2)


def test_function_table_validation():
    with pytest.raises(ValueError):
        FunctionTable(["a", "a"], ["b"], [[1], [0]])
    with pytest.raises(ValueError):
        FunctionTable(["a"], ["b"], [[2]])
    with pytest.raises(ValueError):
        FunctionTable(["a"], ["b", "c"], [[1]])
    with pytest.raises(ValueError, match="malformed"):
        FunctionTable.from_json({"rows": ["a"]})
    with pytest.raises(ValueError, match="malformed"):
        FunctionTable.from_json(None)
    good = {"rows": ["a", "b"], "cols": ["c"], "entries": [[1], [None]]}
    assert FunctionTable.from_json(good).entries == ((1,), (None,))
    for key, value in [("rows", "ab"), ("cols", "c"), ("rows", ["a", 2]), ("entries", "10")]:
        with pytest.raises(ValueError):
            FunctionTable.from_json({**good, key: value})
    for entry in [True, False, 0.0, 1.0, "1"]:
        with pytest.raises(ValueError, match="not 0, 1 or undefined"):
            FunctionTable.from_json({**good, "entries": [[1], [entry]]})


def test_function_table_is_an_immutable_value():
    table = table_of([[1, None], [0, 1]])
    twin = table_of([[1, None], [0, 1]])
    assert table == twin and table is not twin
    assert hash(table) == hash(twin)
    assert len({table, twin, table_of([[1, 0], [0, 1]])}) == 2
    assert table != table_of([[1, 0], [0, 1]])
    assert table != (table.rows, table.cols, table.entries)
    assert table != table.to_json()
    assert repr(table) == (
        "FunctionTable(rows=('x0', 'x1'), cols=('y0', 'y1'), entries=((1, None), (0, 1)))"
    )
    for name in ("rows", "cols", "entries", "shape"):
        with pytest.raises(AttributeError):
            setattr(table, name, ())
    with pytest.raises(AttributeError):
        del table.rows
    with pytest.raises(AttributeError):
        table.extra = 1
    assert table.entries == ((1, None), (0, 1))
    ref = weakref.ref(table)
    assert ref() is table
    for clone in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert clone == table and type(clone) is FunctionTable


def test_function_table_from_lists_stores_tuples():
    """Lists are copied into tuples, so a table built from them is the same
    hashable value as its tuple-built twin, and no list it was given can
    change it."""
    rows, cols, entries = ["x0", "x1"], ["y0"], [[1], [None]]
    table = FunctionTable(rows, cols, entries)
    twin = FunctionTable(("x0", "x1"), ("y0",), ((1,), (None,)))
    assert (table.rows, table.cols, table.entries) == (("x0", "x1"), ("y0",), ((1,), (None,)))
    assert all(type(row) is tuple for row in table.entries)
    assert table == twin and hash(table) == hash(twin)
    rows.append("x2")
    entries[0][0] = 0
    assert table == twin
    for clone in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert clone == twin and hash(clone) == hash(twin)


@pytest.mark.parametrize(
    "values",
    [
        [2.5],
        [3.0, 1.0, 2.0],
        [4.0, 1.0, 3.0, 2.0],
        [1.0, 1.0, 2.0, 2.0],
        [0.5, 0.5, 0.5],
        [math.inf, 1.0, 2.0],
        [math.inf, 1.0],
        [math.inf, math.inf, 0.0],
        [math.inf, math.inf, 0.0, 1.0],
        [-1.25, 0.1, 0.2, 7.0, 0.30000000000000004, 0.3],
    ],
)
def test_median_matches_statistics(values):
    assert bounds._median(values) == statistics.median(values)
    assert bounds._median(list(reversed(values))) == statistics.median(values)


def test_input_distribution_validation():
    table = table_of([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        InputDistribution(table, [[0.5, 0.5]])
    with pytest.raises(ValueError):
        InputDistribution(table, [[0.7, 0.4], [0.0, 0.0]])
    with pytest.raises(ValueError):
        InputDistribution(table, [[-0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        InputDistribution(table, [[float("nan"), 0.5], [0.25, 0.25]])
    empty = table_of([[None, None]])
    with pytest.raises(ValueError):
        InputDistribution.uniform_defined(empty)


def test_dj_table_entries():
    table = dj_table(4)
    assert table.shape == (16, 16)
    idx = {lbl: i for i, lbl in enumerate(table.rows)}
    assert table.entries[idx["0101"]][idx["0101"]] == 1
    assert table.entries[idx["0000"]][idx["0011"]] == 0
    assert table.entries[idx["0000"]][idx["0001"]] is None
    with pytest.raises(ValueError):
        dj_table(16)
    with pytest.raises(ValueError):
        dj_table(3)


# --------------------------------------------------------------- stats


def test_stats_exhaustive_n1_matches_independent_enumeration():
    summary = random_function_stats(1, 0, None, exhaustive=True)
    tables, nondeg, beta_zero, values = 0, 0, 0, []
    for bits in itertools.product([0, 1], repeat=4):
        entries = [[bits[0], bits[1]], [bits[2], bits[3]]]
        tables += 1
        if not oracle_nondegenerate(entries):
            continue
        nondeg += 1
        weights = [[0.25, 0.25], [0.25, 0.25]]
        if oracle_beta(entries, weights) == 0.0:
            beta_zero += 1
        else:
            values.append(oracle_bound(entries, weights))
    assert summary["tables"] == tables == 16
    assert summary["fraction_nondegenerate"] == nondeg / tables == 0.625
    assert summary["beta_zero"] == beta_zero == 8
    assert summary["bounds"]["count"] == len(values) == 2
    assert summary["bounds"]["min"] == min(values) == 0.0
    assert summary["bounds"]["max"] == max(values) == 0.0
    assert summary["max_similar_disjoint_cells"] == 4
    assert summary["cells_bound_reference"] == 2
    assert summary["coverage"] == "exhaustive:16"


def test_stats_sampled_deterministic():
    a = random_function_stats(2, 40, seed=9)
    b = random_function_stats(2, 40, seed=9)
    assert a == b
    assert a["coverage"] == "sampled:40"
    assert a["cells_bound_reference"] == 16
    assert 0.0 <= a["fraction_nondegenerate"] <= 1.0


def test_stats_guards():
    with pytest.raises(ValueError):
        random_function_stats(3, 10, seed=1)
    with pytest.raises(ValueError):
        random_function_stats(2, 0, None, exhaustive=True)
    with pytest.raises(ValueError):
        random_function_stats(2, 10, None)
