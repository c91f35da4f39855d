"""End-to-end acceptance suite.

One test per numbered criterion; each prints a single [PASS]/[FAIL]
line (visible under ``pytest -s``) before asserting, so a red run still
shows the per-criterion verdicts.  Criteria with stated time budgets
assert wall-clock limits too.
"""

import itertools
import random
import subprocess
import sys
import time

import numpy as np

from psqm import bounds, verify
from psqm.bounds import FunctionTable, InputDistribution
from psqm.protocols import dj_protocol, geq_protocol, sum2_protocol

from _oracles import (
    domain_strings,
    geq_mask_identity_check,
    oracle_alpha,
    oracle_beta,
    oracle_bound,
    oracle_min_entropy,
    oracle_nondegenerate,
)
from test_bounds import literal_similar_disjoint

TOL = 1e-9


def announce(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {num}. {label}: {detail}")
    return ok


def test_criterion_1_sum2_correctness():
    started = time.perf_counter()
    worst = 1.0
    ok = True
    for k in (2, 3, 4, 5):
        rep = verify.check_sweep(sum2_protocol(k), tol=TOL).correctness
        ok &= rep["pass"] and rep["coverage"].startswith("exhaustive:")
        worst = min(worst, rep["witnesses"]["min_mass"])
    elapsed = time.perf_counter() - started
    ok &= worst >= 1.0 - TOL and elapsed < 10.0
    assert announce(
        1,
        "sum2 correctness, k in {2,3,4,5}, exhaustive",
        ok,
        f"min mass {worst:.12f}, {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_sum2_privacy():
    ok = True
    details = []
    for k in (2, 4):
        rep = verify.check_sweep(sum2_protocol(k), tol=TOL).privacy
        w = rep["witnesses"]
        purities = {y: c["purity"] for y, c in w["classes"].items()}
        target = 2.0 ** -(k - 2)
        ok &= rep["pass"] and w["max_distance"] <= TOL
        ok &= all(abs(p - target) <= TOL for p in purities.values())
        ok &= w["cross_orthogonality"] <= TOL
        details.append(
            f"k={k}: dist {w['max_distance']:.2e}, purity err "
            f"{max(abs(p - target) for p in purities.values()):.2e}, "
            f"cross {w['cross_orthogonality']:.2e}"
        )
    assert announce(2, "sum2 privacy, k in {2,4}", ok, "; ".join(details))


def test_criterion_3_geq_correctness_privacy_cost():
    started = time.perf_counter()
    ok = True
    details = []
    for k, l in ((2, 1), (2, 2), (3, 1), (4, 1)):
        proto = geq_protocol(k, l)
        want_cost = k * l if k % 2 == 0 else (k + 1) * l
        ok &= proto.cost() == (want_cost, "qubits")
        corr, priv, _, _ = verify.check_sweep(proto, tol=TOL)
        ok &= corr["pass"] and corr["coverage"].startswith("exhaustive:")
        ok &= priv["pass"] and priv["witnesses"]["max_distance"] <= TOL
        details.append(f"({k},{l}): cost {want_cost}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120.0
    assert announce(
        3,
        "geq correctness+privacy+cost",
        ok,
        f"{'; '.join(details)}; {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_4_masking_identity():
    rng = random.Random(20260817)
    failures = 0
    for _ in range(10_000):
        l = rng.randint(1, 3)
        k = rng.randint(2, 5)
        inputs = [
            "".join(str(rng.getrandbits(1)) for _ in range(2 * l))
            for _ in range(k)
        ]
        mask = "0" * (2 * l)
        while set(mask) == {"0"}:
            mask = "".join(str(rng.getrandbits(1)) for _ in range(2 * l))
        if not geq_mask_identity_check(inputs, mask):
            failures += 1
    ok = failures == 0
    assert announce(
        4,
        "masking identity, 10000 seeded instances (l<=3, k<=5)",
        ok,
        f"{failures} failures",
    )


def test_criterion_5_dj():
    started = time.perf_counter()
    ok = True
    details = []
    for n in (2, 4, 8):
        proto = dj_protocol(n)
        m = n.bit_length() - 1
        ok &= proto.cost() == (2 * m, "bits")
        corr = verify.check_sweep(proto, tol=TOL).correctness
        ok &= corr["pass"] and corr["coverage"].startswith("exhaustive:")
        worst_tv = 0.0
        accept_target = np.zeros(n * n)
        for a in range(n):
            accept_target[a * n + a] = 1.0 / n
        reject_target = np.full((n, n), 1.0 / (n * (n - 1)))
        np.fill_diagonal(reject_target, 0.0)
        reject_target = reject_target.reshape(-1)
        for x, y in domain_strings(proto):
            diag = np.diag(proto.averaged_message((x, y)).matrix).real
            target = accept_target if x == y else reject_target
            worst_tv = max(worst_tv, 0.5 * np.abs(diag - target).sum())
        ok &= worst_tv <= TOL
        details.append(f"n={n}: min mass {corr['witnesses']['min_mass']:.12f}, tv {worst_tv:.2e}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 300.0
    assert announce(
        5,
        "dj correctness+cost+message laws, n in {2,4,8}",
        ok,
        f"{'; '.join(details)}; {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_6_weight_sums():
    ok = True
    worst = 0.0
    configs = [(sum2_protocol(k), f"sum2 k={k}") for k in (2, 3, 4)]
    configs += [(geq_protocol(2, l), f"geq (2,{l})") for l in (1, 2)]
    for proto, _ in configs:
        for party in range(proto.party_count):
            rep = verify.check_weight_sums(proto, party, tol=TOL)
            w = rep["witnesses"]
            ok &= rep["pass"] and "skipped" not in w
            worst = max(worst, w["max_excluding_self"], w["max_including_self"])
    ok &= worst <= 1.0 + TOL
    assert announce(
        6,
        "weight sums over all randomness pairs (sum2 k<=4; geq k=2, l<=2)",
        ok,
        f"max sum {worst:.12f} <= 1+1e-9",
    )


def test_criterion_7_purity_and_collision_bounds():
    ok = True
    details = []
    factories = [
        ("sum2 k=2", lambda: sum2_protocol(2)),
        ("sum2 k=3", lambda: sum2_protocol(3)),
        ("sum2 k=4", lambda: sum2_protocol(4)),
        ("geq (2,1)", lambda: geq_protocol(2, 1)),
        ("geq (2,2)", lambda: geq_protocol(2, 2)),
        ("geq (3,1)", lambda: geq_protocol(3, 1)),
    ]
    for label, factory in factories:
        proto = factory()
        _, _, pur, col = verify.check_sweep(proto, tol=TOL)
        ok &= pur["pass"]
        lhs, rhs = col["witnesses"]["lhs"], col["witnesses"]["rhs"]
        ok &= col["pass"] and "skipped" not in col["witnesses"] and lhs <= rhs + TOL
        details.append(f"{label}: purity {pur['witnesses']['purity']:.4g}")
    assert announce(
        7,
        "purity bounds and collision inequality",
        ok,
        "; ".join(details),
    )


def test_criterion_8_eq1_golden_values():
    table = FunctionTable(["0", "1"], ["0", "1"], [[1, 0], [0, 1]])
    entries = [[1, 0], [0, 1]]
    mu = InputDistribution.uniform(table)
    weights = mu.weights

    nondeg = bounds.is_non_degenerate(table, mu)
    a = bounds.alpha(table, mu)
    b = bounds.beta(table, mu)
    h = bounds.min_entropy(mu)
    bound = bounds.psqm_lower_bound(table, mu).value

    witness_ok = (
        a.witness is not None
        and literal_similar_disjoint(table, *a.witness)
        and len(a.witness[0].rows) == 2
        and len(a.witness[0].cols) == 2
    )
    ok = (
        nondeg is True
        and oracle_nondegenerate(entries)
        and a.value == 1.0 == oracle_alpha(entries, weights)
        and witness_ok
        and b == 0.5 == oracle_beta(entries, weights)
        and h == 2.0 == oracle_min_entropy(weights)
        and bound == 0.0 == oracle_bound(entries, weights)
    )
    assert announce(
        8,
        "EQ on one bit: golden values vs independent oracles",
        ok,
        f"alpha {a.value}, beta {b}, Hmin {h}, bound {bound}",
    )


def test_criterion_9_clique_characterization():
    dj2 = bounds.exact_smp_clique_sizes(bounds.dj_table(2))
    ok = (dj2.row_clique_size, dj2.col_clique_size) == (2, 2)
    rng = random.Random(424242)
    mismatches = 0
    for _ in range(100):
        entries = [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
        table = FunctionTable(
            [f"r{i}" for i in range(4)], [f"c{j}" for j in range(4)], entries
        )
        result = bounds.exact_smp_clique_sizes(table)
        want = (
            len(set(map(tuple, entries))),
            len(set(zip(*entries))),
        )
        if (result.row_clique_size, result.col_clique_size) != want:
            mismatches += 1
    ok &= mismatches == 0
    assert announce(
        9,
        "cliques: dj_2 = (2,2); 100 random total 4x4 tables",
        ok,
        f"dj_2 ({dj2.row_clique_size},{dj2.col_clique_size}), {mismatches} mismatches",
    )


def test_criterion_10_byte_identical_reports():
    def run_twice(args):
        cmd = [sys.executable, "-m", "psqm.cli", *args]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        return (
            first.returncode == second.returncode == 0
            and first.stdout == second.stdout
            and len(first.stdout) > 0
        )

    verify_ok = run_twice(
        ["verify", "--protocol", "dj", "--n", "8", "--budget", "2000", "--seed", "11"]
    )
    stats_ok = run_twice(["stats", "--n", "2", "--trials", "100", "--seed", "7"])
    ok = verify_ok and stats_ok
    assert announce(
        10,
        "byte-identical seeded verify and stats reports",
        ok,
        f"verify {'ok' if verify_ok else 'DIFFERS'}, stats {'ok' if stats_ok else 'DIFFERS'}",
    )
