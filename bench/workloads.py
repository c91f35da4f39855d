"""Workloads of the psqm benchmark: the CLI operations each one runs.

Every workload is a fixed list of `psqm` invocations.  Some arguments
are drawn from the benchmark seed: the `stats` and sampled-`dj` seeds,
the function-table files and the `run --inputs` strings.  The seed picks
one of VARIANTS input sets, so that every report the benchmark can ask
for has a golden SHA-256 recorded in goldens.json; seeds that agree
modulo VARIANTS give the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 64
WORK_DIR = ".bench_work"  # relative to the checkout root; holds generated tables


@dataclass(frozen=True)
class Operation:
    """One `psqm` invocation.  `golden` is False for an operation whose
    report has no golden yet: it passes only when it exits 0 with a
    parseable report in which every check passes."""

    argv: tuple[str, ...]
    golden: bool = True

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixed: tuple[Operation, ...]
    seeded: tuple[str, ...]  # labels of the seed-dependent operations


def _op(text: str, golden: bool = True) -> Operation:
    return Operation(tuple(text.split()), golden)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ghz-verify",
            "verify on sum2 and geq: the GHZ Pauli path through qsim gates, "
            "message states, averaged messages and GF(2^m) masks",
            (
                _op("verify --protocol sum2 --k 3"),
                _op("verify --protocol sum2 --k 4"),
                _op("verify --protocol geq --k 2 --l 1"),
                _op("verify --protocol geq --k 3 --l 1"),
            ),
            (),
        ),
        Workload(
            "dj-verify",
            "exhaustive dj n=8 verify: the classical dj path, output "
            "distributions and diagonal density matrices, almost no gates",
            (_op("verify --protocol dj --n 8"),),
            (),
        ),
        Workload(
            "dj-sampled",
            "sampled dj n=16 verify: the sampled sweep and the 65,536-input "
            "party domain; fails until its weight-sum branch is bounded",
            (),
            ("dj16",),
        ),
        Workload(
            "bounds",
            "stats and bound on seeded tables: only the bounds module, "
            "rectangle enumeration and clique search",
            (_op("bound --protocol dj --n 4"),),
            ("stats", "table6a", "table6b", "table20"),
        ),
        Workload(
            "transcripts",
            "run on all three protocols: one transcript per input and "
            "randomness value, large canonical reports, no checks",
            (
                _op("run --protocol geq --k 2 --l 2"),
                _op("run --protocol sum2 --k 4"),
                _op("run --protocol dj --n 4"),
            ),
            ("inputs-sum2", "inputs-geq"),
        ),
    )
}


def _rng(variant: int, label: str) -> random.Random:
    return random.Random(f"psqm-bench/{variant}/{label}")


def _table(rng: random.Random, label: str) -> dict:
    """A seeded copy of the fixed base table named by `label`: rows and
    columns shuffled, and 0 and 1 swapped half of the time.

    How long `alpha` and the clique search take depends on a table's
    structure (it varies threefold between random 6x6 tables), and these
    changes keep the structure, so every seed gets different tables of
    the same difficulty.
    """
    size, undefined = (20, 0.3) if label == "table20" else (6, 0.15)
    base = random.Random(f"psqm-bench/base/{label}")
    entries = [
        [None if base.random() < undefined else base.randrange(2) for _ in range(size)]
        for _ in range(size)
    ]
    rows, cols = list(range(size)), list(range(size))
    rng.shuffle(rows)
    rng.shuffle(cols)
    flip = rng.randrange(2)
    return {
        "rows": [f"x{i}" for i in range(size)],
        "cols": [f"y{j}" for j in range(size)],
        "entries": [
            [None if entries[i][j] is None else entries[i][j] ^ flip for j in cols]
            for i in rows
        ],
    }


def _bitstrings(rng: random.Random, count: int, length: int) -> str:
    return ",".join(
        "".join(str(rng.randrange(2)) for _ in range(length)) for _ in range(count)
    )


def _seeded_op(variant: int, label: str, root: Path | None) -> Operation:
    """The operation for one seeded label; writes its table file under
    `root` when a root is given."""
    rng = _rng(variant, label)
    if label == "stats":
        return _op(f"stats --n 2 --trials 100 --seed {rng.randrange(1, 1 << 31)}")
    if label == "dj16":
        return _op(f"verify --protocol dj --n 16 --seed {rng.randrange(1, 1 << 31)}", golden=False)
    if label == "inputs-sum2":
        return _op(f"run --protocol sum2 --k 5 --inputs {_bitstrings(rng, 5, 2)}")
    if label == "inputs-geq":
        return _op(f"run --protocol geq --k 3 --l 1 --inputs {_bitstrings(rng, 3, 2)}")
    rel = f"{WORK_DIR}/tables/v{variant}-{label}.json"
    if root is not None:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_table(rng, label)), encoding="utf-8")
    return _op(f"bound --table {rel}")


def operations(name: str, seed: int, root: Path | None = None) -> list[Operation]:
    """The operations of one pass of workload `name` for `seed`.  Table
    files are written below `root` (the checkout) when it is given."""
    workload = WORKLOADS[name]
    variant = seed % VARIANTS
    seeded = [_seeded_op(variant, label, root) for label in workload.seeded]
    return list(workload.fixed) + seeded
