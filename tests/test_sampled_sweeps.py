"""Reports of sampled sweeps stay byte-identical, and an exhaustive sweep
evaluates the reference in blocks, not once per input.

No golden in bench/goldens.json covers a sampled `verify` sweep, so the
SHA-256 of three canonical reports is pinned here.  They were recorded
before inputs became integer codes; matching them shows that
`sample_input` still draws the same inputs from the same `rng` calls.
"""

import collections
import hashlib

import pytest

from psqm import cli, protocols

SAMPLED_REPORTS = {
    "verify --protocol dj --n 16 --seed 1":
        "ffc3265e6ab9207197261ec70f482623b3706ab133dd74f7bb706788c35e9d85",
    "verify --protocol sum2 --k 5 --budget 100 --seed 2":
        "ecab828cb1c5b1aa074927190d614d2b439e59083e90610d85712cd66d568de4",
    "verify --protocol geq --k 2 --l 2 --budget 64 --seed 3":
        "0f16ca427f25dfce2af9c38c5c023cc400c3f5d8fa604771142e8276409f9ce7",
}


@pytest.mark.parametrize("argv", SAMPLED_REPORTS)
def test_sampled_sweep_reports_are_pinned(argv, capsys):
    assert cli.main(argv.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == SAMPLED_REPORTS[argv]


def test_exhaustive_verify_calls_the_reference_a_fixed_number_of_times(monkeypatch, capsys):
    """Correctness, the message checks and non-degeneracy each take every
    reference value of the sweep from one call, whatever the domain size;
    dj's partial reference needs no non-degeneracy pass."""
    rows = collections.defaultdict(list)
    for cls in (protocols.Sum2Protocol, protocols.GeqProtocol, protocols.DJProtocol):

        def counted(self, codes, real=cls._reference):
            rows[self.name].append(len(codes))
            return real(self, codes)

        monkeypatch.setattr(cls, "_reference", counted)
    for argv, size in (
        ("verify --protocol sum2 --k 2", 16),
        ("verify --protocol sum2 --k 4", 256),
        ("verify --protocol geq --k 2 --l 2", 256),
        ("verify --protocol dj --n 4", 112),
    ):
        rows.clear()
        assert cli.main(argv.split()) == 0
        capsys.readouterr()
        (name,) = rows
        assert rows[name] == [size] * (2 if name == "dj" else 3), argv
