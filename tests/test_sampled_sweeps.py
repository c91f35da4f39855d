"""Reports of sampled sweeps stay byte-identical, and an exhaustive sweep
evaluates the reference in blocks, not once per input.

No golden in bench/goldens.json covers a sampled `verify` sweep, so the
SHA-256 of three canonical reports is pinned here.  The dj and sum2 pins
were recorded before inputs became integer codes; matching them shows
that `sample_input` still draws the same inputs from the same `rng`
calls.  The geq sample draws all 256 inputs, so it is reported as the
exhaustive sweep, with the exhaustive run's checks; its pin was recorded
once that held.
"""

import collections
import hashlib
import json

import pytest

from psqm import cli, protocols

SAMPLED_REPORTS = {
    "verify --protocol dj --n 16 --seed 1":
        "ffc3265e6ab9207197261ec70f482623b3706ab133dd74f7bb706788c35e9d85",
    "verify --protocol sum2 --k 5 --budget 100 --seed 2":
        "ecab828cb1c5b1aa074927190d614d2b439e59083e90610d85712cd66d568de4",
    "verify --protocol geq --k 2 --l 2 --budget 64 --seed 3":
        "a3f794324262c4c87560534843c71528a36896a0f85d9c301b60fad03886959e",
}


@pytest.mark.parametrize("argv", SAMPLED_REPORTS)
def test_sampled_sweep_reports_are_pinned(argv, capsys):
    assert cli.main(argv.split()) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == SAMPLED_REPORTS[argv]


@pytest.mark.parametrize(
    "sampled,exhaustive",
    [
        ("verify --protocol sum2 --k 2 --budget 1 --seed 1", "verify --protocol sum2 --k 2"),
        ("verify --protocol geq --k 2 --l 2 --budget 64 --seed 3", "verify --protocol geq --k 2 --l 2"),
    ],
)
def test_a_sample_of_the_whole_domain_reports_the_exhaustive_checks(sampled, exhaustive, capsys):
    """Every check, coverage and witness of a sample that draws the whole
    domain equals the exhaustive run's: only the config echo differs."""
    checks = []
    for argv in (sampled, exhaustive):
        assert cli.main(argv.split()) == 0
        checks.append(json.loads(capsys.readouterr().out)["checks"])
    assert checks[0] == checks[1]


def test_exhaustive_verify_calls_the_reference_a_fixed_number_of_times(monkeypatch, capsys):
    """The sweep and non-degeneracy each take every reference value of
    the domain from one call, whatever its size; dj's partial reference
    needs no non-degeneracy pass."""
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
        assert rows[name] == [size] * (1 if name == "dj" else 2), argv
