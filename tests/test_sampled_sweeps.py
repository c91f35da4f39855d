"""Reports of sampled sweeps stay byte-identical, and an exhaustive sweep
evaluates the reference in blocks, not once per input.

No golden in bench/goldens.json covers a sampled `verify` sweep, so the
SHA-256 of three canonical reports is pinned here, with six more dj
reports.  The dj and sum2 pins
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


# (exit code, SHA-256) of more dj reports, recorded while dj's averaged
# messages were still dense complex matrices folded through complex
# Hadamards: its diagonal laws must print the same bytes.  `--tol 0` fails
# on the float noise of dj n = 8's correctness and privacy, so it exits 1.
DJ_REPORTS = {
    "verify --protocol dj --n 16 --seed 2":
        (0, "31a1940bc0a855dabee72867dfc6389665231bf34d9c2a9c65673e1de2e67259"),
    "verify --protocol dj --n 16 --seed 3":
        (0, "b855bb58fc9cc30907bb5b978bf745159fda8d29fd8cb9a6823348452128888c"),
    "verify --protocol dj --n 8 --budget 500 --seed 3":
        (0, "ddbc9bd7075d5d590db9384491c43c51e81df6a0cdf5e1a822e7fb5995724e6c"),
    "verify --protocol dj --n 4 --budget 20 --seed 1":
        (0, "7e853e290608a8a35de065d0be081e767a61931d0aaf38ecae3ede8920b5bf34"),
    "verify --protocol dj --n 8 --tol 0":
        (1, "dd7cd71ed8ce0c248878b0a46d2aed2219862d437a5d6ef5521692d9161b42c0"),
    "run --protocol dj --n 16 --inputs 0000000011111111,0000000000000000":
        (0, "852bfb42b15db24ba3780dd63c9d62ffe4da02d62c61db6c335db7333eb899df"),
}


@pytest.mark.parametrize("argv", DJ_REPORTS)
def test_dj_reports_are_pinned(argv, capsys):
    code = cli.main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == DJ_REPORTS[argv]


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
