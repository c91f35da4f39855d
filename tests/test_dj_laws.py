"""dj keeps each randomness-averaged message as its law: the diagonal of
the classical message's matrix.  A subclass that embeds those laws as
dense complex diagonal matrices, the form the GHZ protocols' hook returns,
must give the same check records, and `averaged_message` must lift each
law to the same validated matrix."""

import random

import numpy as np
import pytest

from psqm import cli
from psqm.protocols import DJProtocol
from psqm.verify import check_sweep

from _oracles import domain_strings
from test_mutants import HalvedAverageDJ


class DenseDJ(DJProtocol):
    """dj whose averaged messages are dense complex matrices with the laws
    on their diagonals, indexed a*n + b."""

    def _averaged_matrix(self, codes):
        laws = super()._averaged_matrix(codes)
        matrices = np.zeros((len(laws), laws.shape[1] ** 2), dtype=complex)
        matrices[:, :: laws.shape[1] + 1] = laws
        return matrices.reshape(len(laws), laws.shape[1], -1)

    def _privacy_note(self, averages):
        return super()._privacy_note({y: np.diag(rho).real for y, rho in averages.items()})


def canonical_records(proto, **kwargs) -> str:
    return cli.canonical_json(check_sweep(proto, **kwargs)._asdict())


def weighted_mu(proto, seed: int, size: int) -> dict:
    """`size` promise inputs of the domain under random, non-uniform weights."""
    rng = random.Random(seed)
    inputs = rng.sample(domain_strings(proto), size)
    raw = [rng.randint(1, 9) for _ in inputs]
    return {x: w / sum(raw) for x, w in zip(inputs, raw)}


SWEEPS = [(2, None), (4, None), (8, None), (16, 1), (16, 2), (16, 3)]


@pytest.mark.parametrize("n,seed", SWEEPS, ids=[f"n{n}-seed{s}" for n, s in SWEEPS])
def test_diagonal_laws_check_as_their_dense_matrices(n, seed):
    assert canonical_records(DJProtocol(n), seed=seed) == canonical_records(DenseDJ(n), seed=seed)


MUS = [(4, 1, 20), (4, 2, 60), (4, 3, 112), (8, 1, 50), (8, 2, 400)]


@pytest.mark.parametrize("n,seed,size", MUS, ids=[f"n{n}-seed{s}-{k}" for n, s, k in MUS])
def test_diagonal_laws_check_as_their_dense_matrices_under_a_weighted_mu(n, seed, size):
    mu = weighted_mu(DJProtocol(n), seed, size)
    assert len(set(mu.values())) > 1
    assert canonical_records(DJProtocol(n), mu=mu) == canonical_records(DenseDJ(n), mu=mu)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_dj_averaged_matrix_is_one_law_per_row(n):
    proto = DJProtocol(n)
    laws = proto._averaged_matrix(proto.input_domain()[:5])
    assert laws.shape == (5, n * n) and laws.dtype == float
    np.testing.assert_allclose(laws.sum(axis=1), 1.0, atol=1e-12)


def test_averaged_message_lifts_each_law_to_its_dense_matrix():
    diagonal, dense = DJProtocol(4), DenseDJ(4)
    for inputs in domain_strings(diagonal):
        got, want = diagonal.averaged_message(inputs).matrix, dense.averaged_message(inputs).matrix
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_lifted_law_is_still_validated():
    with pytest.raises(ValueError, match="trace"):
        HalvedAverageDJ(4).averaged_message(["0000", "0000"])
