"""Deliberately broken protocols that a check must catch.

Each mutant runs on the Pauli-frame path; `qsim.apply_gate` is made to
raise so that no dense gate simulation can stand in for it.
"""

import dataclasses

import pytest

from psqm import qsim
from psqm.protocols import Sum2Protocol
from psqm.verify import check_correctness, check_privacy


@pytest.fixture(autouse=True)
def no_dense_gates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Pauli-frame path simulated a gate")

    monkeypatch.setattr(qsim, "apply_gate", refuse)


def test_sum2_with_one_randomness_value_leaks_inputs():
    """Without the random X mask the message state depends on the inputs
    themselves, so it stays correct but stops being private."""
    proto = Sum2Protocol(4)
    domain = proto.resource.randomness_domain
    proto.resource = dataclasses.replace(proto.resource, randomness_domain=domain[:1])

    correctness = check_correctness(proto)
    assert correctness.passed
    assert correctness.cases == 4**4

    privacy = check_privacy(proto)
    assert not privacy.passed
    witness = privacy.witnesses(proto)["worst_input"]
    worst = tuple(witness.split(","))
    assert worst in set(proto.input_domain())
    rep = privacy.classes[proto.reference(worst)].representative
    distance = qsim.matrix_distance(rep, proto.averaged_message(worst))
    assert distance == pytest.approx(privacy.max_distance) and distance > 1.0


class FlippedXSum2(Sum2Protocol):
    """sum2 whose party 0 flips its X: the referee's first-bit parity is
    then always wrong."""

    def _internal_ops(self, internal_party, own_input, randomness):
        ops = super()._internal_ops(internal_party, own_input, randomness)
        if internal_party != 0:
            return ops
        flip = ("X", 0)
        return tuple(op for op in ops if op != flip) if flip in ops else ops + (flip,)


def test_flipped_x_fails_correctness():
    proto = FlippedXSum2(4)
    report = check_correctness(proto)
    assert not report.passed
    assert report.min_mass == 0.0
    witness = report.witnesses(proto)
    worst = tuple(witness["worst_input"].split(","))
    assert worst in set(proto.input_domain())
    assert witness["worst_randomness"] in proto.resource.randomness_domain
    wrong = proto.run(worst, report.worst_randomness).output_distribution
    assert wrong.get(proto.reference(worst), 0.0) == 0.0
