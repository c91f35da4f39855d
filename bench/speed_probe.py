"""Machine-speed probe, timed by run.py as a fresh process.

    python3 bench/speed_probe.py

A fixed program that does the same kinds of work as a psqm operation
(interpreter start-up, the numpy import, small tensor contractions and
Python bookkeeping) without importing psqm.  Its time changes only when
the machine's speed does, so run.py divides its timings by it.
"""

import numpy as np

gate = np.array([[0, 1], [1, 0]], dtype=complex)
tensor = np.zeros(16, dtype=complex).reshape([2] * 4)
tensor[0, 0, 0, 0] = 1.0
labels = {}
for i in range(7000):
    axis = i % 4
    tensor = np.moveaxis(np.tensordot(gate, tensor, axes=([1], [axis])), 0, axis)
    labels[i % 97] = format(i, "b")
assert abs(np.linalg.norm(tensor) - 1.0) < 1e-9
