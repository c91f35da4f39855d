"""Arithmetic in GF(2^m) over an explicit irreducible modulus.

Polynomials over GF(2) are packed into Python ints, bit i holding the
coefficient of a^i.  A bit string "x1 x2 ... xm" encodes the element
x1 + x2*a + ... + xm*a^(m-1), i.e. the FIRST character is the constant
term.  Addition is XOR; multiplication is a carry-less product reduced
modulo the smallest irreducible polynomial of degree m: the smallest of
degree m that no product of two of lower degree gives, and the table
builds those products before it reduces.  Every product comes from one
table per degree (`product_table(m)`), so every degree is capped at
MAX_TABLE_DEGREE, the widest field a protocol uses.  No inversion is
provided or needed.
"""

import functools

import numpy as np

MAX_TABLE_DEGREE = 10  # a product table has 4^m entries; geq masks 2l <= 10 bits


@functools.cache
def product_table(m: int) -> np.ndarray:
    """Every product of GF(2^m), indexed and valued by bit strings read as
    big-endian integers: entry [int(a, 2), int(b, 2)] is int(c, 2) for the
    field product c of a and b.  Read-only, shared by every caller."""
    if not 1 <= m <= MAX_TABLE_DEGREE:
        raise ValueError(f"degree {m} outside 1..{MAX_TABLE_DEGREE}")
    rev = np.array([int(format(v, f"0{m}b")[::-1], 2) for v in range(1 << m)])
    prod = np.zeros((rev.size, rev.size), dtype=np.int32)
    for i in range(m):  # carry-less product of the packed field elements
        prod ^= np.where((rev >> i) & 1, rev[:, None] << i, 0)
    # the modulus is the first degree-m value no product gives; a reducible
    # one has a factor of degree <= m // 2, in a row whose index ends in zeros
    reducible = np.zeros(2 << max(m, 2 * m - 2), dtype=bool)  # np.unique imports numpy.ma
    reducible[prod[:: 1 << (m - m // 2 - 1)]] = True
    modulus = (1 << m) + int(np.argmin(reducible[1 << m : 2 << m]))
    for d in range(2 * m - 2, m - 1, -1):  # reduced by the modulus
        prod ^= np.where((prod >> d) & 1, modulus << (d - m), 0)
    table = rev[prod].astype(np.uint16)
    table.flags.writeable = False
    return table
