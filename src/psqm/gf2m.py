"""Arithmetic in GF(2^m) over an explicit irreducible modulus.

Polynomials over GF(2) are packed into Python ints, bit i holding the
coefficient of a^i.  A bit string "x1 x2 ... xm" encodes the element
x1 + x2*a + ... + xm*a^(m-1), i.e. the FIRST character is the constant
term.  Addition is XOR; multiplication is a carry-less product reduced
modulo the modulus polynomial.  No inversion is provided or needed.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_DEGREE = 32


def degree(poly: int) -> int:
    """Degree of a packed polynomial (-1 for the zero polynomial)."""
    return poly.bit_length() - 1


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[a]) product of two packed polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def polymod(a: int, mod: int) -> int:
    """Remainder of packed polynomial a modulo packed polynomial mod."""
    if mod == 0:
        raise ZeroDivisionError("zero modulus polynomial")
    dm = degree(mod)
    da = degree(a)
    while da >= dm:
        a ^= mod << (da - dm)
        da = degree(a)
    return a


def is_irreducible(poly: int) -> bool:
    """Trial division by every polynomial of degree 1..deg//2."""
    d = degree(poly)
    if d < 1:
        return False
    for div in range(2, 1 << (d // 2 + 1)):
        if polymod(poly, div) == 0:
            return False
    return True


@dataclass(frozen=True)
class Modulus:
    """Monic irreducible degree-m modulus, packed into `encoding`."""

    degree: int
    encoding: int

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"modulus degree {self.degree} outside 1..{MAX_DEGREE}")
        if degree(self.encoding) != self.degree:
            raise ValueError("encoding degree does not match the declared degree")
        if not is_irreducible(self.encoding):
            raise ValueError(f"modulus {bin(self.encoding)} is reducible")


def find_irreducible(m: int) -> Modulus:
    """Smallest-integer-encoding monic irreducible polynomial of degree m."""
    if not 1 <= m <= MAX_DEGREE:
        raise ValueError(f"degree {m} outside 1..{MAX_DEGREE}")
    for cand in range(1 << m, 1 << (m + 1)):
        if is_irreducible(cand):
            return Modulus(m, cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldElement:
    """Element of GF(2^m), packed value plus its modulus."""

    value: int
    modulus: Modulus

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.modulus.degree):
            raise ValueError("value outside the field")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return add(self, other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return mul(self, other)


def _check_same_field(a: FieldElement, b: FieldElement):
    if a.modulus != b.modulus:
        raise ValueError("operands live in different fields")


def add(a: FieldElement, b: FieldElement) -> FieldElement:
    _check_same_field(a, b)
    return FieldElement(a.value ^ b.value, a.modulus)


def mul(a: FieldElement, b: FieldElement) -> FieldElement:
    _check_same_field(a, b)
    return FieldElement(polymod(clmul(a.value, b.value), a.modulus.encoding), a.modulus)


def from_bits(bits: str, modulus: Modulus) -> FieldElement:
    """Bit string to field element; first character is the constant term."""
    if len(bits) != modulus.degree or set(bits) - {"0", "1"}:
        raise ValueError(f"need a {modulus.degree}-bit string, got {bits!r}")
    value = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            value |= 1 << i
    return FieldElement(value, modulus)


def to_bits(element: FieldElement) -> str:
    """Field element to bit string, constant term first."""
    m = element.modulus.degree
    return "".join(str((element.value >> i) & 1) for i in range(m))
