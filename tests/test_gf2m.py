import random

import numpy as np
import pytest

from psqm import gf2m

from _oracles import MODULI, field_mul, oracle_irreducible


def test_frozen_moduli():
    """Each locked modulus has its degree, is irreducible, and every smaller
    polynomial of that degree factors: by the factorization oracle."""
    assert sorted(MODULI) == list(range(1, gf2m.MAX_TABLE_DEGREE + 1))
    for m, modulus in MODULI.items():
        assert modulus.bit_length() == m + 1 and oracle_irreducible(modulus), m
        assert not any(map(oracle_irreducible, range(1 << m, modulus))), m


def packed(v: int, m: int) -> int:
    """Packed value (bit i the coefficient of a^i) of the m-bit string that
    reads as v big-endian, and back: reversing the bits is an involution."""
    return int(format(v, f"0{m}b")[::-1], 2)


def test_gf4_generator_square():
    table = gf2m.product_table(2)
    a = int("01", 2)
    assert table[a, a] == int("11", 2)  # a^2 = a + 1


def test_bit_string_encoding_constant_term_first():
    """The table speaks bit strings whose first character is the constant
    term: "10" is the unit and "01" the generator a of GF(8)."""
    table = gf2m.product_table(3)
    one, a = int("100", 2), int("010", 2)
    assert table[one, a] == a
    assert table[a, a] == int("001", 2)  # a^2
    assert table[a, int("001", 2)] == int("110", 2)  # a^3 = a + 1 mod a^3 + a + 1


def test_modulus_validation():
    # degree 0 has no field, and a degree above the cap has moduli but no table
    for m in (0, gf2m.MAX_TABLE_DEGREE + 1):
        with pytest.raises(ValueError, match="outside"):
            gf2m.product_table(m)


def test_product_table_is_shared_read_only_and_capped():
    table = gf2m.product_table(4)
    assert table is gf2m.product_table(4)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        gf2m.product_table(gf2m.MAX_TABLE_DEGREE + 1)


# every element up to m = 6, a seeded sample of 48 in the widest table
FIELD_DEGREES = [1, 2, 3, 4, 5, 6, gf2m.MAX_TABLE_DEGREE]


def fields():
    """(m, table, modulus encoding, elements) for each of FIELD_DEGREES."""
    for m in FIELD_DEGREES:
        if m <= 6:
            elements = np.arange(1 << m)
        else:
            elements = np.array(random.Random(m).sample(range(1 << m), 48))
        yield m, gf2m.product_table(m), MODULI[m], elements


def test_mul_matches_oracle_and_commutes():
    for m, table, encoding, elements in fields():
        for a in elements:
            for b in elements:
                want = packed(field_mul(packed(a, m), packed(b, m), encoding), m)
                assert table[a, b] == want, (m, a, b)
        np.testing.assert_array_equal(table, table.T)


def test_field_algebra():
    for _, table, _, e in fields():
        a, b, c = e[:, None, None], e[None, :, None], e[None, None, :]
        np.testing.assert_array_equal(table[table[a, b], c], table[a, table[b, c]])
        np.testing.assert_array_equal(table[a, b ^ c], table[a, b] ^ table[a, c])


def test_multiplicative_identity():
    for m, table, _, _ in fields():
        one = 1 << (m - 1)  # the string "10...0"
        np.testing.assert_array_equal(table[one], np.arange(1 << m))
        assert not table[0].any()
