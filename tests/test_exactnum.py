"""Exact scalar layer: classification, surds, distances."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactbell.exactnum import (
    DigitString,
    IncompatibleRadicandsError,
    QuadraticSurd,
    RationalAngle,
    as_rational,
    format_rational,
    is_perfect_square,
    niven_classify,
    padic_norm,
    padic_valuation,
    parse_rational,
    ultrametric_distance,
)

from oracles import classify_cosine_by_minimal_polynomial


# --- rationals and parsing -------------------------------------------------


def test_parse_and_format_round_trip():
    for text in ("0", "1", "-3", "11/16", "-7/3"):
        assert format_rational(parse_rational(text)) == text


def test_parse_rejects_decimals_with_hint():
    with pytest.raises(ValueError, match="exact fraction"):
        parse_rational("0.5")
    with pytest.raises(ValueError):
        parse_rational("1e-3")
    with pytest.raises(ValueError):
        parse_rational("one half")


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)


# --- rational angles --------------------------------------------------------


def test_angle_normalizes_into_unit_interval():
    assert RationalAngle(Fraction(5, 4)).turns == Fraction(1, 4)
    assert RationalAngle(Fraction(-1, 6)).turns == Fraction(5, 6)
    assert RationalAngle(Fraction(3)).turns == 0


def test_angle_arithmetic_wraps():
    a = RationalAngle(Fraction(3, 4))
    b = RationalAngle(Fraction(1, 2))
    assert (a + b).turns == Fraction(1, 4)
    assert (a - b).turns == Fraction(1, 4)
    assert a.midpoint(b).turns == Fraction(5, 8)


@pytest.mark.parametrize(
    "turns,sign",
    [
        (Fraction(0), 1),
        (Fraction(1, 8), 1),
        (Fraction(1, 4), 0),
        (Fraction(1, 2), -1),
        (Fraction(5, 8), -1),
        (Fraction(3, 4), 0),
        (Fraction(7, 8), 1),
    ],
)
def test_angle_cos_sign_matches_quadrant(turns, sign):
    assert RationalAngle(turns).cos_sign() == sign


# --- Niven classification ---------------------------------------------------


@pytest.mark.parametrize(
    "turns,expected",
    [
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(-1)),
        (Fraction(1, 4), Fraction(0)),
        (Fraction(3, 4), Fraction(0)),
        (Fraction(1, 6), Fraction(1, 2)),
        (Fraction(5, 6), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(-1, 2)),
        (Fraction(2, 3), Fraction(-1, 2)),
        (Fraction(1, 5), None),
        (Fraction(1, 7), None),
        (Fraction(5, 12), None),
    ],
)
def test_niven_table(turns, expected):
    result = niven_classify(RationalAngle(turns))
    assert result.value == expected
    assert result.is_rational is (expected is not None)


def test_niven_agrees_with_minimal_polynomial_oracle_small():
    for q in range(1, 25):
        for p in range(q):
            if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
                continue
            turns = Fraction(p, q)
            assert niven_classify(RationalAngle(turns)).value == (
                classify_cosine_by_minimal_polynomial(turns)
            ), turns


def test_niven_rational_values_match_float_cosine():
    for q in (1, 2, 3, 4, 6):
        for p in range(q):
            turns = Fraction(p, q)
            value = niven_classify(RationalAngle(turns)).value
            assert abs(math.cos(2 * math.pi * float(turns)) - float(value)) < 1e-12


# --- perfect squares and surds ----------------------------------------------

small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def test_is_perfect_square_examples():
    assert is_perfect_square(Fraction(72, 100)) is None
    assert is_perfect_square(Fraction(0)) == 0
    assert is_perfect_square(Fraction(9, 16)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        is_perfect_square(Fraction(-1))


def test_square_factors_of_the_radicand_leave_the_value_unchanged():
    assert QuadraticSurd(0, 1, 1) == 1
    assert QuadraticSurd(0, 1, 8) == QuadraticSurd(0, 2, 2)
    assert QuadraticSurd(0, 1, 72) == QuadraticSurd(0, 6, 2)
    assert QuadraticSurd(0, 1, 49) == 7
    assert QuadraticSurd(0, 1, 49).is_rational
    # p and q are primes above 10**6
    p, q = 1_000_003, 1_000_033
    assert QuadraticSurd(0, 1, p * p * q) == QuadraticSurd(0, p, q)
    assert QuadraticSurd(0, 1, p * p * q) != QuadraticSurd(0, -p, q)
    assert QuadraticSurd(0, 1, p * p * q) != QuadraticSurd(0, p, p * q)
    assert QuadraticSurd(0, 1, p * p * q * q).rat == p * q


@given(
    small_rationals,
    small_rationals.filter(bool),
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=2, max_value=40),
)
def test_square_factor_variants_are_equal_and_hash_equal(a, c, k, d):
    surd = QuadraticSurd(a, c, k * k * d)
    variant = QuadraticSurd(a, c * k, d)
    assert surd == variant
    assert hash(surd) == hash(variant)
    assert surd.is_rational is variant.is_rational
    assert surd - variant == 0


def test_radicands_of_one_field_combine():
    root8, root2 = QuadraticSurd(0, 1, 8), QuadraticSurd(0, 1, 2)
    assert root8 + root2 == QuadraticSurd(0, 3, 2)
    assert root2 + root8 == QuadraticSurd(0, 3, 2)
    assert root8 * root2 == 4
    assert root8 - 2 * root2 == 0
    assert QuadraticSurd(0, 1, 18) * QuadraticSurd(1, 1, 8) == QuadraticSurd(12, 3, 2)


def test_surd_canonical_form():
    assert QuadraticSurd(Fraction(0), Fraction(1), 8) == QuadraticSurd(
        Fraction(0), Fraction(2), 2
    )
    assert QuadraticSurd(Fraction(1, 3), Fraction(2), 9) == Fraction(19, 3)
    assert QuadraticSurd.sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert QuadraticSurd.sqrt(Fraction(1, 2)) == QuadraticSurd(0, Fraction(1, 2), 2)
    assert QuadraticSurd.sqrt(Fraction(72, 100)) == QuadraticSurd(0, Fraction(3, 5), 2)


def test_surd_mul_examples():
    x = QuadraticSurd(0, Fraction(3, 5), 2)
    y = QuadraticSurd(0, Fraction(1, 2), 2)
    assert x * y == Fraction(3, 5)
    assert x * QuadraticSurd.from_rational(1) == x
    z = QuadraticSurd(Fraction(1, 10), Fraction(0), 1)
    w = QuadraticSurd(0, Fraction(1), 3)
    assert z * w == QuadraticSurd(0, Fraction(1, 10), 3)


def test_surd_mixed_radicands_rejected():
    with pytest.raises(IncompatibleRadicandsError):
        QuadraticSurd(0, 1, 2) * QuadraticSurd(0, 1, 3)
    with pytest.raises(IncompatibleRadicandsError):
        QuadraticSurd(0, 1, 2) + QuadraticSurd(0, 1, 5)


@given(small_rationals, small_rationals)
def test_rational_embedding_is_ring_homomorphism(x, y):
    ex, ey = QuadraticSurd.from_rational(x), QuadraticSurd.from_rational(y)
    assert ex + ey == QuadraticSurd.from_rational(x + y)
    assert ex * ey == QuadraticSurd.from_rational(x * y)


@given(small_rationals, small_rationals, st.sampled_from([2, 3, 5, 6, 7, 10]))
def test_surd_conjugate_product(a, b, d):
    surd = QuadraticSurd(a, b, d)
    product = surd * surd.conjugate()
    assert product == a * a - b * b * d


def test_surd_scalar_operators():
    s = QuadraticSurd(Fraction(1, 2), Fraction(1, 3), 5)
    assert Fraction(1, 2) + s - Fraction(1, 2) == s
    assert 2 * s == QuadraticSurd(1, Fraction(2, 3), 5)
    assert s - s == 0


# --- ultrametric distance ---------------------------------------------------


def test_ultrametric_examples():
    a = DigitString(10, (1, 2, 3, 4))
    assert ultrametric_distance(a, a) == 0
    b = DigitString(10, (1, 2, 9, 4))
    assert ultrametric_distance(a, b) == Fraction(1, 1000)


def test_ultrametric_rejects_mismatches():
    with pytest.raises(ValueError, match="base"):
        ultrametric_distance(DigitString(2, (0, 1)), DigitString(3, (0, 1)))
    with pytest.raises(ValueError, match="length"):
        ultrametric_distance(DigitString(2, (0, 1)), DigitString(2, (0, 1, 0)))


def test_digit_string_validation():
    with pytest.raises(ValueError):
        DigitString(2, ())
    with pytest.raises(ValueError):
        DigitString(2, (0, 2))
    with pytest.raises(ValueError):
        DigitString(1, (0,))


@settings(max_examples=300)
@given(
    st.sampled_from([2, 10, 16]),
    st.data(),
)
def test_ultrametric_strong_triangle(base, data):
    length = data.draw(st.integers(min_value=1, max_value=10))
    digit = st.integers(min_value=0, max_value=base - 1)
    strings = [
        DigitString(base, tuple(data.draw(digit) for _ in range(length))) for _ in range(3)
    ]
    x, y, z = strings
    assert ultrametric_distance(x, z) <= max(
        ultrametric_distance(x, y), ultrametric_distance(y, z)
    )
    assert ultrametric_distance(x, y) == ultrametric_distance(y, x)
    assert (ultrametric_distance(x, y) == 0) == (x == y)


# --- p-adic valuation ---------------------------------------------------------


def test_padic_valuation_examples():
    assert padic_valuation(8, 2) == 3
    assert padic_valuation(Fraction(3, 4), 2) == -2
    assert padic_valuation(5, 3) == 0
    assert padic_valuation(0, 2) is None


def test_padic_rejects_composite():
    with pytest.raises(ValueError, match="prime"):
        padic_valuation(Fraction(1, 2), 6)
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1, 2), 1)


def test_padic_norm():
    assert padic_norm(8, 2) == Fraction(1, 8)
    assert padic_norm(Fraction(3, 4), 2) == 4
    assert padic_norm(0, 5) == 0


nonzero_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60).filter(
    lambda f: f != 0
)


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5]))
def test_padic_valuation_additive(x, y, p):
    assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)
