"""Doubling-map generation and its inverse reading."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactbell.detgen import BitString, generate_bits, seed_from_bits


def test_generate_examples():
    assert str(generate_bits(Fraction(1, 2), 3)) == "100"
    assert str(generate_bits(Fraction(0), 5)) == "00000"

    sevenths = generate_bits(Fraction(1, 7), 6)
    assert str(sevenths) == "001001"
    assert sevenths.period == 3


def test_generate_long_division_oracle_for_sevenths():
    # Binary long division of 1/7, written out independently.
    remainder, bits = 1, []
    for _ in range(12):
        remainder *= 2
        bits.append(remainder // 7)
        remainder %= 7
    assert "".join(map(str, bits)) == generate_bits(Fraction(1, 7), 12).bits


def test_generate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_bits(Fraction(1), 3)
    with pytest.raises(ValueError):
        generate_bits(Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        generate_bits(Fraction(1, 2), 0)


def test_transient_orbit_period():
    # 1/6 -> 1/3 -> 2/3 -> 1/3: one transient step, then a 2-cycle.
    result = generate_bits(Fraction(1, 6), 8)
    assert str(result) == "00101010"
    assert result.period == 2


def test_seed_examples():
    assert seed_from_bits(BitString("100")) == Fraction(1, 2)
    assert seed_from_bits(BitString("001001")) == Fraction(9, 64)
    assert seed_from_bits(BitString("000")) == 0


def test_periodic_reading():
    assert seed_from_bits(BitString("001"), periodic=True) == Fraction(1, 7)
    assert seed_from_bits(BitString("001001"), periodic=True) == Fraction(1, 7)
    regenerated = generate_bits(Fraction(1, 7), 9)
    assert str(regenerated) == "001001001"


def test_round_trip_exhaustive_short():
    for length in range(1, 9):
        for bits in map("".join, product("01", repeat=length)):
            string = BitString(bits)
            assert generate_bits(seed_from_bits(string), length).bits == bits


@given(st.fractions(min_value=0, max_value=1, max_denominator=200).filter(lambda f: f < 1))
def test_orbit_denominators_divide_seed_denominator(seed):
    r = seed
    for _ in range(16):
        doubled = 2 * r
        bit = int(doubled)
        r = doubled - bit
        assert seed.denominator % r.denominator == 0


def test_bit_string_validation():
    with pytest.raises(ValueError):
        BitString("")
    with pytest.raises(ValueError):
        BitString("02")


def _long_division(numerator: int, denominator: int, count: int) -> tuple[str, int | None]:
    # Emit one binary digit per step and record every remainder, so the
    # period is the distance back to the first remainder seen twice.
    seen = {numerator: 0}
    digits = []
    period = None
    remainder = numerator
    for step in range(1, count + 1):
        remainder *= 2
        digits.append("1" if remainder >= denominator else "0")
        remainder %= denominator
        if period is None:
            if remainder in seen:
                period = step - seen[remainder]
            seen[remainder] = step
    return "".join(digits), period


_denominators = st.one_of(
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=0, max_value=40).map(lambda k: 2**k),
    st.builds(lambda k, odd: 2**k * odd, st.integers(0, 26), st.integers(1, 10**4)),
)


@given(
    _denominators.flatmap(lambda d: st.tuples(st.integers(0, d - 1), st.just(d))),
    st.integers(min_value=1, max_value=300),
)
def test_generate_matches_long_division_and_first_recurrence(seed, count):
    numerator, denominator = seed
    # The oracle runs on the unreduced fraction; common factors scale every
    # remainder alike and change neither the digits nor the recurrence.
    result = generate_bits(Fraction(numerator, denominator), count)
    assert (result.bits, result.period) == _long_division(numerator, denominator, count)
    assert len(result) == count


def test_hundred_thousand_bit_round_trip_is_fast():
    rng = random.Random(100_000)
    bits = format(rng.getrandbits(100_000), "0100000b")
    start = time.perf_counter()
    regenerated = generate_bits(seed_from_bits(BitString(bits)), len(bits))
    elapsed = time.perf_counter() - start
    assert regenerated.bits == bits
    assert elapsed < 0.5, f"{elapsed:.2f}s"
