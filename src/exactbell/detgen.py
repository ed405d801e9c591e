"""Deterministic bit-string generation from a rational seed through the
doubling map, and the inverse reading of a string back into its seed.

Any finite bit string is produced by iterating r -> 2r mod 1 from the
rational whose binary expansion it is, so finiteness never forces genuine
indeterminism: this module is that construction, run exactly in both
directions.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import _Frozen, as_rational

__all__ = ["BitString", "generate_bits", "seed_from_bits"]


class BitString(_Frozen):
    """Finite sequence over {0, 1}, held as its text; ``period`` records
    the cycle length of the generating orbit when one was observed."""

    __slots__ = ("bits", "period")

    def __init__(self, bits: str, period: int | None = None) -> None:
        if not isinstance(bits, str) or not bits or bits.strip("01"):
            raise ValueError(f"{bits!r} is not a non-empty string over 0/1")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "period", period)

    def __str__(self) -> str:
        return self.bits

    def __len__(self) -> int:
        return len(self.bits)


def generate_bits(r0: Fraction | int | str, n: int) -> BitString:
    """First n bits of the binary expansion of r0 via the doubling map.

    With r0 = r/den in lowest terms, n doubling steps emit the binary digits
    of floor(r * 2**n / den), computed in one integer division. Rational
    orbits are eventually periodic; the first state recurrence fixes
    ``period``. With den = 2**tail * odd, the first ``tail`` states have
    distinct even reduced denominators and doubling permutes the rest, so
    the first state to recur is the one at step ``tail``, and it recurs
    when 2**period = 1 modulo odd.
    """
    r0 = as_rational(r0)
    if not 0 <= r0 < 1:
        raise ValueError(f"seed {r0} outside [0, 1)")
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    r, den = r0.numerator, r0.denominator
    bits = format((r << n) // den, f"0{n}b")
    tail = (den & -den).bit_length() - 1
    odd = den >> tail
    unit = power = 1 % odd  # 2**0 modulo odd; 0 when den is a power of two
    period = None
    for step in range(1, n - tail + 1):
        power <<= 1
        if power >= odd:
            power -= odd
        if power == unit:
            period = step
            break
    return BitString(bits, period)


def seed_from_bits(bits: BitString, periodic: bool = False) -> Fraction:
    """The rational whose binary expansion starts with (or, with
    ``periodic``, endlessly repeats) the given string.

    The finite reading sums bit_k * 2**(-k) and round-trips through
    generate_bits at the same length; the periodic reading divides by
    2**len - 1 instead, treating the whole string as one repeating block.
    """
    value = int(bits.bits, 2)
    if periodic:
        return Fraction(value, 2 ** len(bits) - 1)
    return Fraction(value, 2 ** len(bits))
