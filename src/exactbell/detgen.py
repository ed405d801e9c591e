"""Deterministic bit-string generation from a rational seed through the
doubling map, and the inverse reading of a string back into its seed.

Any finite bit string is produced by iterating r -> 2r mod 1 from the
rational whose binary expansion it is, so finiteness never forces genuine
indeterminism: this module is that construction, run exactly in both
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import as_rational

__all__ = ["BitString", "generate_bits", "seed_from_bits"]


@dataclass(frozen=True)
class BitString:
    """Finite sequence over {0, 1}; ``period`` records the cycle length of
    the generating orbit when one was observed."""

    bits: tuple[int, ...]
    period: int | None = None

    def __post_init__(self) -> None:
        bits = tuple(self.bits)
        if not bits:
            raise ValueError("bit string must be non-empty")
        if any(bit not in (0, 1) for bit in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", bits)

    def __str__(self) -> str:
        return "".join(str(bit) for bit in self.bits)

    def __len__(self) -> int:
        return len(self.bits)


def generate_bits(r0: Fraction | int | str, n: int) -> BitString:
    """First n bits of the binary expansion of r0 via the doubling map.

    Each step emits floor(2r) and keeps the remainder, run exactly on the
    integer numerator r of r0 = r/den in lowest terms. Rational orbits are
    eventually periodic; the first state recurrence fixes ``period``. With
    den = 2**tail * odd, the first ``tail`` states have distinct even
    reduced denominators and doubling permutes the rest, so the first
    state to recur is the one at step ``tail``.
    """
    r0 = as_rational(r0)
    if not 0 <= r0 < 1:
        raise ValueError(f"seed {r0} outside [0, 1)")
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    r, den = r0.numerator, r0.denominator
    tail = (den & -den).bit_length() - 1
    anchor = r
    bits = []
    period = None
    for step in range(1, n + 1):
        r <<= 1
        if r >= den:
            r -= den
            bits.append(1)
        else:
            bits.append(0)
        if step <= tail:
            anchor = r
        elif period is None and r == anchor:
            period = step - tail
    return BitString(tuple(bits), period)


def seed_from_bits(bits: BitString, periodic: bool = False) -> Fraction:
    """The rational whose binary expansion starts with (or, with
    ``periodic``, endlessly repeats) the given string.

    The finite reading sums bit_k * 2**(-k) and round-trips through
    generate_bits at the same length; the periodic reading divides by
    2**len - 1 instead, treating the whole string as one repeating block.
    """
    value = 0
    for bit in bits.bits:
        value = 2 * value + bit
    if periodic:
        return Fraction(value, 2 ** len(bits) - 1)
    return Fraction(value, 2 ** len(bits))
