"""Exact scalar arithmetic: rationals, rational angles, quadratic surds,
rational-cosine classification, and ultrametric distances.

Every type in this module is an immutable value and every operation is a
pure function, so everything is safe to share across threads. Nothing here
ever touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "RationalAngle",
    "CosineClass",
    "QuadraticSurd",
    "IncompatibleRadicandsError",
    "DigitString",
    "as_rational",
    "parse_rational",
    "format_rational",
    "niven_classify",
    "is_perfect_square",
    "ultrametric_distance",
    "padic_valuation",
    "padic_norm",
]

def as_rational(value: Fraction | int | str) -> Fraction:
    """Coerce to an exact rational, refusing floats outright."""
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted in exact arithmetic; pass a Fraction, "
            "an int, or a 'p/q' string"
        )
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or plain-integer text into an exact rational.

    Decimal and exponent notation are rejected on purpose: silently
    accepting '0.1' would corrupt the exactness contract of everything
    downstream.
    """
    cleaned = text.strip()
    if "." in cleaned or "e" in cleaned.lower():
        raise ValueError(
            f"{text!r} looks like a decimal; write an exact fraction "
            "such as 7071/10000 instead"
        )
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{text!r} is not a valid rational 'p/q'") from exc


def format_rational(value: Fraction) -> str:
    """Render as 'p/q', or plain 'p' for whole numbers. Inverse of parse."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class _Frozen:
    """Base of the immutable value types. Fields are the ``__slots__``,
    set once in ``__init__`` through ``object.__setattr__``; ``==``,
    ``hash`` and ``repr`` follow them in order."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        # Rebuild through __init__, which accepts every normalized field.
        return type(self), self._fields()


class RationalAngle(_Frozen):
    """An angle stored exactly as a fraction of a full turn, in [0, 1).

    Keeping the turn fraction as the representation makes "the angle is a
    rational multiple of the full circle" structural rather than something
    to test, and radians never enter the arithmetic.
    """

    __slots__ = ("turns",)

    def __init__(self, turns: Fraction | int | str) -> None:
        object.__setattr__(self, "turns", as_rational(turns) % 1)

    def __add__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle(self.turns + other.turns)

    def __sub__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle(self.turns - other.turns)

    def midpoint(self, other: "RationalAngle") -> "RationalAngle":
        """The bisecting angle (self + other) / 2, computed without wrap."""
        return RationalAngle((self.turns + other.turns) / 2)

    def cos_sign(self) -> int:
        """Exact sign of cos(2*pi*turns), decided from the quadrant."""
        quarter = Fraction(1, 4)
        if self.turns in (quarter, 3 * quarter):
            return 0
        return 1 if self.turns < quarter or self.turns > 3 * quarter else -1


class CosineClass(NamedTuple):
    """Exact rationality classification of a cosine: a value, or irrational.

    ``value`` is None exactly when the cosine is irrational.
    """

    value: Fraction | None = None

    @property
    def is_rational(self) -> bool:
        return self.value is not None


# Complete by Niven's theorem: a rational fraction of a turn has a rational
# cosine only when the reduced denominator of the turn fraction is 1, 2, 3,
# 4 or 6, and the value then depends on that denominator alone:
#   q=1 -> cos 0 = 1        q=2 -> cos(pi) = -1
#   q=3 -> cos(2pi/3) = cos(4pi/3) = -1/2
#   q=4 -> cos(pi/2) = cos(3pi/2) = 0
#   q=6 -> cos(pi/3) = cos(5pi/3) = 1/2
_RATIONAL_COSINES = {
    1: Fraction(1),
    2: Fraction(-1),
    3: Fraction(-1, 2),
    4: Fraction(0),
    6: Fraction(1, 2),
}


def niven_classify(angle: RationalAngle) -> CosineClass:
    """Classify cos(2*pi*turns) as an exact rational or as irrational.

    Total function: every rational turn fraction lands in exactly one of
    the five rational families above or is certifiably irrational.
    """
    return CosineClass(_RATIONAL_COSINES.get(angle.turns.denominator))


def is_perfect_square(value: Fraction | int) -> Fraction | None:
    """The exact nonnegative rational square root, if one exists.

    A reduced p/q is a rational square iff p and q are both integer
    squares, so two isqrt probes decide it.
    """
    value = as_rational(value)
    if value < 0:
        raise ValueError("negative values have no real square root")
    num_root = math.isqrt(value.numerator)
    den_root = math.isqrt(value.denominator)
    if num_root * num_root == value.numerator and den_root * den_root == value.denominator:
        return Fraction(num_root, den_root)
    return None


class IncompatibleRadicandsError(ValueError):
    """Raised when surds from different quadratic fields would need to combine."""


class QuadraticSurd(_Frozen):
    """Exact value rat + coeff*sqrt(radicand) over a single radical.

    The radicand need not be square-free, but it is 1 exactly when the
    value is rational: the constructor folds a perfect-square radicand
    into ``rat`` with one isqrt, so no decision here ever factors an
    integer. Equality and hashing compare values, not fields. Two
    irrational surds combine only when they lie in one quadratic field
    (the product of their radicands is a perfect square); sums across
    fields are refused rather than approximated.
    """

    __slots__ = ("rat", "coeff", "radicand")

    def __init__(self, rat: Fraction | int, coeff: Fraction | int, radicand: int = 1) -> None:
        rat = as_rational(rat)
        coeff = as_rational(coeff)
        if not isinstance(radicand, int) or radicand < 1:
            raise ValueError("radicand must be a natural number >= 1")
        if coeff:
            root = math.isqrt(radicand)
            if root * root == radicand:
                rat, coeff = rat + coeff * root, Fraction(0)
        if not coeff:
            radicand = 1
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", radicand)

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "QuadraticSurd":
        return cls(as_rational(value), Fraction(0), 1)

    @classmethod
    def sqrt(cls, value: Fraction | int) -> "QuadraticSurd":
        """Exact square root of a nonnegative rational p/q, as (1/q)*sqrt(p*q)."""
        value = as_rational(value)
        exact = is_perfect_square(value)
        if exact is not None:
            return cls.from_rational(exact)
        return cls(Fraction(0), Fraction(1, value.denominator), value.numerator * value.denominator)

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def conjugate(self) -> "QuadraticSurd":
        return QuadraticSurd(self.rat, -self.coeff, self.radicand)

    @staticmethod
    def _lift(value: object) -> "QuadraticSurd | None":
        if isinstance(value, QuadraticSurd):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return QuadraticSurd.from_rational(value)
        return None

    def _other_coeff(self, other: "QuadraticSurd") -> tuple[Fraction, int]:
        """other's irrational coefficient over the radical the two share,
        and that radicand: self's, unless self is rational."""
        if self.is_rational:
            return other.coeff, other.radicand
        if other.radicand in (1, self.radicand):
            return other.coeff, self.radicand
        # sqrt(e) = sqrt(d*e) / d * sqrt(d), rational exactly when d*e is a square.
        product = self.radicand * other.radicand
        root = math.isqrt(product)
        if root * root != product:
            raise IncompatibleRadicandsError(
                f"cannot combine sqrt({self.radicand}) with sqrt({other.radicand})"
            )
        return other.coeff * Fraction(root, self.radicand), self.radicand

    def __add__(self, other: object) -> "QuadraticSurd":
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        coeff, radicand = self._other_coeff(lifted)
        return QuadraticSurd(self.rat + lifted.rat, self.coeff + coeff, radicand)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd(-self.rat, -self.coeff, self.radicand)

    def __sub__(self, other: object) -> "QuadraticSurd":
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self + (-lifted)

    def __rsub__(self, other: object) -> "QuadraticSurd":
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return lifted + (-self)

    def __mul__(self, other: object) -> "QuadraticSurd":
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        coeff, radicand = self._other_coeff(lifted)
        rat = self.rat * lifted.rat + self.coeff * coeff * radicand
        return QuadraticSurd(rat, self.rat * coeff + self.coeff * lifted.rat, radicand)

    __rmul__ = __mul__

    def _key(self) -> tuple[Fraction, bool, Fraction]:
        # c*sqrt(d) is fixed by the sign of c and by c*c*d.
        return self.rat, self.coeff > 0, self.coeff * self.coeff * self.radicand

    def __eq__(self, other: object) -> bool:
        lifted = self._lift(other)
        if lifted is None:
            return NotImplemented
        return self._key() == lifted._key()

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.rat)
        return hash(self._key())

    def __str__(self) -> str:
        if self.is_rational:
            return format_rational(self.rat)
        return f"{format_rational(self.rat)} + {format_rational(self.coeff)}*sqrt({self.radicand})"


class DigitString(_Frozen):
    """Finite base-N digit sequence: a coordinate inside an N-piece nested
    (Cantor-like) partition of state space."""

    __slots__ = ("base", "digits")

    def __init__(self, base: int, digits: tuple[int, ...]) -> None:
        if not isinstance(base, int) or base < 2:
            raise ValueError("base must be an integer >= 2")
        digits = tuple(digits)
        if not digits:
            raise ValueError("digit string must be non-empty")
        for d in digits:
            if not isinstance(d, int) or not 0 <= d < base:
                raise ValueError(f"digit {d!r} outside [0, {base})")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", digits)

    def __len__(self) -> int:
        return len(self.digits)


def ultrametric_distance(a: DigitString, b: DigitString) -> Fraction:
    """base**(-k) where k is the 1-based position of the first differing
    digit, and 0 for identical strings.

    Both strings must share base and length; callers pad the shorter one
    with trailing zeros beforehand (the CLI does this automatically).
    """
    if a.base != b.base:
        raise ValueError(f"mismatched bases {a.base} and {b.base}")
    if len(a) != len(b):
        raise ValueError(
            f"mismatched lengths {len(a)} and {len(b)}; pad with trailing zeros first"
        )
    for position, (da, db) in enumerate(zip(a.digits, b.digits), start=1):
        if da != db:
            return Fraction(1, a.base**position)
    return Fraction(0)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _MR_BASES (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    # Miller-Rabin with the prime bases 2..41: certain for n < _MR_BOUND,
    # only probable at or above it.
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def padic_valuation(value: Fraction | int, p: int) -> int | None:
    """Exponent v with value = p**v * (u/w) and p dividing neither u nor w.

    The valuation of 0 is +infinity, which no integer holds; it is
    reported as None, since math.inf would put a float on the production
    path. Composite p is rejected: the norm p**(-v) is multiplicative only
    for primes, which is why arbitrary bases are served by the digit-string
    ultrametric instead.
    Primes at or above _MR_BOUND are refused too, since primality is
    certain only below it.
    """
    if isinstance(p, int) and p >= _MR_BOUND:
        raise ValueError(f"primality is certain only below {_MR_BOUND}; got {p}")
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"{p!r} is not a prime")
    value = as_rational(value)
    if value == 0:
        return None
    return _int_valuation(abs(value.numerator), p) - _int_valuation(value.denominator, p)


def padic_norm(value: Fraction | int, p: int) -> Fraction:
    """p**(-valuation); the norm of 0 is 0."""
    v = padic_valuation(value, p)
    if v is None:
        return Fraction(0)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))
