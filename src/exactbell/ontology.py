"""Counterfactual measurement classification on the sphere and the paired
context structure of the contextual sample space.

Setting pairs come in admissible couples {(x, y), (x', y')} where both bits
flip together; the two cross pairs are structurally undefined. Whether a
counterfactual third measurement direction is itself admissible reduces to
an exact rationality decision on the spherical cosine rule, which this
module settles by complete case analysis instead of a genericity argument:
the measure-zero exceptional branches are classified correctly and tagged,
not assumed away.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .exactnum import (
    QuadraticSurd,
    RationalAngle,
    _Frozen,
    as_rational,
    format_rational,
    niven_classify,
)

__all__ = [
    "ContextPair",
    "CounterfactualCase",
    "OnticClass",
    "SphericalTriangle",
    "admissible_contexts",
    "context_weight",
    "counterfactual_cosine_class",
]


class ContextPair(NamedTuple):
    """A joint measurement choice (x, y), each a bit."""

    x: int
    y: int

    def complement(self) -> "ContextPair":
        return ContextPair(1 - self.x, 1 - self.y)


def _check_bits(context: ContextPair) -> ContextPair:
    context = ContextPair(*context)
    if context.x not in (0, 1) or context.y not in (0, 1):
        raise ValueError(f"context {tuple(context)} must be a pair of bits")
    return context


def admissible_contexts(context: ContextPair) -> frozenset[ContextPair]:
    """The two contexts jointly defined with the given one: itself and its
    bitwise complement. The two cross contexts stay undefined."""
    context = _check_bits(context)
    return frozenset((context, context.complement()))


def context_weight(
    base_weight: Fraction | int | str, realized: ContextPair, queried: ContextPair
) -> Fraction:
    """Weight the queried context carries when `realized` actually occurred:
    the full base weight on the admissible pair, zero on cross contexts."""
    base_weight = as_rational(base_weight)
    if not 0 <= base_weight <= 1:
        raise ValueError(f"weight {format_rational(base_weight)} outside [0, 1]")
    queried = _check_bits(queried)
    return base_weight if queried in admissible_contexts(realized) else Fraction(0)


class CounterfactualCase(Enum):
    """Which branch of the exact case analysis settled the classification."""

    POLE = "pole"
    RATIONAL_COS_GAMMA = "rational-cos-gamma"
    RATIONAL_COS_SQ_GAMMA = "rational-cos-sq-gamma"
    GENERIC_IRRATIONAL = "generic-irrational"


class OnticClass(NamedTuple):
    """Counterfactual cosine classification: an exact rational value when
    the counterfactual direction is admissible (ontic), else the marker
    that the required cosine is irrational, with the deciding branch."""

    value: Fraction | None
    case: CounterfactualCase

    @property
    def is_ontic(self) -> bool:
        return self.value is not None


class SphericalTriangle(_Frozen):
    """Measurement triangle on the unit sphere: the realized arc and the
    prepared arc meet at the reference vertex with opening angle gamma.

    The two sides are stored as cosines, not angles: admissibility
    constrains the cosines to be rational while the arcs themselves are
    generally not rational turn fractions.
    """

    __slots__ = ("cos_side_a", "cos_side_b", "gamma")

    def __init__(self, cos_side_a: Fraction, cos_side_b: Fraction, gamma: RationalAngle) -> None:
        for name, value in zip(self.__slots__, (cos_side_a, cos_side_b)):
            value = as_rational(value)
            if not -1 <= value <= 1:
                raise ValueError(f"{name} = {format_rational(value)} outside [-1, 1]")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "gamma", gamma)


def counterfactual_cosine_class(triangle: SphericalTriangle) -> OnticClass:
    """Exactly classify the third-side cosine
    c1*c2 + sqrt(1 - c1^2) * sqrt(1 - c2^2) * cos(gamma).

    Branches, each decided in exact arithmetic:

    * pole: one side ends at a pole (sin product vanishes), so the value
      is the rational c1*c2 outright.
    * rational-cos-gamma: cos(gamma) is one of the five rational values;
      the cross term is g * sqrt((1-c1^2)(1-c2^2)) and the result is
      rational iff g = 0 or the product under the root is a perfect
      rational square.
    * rational-cos-sq-gamma: cos(gamma) irrational but cos^2(gamma)
      rational, which for rational turn fractions happens exactly when
      cos(2*gamma) is 0 or +1/2 (cos^2 of 1/2 or 3/4). The cross term is
      sign(cos gamma) * sqrt((1-c1^2)(1-c2^2) * cos^2(gamma)), with the
      sign read exactly off gamma's quadrant.
    * generic-irrational: everything else; the cross term is a nonzero
      rational times an irrational root, so the sum cannot be rational.
    """
    c1, c2 = triangle.cos_side_a, triangle.cos_side_b
    rational_part = c1 * c2
    sin_sq_product = (1 - c1 * c1) * (1 - c2 * c2)
    if sin_sq_product == 0:
        return OnticClass(rational_part, CounterfactualCase.POLE)

    cos_gamma = niven_classify(triangle.gamma)
    if cos_gamma.is_rational:
        total = QuadraticSurd.sqrt(sin_sq_product) * cos_gamma.value + rational_part
        if total.is_rational:
            return OnticClass(total.rat, CounterfactualCase.RATIONAL_COS_GAMMA)
        return OnticClass(None, CounterfactualCase.RATIONAL_COS_GAMMA)

    cos_two_gamma = niven_classify(triangle.gamma + triangle.gamma)
    if cos_two_gamma.is_rational:
        # cos(gamma) is irrational here, so cos^2 = (1 + cos(2 gamma))/2 is
        # necessarily 1/2 or 3/4 and the quadrant sign is never zero.
        cos_sq_gamma = (1 + cos_two_gamma.value) / 2
        cross = QuadraticSurd.sqrt(sin_sq_product * cos_sq_gamma) * triangle.gamma.cos_sign()
        total = cross + rational_part
        if total.is_rational:
            return OnticClass(total.rat, CounterfactualCase.RATIONAL_COS_SQ_GAMMA)
        return OnticClass(None, CounterfactualCase.RATIONAL_COS_SQ_GAMMA)

    return OnticClass(None, CounterfactualCase.GENERIC_IRRATIONAL)
