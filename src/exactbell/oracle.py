"""Floating-point spin-operator oracle, a double-precision cross-check of
the exact singlet rule. This is the one module of exactbell where floats
appear; tests/test_exactness_contract.py checks that rule on the source and
at run time."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .bellsim import singlet_correlation

__all__ = [
    "SpinOracleResult",
    "spin_operator_oracle",
    "oracle_max_abs_error",
]

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


class SpinOracleResult(NamedTuple):
    """Floating-point spin operators (2x2 row tuples), their closed-form
    eigenpairs, and singlet expectations for the measurement triangle."""

    operators: dict[str, Matrix2]
    eigenpairs: dict[str, tuple[tuple[float, tuple[complex, complex]], ...]]
    singlet_expectation: float
    counterfactual_expectation: float


_SINGLET = (0j, 1 / math.sqrt(2.0) + 0j, -1 / math.sqrt(2.0) + 0j, 0j)


def _spin_projection(x: float, y: float, z: float) -> Matrix2:
    # sigma.n = x*sigma_x + y*sigma_y + z*sigma_z, entry by entry.
    return ((complex(z), complex(x, -y)), (complex(x, y), complex(-z)))


def _singlet_expectation(left: Matrix2, right: Matrix2) -> float:
    # <singlet| left (x) right |singlet>, read entry by entry off the 4x4
    # Kronecker product: row 2i+k, column 2j+l holds left[i][j]*right[k][l].
    kron = [
        [left[i][j] * right[k][l] for j in range(2) for l in range(2)]
        for i in range(2)
        for k in range(2)
    ]
    bra = [sum(_SINGLET[r].conjugate() * kron[r][c] for r in range(4)) for c in range(4)]
    return sum(bra[c] * _SINGLET[c] for c in range(4)).real


def spin_operator_oracle(theta: float, gamma: float) -> SpinOracleResult:
    """Double-precision cross-check of the exact singlet rule.

    Directions: x0 along the z axis, x1 at polar angle theta in the x-z
    plane, y0 at polar angle theta with azimuth gamma. Operators are the
    Hermitian spin projections sigma.n, eigenpairs are written in closed
    form (half-angle cosines with the azimuthal phase on the upper
    component), and the singlet expectations are evaluated numerically from
    the operators' entries through the 4x4 tensor product.
    """
    directions = {
        "x0": (0.0, 0.0, 1.0),
        "x1": (math.sin(theta), 0.0, math.cos(theta)),
        "y0": (
            math.sin(theta) * math.cos(gamma),
            math.sin(theta) * math.sin(gamma),
            math.cos(theta),
        ),
    }
    operators = {name: _spin_projection(*vector) for name, vector in directions.items()}
    cos_half, sin_half = math.cos(theta / 2.0), math.sin(theta / 2.0)
    phase = complex(math.cos(gamma), -math.sin(gamma))
    eigenpairs = {
        "x0": ((1.0, (1.0, 0.0)), (-1.0, (0.0, 1.0))),
        "x1": ((1.0, (cos_half, sin_half)), (-1.0, (sin_half, -cos_half))),
        "y0": ((1.0, (phase * cos_half, sin_half)), (-1.0, (phase * sin_half, -cos_half))),
    }
    return SpinOracleResult(
        operators=operators,
        eigenpairs=eigenpairs,
        singlet_expectation=_singlet_expectation(operators["x0"], operators["y0"]),
        counterfactual_expectation=_singlet_expectation(operators["x1"], operators["y0"]),
    )


def oracle_max_abs_error(cos00: Fraction, cos01: Fraction, cos10: Fraction, cos11: Fraction) -> str:
    """Largest |oracle - exact| singlet correlation over the four context
    cosines, formatted as `chsh --oracle-check` reports it."""
    worst = 0.0
    for cosine in (cos00, cos01, cos10, cos11):
        exact = singlet_correlation(cosine)
        numeric = spin_operator_oracle(math.acos(float(cosine)), 0.0).singlet_expectation
        worst = max(worst, abs(numeric - float(exact)))
    return f"{worst:.3e}"
