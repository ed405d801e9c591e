"""Contextual weighted sample spaces for the CHSH experiment, the exact
CHSH combination, the weakened on-support verifiers, the classical
deterministic bound, and a floating-point spin-operator oracle.

Outcome encoding: measurement results are recorded as +1/-1 throughout
(bit 0 maps to +1, bit 1 to -1), which is the algebra the CHSH combination
and its bounds are written in.

Ensembles built here come in two halves. Atoms of the "same" class carry
outcomes only for the contexts (0,0) and (1,1); atoms of the "diff" class
only for (0,1) and (1,0). The cross contexts of each class are structurally
absent, not merely zero-weighted: that is the whole point of the
construction, and it is what lets the four conditional correlations reach
past the classical bound while each atom still assigns its outcomes
locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Mapping

from .exactnum import as_rational, format_rational
from .ontology import ContextPair

__all__ = [
    "CONTEXTS",
    "AtomClass",
    "EnsembleAtom",
    "MeasurementSettings",
    "BellEnsemble",
    "ChshReport",
    "SpinOracleResult",
    "TSIRELSON_2SQRT2",
    "singlet_correlation",
    "rational_cos_approx",
    "tsirelson_settings",
    "build_bell_ensemble",
    "chsh_value",
    "free_choice_violations",
    "verify_free_choice_on_IU",
    "local_causality_violations",
    "verify_local_causality_on_IU",
    "collapse_contexts",
    "classical_chsh_max",
    "spin_operator_oracle",
    "decimal_string",
    "tsirelson_gap",
]

CONTEXTS = (
    ContextPair(0, 0),
    ContextPair(0, 1),
    ContextPair(1, 0),
    ContextPair(1, 1),
)

_PM = (1, -1)


def _sqrt8_decimal(digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(8).sqrt())


# Reference value 2*sqrt(2), the quantum maximum of the CHSH combination.
TSIRELSON_2SQRT2 = _sqrt8_decimal(40)


def decimal_string(value: Fraction, digits: int = 20) -> str:
    """Decimal rendering of an exact rational at the given precision."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def tsirelson_gap(s_value: Fraction, digits: int = 20) -> str:
    """Decimal |2*sqrt(2) - |S||, the distance to the quantum maximum.

    For S = p/q the gap is |8q^2 - p^2| / (q^2 (2*sqrt(2) + |S|)). Since
    8q^2 - p^2 is a nonzero integer and |S| <= 4, the gap is at least
    1/(7q^2), so the cancellation costs at most 2 * (digits of q) + 1
    digits of working precision.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 2 * len(str(s_value.denominator)) + 5
        gap = abs(Decimal(8).sqrt() - abs(Decimal(s_value.numerator) / Decimal(s_value.denominator)))
        ctx.prec = digits
        return str(+gap)


def singlet_correlation(cos_theta: Fraction | int | str) -> Fraction:
    """Exact spin correlation of the singlet state for measurement
    directions separated by the given cosine: simply its negative."""
    cos_theta = as_rational(cos_theta)
    if not -1 <= cos_theta <= 1:
        raise ValueError(f"cos(theta) = {format_rational(cos_theta)} outside [-1, 1]")
    return -cos_theta


def rational_cos_approx(target_square: Fraction | int | str, sign: int, N: int) -> Fraction:
    """Best 1/N-grid approximation n/N of sign*sqrt(target_square).

    The target is described exactly by its square (so sqrt(1/2) is
    representable as an input). Ties break toward the smaller |n|. The
    comparison is done on squares, never through floats.
    """
    target_square = as_rational(target_square)
    if not 0 <= target_square <= 1:
        raise ValueError("target_square must lie in [0, 1]")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"N = {N!r} must be an integer >= 2")
    p, q = target_square.numerator, target_square.denominator
    lower = math.isqrt(N * N * p * q) // q
    if lower >= N:
        best = N
    else:
        # lower/N <= sqrt(t) < (lower+1)/N; the midpoint test on squares
        # picks the closer endpoint, with ties going to the smaller n.
        if 4 * target_square <= Fraction((2 * lower + 1) ** 2, N * N):
            best = lower
        else:
            best = lower + 1
    return Fraction(sign * best, N)


class AtomClass(Enum):
    SAME = "same"
    DIFF = "diff"


@dataclass(frozen=True, eq=False)
class EnsembleAtom:
    """One sample-space point: a base weight plus outcomes (a, b) in
    {+1,-1}^2 for the contexts where this point is defined at all.

    ``context_weights`` optionally overrides the base weight per context;
    ensembles built by build_bell_ensemble never use it, but hand-built
    ensembles exercising the verifiers need a way to weight a point
    differently across its contexts.
    """

    lambda_id: str
    atom_class: AtomClass
    weight: Fraction
    outcomes: Mapping[ContextPair, tuple[int, int]]
    context_weights: Mapping[ContextPair, Fraction] | None = None

    def __post_init__(self) -> None:
        weight = as_rational(self.weight)
        if weight < 0:
            raise ValueError(f"{self.lambda_id}: negative weight")
        outcomes = {}
        for context, (a, b) in dict(self.outcomes).items():
            if a not in _PM or b not in _PM:
                raise ValueError(f"{self.lambda_id}: outcomes must be +1 or -1")
            outcomes[ContextPair(*context)] = (a, b)
        overrides = self.context_weights
        if overrides is not None:
            overrides = {ContextPair(*c): as_rational(w) for c, w in dict(overrides).items()}
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "context_weights", overrides)

    def weight_in(self, context: ContextPair) -> Fraction:
        """The weight this point carries in one context; zero where the
        point is undefined."""
        if context not in self.outcomes:
            return Fraction(0)
        if self.context_weights is not None:
            return self.context_weights.get(context, Fraction(0))
        return self.weight


@dataclass(frozen=True)
class MeasurementSettings:
    """Four per-context target cosines, each on the 1/N grid."""

    cos00: Fraction
    cos01: Fraction
    cos10: Fraction
    cos11: Fraction
    N: int

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"N = {self.N!r} must be an integer >= 2")
        for name in ("cos00", "cos01", "cos10", "cos11"):
            value = as_rational(getattr(self, name))
            object.__setattr__(self, name, value)
            if not -1 <= value <= 1:
                raise ValueError(f"{name} = {format_rational(value)} outside [-1, 1]")
            if self.N % value.denominator:
                raise ValueError(
                    f"{name} = {format_rational(value)} has denominator"
                    f" {value.denominator}, which does not divide N = {self.N}"
                )

    def cosine(self, context: ContextPair) -> Fraction:
        lookup = {
            (0, 0): self.cos00,
            (0, 1): self.cos01,
            (1, 0): self.cos10,
            (1, 1): self.cos11,
        }
        return lookup[tuple(context)]


def tsirelson_settings(N: int) -> MeasurementSettings:
    """Settings whose cosines are the best 1/N approximation a of
    sqrt(1/2) in the pattern (+a, +a, +a, -a): the standard geometry that
    drives the CHSH combination toward the quantum maximum."""
    approx = rational_cos_approx(Fraction(1, 2), 1, N)
    return MeasurementSettings(approx, approx, approx, -approx, N)


@dataclass(frozen=True)
class BellEnsemble:
    """Weighted sample space with per-context partial outcome tables."""

    atoms: tuple[EnsembleAtom, ...]
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def total_weight(self) -> Fraction:
        return sum((atom.weight for atom in self.atoms), Fraction(0))


@dataclass(frozen=True)
class ChshReport:
    """Exact per-context correlations and marginals plus the CHSH combination
    S = E00 + E01 + E10 - E11."""

    correlations: dict[ContextPair, Fraction]
    marginals_a: dict[ContextPair, Fraction]
    marginals_b: dict[ContextPair, Fraction]
    s_value: Fraction
    tsirelson_reference: str


def _pair_weight(a: int, b: int, correlation: Fraction) -> Fraction:
    # Unique two-outcome distribution with zero marginals and the target
    # correlation; nonnegative whenever |correlation| <= 1.
    return (1 + a * b * correlation) / 4


def _sign_char(value: int) -> str:
    return "+" if value > 0 else "-"


def build_bell_ensemble(settings: MeasurementSettings) -> BellEnsemble:
    """Realize the four singlet correlations on a paired sample space.

    Each class gets total weight 1/2 and 16 atoms, one per joint local
    assignment of its two contexts; within a class the two contexts are
    filled independently with the zero-marginal pair distribution, which is
    the minimal exact construction hitting the target correlations. The
    correlation targets come from the singlet rule applied to the rational
    cosines, so the geometry, not the bookkeeping, bounds the outcome.
    """
    targets = {context: singlet_correlation(settings.cosine(context)) for context in CONTEXTS}
    c00, c01, c10, c11 = CONTEXTS
    half = Fraction(1, 2)
    atoms = []
    for a0, b0, a1, b1 in product(_PM, repeat=4):
        weight = half * _pair_weight(a0, b0, targets[c00]) * _pair_weight(a1, b1, targets[c11])
        label = "same:" + "".join(_sign_char(v) for v in (a0, b0, a1, b1))
        atoms.append(
            EnsembleAtom(label, AtomClass.SAME, weight, {c00: (a0, b0), c11: (a1, b1)})
        )
    for a0, b1, a1, b0 in product(_PM, repeat=4):
        weight = half * _pair_weight(a0, b1, targets[c01]) * _pair_weight(a1, b0, targets[c10])
        label = "diff:" + "".join(_sign_char(v) for v in (a0, b1, a1, b0))
        atoms.append(
            EnsembleAtom(label, AtomClass.DIFF, weight, {c01: (a0, b1), c10: (a1, b0)})
        )
    return BellEnsemble(tuple(atoms), settings.N)


def chsh_value(ensemble: BellEnsemble) -> ChshReport:
    """Exact CHSH report with conditional normalization per context:
    p(point | context) is the point's weight divided by the total weight of
    the points defined in that context."""
    correlations: dict[ContextPair, Fraction] = {}
    marginals_a: dict[ContextPair, Fraction] = {}
    marginals_b: dict[ContextPair, Fraction] = {}
    for context in CONTEXTS:
        rows = [
            (atom.outcomes[context], atom.weight_in(context))
            for atom in ensemble.atoms
            if context in atom.outcomes
        ]
        total = sum((w for _, w in rows), Fraction(0))
        if total == 0:
            raise ValueError(f"context {tuple(context)} carries zero total weight")
        correlations[context] = sum((a * b * w for (a, b), w in rows), Fraction(0)) / total
        marginals_a[context] = sum((a * w for (a, _), w in rows), Fraction(0)) / total
        marginals_b[context] = sum((b * w for (_, b), w in rows), Fraction(0)) / total
    c00, c01, c10, c11 = CONTEXTS
    s_value = correlations[c00] + correlations[c01] + correlations[c10] - correlations[c11]
    return ChshReport(correlations, marginals_a, marginals_b, s_value, TSIRELSON_2SQRT2)


def free_choice_violations(ensemble: BellEnsemble) -> list[str]:
    """Diagnostics for the weakened free-choice condition on the defined
    support: every point must carry one and the same conditional
    probability across all contexts it defines, and its defined set must
    close under complementation (so the zero weight of a cross context
    never sits opposite a nonzero one)."""
    totals = {
        context: sum((atom.weight_in(context) for atom in ensemble.atoms), Fraction(0))
        for context in CONTEXTS
    }
    violations: list[str] = []
    for atom in ensemble.atoms:
        defined = sorted(atom.outcomes)
        if not defined:
            violations.append(f"{atom.lambda_id}: defines no contexts at all")
            continue
        conditionals = {}
        for context in defined:
            w = atom.weight_in(context)
            conditionals[context] = w / totals[context] if w else Fraction(0)
        for context in defined:
            partner = context.complement()
            if partner not in atom.outcomes:
                violations.append(
                    f"{atom.lambda_id}: defined in {tuple(context)} but not in its"
                    f" admissible partner {tuple(partner)}"
                )
        if len(set(conditionals.values())) > 1:
            violations.append(
                f"{atom.lambda_id}: conditional weight differs across defined contexts"
            )
    return violations


def verify_free_choice_on_IU(ensemble: BellEnsemble) -> bool:
    """True iff every point's conditional weight is context-independent
    wherever the point is defined, i.e. p(point | context) = p(point) on
    the defined support."""
    return not free_choice_violations(ensemble)


def local_causality_violations(ensemble: BellEnsemble) -> list[str]:
    """Diagnostics for the weakened local-causality condition: within each
    point, outcome a may depend only on x and outcome b only on y. Checked
    as conflict-freedom of the induced assignments, not inferred from the
    context structure."""
    violations: list[str] = []
    for atom in ensemble.atoms:
        a_by_x: dict[int, int] = {}
        b_by_y: dict[int, int] = {}
        for context in sorted(atom.outcomes):
            a, b = atom.outcomes[context]
            if a_by_x.setdefault(context.x, a) != a:
                violations.append(
                    f"{atom.lambda_id}: outcome a at x={context.x} depends on y"
                )
            if b_by_y.setdefault(context.y, b) != b:
                violations.append(
                    f"{atom.lambda_id}: outcome b at y={context.y} depends on x"
                )
    return violations


def verify_local_causality_on_IU(ensemble: BellEnsemble) -> bool:
    return not local_causality_violations(ensemble)


def collapse_contexts(ensemble: BellEnsemble) -> BellEnsemble:
    """Forget the context pairing: reinterpret each point's underlying local
    assignment (a at x=0, a at x=1, b at y=0, b at y=1) as defining
    outcomes in all four contexts.

    The result is a conventional one-sample-space model with
    context-independent weights, so its CHSH combination is bounded by the
    deterministic maximum of 2 no matter what the source ensemble achieved.
    """
    collapsed = []
    for atom in ensemble.atoms:
        a_by_x: dict[int, int] = {}
        b_by_y: dict[int, int] = {}
        for context, (a, b) in atom.outcomes.items():
            if a_by_x.setdefault(context.x, a) != a or b_by_y.setdefault(context.y, b) != b:
                raise ValueError(f"{atom.lambda_id}: inconsistent local assignment")
        if set(a_by_x) != {0, 1} or set(b_by_y) != {0, 1}:
            raise ValueError(
                f"{atom.lambda_id}: atom does not determine all four local values"
            )
        outcomes = {context: (a_by_x[context.x], b_by_y[context.y]) for context in CONTEXTS}
        collapsed.append(EnsembleAtom(atom.lambda_id, atom.atom_class, atom.weight, outcomes))
    return BellEnsemble(tuple(collapsed), ensemble.N)


def classical_chsh_max() -> Fraction:
    """Exhaustive maximum of the CHSH combination over all 16 deterministic
    local strategies: exactly 2. Every context-independent mixture is a
    convex combination of these, so 2 bounds every conventional model."""
    best: int | None = None
    for a0, a1, b0, b1 in product(_PM, repeat=4):
        s = a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1
        if best is None or s > best:
            best = s
    return Fraction(best)


Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass(frozen=True)
class SpinOracleResult:
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
    the operators' entries through the 4x4 tensor product. This exists
    purely as a test oracle; the production path never leaves exact
    arithmetic.
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
