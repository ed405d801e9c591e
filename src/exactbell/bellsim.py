"""Contextual weighted sample spaces for the CHSH experiment, the exact
CHSH combination, the weakened on-support verifiers and the classical
deterministic bound. The floating-point spin-operator oracle that
cross-checks the singlet rule lives apart, in exactbell.oracle.

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

An ensemble is one table: atom i maps each context where it is defined to
(a, b, w), its two outcomes there and its weight w over one shared
denominator. Hand-written tables are checked atom by atom; the ones built
here are well formed by construction and trusted. Every sum and comparison
is integer arithmetic; a Fraction is made only for each reported value.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, NamedTuple

from .exactnum import _Frozen, as_rational, format_rational
from .ontology import ContextPair

__all__ = [
    "CONTEXTS",
    "MeasurementSettings",
    "BellEnsemble",
    "ChshReport",
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
_OUTCOME_PAIRS = frozenset(product(_PM, repeat=2))
_PARTNERS = {context: context.complement() for context in CONTEXTS}
# The 16 joint local assignments of one ensemble class and their label
# suffixes, e.g. (1, -1, 1, 1) -> "+-++".
_ASSIGNMENTS = tuple(product(_PM, repeat=4))
_SIGNS = tuple("".join("+" if v > 0 else "-" for v in values) for values in _ASSIGNMENTS)


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
        ctx.prec = digits + 2 * _decimal_digits(s_value.denominator) + 5
        gap = abs(Decimal(8).sqrt() - abs(Decimal(s_value.numerator) / Decimal(s_value.denominator)))
        ctx.prec = digits
        return str(+gap)


def _decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 1, without the int-to-str conversion that
    CPython refuses past 4,300 digits. The bit length times log10(2),
    rounded down at 30 digits, is the count or one short of it for any
    integer that fits in memory; one power of ten decides which."""
    estimate = n.bit_length() * 301029995663981195213738894724 // 10**30
    return estimate + (n >= 10**estimate)


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
    # lower/N <= sqrt(t) < (lower+1)/N; below N, the midpoint test on
    # squares picks the closer endpoint, with ties going to the smaller n.
    if lower >= N:
        best = N
    elif 4 * p * N * N <= (2 * lower + 1) ** 2 * q:
        best = lower
    else:
        best = lower + 1
    return Fraction(sign * best, N)


class MeasurementSettings(_Frozen):
    """Four per-context target cosines, each on the 1/N grid."""

    __slots__ = ("cos00", "cos01", "cos10", "cos11", "N")

    def __init__(
        self,
        cos00: Fraction | int | str,
        cos01: Fraction | int | str,
        cos10: Fraction | int | str,
        cos11: Fraction | int | str,
        N: int,
    ) -> None:
        if not isinstance(N, int) or N < 2:
            raise ValueError(f"N = {N!r} must be an integer >= 2")
        for name, value in zip(self.__slots__, (cos00, cos01, cos10, cos11)):
            value = as_rational(value)
            p, q = value.numerator, value.denominator
            if abs(p) > q:
                raise ValueError(f"{name} = {format_rational(value)} outside [-1, 1]")
            if N % q:
                raise ValueError(
                    f"{name} = {format_rational(value)} has denominator"
                    f" {q}, which does not divide N = {N}"
                )
            object.__setattr__(self, name, value)
        object.__setattr__(self, "N", N)


def tsirelson_settings(N: int) -> MeasurementSettings:
    """Settings whose cosines are the best 1/N approximation a of
    sqrt(1/2) in the pattern (+a, +a, +a, -a): the standard geometry that
    drives the CHSH combination toward the quantum maximum."""
    approx = rational_cos_approx(Fraction(1, 2), 1, N)
    return MeasurementSettings(approx, approx, approx, -approx, N)


class BellEnsemble(_Frozen):
    """Weighted sample space held as one table of atoms.

    Atom i is ``labels[i]``. ``atoms[i]`` maps each context where it is
    defined to ``(a, b, w)``: its outcomes there and its weight
    ``w / denominator``.
    """

    __slots__ = ("labels", "atoms", "denominator", "N")

    def __init__(
        self,
        labels: tuple[str, ...],
        atoms: tuple[Mapping[ContextPair, tuple[int, int, int]], ...],
        denominator: int,
        N: int,
    ) -> None:
        for name, value in zip(self.__slots__, (labels, atoms, denominator, N)):
            object.__setattr__(self, name, value)
        if not isinstance(denominator, int) or denominator <= 0:
            raise ValueError(f"denominator {denominator!r} must be a positive integer")
        for label, atom in zip(labels, atoms, strict=True):
            if not atom.keys() <= _PARTNERS.keys():
                raise ValueError(f"{label}: contexts must be pairs of bits")
            for row in atom.values():
                if len(row) != 3 or row[:2] not in _OUTCOME_PAIRS:
                    raise ValueError(f"{label}: outcomes must be +1 or -1")
            for _, _, w in atom.values():
                if not isinstance(w, int) or w < 0:
                    raise ValueError(f"{label}: weights must be nonnegative integers")
            if not all(isinstance(context, ContextPair) for context in atom):
                raise ValueError(f"{label}: context keys must be ContextPair values")

    @classmethod
    def _trusted(cls, *fields) -> BellEnsemble:
        """Fields well formed by construction, set without the per-atom check."""
        ensemble = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(ensemble, name, value)
        return ensemble

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[str, Mapping, Mapping]], N: int) -> BellEnsemble:
        """Ensemble from hand-written atoms ``(label, outcomes, weights)``.

        ``outcomes`` maps each context the atom defines to (a, b);
        ``weights`` maps defined contexts to rational weights, and a
        defined context it leaves out weighs 0. The weights are scaled to
        integer numerators over their least common denominator.
        """
        labels, rational = [], []
        for label, atom_outcomes, atom_weights in atoms:
            given = {ContextPair(*c): as_rational(w) for c, w in dict(atom_weights).items()}
            outcomes = {ContextPair(*c): tuple(ab) for c, ab in dict(atom_outcomes).items()}
            if stray := [c for c in given if c not in outcomes]:
                raise ValueError(f"{label}: weight given for undefined context {tuple(stray[0])}")
            labels.append(label)
            rational.append({c: (ab, given.get(c, Fraction(0))) for c, ab in outcomes.items()})
        denominator = math.lcm(*(w.denominator for row in rational for _, w in row.values()))
        table = tuple(
            {c: (*ab, int(w * denominator)) for c, (ab, w) in row.items()} for row in rational
        )
        return cls(tuple(labels), table, denominator, N)


class ChshReport(NamedTuple):
    """Exact per-context correlations and marginals plus the CHSH combination
    S = E00 + E01 + E10 - E11."""

    correlations: dict[ContextPair, Fraction]
    marginals_a: dict[ContextPair, Fraction]
    marginals_b: dict[ContextPair, Fraction]
    s_value: Fraction
    tsirelson_reference: str


def build_bell_ensemble(settings: MeasurementSettings) -> BellEnsemble:
    """Realize the four singlet correlations on a paired sample space.

    Each class gets total weight 1/2 and 16 atoms, one per joint local
    assignment of its two contexts; within a class the two contexts are
    filled independently with the zero-marginal pair distribution
    (1 + a*b*E)/4, which is the minimal exact construction hitting the
    target correlations E. The targets come from the singlet rule E = -cos
    applied to the rational cosines, so the geometry, not the bookkeeping,
    bounds the outcome. With k = N*cos, an integer on the 1/N grid, an atom
    assigning (a, b) and (a', b') weighs (N - abk)(N - a'b'k') / (32 N^2).
    """
    N = settings.N
    k00, k01, k10, k11 = (
        cos.numerator * (N // cos.denominator)
        for cos in (settings.cos00, settings.cos01, settings.cos10, settings.cos11)
    )
    c00, c01, c10, c11 = CONTEXTS
    labels: list[str] = []
    atoms: list[dict[ContextPair, tuple[int, int, int]]] = []
    for name, first, k_first, second, k_second in (
        ("same:", c00, k00, c11, k11),
        ("diff:", c01, k01, c10, k10),
    ):
        for (a, b, a2, b2), signs in zip(_ASSIGNMENTS, _SIGNS):
            weight = (N - a * b * k_first) * (N - a2 * b2 * k_second)
            labels.append(name + signs)
            atoms.append({first: (a, b, weight), second: (a2, b2, weight)})
    return BellEnsemble._trusted(tuple(labels), tuple(atoms), 32 * N * N, N)


def chsh_value(ensemble: BellEnsemble) -> ChshReport:
    """Exact CHSH report with conditional normalization per context:
    p(point | context) is the point's weight divided by the total weight of
    the points defined in that context."""
    columns = {context: [] for context in CONTEXTS}
    for atom in ensemble.atoms:
        for context, row in atom.items():
            columns[context].append(row)
    correlations, marginals_a, marginals_b, sums = {}, {}, {}, []
    for context, column in columns.items():
        total = sum_ab = sum_a = sum_b = 0
        for a, b, w in column:
            total += w
            sum_ab += a * b * w
            sum_a += a * w
            sum_b += b * w
        if total == 0:
            raise ValueError(f"context {tuple(context)} carries zero total weight")
        sums.append((sum_ab, total))
        correlations[context] = Fraction(sum_ab, total)
        marginals_a[context] = Fraction(sum_a, total)
        marginals_b[context] = Fraction(sum_b, total)
    # S = E00 + E01 + E10 - E11 over the product of the totals, reduced once.
    (s00, t00), (s01, t01), (s10, t10), (s11, t11) = sums
    numerator = ((s00 * t01 + s01 * t00) * t10 + s10 * t00 * t01) * t11 - s11 * t00 * t01 * t10
    s_value = Fraction(numerator, t00 * t01 * t10 * t11)
    return ChshReport(correlations, marginals_a, marginals_b, s_value, TSIRELSON_2SQRT2)


def free_choice_violations(ensemble: BellEnsemble) -> list[str]:
    """Diagnostics for the weakened free-choice condition on the defined
    support: every point must carry one and the same conditional
    probability across all contexts it defines, and its defined set must
    close under complementation (so the zero weight of a cross context
    never sits opposite a nonzero one).

    Conditionals w/T are compared by cross-multiplication, w*T' == w'*T; a
    zero weight counts as the conditional 0/1, also in a context of zero
    total."""
    totals = dict.fromkeys(CONTEXTS, 0)
    for atom in ensemble.atoms:
        for context, (_, _, w) in atom.items():
            totals[context] += w
    violations: list[str] = []
    for label, atom in zip(ensemble.labels, ensemble.atoms):
        defined = sorted(atom)
        if not defined:
            violations.append(f"{label}: defines no contexts at all")
            continue
        for context in defined:
            if _PARTNERS[context] not in atom:
                violations.append(
                    f"{label}: defined in {tuple(context)} but not in its"
                    f" admissible partner {tuple(_PARTNERS[context])}"
                )
        first, *others = defined
        w0, t0 = (atom[first][2], totals[first]) if atom[first][2] else (0, 1)
        for context in others:
            w, t = (atom[context][2], totals[context]) if atom[context][2] else (0, 1)
            if w * t0 != w0 * t:
                violations.append(f"{label}: conditional weight differs across defined contexts")
                break
    return violations


def verify_free_choice_on_IU(ensemble: BellEnsemble) -> bool:
    """True iff every point's conditional weight is context-independent
    wherever the point is defined, i.e. p(point | context) = p(point) on
    the defined support."""
    return not free_choice_violations(ensemble)


def _local_values(label: str, atom: Mapping, violations: list[str]) -> tuple[dict, dict]:
    """The atom's outcome a for each x and b for each y, read in context
    order. Each value that contradicts an earlier one appends a diagnostic
    to ``violations``."""
    a_by_x, b_by_y = {}, {}
    for context in sorted(atom):
        a, b, _ = atom[context]
        if a_by_x.setdefault(context.x, a) != a:
            violations.append(f"{label}: outcome a at x={context.x} depends on y")
        if b_by_y.setdefault(context.y, b) != b:
            violations.append(f"{label}: outcome b at y={context.y} depends on x")
    return a_by_x, b_by_y


def local_causality_violations(ensemble: BellEnsemble) -> list[str]:
    """Diagnostics for the weakened local-causality condition: within each
    point, outcome a may depend only on x and outcome b only on y. Checked
    as conflict-freedom of the induced assignments, not inferred from the
    context structure."""
    violations: list[str] = []
    for label, atom in zip(ensemble.labels, ensemble.atoms):
        _local_values(label, atom, violations)
    return violations


def verify_local_causality_on_IU(ensemble: BellEnsemble) -> bool:
    return not local_causality_violations(ensemble)


def collapse_contexts(ensemble: BellEnsemble) -> BellEnsemble:
    """Forget the context pairing: reinterpret each point's underlying local
    assignment (a at x=0, a at x=1, b at y=0, b at y=1) as defining
    outcomes in all four contexts, at the point's one weight.

    The result is a conventional one-sample-space model with
    context-independent weights, so its CHSH combination is bounded by the
    deterministic maximum of 2 no matter what the source ensemble achieved.
    """
    atoms = []
    for label, atom in zip(ensemble.labels, ensemble.atoms):
        conflicts: list[str] = []
        a_by_x, b_by_y = _local_values(label, atom, conflicts)
        if conflicts:
            raise ValueError(f"{label}: inconsistent local assignment")
        if len(a_by_x) != 2 or len(b_by_y) != 2:
            raise ValueError(f"{label}: atom does not determine all four local values")
        weights = {w for _, _, w in atom.values()}
        if len(weights) != 1:
            raise ValueError(f"{label}: weight differs across its contexts")
        atoms.append({c: (a_by_x[c.x], b_by_y[c.y], *weights) for c in CONTEXTS})
    return BellEnsemble._trusted(ensemble.labels, tuple(atoms), ensemble.denominator, ensemble.N)


def classical_chsh_max() -> Fraction:
    """Exhaustive maximum of the CHSH combination over all 16 deterministic
    local strategies: exactly 2. Every context-independent mixture is a
    convex combination of these, so 2 bounds every conventional model."""
    return Fraction(
        max(a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1 for a0, a1, b0, b1 in product(_PM, repeat=4))
    )
