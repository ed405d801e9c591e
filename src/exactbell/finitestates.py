"""Whole-number admissibility of Hilbert-style states, superposition
closure classification, and the helix trajectory ensemble behind a qubit.

A state is admissible at level N when every squared modulus is an integer
multiple of 1/N and every phase sits on the grid of N-th fractions of a
turn. All bookkeeping is exact; complex amplitudes only ever appear in
floating-point test oracles, never here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exactnum import (
    CosineClass,
    RationalAngle,
    _Frozen,
    as_rational,
    format_rational,
    niven_classify,
    parse_rational,
)

__all__ = [
    "AdmissibilityError",
    "Amplitude",
    "FiniteHilbertState",
    "FiniteQubit",
    "SuperpositionResult",
    "HelixEnsemble",
    "validate_finite_state",
    "make_finite_qubit",
    "superpose_classify",
    "helix_ensemble",
    "ensemble_statistics",
    "state_to_dict",
    "state_from_dict",
]


class AdmissibilityError(ValueError):
    """A state fails one of the whole-number admissibility conditions."""


class Amplitude(_Frozen):
    """One basis amplitude: squared modulus m/N plus an exact phase.

    The phase of an absent component (m = 0) is physically meaningless and
    is normalized to zero so that equality stays structural.
    """

    __slots__ = ("m", "phase")

    def __init__(self, m: int, phase: RationalAngle) -> None:
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"squared-modulus count m = {m!r} must be a natural number")
        if m == 0 and phase.turns != 0:
            phase = RationalAngle(Fraction(0))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "phase", phase)


class FiniteHilbertState(_Frozen):
    """Basis expansion with integer squared-modulus counts out of N.

    Deliberately permissive on construction: run validate_finite_state to
    obtain precise diagnostics instead of a constructor exception.
    """

    __slots__ = ("N", "amps")

    def __init__(self, N: int, amps: tuple[Amplitude, ...]) -> None:
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "amps", tuple(amps))


def validate_finite_state(state: FiniteHilbertState) -> list[str]:
    """All admissibility violations, as precise messages; empty means valid."""
    violations: list[str] = []
    if not isinstance(state.N, int) or state.N < 2:
        violations.append(f"N = {state.N!r} must be an integer >= 2")
        return violations
    count = len(state.amps)
    if count == 0 or count & (count - 1):
        violations.append(f"entry count {count} is not a power of two")
    total = sum(amp.m for amp in state.amps)
    if total != state.N:
        violations.append(f"normalization: sum(m) = {total} != N = {state.N}")
    for index, amp in enumerate(state.amps):
        if amp.m > state.N:
            violations.append(f"amps[{index}]: m = {amp.m} exceeds N = {state.N}")
        denominator = amp.phase.turns.denominator
        if state.N % denominator:
            violations.append(
                f"amps[{index}]: phase denominator {denominator} does not divide N = {state.N}"
            )
    return violations


class FiniteQubit(_Frozen):
    """A single qubit whose polar cosine and azimuthal phase both live on
    the 1/N grid, so that it owns an exact N-strand ensemble picture."""

    __slots__ = ("cos_theta", "phi", "N")

    def __init__(self, cos_theta: Fraction | int | str, phi: RationalAngle, N: int) -> None:
        cos_theta = as_rational(cos_theta)
        if not isinstance(N, int) or N < 2:
            raise ValueError(f"N = {N!r} must be an integer >= 2")
        if not -1 <= cos_theta <= 1:
            raise ValueError(f"cos(theta) = {format_rational(cos_theta)} outside [-1, 1]")
        weight = (1 + cos_theta) / 2
        if (weight * N).denominator != 1:
            raise AdmissibilityError(
                f"(1 + cos(theta))/2 = {format_rational(weight)} is not an integer"
                f" multiple of 1/{N}"
            )
        if (phi.turns * N).denominator != 1:
            raise AdmissibilityError(
                f"phase {format_rational(phi.turns)} of a turn is not an integer"
                f" multiple of 1/{N}"
            )
        object.__setattr__(self, "cos_theta", cos_theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "N", N)

    @property
    def n1(self) -> int:
        """Number of zero-labelled strands: (1 + cos(theta))/2 * N."""
        return int((1 + self.cos_theta) / 2 * self.N)

    def to_state(self) -> FiniteHilbertState:
        """Embed as the two-entry state (n1, phase 0), (N - n1, phi)."""
        return FiniteHilbertState(
            self.N,
            (
                Amplitude(self.n1, RationalAngle(Fraction(0))),
                Amplitude(self.N - self.n1, self.phi),
            ),
        )


def make_finite_qubit(
    cos_theta: Fraction | int | str, phi: RationalAngle, N: int
) -> FiniteQubit:
    """Construct a qubit at admissibility level N, or raise
    AdmissibilityError naming the violated condition."""
    return FiniteQubit(as_rational(cos_theta), phi, N)


class SuperpositionResult(NamedTuple):
    """Outcome of normalizing the sum of two equal-weight qubit states.

    ``finite`` is True exactly when the resulting polar cosine is rational,
    i.e. when the sum admits an exact ensemble representation at some N.
    The overall normalization constant is irrational in general and
    irrelevant to that decision, so it is not retained.
    """

    cos_sq_half_polar: CosineClass
    azimuth: RationalAngle
    finite: bool

    @property
    def cos_polar(self) -> Fraction | None:
        """cos of the resulting polar angle, 2*cos_sq_half_polar - 1."""
        if self.cos_sq_half_polar.value is None:
            return None
        return 2 * self.cos_sq_half_polar.value - 1


def superpose_classify(phi1: RationalAngle, phi2: RationalAngle) -> SuperpositionResult:
    """Decide whether the normalized sum of two admissible equal-weight
    states is itself admissible.

    The sum has cos^2(polar/2) = 2 / (3 + cos(phi1 - phi2)) and azimuth
    (phi1 + phi2)/2. Both phases sit on rational turn fractions, so the
    difference does too, and its cosine is rational only in the five
    special turn families; everywhere else the result is inadmissible no
    matter how large N is.
    """
    difference = niven_classify(phi1 - phi2)
    azimuth = phi1.midpoint(phi2)
    if difference.is_rational:
        cos_sq = 2 / (3 + difference.value)
        return SuperpositionResult(CosineClass(cos_sq), azimuth, True)
    return SuperpositionResult(CosineClass(None), azimuth, False)


class HelixEnsemble(_Frozen):
    """N equally weighted trajectory strands, n1 of them labelled by basis
    cluster 0 and the rest by cluster 1, held as the two counts."""

    __slots__ = ("N", "n1")

    def __init__(self, N: int, n1: int) -> None:
        if not isinstance(N, int) or N < 1:
            raise ValueError(f"N = {N!r} must be a positive integer")
        if not isinstance(n1, int) or not 0 <= n1 <= N:
            raise ValueError(f"n1 = {n1!r} must be an integer in [0, {N}]")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n1", n1)

    @property
    def strand_weight(self) -> Fraction:
        return Fraction(1, self.N)


def helix_ensemble(qubit: FiniteQubit) -> HelixEnsemble:
    """Expand a qubit into its strand ensemble: exactly n1 zero-labelled
    strands out of N."""
    return HelixEnsemble(qubit.N, qubit.n1)


def ensemble_statistics(ensemble: HelixEnsemble) -> tuple[Fraction, Fraction]:
    """Exact label fractions (n1/N, (N - n1)/N); they sum to 1."""
    return Fraction(ensemble.n1, ensemble.N), Fraction(ensemble.N - ensemble.n1, ensemble.N)


def state_to_dict(state: FiniteHilbertState) -> dict:
    """JSON-ready form: {"N": int, "amps": [{"m": int, "phase_turns": "p/q"}]}.

    Rationals are decimal-free 'p/q' strings; round trip is bit-exact.
    """
    return {
        "N": state.N,
        "amps": [
            {"m": amp.m, "phase_turns": format_rational(amp.phase.turns)}
            for amp in state.amps
        ],
    }


def state_from_dict(data: dict) -> FiniteHilbertState:
    """Inverse of state_to_dict; raises ValueError on malformed input."""
    try:
        n = data["N"]
        raw_amps = data["amps"]
    except (TypeError, KeyError) as exc:
        raise ValueError("state object needs keys 'N' and 'amps'") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"'N' must be an integer, got {n!r}")
    if not isinstance(raw_amps, list):
        raise ValueError("'amps' must be a list")
    amps = []
    for index, entry in enumerate(raw_amps):
        try:
            m = entry["m"]
            phase_text = entry["phase_turns"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"amps[{index}] needs keys 'm' and 'phase_turns'") from exc
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"amps[{index}].m must be an integer, got {m!r}")
        amps.append(Amplitude(m, RationalAngle(parse_rational(str(phase_text)))))
    return FiniteHilbertState(n, tuple(amps))
