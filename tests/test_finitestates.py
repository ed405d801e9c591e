"""Admissibility checks, superposition closure, and the strand ensemble."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from exactbell.exactnum import RationalAngle, niven_classify
from exactbell.finitestates import (
    AdmissibilityError,
    Amplitude,
    FiniteHilbertState,
    ensemble_statistics,
    helix_ensemble,
    make_finite_qubit,
    state_from_dict,
    state_to_dict,
    superpose_classify,
    validate_finite_state,
)


def _angle(p, q=1):
    return RationalAngle(Fraction(p, q))


# --- validate_finite_state ----------------------------------------------------


def test_uniform_pair_is_valid():
    state = FiniteHilbertState(2, (Amplitude(1, _angle(0)), Amplitude(1, _angle(0))))
    assert validate_finite_state(state) == []


def test_normalization_violation_message():
    state = FiniteHilbertState(2, (Amplitude(1, _angle(0)), Amplitude(2, _angle(0))))
    violations = validate_finite_state(state)
    assert any("normalization: sum(m) = 3 != N = 2" in v for v in violations)


def test_phase_denominator_violation():
    state = FiniteHilbertState(4, (Amplitude(3, _angle(1, 3)), Amplitude(1, _angle(0))))
    violations = validate_finite_state(state)
    assert any("phase denominator 3 does not divide N = 4" in v for v in violations)


def test_entry_count_must_be_power_of_two():
    state = FiniteHilbertState(
        3, (Amplitude(1, _angle(0)), Amplitude(1, _angle(0)), Amplitude(1, _angle(0)))
    )
    assert any("power of two" in v for v in validate_finite_state(state))


def test_zero_modulus_phase_is_normalized():
    amp = Amplitude(0, _angle(1, 3))
    assert amp.phase.turns == 0


# --- make_finite_qubit ----------------------------------------------------------


def test_qubit_examples():
    qubit = make_finite_qubit(Fraction(1, 2), _angle(0), 4)
    assert qubit.n1 == 3

    pole = make_finite_qubit(Fraction(1), _angle(0), 2)
    assert pole.n1 == pole.N == 2


def test_qubit_admissibility_failure_names_condition():
    with pytest.raises(AdmissibilityError, match=r"\(1 \+ cos\(theta\)\)/2 = 2/3"):
        make_finite_qubit(Fraction(1, 3), _angle(0), 4)
    with pytest.raises(AdmissibilityError, match="phase"):
        make_finite_qubit(Fraction(1, 2), _angle(1, 3), 4)
    with pytest.raises(ValueError, match="outside"):
        make_finite_qubit(Fraction(3, 2), _angle(0), 4)


def test_every_embedding_passes_validation():
    for N in (2, 3, 4, 6, 8, 12):
        for n1 in range(N + 1):
            cos_theta = Fraction(2 * n1, N) - 1
            for k in range(N):
                qubit = make_finite_qubit(cos_theta, _angle(k, N), N)
                assert qubit.n1 == n1
                assert validate_finite_state(qubit.to_state()) == []


# --- superpose_classify ----------------------------------------------------------


def test_superpose_equal_phases():
    result = superpose_classify(_angle(1, 4), _angle(1, 4))
    assert result.finite
    assert result.cos_sq_half_polar.value == Fraction(1, 2)
    assert result.cos_polar == 0
    assert result.azimuth.turns == Fraction(1, 4)


def test_superpose_third_turn_difference():
    result = superpose_classify(_angle(1, 3), _angle(0))
    assert result.finite
    assert result.cos_sq_half_polar.value == Fraction(4, 5)
    assert result.cos_polar == Fraction(3, 5)
    assert result.azimuth.turns == Fraction(1, 6)


def test_superpose_generic_difference_is_not_finite():
    result = superpose_classify(_angle(1, 5), _angle(0))
    assert not result.finite
    assert result.cos_sq_half_polar.value is None
    assert result.cos_polar is None


def test_superpose_finite_set_matches_enumeration():
    # Over all reduced differences with denominator <= 24, the admissible
    # cases are exactly the ones with a rational cosine, counted directly.
    finite_set = set()
    special_set = set()
    for q in range(1, 25):
        for p in range(q):
            if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
                continue
            turns = Fraction(p, q)
            if superpose_classify(_angle(p, q), _angle(0)).finite:
                finite_set.add(turns)
            if niven_classify(RationalAngle(turns)).is_rational:
                special_set.add(turns)
    assert finite_set == special_set
    assert len(finite_set) == 8


# --- helix ensemble ---------------------------------------------------------------


def test_helix_labels_zeros_first():
    qubit = make_finite_qubit(Fraction(1, 2), _angle(0), 4)
    strands = helix_ensemble(qubit)
    assert (strands.N, strands.n1) == (4, 3)
    assert strands.strand_weight == Fraction(1, 4)


def test_helix_pole_all_zeros():
    qubit = make_finite_qubit(Fraction(1), _angle(0), 4)
    strands = helix_ensemble(qubit)
    assert (strands.N, strands.n1) == (4, 4)


def test_ensemble_statistics_round_trip():
    for N in (2, 4, 8):
        for n1 in range(N + 1):
            qubit = make_finite_qubit(Fraction(2 * n1, N) - 1, _angle(0), N)
            zero_fraction, one_fraction = ensemble_statistics(helix_ensemble(qubit))
            assert zero_fraction == (1 + qubit.cos_theta) / 2
            assert one_fraction == (1 - qubit.cos_theta) / 2
            assert zero_fraction + one_fraction == 1


def test_statistics_are_exact_types():
    qubit = make_finite_qubit(Fraction(1, 2), _angle(0), 4)
    zero_fraction, one_fraction = ensemble_statistics(helix_ensemble(qubit))
    assert isinstance(zero_fraction, Fraction) and isinstance(one_fraction, Fraction)


# --- JSON round trip -----------------------------------------------------------


def test_state_json_round_trip_is_bit_exact():
    qubit = make_finite_qubit(Fraction(1, 2), _angle(3, 4), 4)
    state = qubit.to_state()
    payload = json.dumps(state_to_dict(state))
    assert state_from_dict(json.loads(payload)) == state
    assert state_to_dict(state_from_dict(json.loads(payload))) == json.loads(payload)


def test_state_from_dict_rejects_malformed():
    with pytest.raises(ValueError):
        state_from_dict({"N": 2})
    with pytest.raises(ValueError):
        state_from_dict({"N": "2", "amps": []})
    with pytest.raises(ValueError):
        state_from_dict({"N": 2, "amps": [{"m": 1}]})
    with pytest.raises(ValueError):
        state_from_dict({"N": 2, "amps": [{"m": 1, "phase_turns": "0.5"}]})


def test_state_from_dict_rejects_booleans():
    # bool is an int subclass; JSON true must not read as 1.
    amps = [{"m": 1, "phase_turns": "0"}, {"m": 1, "phase_turns": "1/2"}]
    with pytest.raises(ValueError, match="'N' must be an integer, got True"):
        state_from_dict({"N": True, "amps": amps})
    with pytest.raises(ValueError, match=r"amps\[0\]\.m must be an integer, got True"):
        state_from_dict({"N": 2, "amps": [{"m": True, "phase_turns": "0"}, amps[1]]})
    assert state_from_dict({"N": 2, "amps": amps}).amps[0].m == 1
