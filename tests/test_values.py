"""Every value type is immutable, and ``==``, ``hash`` and ``repr`` follow
its fields."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from exactbell import (
    Amplitude,
    BellEnsemble,
    BitString,
    ChshReport,
    CosineClass,
    CounterfactualCase,
    DigitString,
    FiniteHilbertState,
    FiniteQubit,
    HelixEnsemble,
    MeasurementSettings,
    OnticClass,
    QuadraticSurd,
    RationalAngle,
    SphericalTriangle,
    SpinOracleResult,
    SuperpositionResult,
    build_bell_ensemble,
    chsh_value,
    counterfactual_cosine_class,
    generate_bits,
    helix_ensemble,
    make_finite_qubit,
    niven_classify,
    spin_operator_oracle,
    superpose_classify,
    tsirelson_settings,
)

# Each builder makes a fresh instance, so two calls give equal but
# distinct values. The field named for each is the one reassigned.
VALUES = {
    "RationalAngle": (lambda: RationalAngle(Fraction(7, 6)), "turns"),
    "CosineClass": (lambda: niven_classify(RationalAngle(Fraction(1, 6))), "value"),
    "QuadraticSurd": (lambda: QuadraticSurd(Fraction(1, 2), Fraction(3), 12), "radicand"),
    "DigitString": (lambda: DigitString(10, (1, 2, 3)), "digits"),
    "Amplitude": (lambda: Amplitude(1, RationalAngle(Fraction(1, 2))), "m"),
    "FiniteHilbertState": (
        lambda: FiniteHilbertState(
            2, [Amplitude(1, RationalAngle(0)), Amplitude(1, RationalAngle(Fraction(1, 2)))]
        ),
        "amps",
    ),
    "FiniteQubit": (lambda: make_finite_qubit("1/2", RationalAngle(Fraction(1, 4)), 4), "N"),
    "SuperpositionResult": (
        lambda: superpose_classify(RationalAngle(Fraction(1, 3)), RationalAngle(0)), "finite"
    ),
    "HelixEnsemble": (lambda: helix_ensemble(make_finite_qubit("1/2", RationalAngle(0), 4)), "n1"),
    "OnticClass": (
        lambda: counterfactual_cosine_class(
            SphericalTriangle("3/5", "4/5", RationalAngle(Fraction(1, 2)))
        ),
        "value",
    ),
    "SphericalTriangle": (
        lambda: SphericalTriangle("1/5", "1/2", RationalAngle(Fraction(1, 8))), "gamma"
    ),
    "MeasurementSettings": (lambda: tsirelson_settings(16), "cos11"),
    "BellEnsemble": (lambda: build_bell_ensemble(tsirelson_settings(4)), "denominator"),
    "ChshReport": (lambda: chsh_value(build_bell_ensemble(tsirelson_settings(4))), "s_value"),
    "SpinOracleResult": (lambda: spin_operator_oracle(0.5, 0.25), "singlet_expectation"),
    "BitString": (lambda: generate_bits(Fraction(1, 7), 6), "period"),
}
# These hold dicts, so they compare by fields but cannot be hashed.
UNHASHABLE = {"BellEnsemble", "ChshReport", "SpinOracleResult"}
TYPES = {
    cls.__name__: cls
    for cls in (
        RationalAngle, CosineClass, QuadraticSurd, DigitString, Amplitude, FiniteHilbertState,
        FiniteQubit, SuperpositionResult, HelixEnsemble, OnticClass, SphericalTriangle,
        MeasurementSettings, BellEnsemble, ChshReport, SpinOracleResult, BitString,
    )
}


def test_every_value_type_is_covered():
    assert set(VALUES) == set(TYPES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_semantics(name):
    build, field = VALUES[name]
    value, twin = build(), build()
    assert type(value) is TYPES[name]
    assert value is not twin

    with pytest.raises(AttributeError):
        setattr(value, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == twin
    assert not value != twin
    if name not in UNHASHABLE:
        assert hash(value) == hash(twin)
        assert len({value, twin}) == 1
    assert repr(value).startswith(f"{name}(")
    assert repr(value) == repr(twin)
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_fields_decide_equality_and_appear_in_repr():
    assert RationalAngle(Fraction(1, 6)) != RationalAngle(Fraction(1, 3))
    assert repr(RationalAngle(Fraction(7, 6))) == "RationalAngle(turns=Fraction(1, 6))"
    assert DigitString(10, [1, 2]) == DigitString(10, (1, 2))
    assert DigitString(10, (1, 2)) != DigitString(9, (1, 2))
    assert BitString("01", 2) != BitString("01")
    assert Amplitude(0, RationalAngle(Fraction(1, 3))) == Amplitude(0, RationalAngle(0))
    assert RationalAngle(0) != Fraction(0)
    assert repr(BitString("01")) == "BitString(bits='01', period=None)"


def test_surd_equality_stays_value_based():
    # 2*sqrt(3) and sqrt(12) differ field by field but are one value.
    assert QuadraticSurd(0, 2, 3) == QuadraticSurd(0, 1, 12)
    assert hash(QuadraticSurd(0, 2, 3)) == hash(QuadraticSurd(0, 1, 12))
    assert QuadraticSurd(Fraction(1, 2), 0) == Fraction(1, 2)
    assert repr(QuadraticSurd(0, 1, 4)) == (
        "QuadraticSurd(rat=Fraction(2, 1), coeff=Fraction(0, 1), radicand=1)"
    )
