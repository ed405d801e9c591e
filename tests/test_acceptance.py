"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line. Run with `pytest tests/test_acceptance.py -s`.

Every tolerance is pinned here; nothing is deferred to calibration.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import product

import mpmath

from exactbell.bellsim import (
    MeasurementSettings,
    build_bell_ensemble,
    chsh_value,
    classical_chsh_max,
    tsirelson_settings,
    verify_free_choice_on_IU,
    verify_local_causality_on_IU,
)
from exactbell.detgen import BitString, generate_bits, seed_from_bits
from exactbell.exactnum import (
    DigitString,
    RationalAngle,
    niven_classify,
    padic_valuation,
    ultrametric_distance,
)
from exactbell.finitestates import superpose_classify
from exactbell.ontology import SphericalTriangle, counterfactual_cosine_class
from exactbell.oracle import spin_operator_oracle

from oracles import classify_cosine_by_minimal_polynomial

SWEEP_NS = (8, 16, 64, 256, 1024)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def _within_of_tsirelson(value: Fraction, tolerance: Fraction) -> bool:
    """|value - 2*sqrt(2)| <= tolerance, decided on exact squares."""
    low, high = value - tolerance, value + tolerance
    low_ok = low <= 0 or low * low <= 8
    high_ok = high >= 0 and high * high >= 8
    return low_ok and high_ok


def test_criterion_1_chsh_violation_and_tsirelson_convergence():
    start = time.perf_counter()
    ok = True
    for n in SWEEP_NS:
        report = chsh_value(build_bell_ensemble(tsirelson_settings(n)))
        magnitude = abs(report.s_value)
        ok &= magnitude > 2
        ok &= _within_of_tsirelson(magnitude, Fraction(2, n))
        if n == 16:
            ok &= magnitude == Fraction(11, 4)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, "CHSH violation and Tsirelson convergence", ok, f"{elapsed:.3f}s")


def test_criterion_2_classical_bound():
    start = time.perf_counter()
    bound = classical_chsh_max()
    elapsed = time.perf_counter() - start
    _report(2, "classical bound by exhaustive enumeration", bound == 2 and elapsed < 1.0)


def test_criterion_3_weakened_definitions_coexist_with_violation():
    rng = random.Random(20260809)
    ok = True
    for _ in range(1000):
        n = rng.choice((4, 8, 12, 16, 32, 64))
        cosines = [Fraction(rng.randint(-n, n), n) for _ in range(4)]
        ensemble = build_bell_ensemble(MeasurementSettings(*cosines, n))
        ok &= verify_free_choice_on_IU(ensemble)
        ok &= verify_local_causality_on_IU(ensemble)
    for n in SWEEP_NS:
        ensemble = build_bell_ensemble(tsirelson_settings(n))
        ok &= verify_free_choice_on_IU(ensemble)
        ok &= verify_local_causality_on_IU(ensemble)
        ok &= abs(chsh_value(ensemble).s_value) > 2
    _report(3, "weakened definitions hold alongside CHSH violation", ok)


def test_criterion_4_niven_oracle_equivalence():
    start = time.perf_counter()
    disagreements = 0
    cases = 0
    for q in range(1, 61):
        for p in range(q):
            if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
                continue
            turns = Fraction(p, q)
            table = niven_classify(RationalAngle(turns)).value
            polynomial = classify_cosine_by_minimal_polynomial(turns)
            cases += 1
            if table != polynomial:
                disagreements += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        "Niven table vs minimal-polynomial oracle",
        disagreements == 0 and elapsed < 5.0,
        f"{cases} fractions, {elapsed:.3f}s",
    )


def test_criterion_5_counterfactual_classification():
    curated = [
        (Fraction(3, 5), Fraction(4, 5), Fraction(1, 2), Fraction(0)),
        (Fraction(1), Fraction(2, 5), Fraction(1, 7), Fraction(2, 5)),
        (Fraction(3, 5), Fraction(3, 5), Fraction(1, 7), None),
        (Fraction(1, 5), Fraction(1, 2), Fraction(1, 8), Fraction(7, 10)),
    ]
    ok = True
    with mpmath.workdps(64):
        tolerance = mpmath.mpf(10) ** -40
        for cos_a, cos_b, gamma, expected in curated:
            result = counterfactual_cosine_class(
                SphericalTriangle(cos_a, cos_b, RationalAngle(gamma))
            )
            ok &= result.value == expected
            if expected is None:
                continue
            c1 = mpmath.mpf(cos_a.numerator) / cos_a.denominator
            c2 = mpmath.mpf(cos_b.numerator) / cos_b.denominator
            angle = 2 * mpmath.pi * mpmath.mpf(gamma.numerator) / gamma.denominator
            numeric = c1 * c2 + mpmath.sqrt(1 - c1**2) * mpmath.sqrt(1 - c2**2) * mpmath.cos(angle)
            target = mpmath.mpf(expected.numerator) / expected.denominator
            ok &= abs(numeric - target) < tolerance
    _report(5, "counterfactual classification with 64-digit cross-check", ok)


def test_criterion_6_superposition_non_closure():
    ok = True
    finite_count = 0
    special_count = 0
    zero = RationalAngle(Fraction(0))
    for q in range(1, 25):
        for p in range(q):
            if math.gcd(p, q) != 1 and not (p == 0 and q == 1):
                continue
            result = superpose_classify(RationalAngle(Fraction(p, q)), zero)
            is_special = q in (1, 2, 3, 4, 6)
            ok &= result.finite == is_special
            finite_count += result.finite
            special_count += is_special
    ok &= finite_count == special_count
    third = superpose_classify(RationalAngle(Fraction(1, 3)), zero)
    ok &= third.cos_polar == Fraction(3, 5)
    equal = superpose_classify(RationalAngle(Fraction(2, 7)), RationalAngle(Fraction(2, 7)))
    ok &= equal.cos_polar == 0 and equal.finite
    _report(6, "superposition closure fails off the special set", ok, f"{finite_count} admissible")


def test_criterion_7_bit_string_round_trip():
    ok = True
    cases = 0
    for length in range(1, 13):
        for bits in map("".join, product("01", repeat=length)):
            string = BitString(bits)
            ok &= generate_bits(seed_from_bits(string), length).bits == bits
            cases += 1
    ok &= cases == 8190
    ok &= generate_bits(Fraction(1, 7), 6).period == 3
    _report(7, "doubling-map round trip", ok, f"{cases} strings")


def test_criterion_8_ultrametric_axioms_and_valuation_additivity():
    rng = random.Random(8128)
    ok = True
    triples = 0
    for base in (2, 10, 16):
        for _ in range(4000):
            length = rng.randint(1, 12)
            x, y, z = (
                DigitString(base, tuple(rng.randrange(base) for _ in range(length)))
                for _ in range(3)
            )
            dxz = ultrametric_distance(x, z)
            dxy = ultrametric_distance(x, y)
            dyz = ultrametric_distance(y, z)
            ok &= dxz <= max(dxy, dyz)
            ok &= dxy == ultrametric_distance(y, x)
            ok &= (dxy == 0) == (x == y)
            triples += 1
    pairs = 0
    for prime in (2, 3, 5):
        for _ in range(4000):
            x = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
            y = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
            ok &= padic_valuation(x * y, prime) == padic_valuation(x, prime) + padic_valuation(y, prime)
            pairs += 1
    ok &= triples >= 10_000 and pairs >= 10_000
    _report(8, "ultrametric axioms and valuation additivity", ok, f"{triples} triples, {pairs} pairs")


def test_criterion_9_quantum_oracle_agreement():
    worst_expectation = 0.0
    worst_residual = 0.0
    for i in range(100):
        theta = math.pi * i / 99.0
        oracle = spin_operator_oracle(theta, 0.7)
        worst_expectation = max(
            worst_expectation, abs(oracle.singlet_expectation + math.cos(theta))
        )
        for name, operator in oracle.operators.items():
            for eigenvalue, vector in oracle.eigenpairs[name]:
                residual = [
                    sum(entry * component for entry, component in zip(row, vector))
                    - eigenvalue * vector[i]
                    for i, row in enumerate(operator)
                ]
                worst_residual = max(worst_residual, abs(residual[0]) + abs(residual[1]))
    ok = worst_expectation < 1e-12 and worst_residual < 1e-12
    _report(
        9,
        "floating-point oracle agreement",
        ok,
        f"max dE={worst_expectation:.2e}, max residual={worst_residual:.2e}",
    )
