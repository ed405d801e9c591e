"""Ensemble construction, exact CHSH evaluation, verifiers, bounds, oracle."""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactbell import bellsim
from exactbell.bellsim import (
    CONTEXTS,
    BellEnsemble,
    MeasurementSettings,
    build_bell_ensemble,
    chsh_value,
    classical_chsh_max,
    collapse_contexts,
    free_choice_violations,
    local_causality_violations,
    rational_cos_approx,
    singlet_correlation,
    tsirelson_gap,
    tsirelson_settings,
    verify_free_choice_on_IU,
    verify_local_causality_on_IU,
)
from exactbell.oracle import spin_operator_oracle

C00, C01, C10, C11 = CONTEXTS


# --- singlet rule -----------------------------------------------------------


def test_singlet_correlation_examples():
    assert singlet_correlation(Fraction(1)) == -1
    assert singlet_correlation(Fraction(0)) == 0
    assert singlet_correlation(Fraction(11, 16)) == Fraction(-11, 16)
    with pytest.raises(ValueError):
        singlet_correlation(Fraction(17, 16))


# --- grid approximation -------------------------------------------------------


def test_rational_cos_approx_examples():
    assert rational_cos_approx(Fraction(1, 2), 1, 16) == Fraction(11, 16)
    assert rational_cos_approx(Fraction(1), 1, 7) == 1
    assert rational_cos_approx(Fraction(1, 4), 1, 8) == Fraction(1, 2)
    assert rational_cos_approx(Fraction(1, 2), -1, 16) == Fraction(-11, 16)


def test_rational_cos_approx_tie_breaks_toward_smaller_n():
    # sqrt(9/16) = 3/4 sits exactly between 1/2 and 1 on the N=2 grid.
    assert rational_cos_approx(Fraction(9, 16), 1, 2) == Fraction(1, 2)
    assert rational_cos_approx(Fraction(9, 16), -1, 2) == Fraction(-1, 2)


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=400),
    st.sampled_from([1, -1]),
    st.integers(min_value=2, max_value=64),
)
def test_rational_cos_approx_is_nearest(square, sign, N):
    approx = rational_cos_approx(square, sign, N)
    assert approx.denominator <= N and N % approx.denominator == 0
    # |approx - sign*sqrt(square)| <= 1/(2N), verified on squares.
    low, high = approx - Fraction(1, 2 * N), approx + Fraction(1, 2 * N)
    target_sq = square
    if sign < 0:
        low, high = -high, -low
    assert low <= 0 or low * low <= target_sq
    assert high >= 0 and high * high >= target_sq


def _nearest_grid_numerator(square: Fraction, N: int) -> int:
    # Scan n = 0..N: n is strictly closer to sqrt(square) than a smaller
    # best exactly when sqrt(square) lies past their midpoint.
    best = 0
    for n in range(1, N + 1):
        if square > Fraction(best + n, 2 * N) ** 2:
            best = n
    return best


def test_rational_cos_approx_matches_brute_force_nearest():
    # 1/16, 9/16 and 25/36 put sqrt(square) on grid midpoints for some N.
    squares = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(1, 3),
               Fraction(1, 16), Fraction(9, 16), Fraction(25, 36), Fraction(2, 9),
               Fraction(999, 1000)]
    for N in range(2, 201):
        for square in squares:
            best = _nearest_grid_numerator(square, N)
            for sign in (1, -1):
                assert rational_cos_approx(square, sign, N) == Fraction(sign * best, N)


# --- settings ------------------------------------------------------------------


def test_settings_validation():
    with pytest.raises(ValueError, match="does not divide"):
        MeasurementSettings(Fraction(1, 3), Fraction(0), Fraction(0), Fraction(0), 4)
    with pytest.raises(ValueError, match="outside"):
        MeasurementSettings(Fraction(5, 4), Fraction(0), Fraction(0), Fraction(0), 4)


def test_tsirelson_settings_pattern():
    settings_16 = tsirelson_settings(16)
    assert settings_16.cos00 == settings_16.cos01 == settings_16.cos10 == Fraction(11, 16)
    assert settings_16.cos11 == Fraction(-11, 16)


# --- ensemble construction ------------------------------------------------------


def _all_parallel(N=2):
    one = Fraction(1)
    return MeasurementSettings(one, one, one, one, N)


def test_all_parallel_settings_give_s_minus_two():
    report = chsh_value(build_bell_ensemble(_all_parallel()))
    assert report.s_value == -2
    assert all(value == -1 for value in report.correlations.values())


def test_tsirelson_16_gives_exact_s():
    report = chsh_value(build_bell_ensemble(tsirelson_settings(16)))
    assert report.s_value == Fraction(-11, 4)
    assert abs(report.s_value) > 2


def _atom_weights(ensemble):
    # Each built atom carries one weight in both of its contexts; return
    # those weights as exact rationals.
    weights = [{w for _, _, w in atom.values()} for atom in ensemble.atoms]
    assert all(len(atom_weights) == 1 for atom_weights in weights)
    return [Fraction(max(atom_weights), ensemble.denominator) for atom_weights in weights]


def test_atom_structure_and_weights():
    ensemble = build_bell_ensemble(tsirelson_settings(16))
    assert len(ensemble.labels) == 32
    assert sum(_atom_weights(ensemble)) == 1
    for label, outcomes, weight in zip(ensemble.labels, ensemble.atoms, _atom_weights(ensemble)):
        assert weight >= 0
        expected = (
            {C00, C11} if label.startswith("same:") else {C01, C10}
        )
        assert set(outcomes) == expected


@st.composite
def settings_strategy(draw):
    n = draw(st.sampled_from([2, 4, 8, 16, 32]))
    grid = st.integers(min_value=-n, max_value=n)
    cosines = [Fraction(draw(grid), n) for _ in range(4)]
    return MeasurementSettings(*cosines, n)


@settings(max_examples=60, deadline=None)
@given(settings_strategy())
def test_exactness_of_correlations_and_marginals(measurement):
    ensemble = build_bell_ensemble(measurement)
    assert sum(_atom_weights(ensemble)) == 1
    assert all(weight >= 0 for weight in _atom_weights(ensemble))
    report = chsh_value(ensemble)
    cosines = (measurement.cos00, measurement.cos01, measurement.cos10, measurement.cos11)
    for context, cosine in zip(CONTEXTS, cosines):
        assert report.correlations[context] == -cosine
        assert report.marginals_a[context] == 0
        assert report.marginals_b[context] == 0
    assert abs(report.s_value) <= 4


@settings(max_examples=60, deadline=None)
@given(settings_strategy())
def test_verifiers_hold_on_all_built_ensembles(measurement):
    ensemble = build_bell_ensemble(measurement)
    assert verify_free_choice_on_IU(ensemble)
    assert verify_local_causality_on_IU(ensemble)


@settings(max_examples=60, deadline=None)
@given(settings_strategy())
def test_collapsed_ensembles_respect_classical_bound(measurement):
    collapsed = collapse_contexts(build_bell_ensemble(measurement))
    for outcomes in collapsed.atoms:
        assert set(outcomes) == set(CONTEXTS)
    report = chsh_value(collapsed)
    assert abs(report.s_value) <= 2


def test_collapse_loses_the_violation_but_keeps_the_bound():
    ensemble = build_bell_ensemble(tsirelson_settings(16))
    assert abs(chsh_value(ensemble).s_value) > 2
    assert abs(chsh_value(collapse_contexts(ensemble)).s_value) <= 2


def test_convergence_to_quantum_maximum_for_all_small_n():
    # With correlations in the (+, +, +, -) pattern, S = 4a where a is the
    # best grid approximation of sqrt(1/2): above 2 and within 2/N of
    # 2*sqrt(2) for every N >= 4, checked on exact squares.
    for n in range(4, 41):
        approx = rational_cos_approx(Fraction(1, 2), 1, n)
        measurement = MeasurementSettings(-approx, -approx, -approx, approx, n)
        s_value = chsh_value(build_bell_ensemble(measurement)).s_value
        assert s_value == 4 * approx
        assert s_value > 2
        low, high = s_value - Fraction(2, n), s_value + Fraction(2, n)
        assert low <= 0 or low * low <= 8
        assert high * high >= 8


def _same_atom(label, weight, outcomes, context_weights=None):
    # A hand-built atom for BellEnsemble.from_atoms: one weight in every
    # defined context unless context_weights overrides it per context.
    if context_weights is None:
        context_weights = dict.fromkeys(outcomes, weight)
    return (label, outcomes, context_weights)


def test_zero_weight_context_rejected():
    atom = _same_atom("solo", Fraction(1), {C00: (1, 1), C11: (1, 1)})
    with pytest.raises(ValueError, match="zero total weight"):
        chsh_value(BellEnsemble.from_atoms((atom,), 2))


def test_hand_built_weights_scale_to_one_denominator():
    ensemble = BellEnsemble.from_atoms(
        [
            ("p", {C00: (1, 1), C11: (1, -1)}, {C00: Fraction(1, 6), C11: Fraction(1, 4)}),
            ("q", {C00: (-1, 1), C11: (1, 1)}, {C00: Fraction(1, 3), C11: Fraction(1, 4)}),
            ("r", {C01: (1, 1), C10: (-1, -1)}, {C01: Fraction(1, 2), C10: Fraction(1, 2)}),
        ],
        2,
    )
    assert ensemble.denominator == 12
    assert ensemble.atoms == (
        {C00: (1, 1, 2), C11: (1, -1, 3)},
        {C00: (-1, 1, 4), C11: (1, 1, 3)},
        {C01: (1, 1, 6), C10: (-1, -1, 6)},
    )
    report = chsh_value(ensemble)
    assert report.correlations == {C00: Fraction(-1, 3), C01: 1, C10: 1, C11: 0}
    assert report.marginals_a == {C00: Fraction(-1, 3), C01: 1, C10: -1, C11: 1}
    assert report.marginals_b == {C00: 1, C01: 1, C10: -1, C11: 0}
    assert report.s_value == Fraction(5, 3)
    # A defined context the weights leave out weighs 0.
    partial = BellEnsemble.from_atoms([("z", {C00: (1, 1), C11: (1, 1)}, {C00: Fraction(1, 3)})], 2)
    assert (partial.atoms, partial.denominator) == (({C00: (1, 1, 1), C11: (1, 1, 0)},), 3)


@st.composite
def hand_built_atoms(draw):
    # 1 to 5 atoms, each defined on any subset of the four contexts with
    # +1/-1 outcomes and rational weights, zeros included. Complement pairs
    # and one weight per atom are drawn often, so that both verdicts of
    # each verifier and nonzero context totals are common.
    contexts = st.sampled_from([(C00, C11), (C01, C10), CONTEXTS]) | st.sets(
        st.sampled_from(CONTEXTS)
    ).map(sorted)
    sign = st.sampled_from((1, -1))
    weight = st.fractions(min_value=0, max_value=2, max_denominator=6)
    atoms = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        defined = draw(contexts)
        outcomes = {c: (draw(sign), draw(sign)) for c in defined}
        if draw(st.booleans()):
            weights = dict.fromkeys(defined, draw(weight))
        else:
            weights = {c: draw(weight) for c in defined}
        atoms.append((f"atom{i}", outcomes, weights))
    return atoms


@settings(max_examples=150, deadline=None)
@given(hand_built_atoms())
def test_hand_built_ensembles_match_direct_fraction_sums(atoms):
    # Every expectation is recomputed here from the drawn atoms in Fractions.
    ensemble = BellEnsemble.from_atoms(atoms, 2)
    totals = {c: sum((ws[c] for _, outs, ws in atoms if c in outs), Fraction(0)) for c in CONTEXTS}

    def weighted(c, value):
        return sum(value(*outs[c]) * ws[c] for _, outs, ws in atoms if c in outs) / totals[c]

    zero = [c for c in CONTEXTS if totals[c] == 0]
    if zero:
        with pytest.raises(ValueError, match=re.escape(f"context {tuple(zero[0])} carries zero")):
            chsh_value(ensemble)
    else:
        report = chsh_value(ensemble)
        correlations = {c: weighted(c, lambda a, b: a * b) for c in CONTEXTS}
        assert report.correlations == correlations
        assert report.marginals_a == {c: weighted(c, lambda a, b: a) for c in CONTEXTS}
        assert report.marginals_b == {c: weighted(c, lambda a, b: b) for c in CONTEXTS}
        assert report.s_value == (
            correlations[C00] + correlations[C01] + correlations[C10] - correlations[C11]
        )

    def conditional(ws, c):
        return ws[c] / totals[c] if ws[c] else Fraction(0)

    free = all(
        outs
        and all((1 - x, 1 - y) in outs for x, y in outs)
        and len({conditional(ws, c) for c in outs}) == 1
        for _, outs, ws in atoms
    )
    assert (free_choice_violations(ensemble) == []) == free

    conflicts = set()
    for label, outs, _ in atoms:
        for bit in (0, 1):
            if (bit, 0) in outs and (bit, 1) in outs and outs[bit, 0][0] != outs[bit, 1][0]:
                conflicts.add(f"{label}: outcome a at x={bit} depends on y")
            if (0, bit) in outs and (1, bit) in outs and outs[0, bit][1] != outs[1, bit][1]:
                conflicts.add(f"{label}: outcome b at y={bit} depends on x")
    found = local_causality_violations(ensemble)
    assert len(found) == len(conflicts) and set(found) == conflicts


def test_ensemble_rejects_malformed_columns():
    with pytest.raises(ValueError, match=r"x: outcomes must be \+1 or -1"):
        BellEnsemble.from_atoms([("x", {C00: (2, 1)}, {C00: 1})], 2)
    with pytest.raises(ValueError, match=r"x: outcomes must be \+1 or -1"):
        BellEnsemble.from_atoms([("x", {C00: (1,)}, {C00: 1})], 2)
    with pytest.raises(ValueError, match="x: weights must be nonnegative integers"):
        BellEnsemble.from_atoms([("x", {C00: (1, 1)}, {C00: -1})], 2)
    with pytest.raises(ValueError, match="x: contexts must be pairs of bits"):
        BellEnsemble.from_atoms([("x", {(2, 0): (1, 1)}, {(2, 0): 1})], 2)
    with pytest.raises(ValueError, match="x: weights must be nonnegative integers"):
        BellEnsemble(("x",), ({C00: (1, 1, Fraction(1, 2))},), 1, 2)
    with pytest.raises(ValueError, match="positive integer"):
        BellEnsemble((), (), 0, 2)
    with pytest.raises(ValueError):
        BellEnsemble(("x", "y"), ({},), 1, 2)


def test_ensemble_validation_names_the_first_malformed_atom():
    good = ("good", {C00: (1, 1), C11: (-1, 1)}, {C00: Fraction(1, 2), C11: Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"^bad: outcomes must be \+1 or -1"):
        BellEnsemble.from_atoms([good, ("bad", {C00: (1, 0)}, {C00: 1}), good], 2)
    with pytest.raises(ValueError, match="^bad: weights must be nonnegative integers"):
        BellEnsemble(("good", "bad"), ({C00: (1, 1, 1)}, {C11: (1, 1, 1.0)}), 2, 2)


# --- verifier edge cases ----------------------------------------------------------


def test_free_choice_fails_on_unequal_context_weights():
    atom = _same_atom(
        "skewed",
        Fraction(1, 2),
        {C00: (1, 1), C11: (1, -1)},
        context_weights={C00: Fraction(1, 2), C11: Fraction(1, 4)},
    )
    filler = _same_atom("filler", Fraction(1, 2), {C00: (-1, 1), C11: (-1, -1)})
    ensemble = BellEnsemble.from_atoms((atom, filler), 2)
    violations = free_choice_violations(ensemble)
    assert violations and "skewed" in violations[0]
    assert not verify_free_choice_on_IU(ensemble)


def test_free_choice_fails_on_missing_partner_context():
    atom = _same_atom("half", Fraction(1), {C00: (1, 1)})
    ensemble = BellEnsemble.from_atoms((atom,), 2)
    assert any("admissible partner" in v for v in free_choice_violations(ensemble))


def test_free_choice_fails_on_empty_atom_with_diagnostic():
    empty = _same_atom("hollow", Fraction(1, 2), {})
    filler = _same_atom("filler", Fraction(1, 2), {C00: (1, 1), C11: (1, 1)})
    ensemble = BellEnsemble.from_atoms((empty, filler), 2)
    violations = free_choice_violations(ensemble)
    assert any("hollow" in v and "no contexts" in v for v in violations)
    assert not verify_free_choice_on_IU(ensemble)


def test_local_causality_fails_on_cross_context_conflict():
    atom = _same_atom("conflicted", Fraction(1), {C00: (1, 1), C01: (-1, 1)})
    ensemble = BellEnsemble.from_atoms((atom,), 2)
    assert not verify_local_causality_on_IU(ensemble)
    assert any("depends on y" in v for v in local_causality_violations(ensemble))


def test_local_causality_holds_when_shared_setting_agrees():
    # Conflict-freedom is what gets checked, not the context structure.
    atom = _same_atom("aligned", Fraction(1), {C00: (1, 1), C01: (1, -1)})
    ensemble = BellEnsemble.from_atoms((atom,), 2)
    assert verify_local_causality_on_IU(ensemble)


# --- classical bound -------------------------------------------------------------


def test_classical_chsh_max_is_two():
    assert classical_chsh_max() == 2


def test_classical_enumeration_independent():
    # Recompute the strategy sums here as an independent check of the
    # enumeration: max 2, min -2, and exactly 8 maximizers.
    sums = [
        a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1
        for a0, a1, b0, b1 in product((1, -1), repeat=4)
    ]
    assert max(sums) == 2 == classical_chsh_max()
    assert min(sums) == -2
    assert sums.count(2) == 8


# --- distance to the quantum maximum ----------------------------------------------


@pytest.mark.parametrize("N", [2**100, 2**200])
def test_tsirelson_gap_matches_mpmath_at_huge_n(N):
    s_value = chsh_value(build_bell_ensemble(tsirelson_settings(N))).s_value
    with mpmath.workdps(300):
        abs_s = mpmath.mpf(abs(s_value.numerator)) / s_value.denominator
        exact_gap = abs(2 * mpmath.sqrt(2) - abs_s)
        expected = mpmath.nstr(exact_gap, 20, min_fixed=1, max_fixed=0)
    assert Decimal(tsirelson_gap(s_value)) == Decimal(expected)
    assert Decimal(tsirelson_gap(s_value)) > 0


def test_tsirelson_gap_past_the_int_to_str_limit_matches_mpmath():
    # A denominator of 4,301 digits, which str() refuses by default.
    s_value = Fraction(3, 10**4300)
    with mpmath.workdps(8700):
        exact_gap = 2 * mpmath.sqrt(2) - mpmath.mpf(3) / mpmath.mpf(10) ** 4300
        expected = mpmath.nstr(exact_gap, 20, min_fixed=1, max_fixed=0)
    assert Decimal(tsirelson_gap(s_value)) == Decimal(expected)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**4300 - 1)
    | st.builds(lambda k, d: 10**k + d, st.integers(1, 4299), st.integers(-1, 1))
)
def test_decimal_digit_count_matches_str(n):
    # Both sides of every power of ten are where a bit-length estimate slips.
    assert bellsim._decimal_digits(n) == len(str(n))


# --- spin operator oracle ---------------------------------------------------------


def _matvec(matrix, vector):
    return [sum(row[j] * vector[j] for j in range(2)) for row in matrix]


def _max_entry_distance(a, b):
    return max(abs(a[i][j] - b[i][j]) for i in range(2) for j in range(2))


def _dagger(matrix):
    return [[matrix[j][i].conjugate() for j in range(2)] for i in range(2)]


def test_oracle_theta_zero():
    oracle = spin_operator_oracle(0.0, 0.0)
    pauli_z = [[1, 0], [0, -1]]
    assert _max_entry_distance(oracle.operators["x0"], pauli_z) < 1e-12
    assert _max_entry_distance(oracle.operators["y0"], pauli_z) < 1e-12
    assert abs(oracle.singlet_expectation + 1.0) < 1e-12


def test_oracle_matches_exact_singlet_rule_on_grid():
    worst = 0.0
    for i in range(100):
        theta = math.pi * i / 99.0
        oracle = spin_operator_oracle(theta, 0.4)
        worst = max(worst, abs(oracle.singlet_expectation + math.cos(theta)))
    assert worst < 1e-12


def test_oracle_eigenvector_residuals():
    worst = 0.0
    for theta in (math.pi * i / 24 for i in range(25)):
        for gamma in (2 * math.pi * i / 8 for i in range(9)):
            oracle = spin_operator_oracle(theta, gamma)
            for name, operator in oracle.operators.items():
                assert _max_entry_distance(operator, _dagger(operator)) < 1e-12
                for eigenvalue, vector in oracle.eigenpairs[name]:
                    image = _matvec(operator, vector)
                    residual = math.hypot(*(abs(image[i] - eigenvalue * vector[i]) for i in range(2)))
                    worst = max(worst, residual)
    assert worst < 1e-12


def test_oracle_counterfactual_expectation_follows_cosine_rule():
    for theta, gamma in ((0.7, 0.3), (1.1, 2.0), (2.4, 5.5)):
        oracle = spin_operator_oracle(theta, gamma)
        expected = -(math.sin(theta) ** 2 * math.cos(gamma) + math.cos(theta) ** 2)
        assert abs(oracle.counterfactual_expectation - expected) < 1e-12
