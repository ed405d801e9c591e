"""exactbell: exact-arithmetic machinery for CHSH/Bell correlation
experiments under rationality constraints.

The library keeps every production computation in exact rational or
quadratic-surd arithmetic; floating point appears only in clearly marked
test oracles.
"""

__version__ = "0.1.0"

from .exactnum import (
    CosineClass,
    DigitString,
    IncompatibleRadicandsError,
    QuadraticSurd,
    Rational,
    RationalAngle,
    as_rational,
    format_rational,
    is_perfect_square,
    niven_classify,
    padic_norm,
    padic_valuation,
    parse_rational,
    ultrametric_distance,
)
from .finitestates import (
    AdmissibilityError,
    Amplitude,
    FiniteHilbertState,
    FiniteQubit,
    HelixEnsemble,
    SuperpositionResult,
    ensemble_statistics,
    helix_ensemble,
    make_finite_qubit,
    state_from_dict,
    state_to_dict,
    superpose_classify,
    validate_finite_state,
)
from .ontology import (
    ContextPair,
    CounterfactualCase,
    OnticClass,
    SphericalTriangle,
    admissible_contexts,
    context_weight,
    counterfactual_cosine_class,
)
from .bellsim import (
    CONTEXTS,
    BellEnsemble,
    ChshReport,
    MeasurementSettings,
    SpinOracleResult,
    TSIRELSON_2SQRT2,
    build_bell_ensemble,
    chsh_value,
    classical_chsh_max,
    collapse_contexts,
    free_choice_violations,
    local_causality_violations,
    rational_cos_approx,
    singlet_correlation,
    spin_operator_oracle,
    tsirelson_settings,
    verify_free_choice_on_IU,
    verify_local_causality_on_IU,
)
from .detgen import BitString, generate_bits, seed_from_bits
