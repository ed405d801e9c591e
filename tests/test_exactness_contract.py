"""The exactness contract: floating point appears in exactbell.oracle and
nowhere else.

Statically, the source of every other module holds no float or complex
literal, no call to float() or complex(), no true division of two integer
literals, no math function beyond the integer ones, and no Decimal outside
the three decimal renderers. At run time, no function of another exactbell
module returns a float or complex on the CLI fixture cases and a seeded
census and sweep sample; the same run checks that every library operation
is reached by the subcommand that surfaces it."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import exactbell
from exactbell import cli

SRC = Path(exactbell.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
MATH_ALLOWED = {"isqrt", "gcd", "lcm"}
DECIMAL_FUNCTIONS = {"decimal_string", "tsirelson_gap", "_sqrt8_decimal"}


# --- static half -----------------------------------------------------------------


def _int_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _breach(node: ast.AST, in_renderer: bool) -> str | None:
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return f"{type(node.value).__name__} literal {node.value!r}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("float", "complex"):
            return f"call to {node.func.id}()"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        if _int_literal(node.left) and _int_literal(node.right):
            return f"true division of integer literals {ast.unparse(node)}"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "math" and node.attr not in MATH_ALLOWED:
            return f"math.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        names = sorted({alias.name for alias in node.names} - MATH_ALLOWED)
        if names:
            return f"from math import {', '.join(names)}"
    if isinstance(node, ast.Name) and node.id == "Decimal" and not in_renderer:
        return "Decimal outside the decimal renderers"
    return None


def scan(source: str, module: str) -> list[str]:
    """Every breach in one module's source, as 'module:line: what'."""
    found: list[str] = []

    def visit(node: ast.AST, in_renderer: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_renderer = in_renderer or node.name in DECIMAL_FUNCTIONS
        breach = _breach(node, in_renderer)
        if breach is not None:
            found.append(f"{module}:{node.lineno}: {breach}")
        for child in ast.iter_child_nodes(node):
            visit(child, in_renderer)

    visit(ast.parse(source), False)
    return found


def test_source_outside_the_oracle_is_exact():
    modules = sorted(path for path in SRC.glob("*.py") if path.stem != "oracle")
    assert {path.stem for path in modules} >= {"bellsim", "cli", "exactnum"}
    found = [breach for path in modules for breach in scan(path.read_text(), path.stem)]
    assert found == []


@pytest.mark.parametrize(
    "module, function, statement, breach",
    [
        ("bellsim", "chsh_value", "x = 0.5", "float literal 0.5"),
        ("cli", "cmd_chsh", "x = float(args.N)", "call to float()"),
        ("bellsim", "chsh_value", "x = 1 / 2", "true division of integer literals 1 / 2"),
    ],
    ids=["literal", "cmd_chsh", "division"],
)
def test_scanner_reports_a_planted_float_outside_the_oracle(module, function, statement, breach):
    lines = (SRC / f"{module}.py").read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith(f"def {function}("))
    assert lines[at].endswith(":\n")
    lines.insert(at + 1, f"    {statement}\n")
    assert scan("".join(lines), module) == [f"{module}:{at + 2}: {breach}"]


# --- run-time half ---------------------------------------------------------------

GOLDEN = json.loads((ROOT / "tests" / "golden_cli_outputs.json").read_text())
COLD = json.loads((ROOT / "bench" / "cold_cli_outputs.json").read_text())
CASES = (
    [case["argv"] for case in GOLDEN]
    + [case["args"] for case in COLD]
    + [["padic", "--valuation", "0", "3"]]
)

SUBCOMMANDS = {"niven", "counterfactual", "superpose", "chsh", "sweep", "bits", "padic", "validate"}

# Where each library operation surfaces on the command line. The chsh
# report embeds the verifiers, the classical bound and (on request) the
# floating-point oracle; the counterfactual report embeds the context
# machinery; the validate report embeds the qubit/ensemble pipeline.
OPERATION_COVERAGE = {
    "niven_classify": "niven",
    "is_perfect_square": "counterfactual",
    "ultrametric_distance": "padic",
    "padic_valuation": "padic",
    "validate_finite_state": "validate",
    "make_finite_qubit": "validate",
    "superpose_classify": "superpose",
    "helix_ensemble": "validate",
    "ensemble_statistics": "validate",
    "counterfactual_cosine_class": "counterfactual",
    "admissible_contexts": "counterfactual",
    "context_weight": "counterfactual",
    "singlet_correlation": "chsh",
    "rational_cos_approx": "chsh",
    "build_bell_ensemble": "chsh",
    "chsh_value": "chsh",
    "verify_free_choice_on_IU": "chsh",
    "verify_local_causality_on_IU": "chsh",
    "classical_chsh_max": "chsh",
    "spin_operator_oracle": "chsh",
    "generate_bits": "bits",
    "seed_from_bits": "bits",
}


def _census_sample(rng: random.Random) -> list[tuple[Fraction, Fraction, Fraction]]:
    # The census grid: cosines with denominator <= 8, opening angles with
    # denominator <= 12 (93,150 triangles).
    cosines = sorted({Fraction(p, q) for q in range(1, 9) for p in range(-q, q + 1)})
    angles = sorted({Fraction(p, q) for q in range(1, 13) for p in range(q)})
    grid = [(c1, c2, gamma) for gamma in angles for c1 in cosines for c2 in cosines]
    return rng.sample(grid, 2000)


def _sweep_sample(rng: random.Random) -> list[str]:
    # 20 N with bit lengths drawn uniformly from 2..200.
    bit_lengths = [rng.randint(2, 200) for _ in range(20)]
    grid = ",".join(str(rng.randrange(1 << (b - 1), 1 << b)) for b in bit_lengths)
    return ["sweep", "--auto-tsirelson", "--format", "csv", "--N", grid]


@pytest.fixture(scope="module")
def profiled_run():
    """Run every case under sys.setprofile. Returns the exactbell functions
    that returned a float or complex, as 'module.name', and for each
    subcommand the code objects of every function its cases called."""
    rng = random.Random(20261019)
    triangles = _census_sample(rng)
    cases = [*CASES, _sweep_sample(rng)]
    float_returns: set[str] = set()
    called: set = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
        elif event == "return" and type(arg) in (float, complex):
            module = frame.f_globals.get("__name__", "")
            if module.partition(".")[0] == "exactbell":
                float_returns.add(f"{module}.{frame.f_code.co_name}")

    called_by: dict[str, set] = {}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in cases:
            called.clear()
            sys.setprofile(profile)
            try:
                code = cli.main(argv)
            finally:
                sys.setprofile(None)
            assert code == 0, argv
            called_by.setdefault(argv[0], set()).update(called)
    sys.setprofile(profile)
    try:
        for c1, c2, gamma in triangles:
            exactbell.counterfactual_cosine_class(
                exactbell.SphericalTriangle(c1, c2, exactbell.RationalAngle(gamma))
            )
    finally:
        sys.setprofile(None)
    return float_returns, called_by


def test_no_function_outside_the_oracle_returns_a_float(profiled_run):
    float_returns, _ = profiled_run
    # The oracle's own float returns show that the profile sees floats.
    assert "exactbell.oracle._singlet_expectation" in float_returns
    assert {name for name in float_returns if not name.startswith("exactbell.oracle.")} == set()


def test_every_operation_is_reached_by_its_subcommand(profiled_run):
    _, called_by = profiled_run
    assert set(called_by) == SUBCOMMANDS
    missed = {
        name: subcommand
        for name, subcommand in OPERATION_COVERAGE.items()
        if getattr(exactbell, name).__code__ not in called_by[subcommand]
    }
    assert missed == {}
