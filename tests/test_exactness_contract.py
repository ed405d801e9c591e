"""Static half of the exactness contract: outside the floating-point spin
oracle, exactbell's source holds no float or complex literal, no call to
float() or complex(), no math function beyond the integer ones, and no
Decimal outside the three decimal renderers."""

from __future__ import annotations

import ast
from pathlib import Path

import exactbell

SRC = Path(exactbell.__file__).resolve().parent

# The oracle, named as module.scope: a definition, a module-level
# assignment, or an `if` branch inside a function.
ORACLE = {
    "bellsim._SINGLET",
    "bellsim._spin_projection",
    "bellsim._singlet_expectation",
    "bellsim.spin_operator_oracle",
    "cli.cmd_chsh.if args.oracle_check",
}
MATH_ALLOWED = {"isqrt", "gcd", "lcm"}
DECIMAL_FUNCTIONS = {"decimal_string", "tsirelson_gap", "_sqrt8_decimal"}


def _scope_name(node: ast.AST) -> str | None:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        return target.id if isinstance(target, ast.Name) else None
    if isinstance(node, ast.If):
        return f"if {ast.unparse(node.test)}"
    return None


def _breach(node: ast.AST, scope: tuple[str, ...]) -> str | None:
    if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
        return f"{type(node.value).__name__} literal {node.value!r}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("float", "complex"):
            return f"call to {node.func.id}()"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "math" and node.attr not in MATH_ALLOWED:
            return f"math.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        names = sorted({alias.name for alias in node.names} - MATH_ALLOWED)
        if names:
            return f"from math import {', '.join(names)}"
    if isinstance(node, ast.Name) and node.id == "Decimal":
        if not DECIMAL_FUNCTIONS.intersection(scope):
            return "Decimal outside the decimal renderers"
    return None


def scan(source: str, module: str) -> list[str]:
    """Every breach in one module's source, as 'module:line: what'."""
    found: list[str] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        name = _scope_name(node)
        if name is not None:
            scope = (*scope, name)
            if ".".join((module, *scope)) in ORACLE:
                return
        breach = _breach(node, scope)
        if breach is not None:
            found.append(f"{module}:{node.lineno}: {breach}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_source_outside_the_oracle_is_exact():
    modules = sorted(SRC.glob("*.py"))
    assert {path.stem for path in modules} >= {"bellsim", "cli", "exactnum"}
    found = [breach for path in modules for breach in scan(path.read_text(), path.stem)]
    assert found == []


def test_scanner_reports_a_planted_float_outside_the_oracle():
    source = (SRC / "bellsim.py").read_text()
    planted = source + "\n\ndef _planted():\n    x = 0.5\n    return x\n"
    line = len(source.splitlines()) + 4
    assert scan(planted, "bellsim") == [f"bellsim:{line}: float literal 0.5"]
