"""The four benchmark workloads: seeded input streams, the operation each
one times, and output checks that do not trust the code under test.

Every workload is a closed loop with a single caller: the next operation
starts only after the previous one has returned. Streams are endless and
depend on the seed alone, so the same seed always yields the same inputs.

The checks use their own arithmetic (``math.isqrt``, integer long
division, 50-digit mpmath) and the minimal-polynomial oracle in
``tests/oracles.py``; they never call into ``exactbell``.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
COLD_OUTPUTS = Path(__file__).resolve().parent / "cold_cli_outputs.json"

# Pipe capacity on Linux; every cold_cli output in the pool is far smaller,
# so a child never blocks on a full pipe before the parent reaps it.
_PIPE_BYTES = 65536


class DeadlineExceeded(Exception):
    """An operation ran past its deadline and was abandoned."""


def program_present() -> bool:
    return (SRC / "exactbell" / "cli.py").is_file() and ORACLES.is_file()


def child_env() -> dict[str, str]:
    """Environment for a fresh CLI process: the package is run from source."""
    return dict(os.environ, PYTHONPATH=str(SRC))


@lru_cache(maxsize=None)
def exactbell_modules():
    """Import the package from ``src`` (only in-process workloads need it)."""
    sys.path.insert(0, str(SRC))
    import exactbell.cli
    import exactbell.exactnum
    import exactbell.ontology

    return exactbell.cli, exactbell.ontology, exactbell.exactnum


# --- independent arithmetic ------------------------------------------------


@lru_cache(maxsize=None)
def _oracles():
    spec = importlib.util.spec_from_file_location("exactbell_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def niven_oracle(turns: Fraction) -> Fraction | None:
    """cos(2*pi*turns) as a rational, or None, by the minimal polynomial."""
    return _oracles().classify_cosine_by_minimal_polynomial(Fraction(turns))


def rational_sqrt(value: Fraction) -> Fraction | None:
    num, den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def fmt(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def best_grid_numerator(n_grid: int) -> int:
    """n minimising |n/N - sqrt(1/2)|, decided on squares: n/N lies below
    the midpoint (2n+1)/(2N) of its neighbour exactly when (2n+1)^2 > 2N^2
    (never equal: the right side is twice a square)."""
    lower = math.isqrt(n_grid * n_grid // 2)
    return lower if (2 * lower + 1) ** 2 > 2 * n_grid * n_grid else lower + 1


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, low: int, high: int) -> int:
    while True:
        candidate = rng.randrange(low, high) | 1
        if is_prime(candidate):
            return candidate


def binary_expansion(p: int, q: int, count: int) -> tuple[str, int | None]:
    """First `count` bits of p/q by long division, and the period of the
    remainder sequence if it recurs within `count` steps."""
    bits = []
    seen = {p: 0}
    period = None
    remainder = p
    for step in range(1, count + 1):
        remainder *= 2
        bits.append("1" if remainder >= q else "0")
        remainder %= q
        if period is None:
            if remainder in seen:
                period = step - seen[remainder]
            else:
                seen[remainder] = step
    return "".join(bits), period


@lru_cache(maxsize=None)
def _cos_sq_gamma(turns: Fraction) -> tuple[Fraction | None, str]:
    """Exact cos^2 of the opening angle where it is rational, with the case
    name a correct classifier must report off the poles."""
    cos_gamma = niven_oracle(turns)
    if cos_gamma is not None:
        return cos_gamma * cos_gamma, "rational-cos-gamma"
    cos_two_gamma = niven_oracle(2 * turns)
    if cos_two_gamma is not None:
        return (1 + cos_two_gamma) / 2, "rational-cos-sq-gamma"
    return None, "generic-irrational"


def _cos_sign(turns: Fraction) -> int:
    """Sign of cos(2*pi*turns), exactly."""
    turns %= 1
    if turns in (Fraction(1, 4), Fraction(3, 4)):
        return 0
    return 1 if turns < Fraction(1, 4) or turns > Fraction(3, 4) else -1


def check_counterfactual(
    c1: Fraction, c2: Fraction, turns: Fraction, value: Fraction | None, case: str
) -> str | None:
    """Judge one counterfactual classification.

    An ontic value v must square back, (v - c1 c2)^2 = (1-c1^2)(1-c2^2)cos^2,
    and v - c1 c2 must have the sign of cos(gamma), since off the poles it
    is cos(gamma) times a positive product of sines. A non-ontic
    verdict is right exactly when that product is not a rational square
    (or cos^2 itself is irrational).
    """
    sin_sq = (1 - c1 * c1) * (1 - c2 * c2)
    cos_sq, expected_case = _cos_sq_gamma(Fraction(turns) % 1)
    if sin_sq == 0:
        expected_case = "pole"
    if case != expected_case:
        return f"case {case!r}, expected {expected_case!r}"
    if value is None:
        if sin_sq == 0 or (cos_sq is not None and rational_sqrt(sin_sq * cos_sq) is not None):
            return "reported irrational, but the third-side cosine is rational"
        return None
    if sin_sq == 0:
        return None if value == c1 * c2 else f"pole value {fmt(value)} != {fmt(c1 * c2)}"
    if cos_sq is None or (value - c1 * c2) ** 2 != sin_sq * cos_sq:
        return f"value {fmt(value)} fails the square-back identity"
    offset = value - c1 * c2
    if (offset > 0) - (offset < 0) != _cos_sign(Fraction(turns)):
        return f"value {fmt(value)} has the wrong sign"
    return None


def _decimal_close(text: str, value: Fraction) -> bool:
    """A 20-significant-digit rendering lies within 1e-19 relative."""
    import mpmath

    with mpmath.workdps(50):
        exact = mpmath.mpf(value.numerator) / value.denominator
        return abs(mpmath.mpf(text) - exact) <= abs(exact) * mpmath.mpf(10) ** -19


# --- CLI output checks -------------------------------------------------------


def _flag(argv, name: str) -> str:
    return argv[list(argv).index(name) + 1]


def _check_chsh(argv, stdout: str) -> str | None:
    n_grid = int(_flag(argv, "--N"))
    a = Fraction(best_grid_numerator(n_grid), n_grid)
    data = json.loads(stdout)
    s_value = -4 * a
    expected = {
        "N": n_grid,
        "settings": {"cos00": fmt(a), "cos01": fmt(a), "cos10": fmt(a), "cos11": fmt(-a)},
        "correlations": {"E00": fmt(-a), "E01": fmt(-a), "E10": fmt(-a), "E11": fmt(a)},
        "marginals_a": {c: "0" for c in ("0,0", "0,1", "1,0", "1,1")},
        "marginals_b": {c: "0" for c in ("0,0", "0,1", "1,0", "1,1")},
        "S": fmt(s_value),
        "abs_S": fmt(-s_value),
        "classical_bound": "2",
        "violates_classical_bound": -s_value > 2,
        "free_choice_on_invariant_set": True,
        "local_causality_on_invariant_set": True,
    }
    for key, want in expected.items():
        if data.get(key) != want:
            return f"chsh N={n_grid}: {key} = {data.get(key)!r}, expected {want!r}"
    if not _decimal_close(data["S_decimal"], s_value):
        return f"chsh N={n_grid}: S_decimal {data['S_decimal']} is not S to 20 digits"
    import mpmath

    with mpmath.workdps(50):
        reference = mpmath.mpf(data["tsirelson_reference"])
        if abs(reference - 2 * mpmath.sqrt(2)) > mpmath.mpf(10) ** -38:
            return f"chsh N={n_grid}: tsirelson_reference is not 2*sqrt(2)"
    return None


_SWEEP_HEADER = ["N", "n", "S_num", "S_den", "S_decimal", "gap_to_tsirelson"]


def _check_sweep(argv, stdout: str) -> str | None:
    # gap_to_tsirelson is not checked: it is rendered from a fixed 45-digit
    # working precision, which cannot resolve gaps below about 1e-44.
    grid = [int(part) for part in _flag(argv, "--N").split(",")]
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != _SWEEP_HEADER or len(rows) != len(grid) + 1:
        return "sweep: unexpected CSV header or row count"
    for n_grid, row in zip(grid, rows[1:]):
        record = dict(zip(_SWEEP_HEADER, row))
        n = best_grid_numerator(n_grid)
        if int(record["N"]) != n_grid or int(record["n"]) != n:
            return f"sweep N={n_grid}: n = {record['n']}, expected {n}"
        num, den = int(record["S_num"]), int(record["S_den"])
        if den <= 0 or math.gcd(num, den) != 1 or Fraction(num, den) != Fraction(-4 * n, n_grid):
            return f"sweep N={n_grid}: S = {num}/{den}, expected {fmt(Fraction(-4 * n, n_grid))}"
        if not _decimal_close(record["S_decimal"], Fraction(num, den)):
            return f"sweep N={n_grid}: S_decimal {record['S_decimal']} is not S to 20 digits"
    return None


def _check_counterfactual_json(argv, stdout: str) -> str | None:
    c1 = Fraction(_flag(argv, "--cos-a"))
    c2 = Fraction(_flag(argv, "--cos-b"))
    turns = Fraction(_flag(argv, "--gamma"))
    data = json.loads(stdout)
    value = None if data["value"] == "irrational" else Fraction(data["value"])
    if data["ontic"] is not (value is not None):
        return "counterfactual: 'ontic' disagrees with 'value'"
    reason = check_counterfactual(c1, c2, turns, value, data["case"])
    if reason:
        return f"counterfactual {fmt(c1)}: {reason}"
    # Realized context (0,0) is jointly defined only with its complement
    # (1,1); the queried counterfactual context (1,0) is a cross context.
    context_fields = {
        "realized_context": "0,0",
        "counterfactual_context": "1,0",
        "admissible_contexts": "0,0;1,1",
        "counterfactual_weight": "0",
        "complement_weight": "1",
    }
    for key, want in context_fields.items():
        if data.get(key) != want:
            return f"counterfactual: {key} = {data.get(key)!r}, expected {want!r}"
    return None


def _check_bits(argv, stdout: str) -> str | None:
    seed = Fraction(_flag(argv, "--from-seed"))
    count = int(_flag(argv, "--count"))
    bits, period = binary_expansion(seed.numerator, seed.denominator, count)
    expected = {"seed": fmt(seed), "count": count, "bits": bits, "period": period}
    data = json.loads(stdout)
    if data != expected:
        wrong = sorted(key for key in expected if data.get(key) != expected[key])
        return f"bits 1/{seed.denominator} x{count}: wrong {', '.join(wrong)}"
    return None


_CLI_CHECKS = {
    "sweep": _check_sweep,
    "chsh": _check_chsh,
    "counterfactual": _check_counterfactual_json,
    "bits": _check_bits,
}


def check_cli(argv, output) -> str | None:
    code, stdout, stderr = output
    if code != 0:
        return f"{argv[0]}: exit {code}: {stderr.strip()[:200]}"
    return _CLI_CHECKS[argv[0]](argv, stdout)


# --- input streams ----------------------------------------------------------

def _n_with_bits(rng: random.Random, bits: int) -> int:
    return rng.randrange(1 << (bits - 1), 1 << bits)


def sweep_stream(seed: int) -> Iterator[tuple[str, ...]]:
    """Blocks of four requests: three 16-N sweeps and one chsh, in seeded
    order. Each request draws one bit length uniformly from 2..200, so N is
    log-uniform, and a sweep's 16 N share it: sweep costs then spread evenly
    (about 28 to 50 ms today) instead of bunching at one value, which keeps
    their percentiles from jumping with brief changes in host speed."""
    rng = random.Random(f"sweep:{seed}")
    while True:
        chsh_slot = rng.randrange(4)
        for slot in range(4):
            bits = rng.randint(2, 200)
            if slot == chsh_slot:
                yield ("chsh", "--auto-tsirelson", "--N", str(_n_with_bits(rng, bits)))
            else:
                grid = [_n_with_bits(rng, bits) for _ in range(16)]
                grid_text = ",".join(map(str, grid))
                yield ("sweep", "--auto-tsirelson", "--format", "csv", "--N", grid_text)


def census_grid() -> list[tuple[Fraction, Fraction, Fraction]]:
    """The tier-1 grid: cosines with denominator <= 8 (45 values), opening
    angles with denominator <= 12 (46 values): 93,150 triangles."""
    cosines = sorted({Fraction(p, q) for q in range(1, 9) for p in range(-q, q + 1)})
    angles = sorted({Fraction(p, q) for q in range(1, 13) for p in range(q)})
    return [(c1, c2, gamma) for gamma in angles for c1 in cosines for c2 in cosines]


def census_stream(seed: int) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """Passes over the whole grid, each in a fresh seeded order."""
    rng = random.Random(f"census:{seed}")
    grid = census_grid()
    while True:
        rng.shuffle(grid)
        yield from grid


# Prime sizes in digits, weighted about inversely to their factoring cost
# so that every size takes a similar share of the time, plus a minority of
# bits requests: 45 requests per block.
_WIDE_BLOCK = [6] * 20 + [7] * 12 + [8] * 6 + [9] * 3 + [10] + ["bits"] * 3


def wide_stream(seed: int) -> Iterator[tuple[str, ...]]:
    """Blocks of `_WIDE_BLOCK` requests in seeded order."""
    rng = random.Random(f"wide_operands:{seed}")
    while True:
        kinds = list(_WIDE_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "bits":
                prime = random_prime(rng, 9_000, 11_000)
                count = rng.randint(8_000, 12_000)
                yield ("bits", "--from-seed", f"1/{prime}", "--count", str(count))
                continue
            low, high = 10 ** (kind - 1), 10**kind
            first = random_prime(rng, low, high)
            second = first
            while second == first:
                second = random_prime(rng, low, high)
            # q - p = 1 and q + p = first * second, so 1 - (p/q)^2 is
            # first * second / q^2: its rationality hinges on factoring.
            p = (first * second - 1) // 2
            yield ("counterfactual", "--cos-a", f"{p}/{p + 1}", "--cos-b", "0", "--gamma", "0")


@lru_cache(maxsize=None)
def cold_outputs() -> dict[tuple[str, ...], str]:
    """Documented stdout for each cold_cli invocation in the pool."""
    entries = json.loads(COLD_OUTPUTS.read_text(encoding="utf-8"))
    return {tuple(entry["args"]): entry["stdout"] for entry in entries}


def cold_stream(seed: int) -> Iterator[tuple[str, ...]]:
    """Blocks of seven invocations, one per subcommand in seeded order, each
    drawn from that subcommand's entries in the pool."""
    rng = random.Random(f"cold_cli:{seed}")
    by_command: dict[str, list[tuple[str, ...]]] = {}
    for args in cold_outputs():
        by_command.setdefault(args[0], []).append(args)
    commands = sorted(by_command)
    while True:
        rng.shuffle(commands)
        for command in commands:
            yield rng.choice(by_command[command])


# --- executing one operation ---------------------------------------------------


def run_cli_in_process(argv) -> tuple[int, str, str]:
    cli = exactbell_modules()[0]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_census(op):
    _, ontology, exactnum = exactbell_modules()
    c1, c2, turns = op
    return ontology.counterfactual_cosine_class(
        ontology.SphericalTriangle(c1, c2, exactnum.RationalAngle(turns))
    )


def check_census(op, result) -> str | None:
    c1, c2, turns = op
    reason = check_counterfactual(c1, c2, turns, result.value, result.case.value)
    return f"census {fmt(c1)},{fmt(c2)},{fmt(turns)}: {reason}" if reason else None


def spawn(argv) -> tuple[int, str, str, int]:
    """Run one child to completion; returns exit code, stdout, stderr and the
    child's peak RSS in KiB.

    The child is reaped with wait4 for its own resource usage. If the
    benchmark's deadline alarm interrupts the wait, the child is killed and
    reaped before the exception propagates, so no child outlives its
    operation.
    """
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    with proc.stdout, proc.stderr:
        stdout = proc.stdout.read(_PIPE_BYTES).decode()
        stderr = proc.stderr.read(_PIPE_BYTES).decode()
    return proc.returncode, stdout, stderr, usage.ru_maxrss


def run_cold(op):
    return spawn((sys.executable, "-m", "exactbell.cli", *op))


def check_cold(op, output) -> str | None:
    code, stdout, stderr, _ = output
    if code != 0:
        return f"cold {' '.join(op)}: exit {code}: {stderr.strip()[:200]}"
    if stdout != cold_outputs()[tuple(op)]:
        return f"cold {' '.join(op)}: stdout differs from the documented output"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    operation: str
    inputs: str
    why: str
    stream: Callable[[int], Iterator]
    execute: Callable
    check: Callable
    deadline_s: float
    batch: int  # operations timed between two untimed checking pauses
    in_process: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "one in-process cli.main request: 3 'sweep --auto-tsirelson --format csv'"
            " of 16 N to 1 'chsh --auto-tsirelson'",
            "N log-uniform in bit length 2..200; the 16 N of a sweep share one bit length",
            "bellsim build, chsh_value and verifiers dominate; ontology and factoring are"
            " off the path",
            sweep_stream,
            run_cli_in_process,
            check_cli,
            deadline_s=2.0,
            batch=40,
        ),
        Workload(
            "census",
            "one counterfactual_cosine_class(SphericalTriangle(c1, c2, RationalAngle(g)))",
            "tier-1 grid 45 x 45 x 46 = 93,150 triangles (cos denominators <= 8, gamma <= 12)",
            "many cheap calls on small repeated operands: per-call overhead in ontology"
            " and exactnum dominates",
            census_stream,
            run_census,
            check_census,
            deadline_s=0.5,
            batch=10_000,
        ),
        Workload(
            "wide_operands",
            "one in-process cli.main request: 42 'counterfactual --cos-a p/q' to 3"
            " 'bits --from-seed 1/p'",
            "q-p=1, q+p = product of two primes of 6..10 digits (20/12/6/3/1 per block);"
            " bits p ~ 1e4, count 8000..12000",
            "few calls whose cost grows with operand bit length: factoring dominates,"
            " call overhead does not",
            wide_stream,
            run_cli_in_process,
            check_cli,
            deadline_s=10.0,
            batch=45,
        ),
        Workload(
            "cold_cli",
            "one fresh 'python -m exactbell.cli' process (PYTHONPATH=src)",
            "seeded mix of all eight subcommands, small documented inputs",
            "interpreter start and imports dominate; the roadmap's own end-to-end definition",
            cold_stream,
            run_cold,
            check_cold,
            deadline_s=10.0,
            batch=16,
            in_process=False,
        ),
    )
}


class Watchdog:
    """Per-operation deadlines from one periodic SIGALRM.

    Arming costs one attribute write per operation; the handler raises
    DeadlineExceeded in the running operation once its deadline has passed.
    """

    TICK_S = 0.05

    def __init__(self):
        self.deadline_at = 0.0

    def _on_alarm(self, signum, frame):
        if self.deadline_at and time.perf_counter() > self.deadline_at:
            self.deadline_at = 0.0
            raise DeadlineExceeded

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.deadline_at = 0.0
