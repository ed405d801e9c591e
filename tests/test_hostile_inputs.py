"""Hostile and edge inputs: each maps to its documented exit code within a
wall-clock bound."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import exactbell
from exactbell import cli

SRC = str(Path(exactbell.__file__).resolve().parents[1])


def _run(*argv, timeout=60):
    # A regression that makes an input hang fails with TimeoutExpired
    # instead of stalling the suite.
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "exactbell.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return result, time.perf_counter() - start


def test_long_sweep_list_is_fast():
    # 2,000 N with bit lengths drawn uniformly from 2..200.
    rng = random.Random(20261018)
    values = [max(2, rng.getrandbits(rng.randint(2, 200))) for _ in range(2000)]
    result, elapsed = _run(
        "sweep", "--auto-tsirelson", "--format", "csv", "--N", ",".join(map(str, values))
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2001
    assert lines[0] == "N,n,S_num,S_den,S_decimal,gap_to_tsirelson"
    assert [int(line.split(",")[0]) for line in lines[1:]] == values
    assert elapsed < 5.0, f"{elapsed:.2f}s"


def test_counterfactual_on_a_40_digit_semiprime_is_fast():
    # q - p = 1 and q + p = P1 * P2, two 20-digit primes, so 1 - (p/q)^2 is
    # P1 * P2 / q^2: irrational, and factoring P1 * P2 would take hours.
    first, second = 10000000000000000051, 10000000000000000087
    assert pow(2, first - 1, first) == 1 and pow(2, second - 1, second) == 1
    p = (first * second - 1) // 2
    result, elapsed = _run(
        "counterfactual", "--cos-a", f"{p}/{p + 1}", "--cos-b", "0", "--gamma", "0"
    )
    assert result.returncode == 0, result.stderr
    assert '"value": "irrational"' in result.stdout
    assert '"ontic": false' in result.stdout
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_counterfactual_on_a_40_digit_pythagorean_cosine_is_exact():
    # cos a = (m^2 - n^2)/(m^2 + n^2) has sin a = 2mn/(m^2 + n^2), so with
    # cos b = 0 and gamma = 0 the counterfactual cosine is sin a exactly.
    m, n = 73018075240929185219, 12345678901234567891
    cos_a = Fraction(m * m - n * n, m * m + n * n)
    result, elapsed = _run(
        "counterfactual", "--cos-a", str(cos_a), "--cos-b", "0", "--gamma", "0"
    )
    assert result.returncode == 0, result.stderr
    assert f'"value": "{Fraction(2 * m * n, m * m + n * n)}"' in result.stdout
    assert '"ontic": true' in result.stdout
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_million_bit_expansion_is_fast():
    count = 10**6
    result, elapsed = _run("bits", "--from-seed", "1/1000003", "--count", str(count))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    # The first `count` bits of 1/q are floor(2**count / q) in binary; the
    # orbit of 1/1000003 does not recur within them.
    assert report["bits"] == format((1 << count) // 1000003, f"0{count}b")
    assert report["period"] is None
    assert elapsed < 5.0, f"{elapsed:.2f}s"


CAP = cli.MAX_SEQUENCE_LENGTH


def test_bits_count_at_the_cap_runs_and_one_over_is_refused():
    # 10**30 + 57 is odd and 2 has order above the cap modulo it, so the
    # period search runs its full length.
    denominator = 10**30 + 57
    result, elapsed = _run("bits", "--from-seed", f"1/{denominator}", "--count", str(CAP))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["bits"] == format((1 << CAP) // denominator, f"0{CAP}b")
    assert report["period"] is None
    assert elapsed < 10.0, f"{elapsed:.2f}s"

    for count in (CAP + 1, 99999999999):
        result, elapsed = _run("bits", "--from-seed", "1/3", "--count", str(count))
        assert result.returncode == 2
        assert f"length cap {CAP}" in result.stderr and "Traceback" not in result.stderr
        assert result.stdout == ""
        assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_qubit_helix_at_the_cap_runs_and_one_over_is_refused():
    result, elapsed = _run("validate", "--qubit", "--cos-theta", "0", "--N", str(CAP))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["helix_labels"] == "0" * (CAP // 2) + "1" * (CAP // 2)
    assert report["n1"] == CAP // 2
    assert elapsed < 1.0, f"{elapsed:.2f}s"

    for n_value in (CAP + 1, 10**12):
        result, elapsed = _run("validate", "--qubit", "--cos-theta", "0", "--N", str(n_value))
        assert result.returncode == 2
        assert f"length cap {CAP}" in result.stderr and "Traceback" not in result.stderr
        assert result.stdout == ""
        assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_deeply_nested_state_file_is_a_domain_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    result, elapsed = _run("validate", "--state", str(path))
    assert result.returncode == 2
    assert "nests too deeply" in result.stderr and "Traceback" not in result.stderr
    assert elapsed < 2.0, f"{elapsed:.2f}s"


# --- wide integers -------------------------------------------------------------

DIGITS = cli.MAX_INT_DIGITS


def _assert_refused_by_digit_limit(result, elapsed):
    assert result.returncode == 2
    assert f"MAX_INT_DIGITS = {DIGITS}" in result.stderr
    assert "set_int_max_str_digits" not in result.stderr and "Traceback" not in result.stderr
    assert result.stdout == ""
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_bit_string_seed_at_the_digit_limit_prints_and_one_bit_more_is_refused():
    # n ones read back as (2**n - 1) / 2**n; 2**14284 has 4300 digits and
    # 2**14285 has 4301.
    result, elapsed = _run("bits", "--to-seed", "1" * 14284)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["seed"] == f"{2**14284 - 1}/{2**14284}"
    assert elapsed < 2.0, f"{elapsed:.2f}s"

    _assert_refused_by_digit_limit(*_run("bits", "--to-seed", "1" * 14285))


def test_counterfactual_value_past_the_digit_limit_is_refused():
    # cos gamma = 0, so the counterfactual cosine is A * A, an 8,000-digit
    # denominator from 4,000-digit inputs.
    cosine = "1/" + "7" * 4000
    _assert_refused_by_digit_limit(
        *_run("counterfactual", "--cos-a", cosine, "--cos-b", cosine, "--gamma", "1/4")
    )


def test_state_file_integer_past_the_digit_limit_is_refused(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text('{"N": ' + "9" * 5000 + ', "amps": []}')
    _assert_refused_by_digit_limit(*_run("validate", "--state", str(path)))


def test_state_file_whose_sum_of_m_passes_the_digit_limit_is_refused(tmp_path):
    # Each m has 4,300 digits and is read; their sum has 4,301.
    path = tmp_path / "wide_sum.json"
    amp = '{"m": ' + "9" * DIGITS + ', "phase_turns": "0"}'
    path.write_text('{"N": 2, "amps": [' + amp + ", " + amp + "]}")
    _assert_refused_by_digit_limit(*_run("validate", "--state", str(path)))


def test_ultrametric_distance_past_the_digit_limit_is_refused_before_the_power():
    # With base 10**4000 and the first difference at digit 8,000 the
    # distance's denominator would have 32,000,001 digits.
    base = str(10**4000)
    digits = ["0"] * 8000
    differing = ",".join(digits[:-1] + ["1"])
    _assert_refused_by_digit_limit(
        *_run("padic", "--ultrametric", ",".join(digits), differing, "--base", base)
    )
    # 10**4299 has 4,300 digits, so base 10 still prints at digit 4,299.
    digits = ["0"] * 4299
    differing = ",".join(digits[:-1] + ["1"])
    result, elapsed = _run("padic", "--ultrametric", ",".join(digits), differing, "--base", "10")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["distance"] == f"1/{10**4299}"
    assert elapsed < 2.0, f"{elapsed:.2f}s"
