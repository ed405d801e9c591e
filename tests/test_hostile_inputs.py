"""Hostile and edge inputs: each maps to its documented exit code within a
wall-clock bound."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import exactbell

SRC = str(Path(exactbell.__file__).resolve().parents[1])


def _run(*argv):
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "exactbell.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
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
