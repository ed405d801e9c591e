"""CLI stdout is byte-identical to the recorded golden outputs.

``golden_cli_outputs.json`` holds the stdout of chsh and sweep runs
recorded before the CHSH ensemble moved to integer weights: chsh at
N = 2, 3, 16, 1024, 10^30 and 2^200, with the oracle check at N = 8, with
explicit cosines, and sweeps over 2..40, 1024, 2^64 and 2^200 in csv and
plain format.

``bench/cold_cli_outputs.json`` holds the documented stdout of every
invocation the cold-start benchmark runs, one or more per subcommand; it is
only read here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from exactbell import cli

GOLDEN = json.loads((Path(__file__).with_name("golden_cli_outputs.json")).read_text())
COLD = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "cold_cli_outputs.json").read_text()
)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"])[:60] for c in GOLDEN])
def test_stdout_matches_golden_output(case, capsys):
    assert cli.main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("case", COLD, ids=[" ".join(c["args"])[:60] for c in COLD])
def test_stdout_matches_cold_start_output(case, capsys):
    assert cli.main(case["args"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (case["stdout"], "")
