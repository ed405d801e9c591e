"""Command-line behaviour: dispatch, determinism, formats, exit codes."""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from exactbell import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*args):
    """Run `python *args` in a new interpreter that imports this exactbell."""
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    return result.returncode, result.stdout, result.stderr


# --- dispatch and payloads ---------------------------------------------------


def test_niven_subcommand(capsys):
    code, out, _ = run_cli(capsys, "niven", "1/6")
    assert code == 0
    assert json.loads(out) == {"cos": "1/2"}

    code, out, _ = run_cli(capsys, "niven", "1/5")
    assert json.loads(out) == {"cos": "irrational"}


def test_chsh_auto_tsirelson(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--N", "16", "--auto-tsirelson")
    assert code == 0
    payload = json.loads(out)
    assert payload["S"] == "-11/4"
    assert payload["abs_S"] == "11/4"
    assert payload["classical_bound"] == "2"
    assert payload["violates_classical_bound"] is True
    assert payload["free_choice_on_invariant_set"] is True
    assert payload["local_causality_on_invariant_set"] is True
    assert payload["settings"]["cos00"] == "11/16"
    assert payload["tsirelson_reference"].startswith("2.8284271247461900976")


def test_chsh_manual_settings(capsys):
    code, out, _ = run_cli(
        capsys,
        "chsh", "--N", "4",
        "--cos00", "1", "--cos01", "1", "--cos10", "1", "--cos11", "1",
    )
    assert code == 0
    assert json.loads(out)["S"] == "-2"


def test_chsh_oracle_check(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--N", "8", "--auto-tsirelson", "--oracle-check")
    assert code == 0
    error = float(json.loads(out)["oracle_max_abs_error"])
    assert error < 1e-12


def test_sweep_csv_shape_and_gap(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--N", "8,16,64,256,1024", "--auto-tsirelson", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,n,S_num,S_den,S_decimal,gap_to_tsirelson"
    assert len(lines) == 6
    gaps = [Decimal(line.split(",")[-1]) for line in lines[1:]]
    assert all(later <= earlier for earlier, later in zip(gaps, gaps[1:]))
    assert lines[1].startswith("8,6,-3,1,")
    assert lines[2].startswith("16,11,-11,4,")


def test_counterfactual_subcommand(capsys):
    code, out, _ = run_cli(
        capsys,
        "counterfactual", "--cos-a", "1/5", "--cos-b", "1/2", "--gamma", "1/8",
        "--weight", "1/8",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ontic"] is True
    assert payload["value"] == "7/10"
    assert payload["case"] == "rational-cos-sq-gamma"
    assert payload["admissible_contexts"] == "0,0;1,1"
    assert payload["counterfactual_weight"] == "0"
    assert payload["complement_weight"] == "1/8"


def test_superpose_subcommand(capsys):
    code, out, _ = run_cli(capsys, "superpose", "1/3", "0")
    payload = json.loads(out)
    assert payload == {
        "cos_sq_half_polar": "4/5",
        "cos_polar": "3/5",
        "azimuth_turns": "1/6",
        "finite": True,
    }


def test_bits_subcommands(capsys):
    code, out, _ = run_cli(capsys, "bits", "--from-seed", "1/7", "--count", "6")
    assert json.loads(out) == {"seed": "1/7", "count": 6, "bits": "001001", "period": 3}

    code, out, _ = run_cli(capsys, "bits", "--to-seed", "001001")
    assert json.loads(out)["seed"] == "9/64"

    code, out, _ = run_cli(capsys, "bits", "--to-seed", "001", "--periodic")
    assert json.loads(out)["seed"] == "1/7"


def test_padic_subcommands(capsys):
    code, out, _ = run_cli(capsys, "padic", "--valuation", "3/4", "2")
    assert json.loads(out) == {"value": "3/4", "prime": 2, "valuation": -2, "norm": "4"}

    code, out, _ = run_cli(capsys, "padic", "--valuation", "0", "5")
    assert json.loads(out)["valuation"] == "inf"

    code, out, _ = run_cli(capsys, "padic", "--ultrametric", "1,2,3", "1,2", "--base", "10")
    payload = json.loads(out)
    assert payload["digits_b"] == "1,2,0"  # padded per the documented convention
    assert payload["distance"] == "1/1000"


def test_validate_qubit(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--qubit", "--cos-theta", "1/2", "--N", "4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n1"] == 3
    assert payload["valid"] is True
    assert payload["helix_labels"] == "0001"
    assert payload["fraction_zero"] == "3/4"


def test_validate_state_file(tmp_path, capsys):
    good = {"N": 2, "amps": [{"m": 1, "phase_turns": "0"}, {"m": 1, "phase_turns": "1/2"}]}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(good))
    code, out, _ = run_cli(capsys, "validate", "--state", str(path))
    assert code == 0
    assert json.loads(out) == {"valid": True, "violations": []}

    bad = {"N": 2, "amps": [{"m": 1, "phase_turns": "0"}, {"m": 2, "phase_turns": "0"}]}
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "validate", "--state", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("normalization" in v for v in payload["violations"])


# --- exit codes -----------------------------------------------------------------


def test_decimal_input_is_usage_error_with_hint(capsys):
    code, _, err = run_cli(capsys, "niven", "0.5")
    assert code == 1
    assert "exact fraction" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_domain_error_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "validate", "--qubit", "--cos-theta", "1/3", "--N", "4"
    )
    assert code == 2
    assert "not an integer multiple" in err

    code, _, _ = run_cli(capsys, "padic", "--valuation", "1/2", "6")
    assert code == 2


def test_unparseable_padic_value_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "padic", "--valuation", "abc", "3")
    assert code == 1
    assert out == ""
    assert "is not a valid rational" in err


def test_padic_primality_is_certain_or_refused(capsys):
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # prime base up to 37; base 41 exposes it.
    code, _, err = run_cli(capsys, "padic", "--valuation", "1", "318665857834031151167461")
    assert code == 2
    assert "not a prime" in err

    # 2^89 - 1 is prime, but lies above psi_13, where primality is not certain.
    code, _, err = run_cli(capsys, "padic", "--valuation", "1", str(2**89 - 1))
    assert code == 2
    assert "3317044064679887385961981" in err

    code, out, _ = run_cli(capsys, "padic", "--valuation", "1", str(2**61 - 1))
    assert code == 0
    assert json.loads(out)["valuation"] == 0

    code, _, _ = run_cli(
        capsys, "chsh", "--N", "4",
        "--cos00", "1/3", "--cos01", "0", "--cos10", "0", "--cos11", "0",
    )
    assert code == 2


def test_missing_required_mode_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "chsh", "--N", "16")
    assert code == 1
    code, _, _ = run_cli(capsys, "bits", "--from-seed", "1/2")
    assert code == 1


# --- output plumbing ---------------------------------------------------------------


def test_byte_identical_repeat_runs(capsys):
    _, first, _ = run_cli(capsys, "chsh", "--N", "64", "--auto-tsirelson")
    _, second, _ = run_cli(capsys, "chsh", "--N", "64", "--auto-tsirelson")
    assert first == second


def test_meta_wraps_data_block(capsys):
    code, out, _ = run_cli(capsys, "niven", "1/6", "--meta")
    payload = json.loads(out)
    assert payload["data"] == {"cos": "1/2"}
    assert "generated_at" in payload["meta"]


def test_plain_format(capsys):
    code, out, _ = run_cli(capsys, "niven", "1/6", "--format", "plain")
    assert out == "cos = 1/2\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "niven", "1/6", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"cos": "1/2"}


def test_unwritable_output_path_is_domain_error(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "out.json"
    for target in (missing, tmp_path):
        code, out, err = run_cli(capsys, "niven", "1/6", "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"exactbell: error: cannot write {target}: ")
        assert "Traceback" not in err
    assert not missing.parent.exists()


def test_empty_N_list_is_usage_error(capsys):
    for spelling in (",", ""):
        code, out, err = run_cli(
            capsys, "sweep", "--N", spelling, "--auto-tsirelson", "--format", "csv"
        )
        assert code == 1
        assert out == ""
        assert "lists no integers" in err


def test_config_file_provides_defaults(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("N = 16\nauto_tsirelson = true\n")
    code, out, _ = run_cli(capsys, "chsh", "--config", str(config))
    assert code == 0
    assert json.loads(out)["S"] == "-11/4"

    # explicit flags override config values
    code, out, _ = run_cli(capsys, "chsh", "--config", str(config), "--N", "8")
    assert json.loads(out)["S"] == "-3"


def test_config_rejects_malformed_lines(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("just nonsense\n")
    code, _, err = run_cli(capsys, "chsh", "--config", str(config))
    assert code == 1
    assert "key = value" in err


def test_config_equals_form_and_missing_file(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("N = 16\nauto_tsirelson = true\n")
    code, out, _ = run_cli(capsys, "chsh", f"--config={config}")
    assert code == 0
    assert json.loads(out)["S"] == "-11/4"

    code, _, err = run_cli(capsys, "chsh", "--config", str(tmp_path / "none.conf"))
    assert code == 1
    assert "cannot read" in err


def test_config_boolean_flags_are_the_parsers_store_true_flags():
    # --config turns `key = true` into a bare flag only for the flags it
    # knows are booleans; a new store_true flag must be listed there too.
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    store_true = {
        option
        for subparser in commands.choices.values()
        for action in subparser._actions
        if isinstance(action, argparse._StoreTrueAction)
        for option in action.option_strings
    }
    assert cli._BOOLEAN_FLAGS == store_true


def test_negative_fraction_values_parse(capsys):
    code, out, _ = run_cli(
        capsys,
        "chsh", "--N", "16",
        "--cos00", "11/16", "--cos01", "11/16", "--cos10", "11/16", "--cos11", "-11/16",
    )
    assert code == 0
    assert json.loads(out)["S"] == "-11/4"

    code, out, _ = run_cli(capsys, "niven", "-1/6")
    assert json.loads(out) == {"cos": "1/2"}


def test_validate_state_from_stdin(monkeypatch, capsys):
    import io

    state = {"N": 2, "amps": [{"m": 1, "phase_turns": "0"}, {"m": 1, "phase_turns": "0"}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(state)))
    code, out, _ = run_cli(capsys, "validate", "--state", "-")
    assert code == 0
    assert json.loads(out)["valid"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("niven", "1/6"),
        ("counterfactual", "--cos-a", "3/5", "--cos-b", "4/5", "--gamma", "1/2"),
        ("superpose", "0", "0"),
        ("chsh", "--N", "8", "--auto-tsirelson", "--oracle-check"),
        ("sweep", "--N", "8,16", "--auto-tsirelson"),
        ("bits", "--from-seed", "0", "--count", "3"),
        ("padic", "--valuation", "8", "2"),
        ("validate", "--qubit", "--cos-theta", "1", "--N", "2"),
    ],
)
def test_every_subcommand_runs_clean(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out


def test_main_calls_the_handler_bound_at_call_time(monkeypatch, capsys):
    # The parser is built once per process; a cmd_* rebound after that (as
    # a tracing wrapper is) must still be the function main() calls.
    cli.build_parser()
    original, calls = cli.cmd_niven, []

    def rebound(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "cmd_niven", rebound)
    code, out, _ = run_cli(capsys, "niven", "1/6")
    assert (code, json.loads(out), calls) == (0, {"cos": "1/2"}, ["niven"])


_THIRD_PARTY_IMPORTS = """
import sys
before = set(sys.modules)
import exactbell.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"exactbell"}))
"""


def test_cli_import_loads_only_the_standard_library():
    code, out, _ = run_fresh("-c", _THIRD_PARTY_IMPORTS)
    assert (code, out.strip()) == (0, "[]")


_HEAVY_IMPORTS = """
import sys
before = set(sys.modules)
import exactbell.cli
print(sorted({"dataclasses", "inspect", "csv", "datetime", "json"} & (set(sys.modules) - before)))
"""


def test_cli_import_skips_modules_only_some_runs_need():
    # A cold start pays for every import: `csv` serves only --format csv,
    # `datetime` only --meta, `json` only JSON output and --state, and the
    # value types need no `dataclasses`.
    code, out, _ = run_fresh("-c", _HEAVY_IMPORTS)
    assert (code, out.strip()) == (0, "[]")


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # main() reuses one parser per process; each call must still behave
    # exactly like a fresh process, including after a usage error.
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "run.conf"
    config.write_text("N = 16\nauto_tsirelson = true\n")
    calls = [
        ("chsh", "--N", "64", "--auto-tsirelson"),
        ("sweep", "--N", "8,16", "--cos00", "0.7"),
        ("chsh", "--config", str(config)),
        ("sweep", "--N", "8,16,1024", "--auto-tsirelson", "--format", "csv"),
        ("counterfactual", "--cos-a", "1/2", "--cos-b", "1/3", "--gamma", "1/6"),
    ]
    codes = []
    for argv in calls:
        in_process = run_cli(capsys, *argv)
        assert in_process == run_fresh("-m", "exactbell.cli", *argv), argv
        codes.append(in_process[0])
    assert codes == [0, 1, 0, 0, 0]


def test_entry_point_process_matches_in_process_main(tmp_path, monkeypatch, capsys):
    # `python -m exactbell.cli` goes through run(), which freezes the heap
    # before exit; output, exit code and --output files must not change.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        (("niven", "1/6"), 0),
        (("chsh",), 1),
        (("padic", "--valuation", "3", "1"), 2),
        (("--help",), 0),
        (("chsh", "--help"), 0),
        (("--version",), 0),
    ]
    for argv, expected in calls:
        in_process = run_cli(capsys, *argv)
        assert in_process == run_fresh("-m", "exactbell.cli", *argv), argv
        assert in_process[0] == expected, argv

    argv = ["sweep", "--N", "2,3,5,8,13,21,34,55,89,144", "--auto-tsirelson", "--format", "csv"]
    in_process_file = tmp_path / "in_process.csv"
    fresh_file = tmp_path / "fresh.csv"
    assert run_cli(capsys, *argv, "--output", str(in_process_file)) == (0, "", "")
    assert run_fresh("-m", "exactbell.cli", *argv, "--output", str(fresh_file)) == (0, "", "")
    assert fresh_file.read_bytes() == in_process_file.read_bytes()
    assert in_process_file.read_text().count("\n") == 11


def test_only_the_entry_function_freezes_the_heap(capsys):
    before = gc.get_freeze_count()
    for argv in (("niven", "1/6"), ("chsh",), ("sweep", "--N", "8,16", "--auto-tsirelson")):
        run_cli(capsys, *argv)
    assert gc.get_freeze_count() == before

    script = (
        "import gc, sys\n"
        "from exactbell import cli\n"
        "sys.argv = ['exactbell', 'niven', '1/6', '--format', 'plain']\n"
        "code = cli.run()\n"
        "print(code, gc.get_freeze_count() > 0)\n"
    )
    assert run_fresh("-c", script) == (0, "cos = 1/2\n0 True\n", "")


def test_console_script_names_the_entry_function():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"exactbell": "exactbell.cli:run"}
