"""Tests of the benchmark itself: deterministic inputs, checks that reject
wrong answers, and the self-time arithmetic.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cli(argv):
    return workloads.run_cli_in_process(argv)


def _replace_field(stdout: str, key: str, value) -> str:
    data = json.loads(stdout)
    data[key] = value
    return json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_streams_are_deterministic_per_seed(name):
    stream = WORKLOADS[name].stream
    first = list(islice(stream(7), 60))
    assert first == list(islice(stream(7), 60))
    assert first != list(islice(stream(8), 60))


def test_sweep_stream_shape():
    ops = list(islice(workloads.sweep_stream(3), 400))
    assert sum(op[0] == "chsh" for op in ops) == 100
    for op in ops:
        if op[0] == "sweep":
            grid = [int(n) for n in op[-1].split(",")]
            assert len(grid) == 16 and len({n.bit_length() for n in grid}) == 1
    bits = {int(op[-1].split(",")[0]).bit_length() for op in ops}
    assert 2 <= min(bits) <= 10 and 190 <= max(bits) <= 200


def test_census_grid_is_the_tier1_grid():
    grid = workloads.census_grid()
    assert len(grid) == 93_150 == len(set(grid))


def test_wide_stream_operands():
    ops = list(islice(workloads.wide_stream(5), 90))
    assert sum(op[0] == "bits" for op in ops) == 6
    for op in ops:
        if op[0] == "counterfactual":
            p, q = (int(part) for part in op[2].split("/"))
            assert q - p == 1 and 11 <= len(str(q + p)) <= 20


def test_sweep_check_accepts_the_program_and_rejects_wrong_answers():
    grid = "2,16,1000,123456789012345678901"
    argv = ("sweep", "--auto-tsirelson", "--format", "csv", "--N", grid)
    output = _cli(argv)
    assert workloads.check_cli(argv, output) is None
    code, stdout, stderr = output
    wrong_n = stdout.replace("\n16,11,", "\n16,12,")
    wrong_s = stdout.replace("-11,4,", "-11,5,")
    wrong_decimal = stdout.replace("-2.75,", "-2.76,")
    for bad in (wrong_n, wrong_s, wrong_decimal):
        assert bad != stdout
        assert workloads.check_cli(argv, (code, bad, stderr)) is not None
    assert workloads.check_cli(argv, (2, stdout, "boom")) is not None


def test_chsh_check_rejects_wrong_answers():
    argv = ("chsh", "--auto-tsirelson", "--N", "16")
    code, stdout, stderr = _cli(argv)
    assert workloads.check_cli(argv, (code, stdout, stderr)) is None
    for key, value in (
        ("free_choice_on_invariant_set", False),
        ("local_causality_on_invariant_set", False),
        ("S", "-3"),
        ("S_decimal", "-2.7500001"),
        ("tsirelson_reference", "2.82842712474619"),
    ):
        bad = _replace_field(stdout, key, value)
        assert workloads.check_cli(argv, (code, bad, stderr)) is not None, key


def test_counterfactual_check_rejects_wrong_answers():
    argv = ("counterfactual", "--cos-a", "500000/500001", "--cos-b", "0", "--gamma", "0")
    code, stdout, stderr = _cli(argv)
    assert workloads.check_cli(argv, (code, stdout, stderr)) is None
    for key, value in (("value", "1/2"), ("case", "pole"), ("counterfactual_weight", "1")):
        bad = _replace_field(stdout, key, value)
        assert workloads.check_cli(argv, (code, bad, stderr)) is not None, key


def test_bits_check_rejects_wrong_answers():
    argv = ("bits", "--from-seed", "1/9973", "--count", "9000")
    code, stdout, stderr = _cli(argv)
    assert workloads.check_cli(argv, (code, stdout, stderr)) is None
    bits = json.loads(stdout)["bits"]
    flipped = bits[:-1] + ("0" if bits[-1] == "1" else "1")
    for key, value in (("bits", flipped), ("period", 17), ("count", 9001)):
        bad = _replace_field(stdout, key, value)
        assert workloads.check_cli(argv, (code, bad, stderr)) is not None, key


def _result(value, case):
    return SimpleNamespace(value=value, case=SimpleNamespace(value=case))


def test_census_check_accepts_the_program_on_every_branch():
    cases = set()
    for op in workloads.census_grid()[::97]:
        result = workloads.run_census(op)
        assert workloads.check_census(op, result) is None, op
        cases.add(result.case.value)
    assert cases == set(tracing.CASES)


def test_census_check_rejects_wrong_answers():
    third, half, eighth = Fraction(1, 3), Fraction(1, 2), Fraction(1, 8)
    # cos gamma = -1/2: value 1/5*1/2 - 1/2 * sqrt(24/25 * 3/4) is irrational.
    op = (Fraction(1, 5), half, third)
    assert workloads.check_census(op, _result(None, "rational-cos-gamma")) is None
    assert workloads.check_census(op, _result(Fraction(1, 10), "rational-cos-gamma"))
    # Ontic on the cos^2 branch: 7/10 is right, the mirrored sign is not,
    # though it satisfies the squared identity.
    op = (Fraction(1, 5), half, eighth)
    assert workloads.check_census(op, _result(Fraction(7, 10), "rational-cos-sq-gamma")) is None
    mirrored = Fraction(1, 10) - Fraction(3, 5)
    assert workloads.check_census(op, _result(mirrored, "rational-cos-sq-gamma"))
    assert workloads.check_census(op, _result(None, "rational-cos-sq-gamma"))
    assert workloads.check_census(op, _result(Fraction(7, 10), "generic-irrational"))
    pole = (Fraction(1), Fraction(1, 7), Fraction(1, 5))
    assert workloads.check_census(pole, _result(Fraction(1, 7), "pole")) is None
    assert workloads.check_census(pole, _result(Fraction(1, 6), "pole"))


def test_cold_check_rejects_wrong_output():
    outputs = workloads.cold_outputs()
    assert {args[0] for args in outputs} == {
        "niven", "chsh", "sweep", "counterfactual", "superpose", "validate", "bits", "padic",
    }
    args, stdout = next(iter(outputs.items()))
    assert workloads.check_cold(args, (0, stdout, "", 0)) is None
    assert workloads.check_cold(args, (0, stdout + " ", "", 0)) is not None
    assert workloads.check_cold(args, (1, stdout, "", 0)) is not None


def test_documented_outputs_pass_the_independent_checks():
    checkable = {("chsh", "json"), ("sweep", "csv"), ("counterfactual", "json"), ("bits", "json")}
    checked = set()
    for args, stdout in workloads.cold_outputs().items():
        rendering = args[args.index("--format") + 1] if "--format" in args else "json"
        if (args[0], rendering) == ("niven", "json"):
            expected = workloads.niven_oracle(Fraction(args[1]))
            want = "irrational" if expected is None else workloads.fmt(expected)
            assert json.loads(stdout) == {"cos": want}
        elif (args[0], rendering) in checkable and not {"--cos00", "--to-seed"} & set(args):
            assert workloads.check_cli(args, (0, stdout, "")) is None, args
        else:
            continue
        checked.add(args[0])
    assert checked == {"niven", "chsh", "sweep", "counterfactual", "bits"}


def test_host_adjustment_scales_each_segment_by_its_probe():
    ref = 0.002
    phase = run.Phase(ref, attempted=3, measured_s=6.0)
    phase.latencies_s.extend([1.0, 2.0, 3.0])
    phase.segment_of.extend([0, 0, 1])
    phase.segment_s.extend([3.0, 3.0])
    phase.host_s.extend([ref, 2 * ref])  # the second segment ran at half speed
    assert phase.adjusted_latencies_s() == [1.0, 2.0, 1.5]
    assert phase.adjusted_s == 4.5
    assert phase.ops_per_s == 3 / 4.5 and phase.wall_ops_per_s == 0.5


def test_run_phase_brackets_every_segment_with_probes():
    phase = run.run_phase(WORKLOADS["census"], 1, 0.6, 0)
    assert len(phase.segment_s) == len(phase.host_s) >= 2
    assert sorted(set(phase.segment_of)) == list(range(len(phase.segment_s)))
    assert abs(sum(phase.segment_s) - phase.measured_s) < 1e-9
    assert all(probe > 0 for probe in phase.host_s)


def test_self_times_on_a_synthetic_tree():
    # op [0, 10] > main [1, 9] > (parse [1, 3], build [4, 8] > sqrt [5, 6])
    starts = [0.0, 1.0, 1.0, 4.0, 5.0]
    ends = [10.0, 9.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 1, 1, 3]
    own = tracing.self_times(starts, ends, parents)
    assert own == [2.0, 2.0, 2.0, 3.0, 1.0]
    assert sum(own) == ends[0] - starts[0]


def test_layer_metrics_account_for_the_operation_time():
    recorder = tracing.Recorder()
    root, leaf = recorder.name_id(tracing.ROOT_SPAN), recorder.name_id("exactnum.niven_classify")
    for op in range(2):
        recorder.op = op
        outer = recorder.add(root, 10.0 * op, 10.0 * op + 4.0, -1)
        recorder.add(leaf, 10.0 * op + 1.0, 10.0 * op + 2.5, outer)
    metrics = tracing.layer_metrics(recorder)
    assert metrics["exactnum.niven_classify.calls"] == 1
    assert metrics["exactnum.niven_classify.self_ms"] == 1500
    assert metrics["bench.op.self_ms"] == 2500
    assert metrics["bench.op.total_ms"] == 4000


def test_install_wraps_every_binding_and_uninstall_restores_it():
    cli, ontology, exactnum = workloads.exactbell_modules()
    def bindings():
        return cli.build_bell_ensemble, ontology.niven_classify, exactnum.QuadraticSurd.sqrt

    before = bindings()
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        assert cli.build_bell_ensemble is not before[0]
        assert ontology.niven_classify is not before[1]
        argv = ("chsh", "--auto-tsirelson", "--N", "16")
        assert workloads.check_cli(argv, _cli(argv)) is None
        workloads.run_census((Fraction(1, 5), Fraction(1, 2), Fraction(1, 8)))
    finally:
        tracing.uninstall(undo)
    assert bindings() == before
    metrics = tracing.layer_metrics(recorder)
    assert metrics["bellsim.build_bell_ensemble.calls"] == 1
    assert metrics["exactnum.QuadraticSurd.sqrt.calls"] == 1
    assert metrics["ontology.case.rational-cos-sq-gamma"] == 1


def test_watchdog_abandons_an_operation_past_its_deadline():
    with workloads.Watchdog() as watchdog:
        watchdog.deadline_at = time.perf_counter() + 0.1
        with pytest.raises(workloads.DeadlineExceeded):
            while True:
                pass


def test_a_cold_child_past_its_deadline_is_killed_and_reaped():
    with workloads.Watchdog() as watchdog:
        watchdog.deadline_at = time.perf_counter() + 0.2
        with pytest.raises(workloads.DeadlineExceeded):
            workloads.spawn((sys.executable, "-c", "import time; time.sleep(30)"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
