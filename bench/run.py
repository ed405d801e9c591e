"""Run one exactbell benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root; the program is imported from ``src`` and
cold processes get ``PYTHONPATH=src``. Human-readable lines come first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from a separate traced phase. A record
of the run, stamped with the machine and Python version, is written to
``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Callable

import tracing
import workloads
from workloads import ROOT, WORKLOADS, DeadlineExceeded, Watchdog

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# Ten latencies beyond the 90th percentile need at least 100 operations;
# a run keeps going past --seconds until it has them, within MAX_MEASURE_S.
MIN_OPS = 100
MAX_MEASURE_S = 120.0
SETUP_REPEATS = 11
# Timed work between two host probes (see Phase and bench/README.md).
SEGMENT_S = 0.5
PROCESS_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """Outcome of one measured loop.

    The timed loop is cut into segments of about SEGMENT_S; each segment
    is bracketed by two host probes, and `host_s` holds their mean.
    """

    reference_s: float  # the probe's time on the host figures are scaled to

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failures other than a missed deadline
    measured_s: float = 0.0
    latencies_s: array = field(default_factory=lambda: array("d"))
    segment_of: array = field(default_factory=lambda: array("l"))  # per operation
    segment_s: array = field(default_factory=lambda: array("d"))  # per segment
    host_s: array = field(default_factory=lambda: array("d"))  # per segment
    reasons: Counter = field(default_factory=Counter)
    child_rss_kb: int = 0

    def host_scales(self) -> list[float]:
        return [self.reference_s / probe for probe in self.host_s]

    def adjusted_latencies_s(self) -> list[float]:
        """Latencies as on a host that runs the probe in reference_s."""
        scales = self.host_scales()
        return [lat * scales[seg] for lat, seg in zip(self.latencies_s, self.segment_of)]

    @property
    def adjusted_s(self) -> float:
        return sum(t * scale for t, scale in zip(self.segment_s, self.host_scales()))

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.adjusted_s

    @property
    def wall_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.measured_s


def run_phase(
    workload, seed: int, seconds: float, min_ops: int, recorder=None, execute=None
) -> Phase:
    """Closed loop, one caller, over the workload's seeded stream.

    Operations run in batches. Only the batches are timed; the outputs of
    a batch are checked afterwards, outside the timed region, and each
    mismatch, exception or missed deadline counts as a failed operation.
    Host probes run between timed segments, outside the timed region too.
    """
    execute = execute or workload.execute
    stream = workload.stream(seed)
    probe = CPU_PROBE if workload.in_process else START_PROBE
    phase = Phase(probe.reference_s)
    root = recorder.name_id(tracing.ROOT_SPAN) if recorder else -1
    started = perf_counter()

    def close_segment(segment: float, opening: float) -> float:
        elapsed = perf_counter() - segment
        phase.measured_s += elapsed
        phase.segment_s.append(elapsed)
        closing = probe.measure()
        phase.host_s.append((opening + closing) / 2)
        return closing

    with Watchdog() as watchdog:
        while (phase.measured_s < seconds or phase.attempted < min_ops) and (
            perf_counter() - started < MAX_MEASURE_S
        ):
            batch = list(islice(stream, workload.batch))
            results = []
            opening = probe.measure()
            segment = perf_counter()
            for op in batch:
                span = -1
                begin = perf_counter()
                watchdog.deadline_at = begin + workload.deadline_s
                try:
                    if recorder:
                        recorder.op = phase.attempted + len(results)
                        span = recorder.open(root)
                    output = execute(op)
                except DeadlineExceeded:
                    output = DeadlineExceeded()
                except Exception as exc:  # one failed operation must not end the run
                    output = exc
                finally:
                    if span >= 0:
                        recorder.close(span)
                end = perf_counter()
                watchdog.deadline_at = 0.0
                results.append((op, output, end - begin))
                phase.segment_of.append(len(phase.segment_s))
                if (
                    phase.measured_s + end - segment >= seconds
                    and phase.attempted + len(results) >= min_ops
                ):
                    break
                if end - segment >= SEGMENT_S and len(results) < len(batch):
                    opening = close_segment(segment, opening)
                    segment = perf_counter()
            close_segment(segment, opening)
            for op, output, elapsed in results:
                _record(phase, workload, op, output, elapsed)
    return phase


_PROBE_MODULUS = (1 << 607) - 1


def _probe_work() -> None:
    """About 1 ms each of three kinds of work the program does: Fraction
    arithmetic with a dict and a sort, big-integer modular squaring, and
    60-digit Decimal division."""
    for _ in range(3):
        total = Fraction(0)
        table = {}
        for i in range(1, 120):
            total += Fraction(1, i)
            table[i] = total.denominator % 97
        sorted(table.values())
    x = 3
    for i in range(600):
        x = (x * x + i) % _PROBE_MODULUS
    with decimal.localcontext() as context:
        context.prec = 60
        one, total = decimal.Decimal(1), decimal.Decimal(0)
        for i in range(1, 1500):
            total += one / i


def cpu_probe() -> float:
    """Median seconds of three runs of _probe_work, about 3 ms in all."""
    times = []
    for _ in range(3):
        begin = perf_counter()
        _probe_work()
        times.append(perf_counter() - begin)
    return statistics.median(times)


def start_probe() -> float:
    """Wall seconds of one bare interpreter start and exit, about 50 ms."""
    begin = perf_counter()
    subprocess.run((sys.executable, "-c", "pass"), check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - begin


@dataclass(frozen=True)
class Probe:
    """A fixed piece of work, timed between measurements to gauge how fast
    the shared host runs at that moment, and its time on the reference host
    that reported figures are scaled to. Neither probe runs exactbell code,
    so no change to the program can move it."""

    measure: Callable[[], float]
    reference_s: float


# In-process work is gauged by in-process work; the start of a fresh CLI
# process, dominated by exec, loading and imports, by the start of a bare
# interpreter.
CPU_PROBE = Probe(cpu_probe, 0.003)
START_PROBE = Probe(start_probe, 0.05)


def _record(phase: Phase, workload, op, output, elapsed: float) -> None:
    phase.attempted += 1
    phase.latencies_s.append(elapsed)
    missed = isinstance(output, DeadlineExceeded) or elapsed > workload.deadline_s
    if missed:
        reason = f"missed the {workload.deadline_s} s deadline"
    elif isinstance(output, Exception):
        reason = f"raised {type(output).__name__}: {output}"
    else:
        try:
            reason = workload.check(op, output)
        except Exception as exc:  # unreadable output is a failed operation
            reason = f"output check raised {type(exc).__name__}: {exc}"
        if not workload.in_process:
            phase.child_rss_kb = max(phase.child_rss_kb, output[3])
    if reason:
        phase.failed += 1
        phase.wrong += not missed
        phase.reasons[reason] += 1


def _fresh_processes(argv, repeats: int) -> tuple[list[float], list[float]]:
    """Wall seconds of `repeats` fresh processes, after one warm-up that
    also compiles bytecode caches, and the start probe around each (the
    mean of the probes just before and just after it)."""
    times, hosts = [], []
    before = START_PROBE.measure()
    for index in range(repeats + 1):
        begin = perf_counter()
        subprocess.run(
            argv, cwd=ROOT, env=workloads.child_env(), check=True, stdout=subprocess.DEVNULL
        )
        elapsed = perf_counter() - begin
        after = START_PROBE.measure()
        if index:
            times.append(elapsed)
            hosts.append((before + after) / 2)
        before = after
    return times, hosts


def setup_seconds() -> tuple[float, float]:
    """Host-adjusted and wall median seconds to import exactbell.cli in a
    fresh interpreter."""
    times, hosts = _fresh_processes((sys.executable, "-c", "import exactbell.cli"), SETUP_REPEATS)
    adjusted = [t * START_PROBE.reference_s / host for t, host in zip(times, hosts)]
    return statistics.median(adjusted), statistics.median(times)


def process_metrics() -> dict[str, float]:
    """Interpreter start, and cumulative import times from -X importtime."""
    interpreter_s, _ = _fresh_processes((sys.executable, "-c", "pass"), PROCESS_REPEATS)
    metrics = {"process.interpreter_ms": 1000 * statistics.median(interpreter_s)}
    numpy_ms, exactbell_ms = [], []
    for _ in range(PROCESS_REPEATS):
        report = subprocess.run(
            (sys.executable, "-X", "importtime", "-c", "import exactbell.cli"),
            cwd=ROOT, env=workloads.child_env(), check=True, capture_output=True, text=True,
        ).stderr
        cumulative = {}
        for line in report.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000
        numpy_ms.append(cumulative.get("numpy", 0.0))
        exactbell_ms.append(cumulative["exactbell.cli"])
    metrics["process.import.numpy_ms"] = statistics.median(numpy_ms)
    metrics["process.import.exactbell_ms"] = statistics.median(exactbell_ms)
    return metrics


def run_traced_child(op, recorder: tracing.Recorder):
    """One cold_cli operation in a child that records its own spans; they
    are re-parented under the current operation span."""
    spawned = perf_counter()
    code, stdout, stderr, rss = workloads.spawn(
        (sys.executable, str(BENCH / "trace_child.py"), *op)
    )
    head, _, last = stderr.rstrip("\n").rpartition("\n")
    try:
        payload = json.loads(last)
    except ValueError:
        return code, stdout, stderr, rss
    parent = recorder.current
    recorder.add(recorder.name_id("process.startup"), spawned, payload["boot"], parent)
    base = len(recorder.starts)
    for name, start, end, child_parent in payload["spans"]:
        own_parent = parent if child_parent < 0 else base + child_parent
        recorder.add(recorder.name_id(name), start, end, own_parent)
    recorder.counts.update(payload["counts"])
    for name, values in payload["samples"].items():
        recorder.samples[name].extend(values)
    return code, stdout, head, rss


def percentile_ms(latencies_s, fraction: float) -> float:
    cuts = statistics.quantiles(latencies_s, n=100, method="inclusive")
    return 1000 * cuts[round(fraction * 100) - 1]


def end_to_end(
    workload, seed: int, seconds: int
) -> tuple[Phase, dict[str, float], dict[str, float]]:
    """The end-to-end metrics, host-adjusted, and the same times as wall
    time for the human-readable report."""
    setup, setup_wall = setup_seconds()
    if workload.in_process:
        workloads.exactbell_modules()
    phase = run_phase(workload, seed, seconds, MIN_OPS)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = phase.child_rss_kb
    adjusted = phase.adjusted_latencies_s()
    metrics = {
        "setup_s": setup,
        "ops_per_s": phase.ops_per_s,
        "op_ms_p50": 1000 * statistics.median(adjusted),
        "op_ms_p90": percentile_ms(adjusted, 0.9),
        "peak_rss_mb": peak_kb / 1024,
    }
    wall = {
        "setup_s": setup_wall,
        "ops_per_s": phase.wall_ops_per_s,
        "op_ms_p50": 1000 * statistics.median(phase.latencies_s),
        "op_ms_p90": percentile_ms(phase.latencies_s, 0.9),
        "probe_ms_median": 1000 * statistics.median(phase.host_s),
    }
    return phase, metrics, wall


def traced(
    workload, seed: int, seconds: int
) -> tuple[list[Phase], dict[str, float], tracing.Recorder]:
    """An untraced phase of seconds/2, then a traced phase over exactly the
    same operations; their throughput ratio is the tracing overhead."""
    if workload.in_process:
        workloads.exactbell_modules()
    plain = run_phase(workload, seed, seconds / 2, 0)
    recorder = tracing.Recorder()
    if workload.in_process:
        undo = tracing.install(recorder)
        try:
            traced_phase = run_phase(workload, seed, 0, plain.attempted, recorder)
        finally:
            tracing.uninstall(undo)
    else:
        traced_phase = run_phase(
            workload, seed, 0, plain.attempted, recorder, lambda op: run_traced_child(op, recorder)
        )
    metrics = tracing.layer_metrics(recorder)
    metrics.update(process_metrics())
    # Same operations in both phases, so the time ratio is the throughput ratio.
    metrics["bench.tracing_overhead_ratio"] = plain.adjusted_s / traced_phase.adjusted_s
    return [plain, traced_phase], metrics, recorder


def pin_to_one_cpu() -> None:
    """Run the benchmark, and every child it starts, on one CPU, so that the
    host probes gauge the CPU the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def stamp(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(line for line in handle if line.startswith("model name"))
            cpu = model.split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ("git", "-C", str(ROOT), "rev-parse", "HEAD"), capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not workloads.program_present():
        missing = f"{workloads.SRC}/exactbell or {workloads.ORACLES}"
        print(f"bench: no program to measure: {missing} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    record = {"stamp": stamp(args)}
    print("exactbell benchmark  " + "  ".join(f"{k}={v}" for k, v in record["stamp"].items()))
    print(f"  operation: {workload.operation}")
    print(f"  inputs:    {workload.inputs}")
    print(f"  loop:      closed, 1 caller; deadline {workload.deadline_s} s per operation")
    print(f"  why:       {workload.why}")

    if args.trace:
        phases, metrics, recorder = traced(workload, args.seed, args.seconds)
        units = tracing.per_layer_units()
        wall = {}
    else:
        phase, metrics, wall = end_to_end(workload, args.seed, args.seconds)
        phases = [phase]
        units = END_TO_END_UNITS
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    reasons = sum((p.reasons for p in phases), Counter())

    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    print(f"  {'failed_ratio':48s} {failed / attempted:14.6g} ({failed} of {attempted} operations)")
    for name, value in wall.items():
        print(f"  {'wall ' + name:48s} {value:14.6g}")
    if args.trace:
        layers = sum(value for name, value in metrics.items() if name.endswith(".self_ms"))
        untraced = 1000 * statistics.fmean(phases[0].latencies_s)
        print(
            f"  accounted: layer and bench self times {layers:.6g} ms/op of"
            f" {metrics['bench.op.total_ms']:.6g} ms/op traced; untraced mean {untraced:.6g} ms/op"
        )
    for reason, count in reasons.most_common(5):
        print(f"  FAILED x{count}: {reason}", file=sys.stderr)

    reported = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    OUT.mkdir(exist_ok=True)
    record.update(
        metrics=reported,
        wall=wall,
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
        failures=dict(reasons.most_common(20)),
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        recorder.dump(OUT / f"{args.workload}-spans.jsonl.gz")

    result = {
        "correct": all(p.wrong == 0 for p in phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
