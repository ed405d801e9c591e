"""Spans for the traced benchmark run, recorded from outside the program.

Public functions are wrapped where they are bound: every ``exactbell``
module attribute that refers to the function is swapped for a wrapper, so
``exactbell.cli.build_bell_ensemble`` and ``exactbell.bellsim.build_bell_ensemble``
both record. Nothing under ``src/`` changes, and an untraced run installs
nothing.

Spans are kept in flat arrays (name, parent, operation, start, end) and
written out once, when the run ends. ``time.perf_counter`` reads
CLOCK_MONOTONIC on Linux, so spans recorded in a traced CLI child share the
parent's time axis.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

ROOT_SPAN = "bench.op"

# (module, function): the spans the traced run records.
TRACED_FUNCTIONS = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_chsh"),
    ("cli", "cmd_counterfactual"),
    ("cli", "cmd_bits"),
    ("cli", "cmd_niven"),
    ("cli", "cmd_superpose"),
    ("cli", "cmd_padic"),
    ("cli", "cmd_validate"),
    ("bellsim", "tsirelson_settings"),
    ("bellsim", "build_bell_ensemble"),
    ("bellsim", "chsh_value"),
    ("bellsim", "verify_free_choice_on_IU"),
    ("bellsim", "verify_local_causality_on_IU"),
    ("bellsim", "decimal_string"),
    ("bellsim", "tsirelson_gap"),
    ("ontology", "counterfactual_cosine_class"),
    ("exactnum", "niven_classify"),
    ("exactnum", "padic_valuation"),
    ("finitestates", "make_finite_qubit"),
    ("finitestates", "validate_finite_state"),
    ("finitestates", "helix_ensemble"),
    ("finitestates", "superpose_classify"),
    ("detgen", "generate_bits"),
)
SURD_SQRT = "exactnum.QuadraticSurd.sqrt"
TRIANGLE = "ontology.SphericalTriangle"
CASES = ("pole", "rational-cos-gamma", "rational-cos-sq-gamma", "generic-irrational")
# Spans a traced cold_cli operation adds around the child's own calls.
PROCESS_SPANS = ("process.startup", "process.import", "bench.child")


class Recorder:
    """In-memory spans plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.op_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.op = -1
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, array] = defaultdict(lambda: array("q"))

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name_id: int, start: float, end: float, parent: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.op_ids.append(self.op)
        self.starts.append(start)
        self.ends.append(end)
        return index

    def open(self, name_id: int) -> int:
        index = self.add(name_id, perf_counter(), 0.0, self.current)
        self.current = index
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self.current = self.parents[index]

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i in range(len(self.starts)):
                name = self.names[self.name_ids[i]]
                record = [name, self.starts[i], self.ends[i], self.parents[i], self.op_ids[i]]
                handle.write(json.dumps(record) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread, properly nested calls),
    so the sum of their durations is exactly the part of the parent's
    interval they cover.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own


def _modules():
    return [
        module
        for name, module in sys.modules.items()
        if name == "exactbell" or name.startswith("exactbell.")
    ]


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every traced function at each of its bindings; returns the undo
    list for :func:`uninstall`."""
    undo: list[tuple[object, str, object]] = []
    modules = _modules()
    for module_name, function_name in TRACED_FUNCTIONS:
        original = getattr(sys.modules[f"exactbell.{module_name}"], function_name)
        wrapper = _wrap(recorder, f"{module_name}.{function_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
    exactnum = sys.modules["exactbell.exactnum"]
    surd = exactnum.QuadraticSurd
    undo.append((surd, "sqrt", surd.__dict__["sqrt"]))
    surd.sqrt = classmethod(_wrap(recorder, SURD_SQRT, surd.__dict__["sqrt"].__func__))
    undo.append((surd, "__init__", surd.__init__))
    surd.__init__ = _counting(recorder, "exactnum.QuadraticSurd.constructions", surd.__init__)
    triangle = sys.modules["exactbell.ontology"].SphericalTriangle
    undo.append((triangle, "__init__", triangle.__init__))
    triangle.__init__ = _wrap(recorder, TRIANGLE, triangle.__init__)
    return undo


def uninstall(undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def _counting(recorder: Recorder, name: str, function):
    counts = recorder.counts

    def counted(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)

    return counted


def _observe_case(recorder: Recorder, args, result) -> None:
    recorder.counts[f"ontology.case.{result.case.value}"] += 1
    if result.is_ontic:
        recorder.counts["ontology.ontic"] += 1


def _observe_sqrt(recorder: Recorder, args, result) -> None:
    value = Fraction(args[1])
    recorder.samples["exactnum.operand_bits"].append(
        max(value.numerator.bit_length(), value.denominator.bit_length())
    )
    if result.is_rational:
        recorder.counts["exactnum.QuadraticSurd.sqrt.rational"] += 1


def _observe_ensemble(recorder: Recorder, args, result) -> None:
    recorder.samples["bellsim.N.bits"].append(args[0].N.bit_length())


def _observe_bits(recorder: Recorder, args, result) -> None:
    recorder.counts["detgen.generate_bits.bits"] += len(result)


_OBSERVERS = {
    "ontology.counterfactual_cosine_class": _observe_case,
    SURD_SQRT: _observe_sqrt,
    "bellsim.build_bell_ensemble": _observe_ensemble,
    "detgen.generate_bits": _observe_bits,
}


def _wrap(recorder: Recorder, name: str, function):
    name_id = recorder.name_id(name)
    observe = _OBSERVERS.get(name)

    def traced(*args, **kwargs):
        index = recorder.open(name_id)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close(index)
        if observe is not None:
            observe(recorder, args, result)
        return result

    traced.__wrapped__ = function
    return traced


# --- per-layer metrics ------------------------------------------------------

_FUNCTION_SPANS = [f"{module}.{function}" for module, function in TRACED_FUNCTIONS] + [
    SURD_SQRT,
    TRIANGLE,
]
_SPAN_NAMES = _FUNCTION_SPANS + list(PROCESS_SPANS)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit.

    Calls, counts and self times are per operation, so runs of different
    length and speed compare directly; self times of all spans plus
    ``bench.op.self_ms`` add up to ``bench.op.total_ms``.
    """
    units: dict[str, str] = {}
    for name in _FUNCTION_SPANS:
        units[f"{name}.calls"] = "calls/op"
    for name in _SPAN_NAMES:
        units[f"{name}.self_ms"] = "ms/op"
    units.update(
        {
            "bellsim.N.bits_max": "bits",
            **{f"ontology.case.{case}": "count/op" for case in CASES},
            "ontology.ontic_ratio": "ratio",
            "exactnum.QuadraticSurd.sqrt.rational_ratio": "ratio",
            "exactnum.operand_bits.p50": "bits",
            "exactnum.operand_bits.max": "bits",
            "exactnum.QuadraticSurd.constructions": "count/op",
            "detgen.generate_bits.bits": "bits/op",
            "process.interpreter_ms": "ms",
            "process.import.numpy_ms": "ms",
            "process.import.exactbell_ms": "ms",
            "bench.op.self_ms": "ms/op",
            "bench.op.total_ms": "ms/op",
            "bench.tracing_overhead_ratio": "ratio",
        }
    )
    return units


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-operation layer numbers from one traced phase."""
    own = self_times(recorder.starts, recorder.ends, recorder.parents)
    self_ms: Counter[str] = Counter()
    total_ms: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for name_id, start, end, seconds in zip(recorder.name_ids, recorder.starts, recorder.ends, own):
        name = recorder.names[name_id]
        self_ms[name] += seconds * 1000
        total_ms[name] += (end - start) * 1000
        calls[name] += 1
    ops = calls[ROOT_SPAN] or 1
    metrics: dict[str, float] = {}
    for name in _FUNCTION_SPANS:
        metrics[f"{name}.calls"] = calls[name] / ops
    for name in _SPAN_NAMES:
        metrics[f"{name}.self_ms"] = self_ms[name] / ops
    counts = recorder.counts
    classified = calls["ontology.counterfactual_cosine_class"]
    roots = calls[SURD_SQRT]
    n_bits = recorder.samples["bellsim.N.bits"]
    operand_bits = recorder.samples["exactnum.operand_bits"]
    metrics.update(
        {
            "bellsim.N.bits_max": max(n_bits, default=0),
            **{f"ontology.case.{case}": counts[f"ontology.case.{case}"] / ops for case in CASES},
            "ontology.ontic_ratio": counts["ontology.ontic"] / classified if classified else 0.0,
            "exactnum.QuadraticSurd.sqrt.rational_ratio": (
                counts["exactnum.QuadraticSurd.sqrt.rational"] / roots if roots else 0.0
            ),
            "exactnum.operand_bits.p50": statistics.median(operand_bits) if operand_bits else 0,
            "exactnum.operand_bits.max": max(operand_bits, default=0),
            "exactnum.QuadraticSurd.constructions": (
                counts["exactnum.QuadraticSurd.constructions"] / ops
            ),
            "detgen.generate_bits.bits": counts["detgen.generate_bits.bits"] / ops,
            "bench.op.self_ms": self_ms[ROOT_SPAN] / ops,
            "bench.op.total_ms": total_ms[ROOT_SPAN] / ops,
        }
    )
    return metrics
