"""Command-line front end: every library operation is reachable from a
subcommand, with deterministic, machine-readable output.

Conventions enforced here:

* Numeric parameters are exact 'p/q' or integer strings; decimal input is
  rejected with a hint rather than silently converted.
* Identical invocations produce byte-identical output. Timestamps only
  appear with --meta, and always outside the data block.
* Exit codes: 0 success, 1 usage errors (bad flags, unparseable rationals,
  unknown commands), 2 domain errors (inadmissible inputs, range
  violations, malformed data files).
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import re
import sys
from fractions import Fraction

from . import __version__
from .bellsim import (
    CONTEXTS,
    MeasurementSettings,
    build_bell_ensemble,
    chsh_value,
    classical_chsh_max,
    decimal_string,
    tsirelson_gap,
    tsirelson_settings,
    verify_free_choice_on_IU,
    verify_local_causality_on_IU,
)
from .detgen import BitString, generate_bits, seed_from_bits
from .exactnum import (
    DigitString,
    RationalAngle,
    format_rational,
    niven_classify,
    padic_norm,
    padic_valuation,
    parse_rational,
    ultrametric_distance,
)
from .finitestates import (
    ensemble_statistics,
    helix_ensemble,
    make_finite_qubit,
    state_from_dict,
    state_to_dict,
    superpose_classify,
    validate_finite_state,
)
from .ontology import (
    ContextPair,
    SphericalTriangle,
    admissible_contexts,
    context_weight,
    counterfactual_cosine_class,
)
from .oracle import oracle_max_abs_error

USAGE_EXIT = 1
DOMAIN_EXIT = 2

# Longest bit or label string a subcommand renders (`bits --count`, and N
# for `validate --qubit`): output is held in memory, so longer requests
# are refused with exit 2 instead of exhausting it.
MAX_SEQUENCE_LENGTH = 10**7

# Widest integer, in decimal digits, that a subcommand prints or reads from
# a state file. It is CPython's default int-to-str limit, so every output
# that fits it prints as before; a wider integer exits 2 naming this limit.
MAX_INT_DIGITS = 4300
_INT_BOUND = 10**MAX_INT_DIGITS

_BOOLEAN_FLAGS = {"--auto-tsirelson", "--oracle-check", "--periodic", "--qubit", "--meta"}


class UsageError(Exception):
    """Malformed invocation detected past argparse."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let bare negative fractions like -11/16 pass as values, not flags.
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")

    # argparse exits with 2 on usage problems; this tool reserves 2 for
    # domain errors, so remap.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _angle_arg(text: str) -> RationalAngle:
    return RationalAngle(_rational_arg(text))


def _int_list_arg(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated integer list") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} lists no integers")
    return values


def _check_length(flag: str, length: int) -> None:
    if length > MAX_SEQUENCE_LENGTH:
        raise ValueError(f"{flag} {length} is over the length cap {MAX_SEQUENCE_LENGTH}")


def _too_wide(what: str) -> ValueError:
    return ValueError(f"{what} has more than MAX_INT_DIGITS = {MAX_INT_DIGITS} digits")


def _check_digits(what: str, value: int) -> int:
    if abs(value) >= _INT_BOUND:
        raise _too_wide(what)
    return value


def _rational(value: Fraction) -> str:
    """format_rational, refusing a numerator or denominator past MAX_INT_DIGITS."""
    _check_digits("an output integer", value.numerator)
    _check_digits("an output integer", value.denominator)
    return format_rational(value)


def _state_int(text: str) -> int:
    # JSON integers have no leading zeros, so the digit count decides.
    if len(text.lstrip("-")) > MAX_INT_DIGITS:
        raise _too_wide("a state-file integer")
    return int(text)


@functools.cache
def build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls, and
    # building the parser costs milliseconds on every in-process main().
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "plain"), default="json", help="output format"
    )
    common.add_argument("--output", metavar="PATH", help="write output to a file instead of stdout")
    common.add_argument(
        "--meta", action="store_true", help="attach run metadata outside the data block"
    )
    common.add_argument(
        "--config",
        metavar="PATH",
        help="load 'key = value' defaults (same keys as the long flags)",
    )

    parser = _Parser(prog="exactbell", description=__doc__)
    parser.add_argument("--version", action="version", version=f"exactbell {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = commands.add_parser("niven", parents=[common], help="classify cos of a rational turn")
    p.add_argument("turns", type=_angle_arg, help="angle as a fraction of a full turn, e.g. 1/6")

    p = commands.add_parser(
        "counterfactual",
        parents=[common],
        help="classify the counterfactual third-side cosine of a measurement triangle",
    )
    p.add_argument("--cos-a", type=_rational_arg, required=True, help="cosine of the realized arc")
    p.add_argument("--cos-b", type=_rational_arg, required=True, help="cosine of the prepared arc")
    p.add_argument("--gamma", type=_angle_arg, required=True, help="opening angle in turns")
    p.add_argument(
        "--weight",
        type=_rational_arg,
        default=Fraction(1),
        help="base weight to propagate through the context table (default 1)",
    )

    p = commands.add_parser(
        "superpose",
        parents=[common],
        help="classify the normalized sum of two equal-weight states",
    )
    p.add_argument("phi1", type=_angle_arg, help="first azimuth in turns")
    p.add_argument("phi2", type=_angle_arg, help="second azimuth in turns")

    p = commands.add_parser("chsh", parents=[common], help="exact CHSH report for one N")
    p.add_argument("--N", type=int, required=True, help="grid denominator")
    p.add_argument(
        "--auto-tsirelson",
        action="store_true",
        help="derive the four cosines from the best 1/N approximation of sqrt(1/2)",
    )
    for name in ("cos00", "cos01", "cos10", "cos11"):
        p.add_argument(f"--{name}", type=_rational_arg, help=f"target cosine for context {name[3:]}")
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check correlations against the floating-point spin oracle",
    )

    p = commands.add_parser("sweep", parents=[common], help="CHSH reports across several N")
    p.add_argument("--N", type=_int_list_arg, required=True, help="comma-separated N values")
    p.add_argument("--auto-tsirelson", action="store_true")
    for name in ("cos00", "cos01", "cos10", "cos11"):
        p.add_argument(f"--{name}", type=_rational_arg)

    p = commands.add_parser("bits", parents=[common], help="doubling-map bit strings")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-seed", type=_rational_arg, help="rational seed in [0, 1)")
    group.add_argument("--to-seed", type=BitString, help="bit string to read back into a seed")
    p.add_argument("--count", type=int, help="number of bits to generate (with --from-seed)")
    p.add_argument(
        "--periodic",
        action="store_true",
        help="read the string as one endlessly repeating block (with --to-seed)",
    )

    p = commands.add_parser("padic", parents=[common], help="p-adic valuation / digit ultrametric")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--valuation",
        nargs=2,
        metavar=("X", "P"),
        help="p-adic valuation and norm of rational X at prime P",
    )
    group.add_argument(
        "--ultrametric",
        nargs=2,
        metavar=("A", "B"),
        help="distance between two comma-separated digit strings",
    )
    p.add_argument("--base", type=int, help="digit base for --ultrametric")

    p = commands.add_parser("validate", parents=[common], help="admissibility diagnostics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", metavar="PATH", help="JSON state file to validate ('-' = stdin)")
    group.add_argument(
        "--qubit",
        action="store_true",
        help="build a qubit from --cos-theta/--phi/--N and report its ensemble",
    )
    p.add_argument("--cos-theta", type=_rational_arg)
    p.add_argument("--phi", type=_angle_arg, default=RationalAngle(Fraction(0)))
    p.add_argument("--N", type=int)

    return parser


# --- subcommand handlers -------------------------------------------------


def cmd_niven(args: argparse.Namespace) -> dict:
    result = niven_classify(args.turns)
    return {"cos": _rational(result.value) if result.is_rational else "irrational"}


def cmd_counterfactual(args: argparse.Namespace) -> dict:
    triangle = SphericalTriangle(args.cos_a, args.cos_b, args.gamma)
    result = counterfactual_cosine_class(triangle)
    realized = ContextPair(0, 0)
    counterfactual = ContextPair(1, 0)
    admissible = sorted(admissible_contexts(realized))
    return {
        "ontic": result.is_ontic,
        "value": _rational(result.value) if result.is_ontic else "irrational",
        "case": result.case.value,
        "realized_context": _context_str(realized),
        "counterfactual_context": _context_str(counterfactual),
        "admissible_contexts": ";".join(_context_str(c) for c in admissible),
        "counterfactual_weight": _rational(context_weight(args.weight, realized, counterfactual)),
        "complement_weight": _rational(
            context_weight(args.weight, realized, realized.complement())
        ),
    }


def _context_str(context: ContextPair) -> str:
    return f"{context.x},{context.y}"


def cmd_superpose(args: argparse.Namespace) -> dict:
    result = superpose_classify(args.phi1, args.phi2)
    cos_sq = result.cos_sq_half_polar.value
    return {
        "cos_sq_half_polar": _rational(cos_sq) if cos_sq is not None else "irrational",
        "cos_polar": _rational(result.cos_polar) if cos_sq is not None else "irrational",
        "azimuth_turns": _rational(result.azimuth.turns),
        "finite": result.finite,
    }


def _settings_from_args(args: argparse.Namespace, n_value: int) -> MeasurementSettings:
    if args.auto_tsirelson:
        return tsirelson_settings(n_value)
    cosines = (args.cos00, args.cos01, args.cos10, args.cos11)
    if any(value is None for value in cosines):
        raise UsageError("provide --auto-tsirelson or all four of --cos00/--cos01/--cos10/--cos11")
    return MeasurementSettings(*cosines, n_value)


def _chsh_payload(settings: MeasurementSettings) -> dict:
    ensemble = build_bell_ensemble(settings)
    report = chsh_value(ensemble)
    c00, c01, c10, c11 = CONTEXTS
    payload = {
        "N": settings.N,
        "settings": {
            "cos00": _rational(settings.cos00),
            "cos01": _rational(settings.cos01),
            "cos10": _rational(settings.cos10),
            "cos11": _rational(settings.cos11),
        },
        "correlations": {
            "E00": _rational(report.correlations[c00]),
            "E01": _rational(report.correlations[c01]),
            "E10": _rational(report.correlations[c10]),
            "E11": _rational(report.correlations[c11]),
        },
        "marginals_a": {_context_str(c): _rational(report.marginals_a[c]) for c in CONTEXTS},
        "marginals_b": {_context_str(c): _rational(report.marginals_b[c]) for c in CONTEXTS},
        "S": _rational(report.s_value),
        "S_decimal": decimal_string(report.s_value),
        "abs_S": _rational(abs(report.s_value)),
        "classical_bound": _rational(classical_chsh_max()),
        "tsirelson_reference": report.tsirelson_reference,
        "gap_to_tsirelson": tsirelson_gap(report.s_value),
        "violates_classical_bound": abs(report.s_value) > 2,
        "free_choice_on_invariant_set": verify_free_choice_on_IU(ensemble),
        "local_causality_on_invariant_set": verify_local_causality_on_IU(ensemble),
    }
    return payload


def cmd_chsh(args: argparse.Namespace) -> dict:
    settings = _settings_from_args(args, args.N)
    payload = _chsh_payload(settings)
    if args.oracle_check:
        payload["oracle_max_abs_error"] = oracle_max_abs_error(
            settings.cos00, settings.cos01, settings.cos10, settings.cos11
        )
    return payload


def cmd_sweep(args: argparse.Namespace) -> dict:
    rows = []
    for n_value in args.N:
        settings = _settings_from_args(args, n_value)
        report = chsh_value(build_bell_ensemble(settings))
        grid_index = settings.cos00 * n_value
        rows.append(
            {
                "N": n_value,
                "n": int(grid_index),
                "S_num": _check_digits("S_num", report.s_value.numerator),
                "S_den": _check_digits("S_den", report.s_value.denominator),
                "S_decimal": decimal_string(report.s_value),
                "gap_to_tsirelson": tsirelson_gap(report.s_value),
            }
        )
    return {"rows": rows}


def cmd_bits(args: argparse.Namespace) -> dict:
    if args.from_seed is not None:
        if args.count is None:
            raise UsageError("--from-seed needs --count")
        _check_length("--count", args.count)
        result = generate_bits(args.from_seed, args.count)
        return {
            "seed": _rational(args.from_seed),
            "count": args.count,
            "bits": str(result),
            "period": result.period,
        }
    seed = seed_from_bits(args.to_seed, periodic=args.periodic)
    return {
        "bits": str(args.to_seed),
        "reading": "periodic" if args.periodic else "finite",
        "seed": _rational(seed),
    }


def cmd_padic(args: argparse.Namespace) -> dict:
    if args.valuation is not None:
        value_text, prime_text = args.valuation
        try:
            value = parse_rational(value_text)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        try:
            prime = int(prime_text)
        except ValueError as exc:
            raise UsageError(f"{prime_text!r} is not an integer prime") from exc
        valuation = padic_valuation(value, prime)
        return {
            "value": _rational(value),
            "prime": prime,
            "valuation": "inf" if valuation is None else valuation,
            "norm": _rational(padic_norm(value, prime)),
        }
    if args.base is None:
        raise UsageError("--ultrametric needs --base")
    digits_a = _parse_digits(args.ultrametric[0])
    digits_b = _parse_digits(args.ultrametric[1])
    width = max(len(digits_a), len(digits_b))
    digits_a += (0,) * (width - len(digits_a))
    digits_b += (0,) * (width - len(digits_b))
    strings = DigitString(args.base, digits_a), DigitString(args.base, digits_b)
    # The distance is base**-k at the first differing digit k, and base**k is
    # at least 2**((bits of base - 1) * k): refuse that bound past the digit
    # limit before computing the power. Below it the power is cheap.
    k = next((i for i, (x, y) in enumerate(zip(digits_a, digits_b), 1) if x != y), 0)
    if (args.base.bit_length() - 1) * k >= _INT_BOUND.bit_length():
        raise _too_wide("an output integer")
    distance = ultrametric_distance(*strings)
    return {
        "base": args.base,
        "digits_a": ",".join(str(d) for d in digits_a),
        "digits_b": ",".join(str(d) for d in digits_b),
        "distance": _rational(distance),
    }


def _parse_digits(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"{text!r} is not a comma-separated digit list") from exc


def cmd_validate(args: argparse.Namespace) -> dict:
    if args.state is not None:
        import json

        raw = sys.stdin.read() if args.state == "-" else _read_file(args.state)
        try:
            data = json.loads(raw, parse_int=_state_int)
        except json.JSONDecodeError as exc:
            raise ValueError(f"state file is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValueError("state file nests too deeply to parse") from exc
        state = state_from_dict(data)
        # The normalization message prints sum(m); a sum past the digit
        # limit can never equal an N within it.
        _check_digits("the state's sum(m)", sum(amp.m for amp in state.amps))
        violations = validate_finite_state(state)
        return {"valid": not violations, "violations": violations}
    if args.cos_theta is None or args.N is None:
        raise UsageError("--qubit needs --cos-theta and --N (and optionally --phi)")
    _check_length("--N", args.N)
    qubit = make_finite_qubit(args.cos_theta, args.phi, args.N)
    state = qubit.to_state()
    violations = validate_finite_state(state)
    strands = helix_ensemble(qubit)
    fraction_zero, fraction_one = ensemble_statistics(strands)
    return {
        "n1": qubit.n1,
        "N": qubit.N,
        "state": state_to_dict(state),
        "valid": not violations,
        "violations": violations,
        "helix_labels": "0" * strands.n1 + "1" * (strands.N - strands.n1),
        "fraction_zero": _rational(fraction_zero),
        "fraction_one": _rational(fraction_one),
    }


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


# --- config and rendering -------------------------------------------------


def _apply_config(argv: list[str]) -> list[str]:
    """Expand a --config file into flag tokens injected right after the
    subcommand, so explicit command-line flags still win."""
    path = None
    for index, token in enumerate(argv):
        if token == "--config" and index + 1 < len(argv):
            path = argv[index + 1]
            break
        if token.startswith("--config="):
            path = token.partition("=")[2]
            break
    if path is None:
        return argv
    tokens = _config_tokens(path)
    insert_at = next(
        (i for i, token in enumerate(argv) if not token.startswith("-")), None
    )
    if insert_at is None:
        return argv
    return argv[: insert_at + 1] + tokens + argv[insert_at + 1 :]


def _config_tokens(path: str) -> list[str]:
    tokens: list[str] = []
    for line_number, raw in enumerate(_read_file(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_number}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if flag in _BOOLEAN_FLAGS:
            if value.lower() in ("true", "yes", "1"):
                tokens.append(flag)
            elif value.lower() not in ("false", "no", "0"):
                raise UsageError(f"{path}:{line_number}: {flag} takes true/false, got {value!r}")
        else:
            tokens.extend((flag, value))
    return tokens


def _scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _flatten(value: object, prefix: str, out: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            _flatten(inner, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(item, (dict, list, tuple)) for item in value):
            out.append((prefix, ",".join(_scalar(item) for item in value)))
        else:
            for i, item in enumerate(value):
                _flatten(item, f"{prefix}[{i}]", out)
    else:
        out.append((prefix, _scalar(value)))


def _render(payload: dict, fmt: str, meta: dict | None) -> str:
    if fmt == "json":
        import json

        document = {"data": payload, "meta": meta} if meta else payload
        return json.dumps(document, indent=2) + "\n"
    prelude = ""
    if meta:
        prelude = "".join(f"# {key}={value}\n" for key, value in meta.items())
    if fmt == "csv":
        import csv

        buffer = io.StringIO()
        rows = payload.get("rows")
        if isinstance(rows, list) and rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        else:
            flat: list[tuple[str, str]] = []
            _flatten(payload, "", flat)
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow([key for key, _ in flat])
            writer.writerow([value for _, value in flat])
        return prelude + buffer.getvalue()
    flat = []
    _flatten(payload, "", flat)
    body = "".join(f"{key} = {value}\n" for key, value in flat)
    return prelude + body


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
    except (UsageError, ValueError) as exc:
        print(f"exactbell: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Looked up at call time, so the current module binding is called.
        payload = globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"exactbell: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, TypeError) as exc:
        print(f"exactbell: error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    meta = None
    if args.meta:
        from datetime import datetime, timezone

        meta = {
            "tool": f"exactbell {__version__}",
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "argv": " ".join(argv),
        }
    text = _render(payload, args.format, meta)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"exactbell: error: cannot write {args.output}: {exc}", file=sys.stderr)
            return DOMAIN_EXIT
    else:
        sys.stdout.write(text)
    return 0


def run() -> int:
    """Process entry point: run main(), then freeze the objects still alive.

    The interpreter's exit runs full garbage collections over every object
    the imports created, all of which are about to be freed anyway.
    gc.freeze() moves them out of the collector's view; streams are still
    flushed and atexit handlers still run. In-process callers of main()
    keep normal collection.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
