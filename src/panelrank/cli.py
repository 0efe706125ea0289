"""Command-line interface.

Exit codes: 0 on success, 1 on any input problem (bad arguments, unreadable
files, malformed or invalid judgment data), 2 on an internal invariant
violation or when any round fails to evaluate. A failing round does not stop
the others: the rounds that succeed are still written. Results go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import (
    DomainError,
    LengthMismatchError,
    PanelRankError,
    ParseError,
    SchemaError,
)
from .io import (
    _decode_utf8,
    config_from_dict,
    emit_report,
    fnum,
    parse_judgments,
    plot_data,
    write_json,
    write_trace,
)
from .pipeline import (
    EvaluationConfig,
    RoundFailure,
    compare_configs,
    config_grid,
    evaluate_all,
)

_INPUT_ERRORS = (ParseError, SchemaError, DomainError, LengthMismatchError, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to our input-error code
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: the parser is a web of reference cycles that
    # only the cyclic collector frees, and parse_args keeps no state in it
    parser = _Parser(prog="panelrank", description="Evaluate expert judgment rounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="evaluate rounds and print reports")
    ev.add_argument("file", help="judgment file")
    ev.add_argument("--config", help="JSON file overriding the evaluation configuration")
    ev.add_argument("--round", dest="round_label", help="evaluate only this round")
    ev.add_argument("--format", choices=("human", "json", "csv"), default="human")

    tr = sub.add_parser("trace", help="write the full audit trace as CSV")
    tr.add_argument("file", help="judgment file")
    tr.add_argument("--out", required=True, help="output CSV path")
    tr.add_argument("--config", help="JSON file overriding the evaluation configuration")
    tr.add_argument("--round", dest="round_label", help="trace only this round")

    cc = sub.add_parser("compare-configs", help="rank one file under the canonical config grid")
    cc.add_argument("file", help="judgment file")
    cc.add_argument("--round", dest="round_label", help="compare only this round")
    cc.add_argument("--reference", help="reference ranking, labels joined by '>'")

    pd = sub.add_parser("plot-data", help="write per-alternative gross estimation series")
    pd.add_argument("file", help="judgment file")
    pd.add_argument("--out", required=True, help="output CSV path")
    pd.add_argument("--config", help="JSON file overriding the evaluation configuration")
    return parser


def _load_rounds(path: str, round_label: str | None):
    rounds = parse_judgments(Path(path).read_bytes())
    if round_label is None:
        return rounds
    picked = tuple(r for r in rounds if r.round_label == round_label)
    if not picked:
        known = ", ".join(r.round_label for r in rounds)
        raise SchemaError(f"no round labeled {round_label!r} (rounds: {known})", location=path)
    return picked


def _load_config(path: str | None) -> EvaluationConfig:
    if path is None:
        return EvaluationConfig()
    try:
        doc = json.loads(_decode_utf8(Path(path).read_bytes(), location=path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, location=f"{path}, line {exc.lineno}") from None
    return config_from_dict(doc)


def _print_failure(failure: RoundFailure) -> None:
    print(
        f"error: round {failure.round_label}: {failure.error_type}: {failure.error}",
        file=sys.stderr,
    )


def _evaluate(rounds, config) -> tuple[list, int]:
    """The reports of the rounds that evaluate, and the exit code.

    Each failing round is named on stderr; any failure makes the code 2.
    """
    reports = []
    for result in evaluate_all(rounds, config):
        if isinstance(result, RoundFailure):
            _print_failure(result)
        else:
            reports.append(result)
    return reports, 0 if len(reports) == len(rounds) else 2


def _cmd_evaluate(args) -> int:
    rounds = _load_rounds(args.file, args.round_label)
    reports, code = _evaluate(rounds, _load_config(args.config))
    if args.format == "csv":
        write_trace(reports, sys.stdout)
    elif args.format == "json":
        # a list per file of several rounds, even when some of them failed
        if len(rounds) > 1 or reports:
            write_json(reports if len(rounds) > 1 else reports[0], sys.stdout)
    else:
        for report in reports:
            sys.stdout.write(emit_report(report, "human").decode("utf-8"))
    return code


def _cmd_trace(args) -> int:
    rounds = _load_rounds(args.file, args.round_label)
    reports, code = _evaluate(rounds, _load_config(args.config))
    with open(args.out, "w", encoding="utf-8", newline="") as out:
        write_trace(reports, out)
    print(f"wrote trace for {len(reports)} round(s) to {args.out}", file=sys.stderr)
    return code


def _cmd_compare(args) -> int:
    rounds = _load_rounds(args.file, args.round_label)
    reference = None
    if args.reference:
        reference = tuple(part.strip() for part in args.reference.split(">"))
    code = 0
    for round_input in rounds:
        try:
            outcomes = compare_configs(round_input, config_grid(), reference)
        except Exception as exc:  # noqa: BLE001 - a failing round must not stop the others
            _print_failure(RoundFailure.from_exception(round_input.round_label, exc))
            code = 2
            continue
        print(f"round {round_input.round_label}")
        for outcome in outcomes:
            config = outcome.config
            print(f"  split={config.split_strategy.value} dp_source={config.dp_source.value}")
            print("    ranking: " + " > ".join(outcome.ranking))
            ge = "  ".join(f"{k}={fnum(v)}" for k, v in outcome.gross_estimation.items())
            print(f"    ge: {ge}")
            if outcome.matches_reference is not None:
                print(f"    matches_reference: {'yes' if outcome.matches_reference else 'no'}")
    return code


def _cmd_plot_data(args) -> int:
    rounds = _load_rounds(args.file, None)
    reports, code = _evaluate(rounds, _load_config(args.config))
    Path(args.out).write_bytes(plot_data(reports))
    print(f"wrote plot data for {len(reports)} round(s) to {args.out}", file=sys.stderr)
    return code


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "trace": _cmd_trace,
    "compare-configs": _cmd_compare,
    "plot-data": _cmd_plot_data,
}


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PanelRankError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
