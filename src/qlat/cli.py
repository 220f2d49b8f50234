"""Command line front end: campaign runner, family verifier, and audit.

Each command returns its document and failure count; ``main`` writes the
document, to ``--out`` or stdout, and maps the result to the exit code:
0 success (no failing instances), 1 campaign failures, 2 usage or
validation errors, 3 I/O failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .domains import PureStateModel
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    SCHEMA_VERSION,
    run_experiment,
    verify_family,
)
from .lattice import PropertyFamily, _decode_matrix, _document_dim
from .numerics import Ket
from .semantics import completeness_audit, parse_statement

_ENV_SEED = "QLAT_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlat",
        description="Property-lattice verification campaigns, family checks, and audits.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run a configured campaign")
    run.add_argument("--config", help="path to a JSON experiment config")
    run.add_argument("--experiment", choices=EXPERIMENTS)
    run.add_argument("--seed", type=int)
    run.add_argument("--dim", type=int)
    run.add_argument("--instances", type=int)
    run.add_argument("--mc-trials", type=int, dest="mc_trials")
    run.add_argument("--commuting-fraction", type=float, dest="commuting_fraction")
    run.add_argument("--out", help="report output path (defaults to stdout)")
    run.set_defaults(handler=_cmd_run)

    verify = commands.add_parser(
        "verify-family", help="lattice laws and domain equality on a family file"
    )
    verify.add_argument("--family", required=True, help="path to a family JSON document")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--states", type=int, default=20, help="random probe states")
    verify.add_argument("--out", help="report output path (defaults to stdout)")
    verify.set_defaults(handler=_cmd_verify_family)

    audit = commands.add_parser(
        "audit", help="completeness audit of statements against a state and family"
    )
    audit.add_argument("--family", required=True)
    audit.add_argument("--state", required=True, help="path to a state JSON document")
    audit.add_argument("--statements", required=True, help="one prefix statement per line")
    audit.add_argument("--mode", required=True, choices=("standard", "sr"))
    audit.add_argument("--out", help="report output path (defaults to stdout)")
    audit.set_defaults(handler=_cmd_audit)

    return parser


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        document, failures = args.handler(args)
        _emit(document, args.out)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0 if failures == 0 else 1


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise _UsageError(f"{path} is not UTF-8 text: {exc}") from None


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise _UsageError(f"{path} nests JSON arrays or objects too deeply") from None


def _emit(document: dict, out_path: str | None) -> None:
    """Write a command's document to ``out_path``, or to stdout without one."""
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args) -> tuple[dict, int]:
    merged: dict = {}
    if args.config:
        document = _load_json(args.config)
        if not isinstance(document, dict):
            raise _UsageError(f"{args.config} must contain a JSON object")
        merged.update(document)
    env_seed = os.environ.get(_ENV_SEED)
    if env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError:
            raise _UsageError(f"{_ENV_SEED} must be an integer, got {env_seed!r}") from None
    for name in ("experiment", "seed", "dim", "instances", "mc_trials", "commuting_fraction"):
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    try:
        cfg = ExperimentConfig.from_dict(merged)
    except (ValueError, TypeError) as exc:
        raise _UsageError(str(exc)) from None
    report = run_experiment(cfg)
    return report.to_json_dict(), report.fail_count


def _cmd_verify_family(args) -> tuple[dict, int]:
    if not 0 <= args.seed < 2**64:
        raise _UsageError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
    if args.states < 0:
        raise _UsageError(f"--states must be non-negative, got {args.states}")
    family = _load_family(args.family)
    instances = verify_family(family, args.seed, args.states)
    failures = sum(not record.passed for record in instances)
    return {
        "schema_version": SCHEMA_VERSION,
        "family": {"dim": family.dim, "labels": list(family.labels)},
        "instances": [record.to_json_dict() for record in instances],
        "aggregate": {"pass": len(instances) - failures, "fail": failures},
    }, failures


def _cmd_audit(args) -> tuple[dict, int]:
    family = _load_family(args.family)
    state_doc = _load_json(args.state)
    try:
        amplitudes = _decode_matrix([state_doc["amplitudes"]])[0]
        declared_dim = _document_dim(state_doc)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise _UsageError(f"{args.state}: malformed state document: {exc}") from None
    if amplitudes.size != declared_dim:
        raise _UsageError(
            f"state dim {declared_dim} does not match {amplitudes.size} amplitudes"
        )
    if declared_dim != family.dim:
        raise _UsageError(f"state dim {declared_dim} does not match family dim {family.dim}")
    try:
        model = PureStateModel.from_ket(Ket(amplitudes))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    statements = []
    # Text mode has already turned every line ending into "\n".
    for line_number, line in enumerate(_read_text(args.statements).split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            statements.append(parse_statement(text))
        except ValueError as exc:
            raise _UsageError(f"{args.statements}:{line_number}: {exc}") from None
    if not statements:
        raise _UsageError(f"{args.statements} contains no statements")

    try:
        audit = completeness_audit(model, family, statements, args.mode)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return {"schema_version": SCHEMA_VERSION, **audit.to_json_dict()}, 0


def _load_family(path: str) -> PropertyFamily:
    document = _load_json(path)
    try:
        return PropertyFamily.from_json_dict(document)
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}") from None


# Built once, after the handlers it names: parse_args gives each call a fresh
# Namespace and leaves the parser as it was, so every call of main shares it.
_PARSER = build_parser()


if __name__ == "__main__":
    raise SystemExit(main())
