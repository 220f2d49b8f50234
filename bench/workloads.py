"""The four benchmark workloads: input generation and output checks.

A campaign is a short list of qlat command lines, called in-process through
``qlat.cli.main``. Inputs (configs, or family/state/statement files) are made
from the workload seed with numpy alone, before anything is timed, so they do
not change when qlat's own generators change.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("compat_mc", "compat_exact", "lattice_domains", "audit")

# Typical campaign seconds of the seed code on a 2-core x86-64 host; they
# size a traced run, and a timed run too short for a full set of campaigns.
NOMINAL_CAMPAIGN_S = {"compat_mc": 0.040, "compat_exact": 0.025, "lattice_domains": 0.042,
                      "audit": 0.16}

# Config templates rotated through by the three `qlat run` workloads. Instance
# counts keep campaigns short (15-60 ms on the seed code), so that a timed run
# executes each of its campaigns 15 times or more.
_RUN_TEMPLATES = {
    "compat_mc": [
        {"experiment": "compatibility_equivalence", "dim": dim, "instances": 2,
         "mc_trials": 64, "commuting_fraction": 0.5}
        for dim in (2, 3, 4, 5, 6)
    ],
    # mc_trials=1 on purpose: it isolates the exact criteria from the MC engine.
    "compat_exact": [
        {"experiment": "compatibility_equivalence", "dim": 8, "instances": 4,
         "mc_trials": 1, "commuting_fraction": 0.5}
    ],
    "lattice_domains": [
        {"experiment": experiment, "dim": dim, "instances": instances}
        for dim in (4, 5, 6, 7, 8)
        for experiment, instances in (
            ("lattice_laws", 10),
            ("predictable_vs_compatible", 10),
            ("objective_vs_predictable", 10),
        )
    ],
}

AUDIT_DIMS = (3, 4, 5, 6)
AUDIT_MEMBERS = 10
AUDIT_STATEMENTS = 40
AUDIT_DEPTH = 3
# verify-family checks order and domains on exact test states only.
AUDIT_PROBE_STATES = 0
_CONNECTIVES = ("not", "and", "or", "implies")

_VOLATILE = re.compile(rb'^\s*"(wall_time_s|output_path)": .*\n', re.MULTILINE)


@dataclass(frozen=True)
class Campaign:
    """One closed-loop request: the CLI calls, the files they write, and
    the number of instances (report records, or one audit case) verified."""

    argvs: tuple[tuple[str, ...], ...]
    outputs: tuple[Path, ...]
    instances: int


@dataclass(frozen=True)
class Outcome:
    instances: int
    failed: int
    normalized: bytes  # output bytes without wall time and output path
    report_bytes: int
    mc_trials: int
    mc_floor_candidates: int  # instances whose exact non-disturbance failed
    mc_floor_reached: int  # ... and whose MC trials reached the analytic floor


def campaigns_per_pass(workload: str, seconds: float) -> int:
    """Whole rotation cycles, at least one, that the seed code runs in ``seconds``."""
    cycle = len(AUDIT_DIMS) if workload == "audit" else len(_RUN_TEMPLATES[workload])
    return cycle * max(1, round(seconds / NOMINAL_CAMPAIGN_S[workload] / cycle))


def make_campaigns(workload: str, seed: int, workdir: Path, count: int) -> list[Campaign]:
    """Write the inputs of ``count`` campaigns under ``workdir`` and return them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(seed).generate_state(count, np.uint64)
    if workload == "audit":
        return [_audit_case(index, int(s), workdir) for index, s in enumerate(seeds)]
    templates = _RUN_TEMPLATES[workload]
    report = workdir / "report.json"
    campaigns = []
    for index, campaign_seed in enumerate(seeds):
        config = dict(templates[index % len(templates)], seed=int(campaign_seed))
        path = workdir / f"config-{index:03d}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
        instances = config["instances"] + (config["experiment"] == "lattice_laws")
        argv = ("run", "--config", str(path), "--out", str(report))
        campaigns.append(Campaign((argv,), (report,), instances))
    return campaigns


def _audit_case(index: int, case_seed: int, workdir: Path) -> Campaign:
    """A Haar-random state, a family around it and random statements.

    The family holds the state's support and its orthocomplement, members
    spanned by subsets of a basis containing the state (these commute with
    the support and with each other) and Haar-random oblique subspaces (these
    generically commute with nothing), so statements mix testable compounds,
    evaluated in a Boolean subalgebra, with untestable ones.
    """
    gen = np.random.default_rng(case_seed)
    dim = AUDIT_DIMS[index % len(AUDIT_DIMS)]
    psi = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    padding = gen.standard_normal((dim, dim - 1)) + 1j * gen.standard_normal((dim, dim - 1))
    aligned, _ = np.linalg.qr(np.column_stack([psi, padding]))

    members = [_span(psi[:, None]), _span(aligned[:, 1:])]
    masks = {(True,) + (False,) * (dim - 1), (False,) + (True,) * (dim - 1)}
    while len(members) < AUDIT_MEMBERS:
        if gen.random() < 0.5:
            raw = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
            basis, _ = np.linalg.qr(raw)
            members.append(_span(basis[:, : int(gen.integers(1, dim))]))
        else:
            mask = tuple(bool(bit) for bit in gen.random(dim) < 0.5)
            if mask in masks or not any(mask) or all(mask):
                continue
            masks.add(mask)
            members.append(_span(aligned[:, list(mask)]))
    labels = [f"E{i + 1}" for i in range(len(members))]
    family = {
        "dim": dim,
        "members": [
            {"label": label, "matrix": [[[z.real, z.imag] for z in row] for row in matrix]}
            for label, matrix in zip(labels, members)
        ],
    }
    state = {"dim": dim, "amplitudes": [[z.real, z.imag] for z in psi]}
    labels += ["0", "I"]  # adjoined by the family loader
    statements = [_statement(gen, labels, AUDIT_DEPTH) for _ in range(AUDIT_STATEMENTS)]

    case = workdir / f"case-{index:03d}"
    case.mkdir(exist_ok=True)
    family_path, state_path, statements_path = (
        case / "family.json", case / "state.json", case / "statements.txt"
    )
    family_path.write_text(json.dumps(family), encoding="utf-8")
    state_path.write_text(json.dumps(state), encoding="utf-8")
    statements_path.write_text("\n".join(statements) + "\n", encoding="utf-8")
    outputs = (workdir / "standard.json", workdir / "sr.json", workdir / "verify.json")
    inputs = ("--family", str(family_path), "--state", str(state_path),
              "--statements", str(statements_path))
    argvs = (
        ("audit", *inputs, "--mode", "standard", "--out", str(outputs[0])),
        ("audit", *inputs, "--mode", "sr", "--out", str(outputs[1])),
        ("verify-family", "--family", str(family_path), "--seed", str(index),
         "--states", str(AUDIT_PROBE_STATES), "--out", str(outputs[2])),
    )
    return Campaign(argvs, outputs, 1)


def _span(columns: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of orthonormal columns."""
    return columns @ columns.conj().T


def _statement(gen: np.random.Generator, labels: list[str], depth: int) -> str:
    if depth == 0 or gen.random() < 0.25:
        return labels[int(gen.integers(len(labels)))]
    connective = _CONNECTIVES[int(gen.integers(len(_CONNECTIVES)))]
    if connective == "not":
        return f"(not {_statement(gen, labels, depth - 1)})"
    left = _statement(gen, labels, depth - 1)
    return f"({connective} {left} {_statement(gen, labels, depth - 1)})"


def check(workload: str, campaign: Campaign, codes: list[int | None]) -> Outcome:
    """Check one campaign's exit codes and output files.

    ``codes`` holds each call's exit code, or None where the call raised.
    """
    if any(code != 0 for code in codes):
        return Outcome(campaign.instances, campaign.instances, b"", 0, 0, 0, 0)
    try:
        data = [path.read_bytes() for path in campaign.outputs]
        documents = [json.loads(blob) for blob in data]
    except (OSError, ValueError):
        return Outcome(campaign.instances, campaign.instances, b"", 0, 0, 0, 0)
    try:
        normalized = b"\0".join(_VOLATILE.sub(b"", blob) for blob in data)
        size = sum(len(blob) for blob in data)
        if workload == "audit":
            return Outcome(1, 0 if _audit_ok(*documents) else 1, normalized, size, 0, 0, 0)
        report = documents[0]
        records = report["instances"]
        failed = sum(not _record_ok(record) for record in records)
        failed += max(campaign.instances - len(records), 0)
        if report["aggregate"]["fail"] != 0:
            failed = max(failed, 1)
        details = [record["detail"] for record in records if "mc_floor" in record["detail"]]
        candidates = [d for d in details if not d["nondisturbance"]]
        return Outcome(
            campaign.instances,
            min(failed, campaign.instances),
            normalized,
            size,
            sum(d["mc_trials"] for d in details),
            len(candidates),
            sum(d["mc_trials"] >= d["mc_floor"] for d in candidates),
        )
    except (KeyError, TypeError):
        return Outcome(campaign.instances, campaign.instances, b"", 0, 0, 0, 0)


def _record_ok(record: dict) -> bool:
    if record["pass"] is not True:
        return False
    detail = record["detail"]
    # A pair drawn to commute must be judged commuting, and vice versa.
    if "commuting_intended" in detail:
        return detail["commuting_intended"] == detail["commutation"]
    return True


def _audit_ok(standard: dict, realist: dict, verify: dict) -> bool:
    """Standard mode is complete; predictability and flags do not depend on
    the mode; the realist verdict follows from predictability alone; the
    family passes every verify-family check."""
    texts = {record["text"] for record in realist["statements"]}
    all_predictable = set(realist["predictable"]) == texts
    return (
        standard["verdict"] == "complete"
        and standard["predictable"] == realist["predictable"]
        and standard["flagged"] == realist["flagged"]
        and set(realist["meaningful"]) == texts
        and (realist["verdict"] == "complete") == all_predictable
        and verify["aggregate"]["fail"] == 0
    )
