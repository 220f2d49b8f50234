"""End-to-end acceptance runs, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import re
import time

import numpy as np
import sympy

from qlat import (
    And,
    Elementary,
    ExperimentConfig,
    Implies,
    Or,
    Projection,
    SeededRng,
    TolerancePolicy,
    completeness_audit,
    join,
    meet,
    reference_qubit_family,
    reference_qubit_model,
    run_experiment,
    sequential_disagreements,
)
from qlat.cli import main
from qlat.experiments import _observable_pairs
from qlat.measurement import _sandwich_defects, criterion_holds
from qlat.numerics import _ranks
from qlat.semantics import TruthValue

from oracles import atom_labels, format_statement, frobenius_distance, matrices_close, tarskian_truth
from test_semantics import all_statements, random_statement, to_sympy

POL = TolerancePolicy()  # op_tol 1e-9, eig_gap 1e-7, norm_tol 1e-12, prob_tol 1e-9


def verdict_line(number, description, passed):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {description}", flush=True)
    assert passed, f"criterion {number}: {description}"


def test_criterion_1_compatibility_criteria_coincide():
    start = time.perf_counter()
    all_ok = True
    total = 0
    for dim in (2, 3, 4, 5, 6):
        cfg = ExperimentConfig(
            experiment="compatibility_equivalence",
            dim=dim,
            instances=1000,
            mc_trials=16,
            seed=100 + dim,
            commuting_fraction=0.5,
        )
        report = run_experiment(cfg)
        total += len(report.instances)
        all_ok = all_ok and report.fail_count == 0
        all_ok = all_ok and all(
            record.detail["coincide"] for record in report.instances
        )
    elapsed = time.perf_counter() - start
    all_ok = all_ok and total == 5000 and elapsed < 60.0
    verdict_line(
        1,
        f"five compatibility criteria agree on {total} pairs, dims 2-6 "
        f"({elapsed:.1f}s)",
        all_ok,
    )


def test_criterion_2_operational_consistency():
    trials = 10_000
    ok = True
    for dim in (2, 3, 4, 5, 6):
        gen = SeededRng(300 + dim).generator()
        first, second = _observable_pairs(dim, [True], [gen], POL)[0]
        ok = ok and criterion_holds("nondisturbance", _sandwich_defects(first, second)[0], dim, POL)
        counts = sequential_disagreements(first, second, trials, SeededRng(400 + dim), POL)
        ok = ok and counts == (0, 0)

    sigma_z = _observable(np.diag([1.0, -1.0]))
    sigma_x = _observable(np.array([[0, 1], [1, 0]], dtype=complex))
    forward, _ = sequential_disagreements(sigma_z, sigma_x, trials, SeededRng(500), POL)
    frequency = forward / trials
    ok = ok and abs(frequency - 0.5) < 0.02
    verdict_line(
        2,
        f"compatible pairs show 0/{trials} disagreements; "
        f"maximally incompatible qubit pair flips at {frequency:.4f} (analytic 0.5)",
        ok,
    )


def _observable(matrix):
    from qlat import Observable

    return Observable.from_operator(np.asarray(matrix, dtype=complex))


def test_criterion_3_predictable_equals_compatible():
    ok = True
    total = 0
    for dim in (2, 3, 4, 5, 6):
        cfg = ExperimentConfig(
            experiment="predictable_vs_compatible",
            dim=dim,
            instances=100,
            seed=600 + dim,
        )
        report = run_experiment(cfg)
        total += len(report.instances)
        ok = ok and report.fail_count == 0
        for record in report.instances:
            ok = ok and record.detail["predictable"] == record.detail["compatible"]
            ok = ok and record.detail["split_identity_ok"]
            outside = record.detail["min_noncompatible_residual"]
            if outside is not None:
                ok = ok and outside > 10 * POL.op_tol
    verdict_line(
        3,
        f"predictable == compatible with exact split identity on {total} instances",
        ok and total == 500,
    )


def test_criterion_4_objective_equals_predictable():
    ok = True
    total = 0
    for dim in (2, 3, 4, 5, 6):
        cfg = ExperimentConfig(
            experiment="objective_vs_predictable",
            dim=dim,
            instances=100,
            seed=600 + dim,
        )
        report = run_experiment(cfg)
        total += len(report.instances)
        ok = ok and report.fail_count == 0
        for record in report.instances:
            ok = ok and record.detail["objective"] == record.detail["predictable"]
    verdict_line(
        4,
        f"objective == predictable via independent routes on {total} instances",
        ok and total == 500,
    )


def test_criterion_5_lattice_laws_and_nondistributivity():
    ok = True
    for dim in (2, 3, 4, 5):
        cfg = ExperimentConfig(
            experiment="lattice_laws", dim=dim, instances=1000, seed=800 + dim
        )
        report = run_experiment(cfg)
        ok = ok and report.fail_count == 0

    ground = Projection(np.diag([1.0, 0.0]).astype(complex)).matrix
    excited = Projection(np.diag([0.0, 1.0]).astype(complex)).matrix
    superposed = Projection(np.full((2, 2), 0.5, dtype=complex)).matrix
    lhs = meet(superposed, join(ground, excited, POL), POL)
    rhs = join(meet(superposed, ground, POL), meet(superposed, excited, POL), POL)
    witness_strict = (
        matrices_close(lhs, superposed, POL)
        and _ranks(rhs, POL.eig_gap) == 0
        and frobenius_distance(lhs, rhs) > 100 * POL.op_tol
    )
    ok = ok and witness_strict
    verdict_line(
        5,
        "orthomodularity, De Morgan, covering, atomicity clean on 1000 samples "
        "per dim 2-5; distributivity strictly fails on the two-level witness",
        ok,
    )


def test_criterion_6_completeness_audit_reproduction():
    family = reference_qubit_family()
    model = reference_qubit_model()
    statements = [Elementary(label) for label in family.labels]

    standard = completeness_audit(model, family, statements, "standard", POL)
    realist = completeness_audit(model, family, statements, "sr", POL)
    expected = frozenset({"0", "P0", "P1", "I"})
    ok = (
        standard.verdict == "complete"
        and standard.meaningful == standard.predictable == expected
        and len(standard.meaningful) == 4
        and realist.verdict == "incomplete"
        and realist.witness == "Pplus"
    )
    verdict_line(
        6,
        "worked two-level audit: standard mode complete (4 of 5 meaningful and "
        "predictable), realist mode incomplete with witness Pplus",
        ok,
    )


def test_criterion_7_valuations():
    labels = ("a", "b", "c")
    symbols = {label: sympy.Symbol(label) for label in labels}
    ok = True

    for statement in all_statements(("a", "b"), 2):
        oracle = to_sympy(statement, symbols)
        for bits in itertools.product((False, True), repeat=2):
            assignment = dict(zip(("a", "b"), bits))
            expected = bool(oracle.subs({symbols[k]: v for k, v in assignment.items()}))
            ok = ok and tarskian_truth(statement, assignment) == expected

    gen = SeededRng(900).generator()
    for _ in range(500):
        statement = random_statement(labels, 4, gen)
        oracle = to_sympy(statement, symbols)
        for bits in itertools.product((False, True), repeat=3):
            assignment = dict(zip(labels, bits))
            expected = bool(oracle.subs({symbols[k]: v for k, v in assignment.items()}))
            ok = ok and tarskian_truth(statement, assignment) == expected

    family = reference_qubit_family()
    model = reference_qubit_model()
    drawn = (random_statement(("P0", "Pplus"), 3, gen) for _ in range(300))
    compounds = [statement for statement in drawn if atom_labels(statement) == {"P0", "Pplus"}]
    checked = len(compounds)
    records = completeness_audit(model, family, compounds, "sr", POL).records
    ok = ok and not any(record.testable for record in records)
    ok = ok and all(record.verificationist is TruthValue.UNDEFINED for record in records)

    tautology = Implies(Elementary("Pplus"), Or(Elementary("Pplus"), Elementary("P0")))
    audit = completeness_audit(
        model, family, [tautology, And(Elementary("P0"), Elementary("Pplus"))], "standard", POL
    )
    ok = ok and audit.records[0].verificationist is TruthValue.UNDEFINED
    ok = ok and audit.flagged == (format_statement(tautology),)
    verdict_line(
        7,
        f"classical valuation matches the truth-table oracle; {checked} compounds "
        "over non-commuting constituents all undefined, tautology edge case flagged",
        ok and checked > 50,
    )


def test_criterion_8_reproducibility(tmp_path):
    wall_time = re.compile(rb'^ *"wall_time_s": .*\n', re.MULTILINE)
    ok = True
    for experiment, extra in (
        ("compatibility_equivalence", ["--mc-trials", "64"]),
        ("predictable_vs_compatible", []),
        ("lattice_laws", []),
    ):
        codes, reports = [], []
        for run in range(2):
            out = tmp_path / f"{experiment}_{run}.json"
            argv = ["run", "--experiment", experiment, "--dim", "3", "--instances", "40",
                    "--seed", "7", *extra, "--out", str(out)]
            codes.append(main(argv))
            reports.append(wall_time.sub(b"", out.read_bytes()))
        ok = ok and codes == [0, 0] and reports[0] == reports[1]
    verdict_line(8, "re-running a config reproduces the report modulo wall time", ok)
