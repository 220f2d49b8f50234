import argparse
import hashlib
import json
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest

from qlat import (
    ExperimentConfig,
    Projection,
    PropertyFamily,
    SeededRng,
    TolerancePolicy,
    compatibility_verdict,
    covering_holds,
    haar_random_ket,
    is_atom,
    join,
    leq,
    orthomodular_holds,
    reference_qubit_family,
    run_experiment,
    verify_family,
)
from qlat import experiments, measurement
from qlat.cli import main
from qlat.domains import (
    DomainStacks,
    PureStateModel,
    splits_along_support,
)
from qlat.experiments import _gaussian_matrix, _observable_pairs, _property_families
from qlat.lattice import de_morgan_gaps
from qlat.numerics import _ranks

from oracles import matrices_close


def strip_wall_time(document):
    trimmed = json.loads(json.dumps(document))
    trimmed["aggregate"].pop("wall_time_s")
    return trimmed


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(experiment="lattice_laws")
        assert cfg.dim == 2 and cfg.seed == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("experiment", "unknown_experiment"),
            ("dim", 1),
            ("dim", 9),
            ("instances", 0),
            ("mc_trials", 0),
            ("seed", -1),
            ("commuting_fraction", 1.5),
            ("dim", 3.0),
            ("dim", "3"),
            ("instances", 2.5),
            ("instances", True),
            ("mc_trials", 4.0),
            ("seed", 1.5),
            ("seed", False),
            ("commuting_fraction", "0.5"),
            ("commuting_fraction", True),
        ],
    )
    def test_validation_names_field(self, field, value):
        kwargs = {"experiment": "lattice_laws", field: value}
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = ExperimentConfig(experiment="lattice_laws", dim=np.int64(3), seed=np.uint64(7))
        assert cfg.dim == 3 and cfg.seed == 7
        assert type(cfg.dim) is int and type(cfg.seed) is int

    # Numpy scalars are stored as Python numbers, so the report serializes;
    # an integral commuting_fraction still prints as an integer.
    @pytest.mark.parametrize(
        "field,value,printed",
        [
            ("dim", np.int64(3), '"dim": 3,'),
            ("commuting_fraction", np.float32(0.5), '"commuting_fraction": 0.5,'),
            ("commuting_fraction", 1, '"commuting_fraction": 1,'),
        ],
        ids=["dim-int64", "fraction-float32", "fraction-int"],
    )
    def test_numpy_scalars_serialize(self, field, value, printed):
        cfg = ExperimentConfig(experiment="lattice_laws", instances=2, **{field: value})
        assert printed in json.dumps(run_experiment(cfg).to_json_dict())

    def test_numpy_tolerance_serializes(self):
        policy = TolerancePolicy(op_tol=np.float32(1e-9))
        cfg = ExperimentConfig(experiment="lattice_laws", instances=2, tolerances=policy)
        document = json.loads(json.dumps(run_experiment(cfg).to_json_dict()))
        assert document["config"]["tolerances"]["op_tol"] == float(np.float32(1e-9))

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_dict({"experiment": "lattice_laws", "bogus": 1})

    def test_from_dict_rejects_unknown_tolerance_field(self):
        # It used to reach TolerancePolicy(**tolerances) and raise a TypeError.
        with pytest.raises(ValueError, match="^unknown tolerance field 'bogus'$"):
            ExperimentConfig.from_dict({"experiment": "lattice_laws", "tolerances": {"bogus": 1}})

    def test_from_dict_requires_experiment(self):
        with pytest.raises(ValueError, match="experiment"):
            ExperimentConfig.from_dict({"dim": 3})

    def test_from_dict_parses_tolerances(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "lattice_laws", "tolerances": {"op_tol": 1e-8}}
        )
        assert cfg.tolerances.op_tol == 1e-8


class TestGeneration:
    def test_deterministic_per_seed(self, pol):
        first_gen, second_gen = SeededRng(42).generator(), SeededRng(42).generator()
        for commuting in (True, False, True, False):
            first_pair = _observable_pairs(3, [commuting], [first_gen], pol)[0]
            second_pair = _observable_pairs(3, [commuting], [second_gen], pol)[0]
            for a, b in zip(first_pair, second_pair):
                assert np.array_equal(a.operator, b.operator)
                assert a.eigenvalues == b.eigenvalues
                assert np.array_equal(a.projection_stack, b.projection_stack)

    def test_commuting_fraction_one(self, pol):
        gen = SeededRng(1).generator()
        for _ in range(5):
            first, second = _observable_pairs(4, [True], [gen], pol)[0]
            assert compatibility_verdict(first, second, pol, trials=1).commutation

    def test_commuting_fraction_zero(self, pol):
        gen = SeededRng(2).generator()
        for _ in range(100):
            first, second = _observable_pairs(3, [False], [gen], pol)[0]
            assert not compatibility_verdict(first, second, pol, trials=1).commutation

    def test_property_family_contents(self, pol):
        gen = SeededRng(3).generator()
        model = PureStateModel(haar_random_ket(4, gen))
        family = _property_families(10, [model], [gen], pol)[0]
        assert matrices_close(family.projection_stack[family.index("E1")], model.support)
        assert _ranks(family.projection_stack[family.index("E2")], pol.eig_gap) == 3
        assert len(family) == 12  # ten members plus the adjoined bounds
        assert family.projection_stack.shape == (12, 4, 4)

    # SHA-256 per dim over seeds 0, 1, 2 and n_members 0, 1, 2, 10 of each
    # call's labels, projection_stack bytes and the next gen.random() after
    # it: any change to the draws, their order or the kept bits shows here.
    FAMILY_DIGESTS = {
        2: "4286e070f3a7945145d02312eadb56aac702003325582e244168a06c7660a4c3",
        3: "3fb8bed002f9d34f2d1a4e14844d59c1f9c0d505551a69abc98784f3cb155f46",
        4: "60d8c4c76060005b559eb2153d9a9c2d09e508f1d22df564f33be79b27d128d8",
        5: "05cb98b13a9b66ec983af14988baba1bf47981eba3dd7d6973f33170c687af98",
        6: "40f0e2a1668d85a5ff056a07ff2765924fbd8cc71b048640c30f94ba702919d5",
        7: "60d268dc0455c81d7104c03f4bf6dbec1740eeeee1ef6351dabfb0fb2102e03c",
        8: "046e48628dc839db26d452762b846e69840b6c2afa53c7d64406ab72690781df",
    }

    @pytest.mark.parametrize("dim", sorted(FAMILY_DIGESTS))
    def test_property_family_pinned_bit_for_bit(self, dim, pol):
        digest = hashlib.sha256()
        for seed in (0, 1, 2):
            for n_members in (0, 1, 2, 10):
                gen = SeededRng(seed).generator()
                model = PureStateModel(haar_random_ket(dim, gen))
                family = _property_families(n_members, [model], [gen], pol)[0]
                digest.update(repr(family.labels).encode())
                digest.update(family.projection_stack.tobytes())
                digest.update(np.float64(gen.random()).tobytes())
        assert digest.hexdigest() == self.FAMILY_DIGESTS[dim]

    def test_property_family_opens_with_support_and_complement(self, pol):
        for n_members in (0, 1, 2):
            gen = SeededRng(4).generator()
            model = PureStateModel(haar_random_ket(5, gen))
            family = _property_families(n_members, [model], [gen], pol)[0]
            assert family.labels == ("E1", "E2", "0", "I")
            assert np.array_equal(family.projection_stack[family.index("E1")], model.support)
            assert np.array_equal(family.projection_stack[family.index("E2")], model.complement)

    def test_property_family_rejects_a_one_dimensional_state(self, pol):
        gen = SeededRng(5).generator()
        model = PureStateModel(np.eye(1)[0])
        state = gen.bit_generator.state
        with pytest.raises(ValueError, match="at least 2, got 1$"):
            _property_families(10, [model], [gen], pol)[0]
        assert gen.bit_generator.state == state


class TestRunExperiment:
    def test_lattice_laws_checks_range_kets_against_the_configs_norm_tol(self, monkeypatch):
        seen = []
        exact = experiments._check_unit_rows

        def recording(states, tol):
            seen.append(tol)
            return exact(states, tol)

        monkeypatch.setattr(experiments, "_check_unit_rows", recording)
        policy = TolerancePolicy(norm_tol=1e-10)
        cfg = ExperimentConfig(experiment="lattice_laws", dim=4, instances=3, seed=1, tolerances=policy)
        assert run_experiment(cfg).fail_count == 0
        assert seen == [1e-10]

    @pytest.mark.parametrize(
        "experiment",
        [
            "compatibility_equivalence",
            "predictable_vs_compatible",
            "objective_vs_predictable",
            "lattice_laws",
            "completeness_audit",
        ],
    )
    def test_small_campaigns_pass(self, experiment):
        cfg = ExperimentConfig(
            experiment=experiment, dim=3, instances=10, mc_trials=16, seed=11
        )
        report = run_experiment(cfg)
        assert report.fail_count == 0
        assert report.pass_count == len(report.instances)

    def test_report_schema(self):
        cfg = ExperimentConfig(experiment="lattice_laws", dim=2, instances=3, seed=4)
        document = run_experiment(cfg).to_json_dict()
        assert document["schema_version"] == 2
        assert set(document) == {"schema_version", "config", "instances", "aggregate"}
        assert "output_path" not in document["config"]
        assert set(document["aggregate"]) == {"pass", "fail", "max_residual", "wall_time_s"}
        for record in document["instances"]:
            assert set(record) == {"index", "experiment", "pass", "residual", "detail"}
        indices = [record["index"] for record in document["instances"]]
        assert indices == sorted(indices)

    def test_reproducible_minus_wall_time(self):
        cfg = ExperimentConfig(
            experiment="compatibility_equivalence", dim=3, instances=8, mc_trials=16, seed=21
        )
        first = strip_wall_time(run_experiment(cfg).to_json_dict())
        second = strip_wall_time(run_experiment(cfg).to_json_dict())
        assert first == second


def public_domain_row(experiment, model, family, pol):
    """What ``DomainStacks`` gives a domain campaign's instance, in the
    campaign's order, from the domain sets of a one-model ``DomainStacks``,
    with both verdicts taken from the sets here."""
    domains = DomainStacks([model], family, pol)
    predictable = domains.predictable[0]
    if experiment == "objective_vs_predictable":
        objective = domains.objective[0]
        return [objective == predictable, objective, predictable]
    compatible = domains.compatible[0]
    residuals = domains.pivot_residuals[0]
    split_ok = splits_along_support(residuals, compatible, pol)
    return [predictable == compatible and split_ok, predictable, compatible, residuals, split_ok]


def one_instance_row(experiment, model, family, pol):
    """The (passed, residual, detail) row of one domain-campaign instance,
    from ``public_domain_row``."""
    if experiment == "objective_vs_predictable":
        passed, objective, predictable = public_domain_row(experiment, model, family, pol)
        return passed, 0.0, {"objective": sorted(objective), "predictable": sorted(predictable)}
    passed, predictable, compatible, residuals, split_ok = public_domain_row(
        experiment, model, family, pol
    )
    inside = [value for label, value in residuals.items() if label in compatible]
    outside = [value for label, value in residuals.items() if label not in compatible]
    return passed, max(inside, default=0.0), {
        "predictable": sorted(predictable),
        "compatible": sorted(compatible),
        "split_identity_ok": split_ok,
        "min_noncompatible_residual": min(outside, default=None),
    }


def mismatched_records(cfg):
    """The indices of a domain campaign's records that differ from the row
    that instance's model and family give through a one-model
    ``_property_families`` call and ``one_instance_row``."""
    mismatched = []
    for record in run_experiment(cfg).instances:
        gen = SeededRng(cfg.seed).substream(record.index, 0)
        model = PureStateModel(haar_random_ket(cfg.dim, gen))
        family = _property_families(10, [model], [gen], cfg.tolerances)[0]
        row = one_instance_row(cfg.experiment, model, family, cfg.tolerances)
        if (record.passed, record.residual, record.detail) != row:
            mismatched.append(record.index)
    return mismatched


DOMAIN_CAMPAIGNS = ("predictable_vs_compatible", "objective_vs_predictable")


def compatibility_config(dim, instances, seed, fraction, trials=64):
    return ExperimentConfig(
        experiment="compatibility_equivalence", dim=dim, instances=instances,
        mc_trials=trials, seed=seed, commuting_fraction=fraction,
    )


def mismatched_pairs(cfg):
    """The indices of a compatibility campaign's records that differ from
    the row of the one-pair loop: the commuting draw and
    a one-pair ``_observable_pairs`` call from substream ``(i, 0)``, then
    ``compatibility_verdict`` with ``derive(i, 1)``."""
    base, pol, mismatched = SeededRng(cfg.seed), cfg.tolerances, []
    for record in run_experiment(cfg).instances:
        gen = base.substream(record.index, 0)
        commuting = gen.random() < cfg.commuting_fraction
        first, second = _observable_pairs(cfg.dim, [commuting], [gen], pol)[0]
        verdict = compatibility_verdict(
            first, second, pol, trials=cfg.mc_trials, rng=base.derive(record.index, 1)
        )
        passed = verdict.coincide and verdict.mc_consistent
        detail = {"commuting_intended": bool(commuting), "mc_trials": cfg.mc_trials}
        for name in (
            "commutation", "nondisturbance", "interposition", "sequence_symmetry", "commeasurable",
            "coincide", "mc_disagreements", "mc_floor", "mc_consistent",
        ):
            detail[name] = getattr(verdict, name)
        row = (passed, 0.0 if passed else verdict.max_violation, detail)
        if (record.passed, record.residual, record.detail) != row:
            mismatched.append(record.index)
    return mismatched


class TestStackedCampaigns:
    """The lattice, domain and compatibility campaigns draw every instance
    from its own substream and run the linear algebra of a block of
    instances in stacked calls; neither the block size nor the stacking may
    show in a report."""

    @pytest.mark.parametrize("seed", [1, 20031])
    @pytest.mark.parametrize("experiment", ["lattice_laws", *DOMAIN_CAMPAIGNS])
    def test_report_does_not_depend_on_the_block_size(self, experiment, seed, monkeypatch):
        for dim in range(2, 9):
            for instances in (1, 7):
                cfg = ExperimentConfig(experiment=experiment, dim=dim, instances=instances, seed=seed)
                documents = []
                for block in (experiments._INSTANCE_BLOCK, 1, 3):
                    monkeypatch.setattr(experiments, "_INSTANCE_BLOCK", block)
                    documents.append(json.dumps(strip_wall_time(run_experiment(cfg).to_json_dict())))
                assert documents[1] == documents[0] and documents[2] == documents[0], (dim, instances)

    @pytest.mark.parametrize("seed", [1, 20031])
    @pytest.mark.parametrize("experiment", DOMAIN_CAMPAIGNS)
    def test_records_match_the_one_instance_functions(self, experiment, seed):
        for dim in range(2, 9):
            cfg = ExperimentConfig(experiment=experiment, dim=dim, instances=5, seed=seed)
            assert mismatched_records(cfg) == [], dim

    @pytest.mark.parametrize("seed", [1, 20031])
    @pytest.mark.parametrize("fraction", [0, 0.5, 1])
    def test_compatibility_report_does_not_depend_on_the_block_sizes(self, fraction, seed, monkeypatch):
        # 16 trials fit two pairs in a 37-row Monte Carlo pass; 64 split a
        # pair's trials over two passes.
        for dim in range(2, 9):
            for instances in (1, 7):
                cfg = compatibility_config(dim, instances, seed, fraction, trials=(16, 64)[dim % 2])
                documents = []
                for block, mc_block in ((experiments._INSTANCE_BLOCK, measurement._MC_BLOCK), (1, 4096), (3, 4096), (32, 37)):
                    monkeypatch.setattr(experiments, "_INSTANCE_BLOCK", block)
                    monkeypatch.setattr(measurement, "_MC_BLOCK", mc_block)
                    documents.append(json.dumps(strip_wall_time(run_experiment(cfg).to_json_dict())))
                assert documents[1:] == documents[:1] * 3, (dim, instances)

    @pytest.mark.parametrize("seed", [1, 20031])
    @pytest.mark.parametrize("fraction", [0, 0.5, 1])
    def test_compatibility_records_match_the_one_pair_loop(self, fraction, seed):
        for dim in range(2, 9):
            for instances in (1, 7):
                assert mismatched_pairs(compatibility_config(dim, instances, seed, fraction)) == [], dim

    def test_a_block_that_shifts_its_pairs_fails(self, monkeypatch):
        drawn = experiments._observable_pairs

        def shifted(dim, commuting, gens, pol):
            pairs = drawn(dim, commuting, gens, pol)
            return pairs[1:] + pairs[:1]

        cfg = compatibility_config(4, 5, 1, 0)
        monkeypatch.setattr(experiments, "_observable_pairs", shifted)
        assert mismatched_pairs(cfg) == [0, 1, 2, 3, 4]

    def test_compatibility_campaign_makes_one_eigh_call_per_block(self, monkeypatch):
        # The one-pair loop made two per pair: 128 here.
        eigh, calls = np.linalg.eigh, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        run_experiment(compatibility_config(8, 64, 1, 0, trials=1))
        assert calls == [(64, 8, 8), (64, 8, 8)]

    def test_witness_row_is_built_once_per_policy(self, monkeypatch):
        pol = TolerancePolicy(op_tol=1.25e-9)
        cfg = ExperimentConfig(experiment="lattice_laws", dim=3, instances=2, seed=1, tolerances=pol)
        eigh, calls = np.linalg.eigh, []

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        first = run_experiment(cfg)
        first_calls, witness = len(calls), dict(first.instances[0].detail)
        first.instances[0].detail["gap"] = -1.0
        second = run_experiment(cfg)
        # The witness's meets and joins take 5 of the first campaign's 12
        # eigh calls and none of the second's.
        assert (first_calls, len(calls) - first_calls) == (12, 7)
        assert second.instances[0].detail == witness and witness["gap"] > 0.5

    @pytest.mark.parametrize("seed", [1, 20031])
    def test_lattice_records_match_the_one_instance_loop(self, seed, pol):
        def subspace(dim, rank, gen):
            unitary, _ = np.linalg.qr(_gaussian_matrix(dim, gen))
            columns = unitary[:, :rank]
            return Projection(columns @ columns.conj().T).matrix

        for dim in range(2, 9):
            cfg = ExperimentConfig(experiment="lattice_laws", dim=dim, instances=5, seed=seed)
            for record in run_experiment(cfg).instances[1:]:
                gen = SeededRng(seed).substream(record.index, 0)
                p = subspace(dim, int(gen.integers(1, dim)), gen)
                q = subspace(dim, int(gen.integers(1, dim)), gen)
                atom = PureStateModel(haar_random_ket(dim, gen)).support
                comparable = join(p, subspace(dim, 1, gen), pol)
                # the first eigenvector of p above 1/2
                eigenvalues, eigenvectors = np.linalg.eigh(p)
                witness = PureStateModel(eigenvectors[:, eigenvalues > 0.5][:, 0]).support
                gap = float(de_morgan_gaps(p, q, pol))
                detail = {
                    "orthomodular": bool(orthomodular_holds(p, comparable, pol)),
                    "de_morgan_gap": gap,
                    "covering": bool(covering_holds(atom, p, pol)),
                    "atomicity": bool(is_atom(witness, pol) and leq(witness, p, pol)),
                }
                assert (record.residual, record.detail) == (gap, detail), (dim, record.index)

    @pytest.mark.parametrize("experiment", DOMAIN_CAMPAIGNS)
    def test_a_block_that_pairs_model_i_with_family_j_fails(self, experiment, monkeypatch):
        drawn = experiments._property_families

        def shifted(n_members, models, gens, pol):
            families = drawn(n_members, models, gens, pol)
            return families[1:] + families[:1]

        cfg = ExperimentConfig(experiment=experiment, dim=4, instances=5, seed=1)
        monkeypatch.setattr(experiments, "_property_families", shifted)
        assert mismatched_records(cfg) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("experiment", DOMAIN_CAMPAIGNS)
    def test_families_of_unequal_size_share_a_block(self, experiment, pol):
        gen = SeededRng(9).generator()
        models = [PureStateModel(haar_random_ket(3, gen)) for _ in range(5)]
        axis = np.diag([1.0, 0.0, 0.0]).astype(np.complex128)
        families = [
            _property_families(10, [models[0]], [gen], pol)[0],
            PropertyFamily([("S", models[1].support), ("axis", axis)], pol=pol),
            _property_families(4, [models[2]], [gen], pol)[0],
            PropertyFamily([("S", models[3].support)], pol=pol),
            _property_families(10, [models[4]], [gen], pol)[0],
        ]
        assert [len(family) for family in families] == [12, 4, 6, 3, 12]
        names = {
            "predictable_vs_compatible": (
                "predictable_equals_compatible", "predictable", "compatible", "pivot_residuals", "splits",
            ),
            "objective_vs_predictable": ("objective_equals_predictable", "objective", "predictable"),
        }[experiment]
        block = DomainStacks(models, families, pol)
        for k, (model, family) in enumerate(zip(models, families)):
            row = [getattr(block, name)[k] for name in names]
            assert row == [getattr(DomainStacks([model], [family], pol), name)[0] for name in names]
            assert row == [getattr(DomainStacks([model], family, pol), name)[0] for name in names]
            assert row == public_domain_row(experiment, model, family, pol)


@pytest.fixture()
def family_file(tmp_path, qubit_family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(qubit_family.to_json_dict(), indent=2, sort_keys=True))
    return str(path)


@pytest.fixture()
def state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
    return str(path)


@pytest.fixture()
def statements_file(tmp_path):
    path = tmp_path / "statements.txt"
    path.write_text(
        "# worked statements\n"
        "0\nP0\nP1\nPplus\nI\n"
        "(and P0 Pplus)\n"
        "(implies Pplus (or Pplus P0))\n"
    )
    return str(path)


class TestCli:
    def test_run_with_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "experiment": "lattice_laws",
                    "dim": 2,
                    "instances": 3,
                    "seed": 9,
                }
            )
        )
        code = main(["run", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(captured.out)
        assert document["aggregate"]["fail"] == 0

    def test_flags_override_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "lattice_laws", "dim": 2, "instances": 3}))
        code = main(["run", "--config", str(config), "--dim", "4", "--instances", "2"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["config"]["dim"] == 4
        assert document["config"]["instances"] == 2

    def test_env_seed_overrides_file_but_not_flag(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"experiment": "lattice_laws", "dim": 2, "instances": 2, "seed": 1})
        )
        monkeypatch.setenv("QLAT_SEED", "77")
        code = main(["run", "--config", str(config)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 77
        code = main(["run", "--config", str(config), "--seed", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5

    def test_run_without_experiment_is_usage_error(self, capsys):
        code = main(["run"])
        assert code == 2
        assert "experiment" in capsys.readouterr().err

    def test_invalid_config_field_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "lattice_laws", "dim": 42}))
        code = main(["run", "--config", str(config)])
        assert code == 2
        assert "dim" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [{"instances": 2.5}, {"dim": 3.0}, {"seed": 1.5}, {"instances": True}],
    )
    def test_non_integer_config_value_is_usage_error(self, tmp_path, capsys, fields):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "lattice_laws", **fields}))
        code = main(["run", "--config", str(config)])
        assert code == 2
        assert next(iter(fields)) in capsys.readouterr().err

    # A bool tolerance used to run (and exit 1), a string one to fail with a
    # message that named no field.
    @pytest.mark.parametrize("value", [True, "1e-9"])
    def test_non_real_tolerance_is_usage_error(self, tmp_path, capsys, value):
        config = tmp_path / "config.json"
        tolerances = {"op_tol": value, "eig_gap": 2}
        config.write_text(json.dumps({"experiment": "lattice_laws", "tolerances": tolerances}))
        code = main(["run", "--config", str(config)])
        assert code == 2
        assert "op_tol must be a real number" in capsys.readouterr().err

    # An infinite eig_gap used to run (and exit 1) and to print a report
    # holding `Infinity`, which is not JSON.
    def test_infinite_tolerance_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"experiment": "lattice_laws", "tolerances": {"eig_gap": Infinity}}')
        code = main(["run", "--config", str(config)])
        assert code == 2
        captured = capsys.readouterr()
        assert "eig_gap must be strictly positive and finite" in captured.err
        assert captured.out == ""

    # A tolerance that the numerics cannot meet used to end the run in a
    # traceback and exit 1, the code for campaign failures.
    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"experiment": "lattice_laws", "tolerances": {"norm_tol": 1e-20}},
             "state vector is not normalized"),
            ({"experiment": "compatibility_equivalence", "mc_trials": 16, "tolerances": {"prob_tol": 1e-20}},
             "outcome probabilities sum to"),
        ],
        ids=["norm_tol", "prob_tol"],
    )
    def test_unmeetable_tolerance_is_usage_error(self, tmp_path, capsys, fields, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dim": 3, "instances": 20, **fields}))
        assert main(["run", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    def test_config_output_path_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"experiment": "lattice_laws", "output_path": "r.json"}))
        code = main(["run", "--config", str(config)])
        assert code == 2
        assert "unknown config field 'output_path'" in capsys.readouterr().err

    def test_failing_campaign_exits_one(self, monkeypatch, capsys):
        import qlat.cli as cli_module
        from qlat.experiments import CampaignReport, InstanceRecord

        def fake_run(cfg):
            record = InstanceRecord(
                index=0, experiment=cfg.experiment, passed=False, residual=1.0, detail={}
            )
            return CampaignReport(config=cfg, instances=(record,), wall_time_s=0.0)

        monkeypatch.setattr(cli_module, "run_experiment", fake_run)
        code = main(["run", "--experiment", "lattice_laws", "--dim", "2", "--instances", "1"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["aggregate"]["fail"] == 1

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--experiment",
                "lattice_laws",
                "--dim",
                "2",
                "--instances",
                "2",
                "--out",
                str(tmp_path / "missing" / "report.json"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["run", "verify-family", "audit"])
    def test_out_file_equals_stdout(
        self, command, family_file, state_file, statements_file, tmp_path, capsys
    ):
        argv = {
            "run": ["run", "--experiment", "compatibility_equivalence", "--dim", "3",
                    "--instances", "4", "--mc-trials", "16", "--seed", "3"],
            "verify-family": ["verify-family", "--family", family_file, "--states", "3"],
            "audit": ["audit", "--family", family_file, "--state", state_file,
                      "--statements", statements_file, "--mode", "standard"],
        }[command]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        printed = capsys.readouterr().out.encode()
        written = out.read_bytes()
        if command == "run":
            wall_time = re.compile(rb'^ *"wall_time_s": .*\n', re.MULTILINE)
            printed, written = wall_time.sub(b"", printed), wall_time.sub(b"", written)
        assert written == printed
        assert written.endswith(b"}\n")

    def test_out_over_a_longer_file_keeps_its_inode_and_mode(self, family_file, tmp_path, capsys):
        argv = ["verify-family", "--family", family_file, "--states", "3"]
        assert main(argv) == 0
        printed = capsys.readouterr().out.encode()
        out = tmp_path / "report.json"
        out.write_bytes(b"x" * (3 * len(printed)))
        out.chmod(0o640)
        before = out.stat()
        assert main(argv + ["--out", str(out)]) == 0
        after = out.stat()
        assert out.read_bytes() == printed  # no stale tail of the longer file
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
        link = tmp_path / "link.json"
        link.symlink_to(out)
        out.write_bytes(b"y" * (2 * len(printed)))
        assert main(argv + ["--out", str(link)]) == 0
        assert link.is_symlink() and out.read_bytes() == printed
        fresh, reference = tmp_path / "fresh.json", tmp_path / "reference.json"
        assert main(argv + ["--out", str(fresh)]) == 0
        with open(reference, "w", encoding="utf-8"):
            pass
        assert fresh.read_bytes() == printed
        assert stat.S_IMODE(fresh.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    def test_out_to_devnull(self, family_file, capsys):
        assert main(["verify-family", "--family", family_file, "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "flag,value",
        [("--seed", "-1"), ("--seed", str(2**64)), ("--states", "-3")],
    )
    def test_verify_family_rejects_out_of_range_flag(self, family_file, capsys, flag, value):
        code = main(["verify-family", "--family", family_file, flag, value])
        assert code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix,message",
        [
            ([[[2, 0], [0, 0]], [[0, 0], [0, 0]]], "member 'bad' is not idempotent"),
            ([[[1, 0], [0.5, 0]], [[0, 0], [0, 0]]], "member 'bad' is not Hermitian"),
        ],
    )
    def test_verify_family_rejects_non_projection_member(self, tmp_path, capsys, matrix, message):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 2, "members": [{"label": "bad", "matrix": matrix}]}))
        code = main(["verify-family", "--family", str(path)])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", [[1.0, 0.0, 7.0], [True, False], [1.0], [1.0, "0"], [None, 0.0], "10", 1.0]
    )
    def test_verify_family_rejects_a_malformed_entry(self, tmp_path, capsys, entry):
        # [1.0, 0.0, 7.0] and [true, false] were once read as 1+0j (exit 0).
        matrix = [[entry, [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 2, "members": [{"label": "P0", "matrix": matrix}]}))
        assert main(["verify-family", "--family", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: entries must be [re, im] pairs of numbers, got {entry!r}" in err

    # [0.0, 10**400]: json reads the integer exactly; complex() cannot hold it.
    @pytest.mark.parametrize("entry", [[True, False], [1.0, 0.0, 7.0], [1.0], "10", [0.0, 10**400]])
    def test_audit_rejects_a_malformed_amplitude(
        self, family_file, statements_file, tmp_path, capsys, entry
    ):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"dim": 2, "amplitudes": [entry, [0.0, 0.0]]}))
        argv = ["audit", "--family", family_file, "--state", str(state),
                "--statements", statements_file, "--mode", "standard"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {state}: malformed state document: entries must be [re, im]" in err

    def test_verify_family_rejects_an_entry_beyond_the_float_range(self, tmp_path, capsys):
        # json reads a 401-digit integer exactly; complex() cannot hold it.
        matrix = [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"dim": 2, "members": [{"label": "P0", "matrix": matrix}]}))
        assert main(["verify-family", "--family", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: entries must be [re, im] pairs within the float range" in err

    def test_entries_keep_their_bits(self):
        # complex(re, im), not re + 1j * im, which gives nan + inf j for
        # (x, inf) and turns the sign of a zero real part.
        from qlat.lattice import _decode_complex

        for re_part, im_part in ((1.0, float("inf")), (-0.0, 1.0), (0.5, -0.0)):
            value = _decode_complex([re_part, im_part])
            assert np.copysign(1.0, value.real) == np.copysign(1.0, re_part)
            assert np.copysign(1.0, value.imag) == np.copysign(1.0, im_part)
            assert (value.real, value.imag) == (re_part, im_part)

    def test_verify_family_rejects_nan_member(self, tmp_path, capsys):
        # Python's json reads NaN; the member must fail validation, naming
        # the file, instead of reaching the rank rule.
        path = tmp_path / "family.json"
        path.write_text('{"dim": 2, "members": [{"label": "bad", "matrix": '
                        '[[[NaN, 0], [0, 0]], [[0, 0], [0, 0]]]}]}')
        code = main(["verify-family", "--family", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {path}: member 'bad' is not Hermitian: max asymmetry nan" in err

    def test_verify_family(self, family_file, capsys):
        code = main(["verify-family", "--family", family_file, "--states", "10"])
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(captured.out)
        assert document["aggregate"]["fail"] == 0
        checks = [record["detail"]["check"] for record in document["instances"]]
        assert checks == ["order_isomorphism", "lattice_laws", "domain_equalities"]

    def test_verify_family_document_matches_library(self, family_file, qubit_family, capsys):
        code = main(["verify-family", "--family", family_file, "--seed", "4", "--states", "3"])
        document = json.loads(capsys.readouterr().out)
        records = verify_family(qubit_family, 4, 3)
        assert code == 0
        assert document["instances"] == [record.to_json_dict() for record in records]
        assert [record.experiment for record in records] == ["verify_family"] * 3
        assert [record.index for record in records] == [0, 1, 2]
        assert document["family"] == {"dim": 2, "labels": list(qubit_family.labels)}

    @staticmethod
    def eigh_shapes(monkeypatch):
        """The shape of every numpy.linalg.eigh argument from now on."""
        eigh, shapes = np.linalg.eigh, []

        def counted(*args, **kwargs):
            shapes.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return shapes

    def test_golden_verify_family_makes_eight_eigh_calls(self, monkeypatch, tmp_path):
        # One per atom probe made it nine: the family has two atoms.
        shapes = self.eigh_shapes(monkeypatch)
        family = Path(__file__).parent / "data" / "golden" / "d8" / "family.json"
        out = tmp_path / "verify.json"
        argv = ["verify-family", "--family", str(family), "--seed", "8", "--states", "4", "--out", str(out)]
        assert main(argv) == 0
        assert len(shapes) == 8

    def test_atom_probes_take_one_eigh_call(self, qubit_family, monkeypatch):
        # P0, P1 and Pplus: three atoms, one (3, 2, 2) call, no single matrix.
        shapes = self.eigh_shapes(monkeypatch)
        records = verify_family(qubit_family, 0, 0)
        assert records[2].detail == {"check": "domain_equalities", "states": 3}
        assert shapes.count((3, 2, 2)) == 1 and all(len(shape) > 2 for shape in shapes)

    def test_verify_family_without_atoms_or_states(self, tmp_path, capsys):
        # The probe stack is empty: no Haar state and no rank-one member.
        members = [("A", np.diag([1.0, 1.0, 0.0, 0.0])), ("B", np.diag([0.0, 1.0, 1.0, 0.0]))]
        path = tmp_path / "family.json"
        path.write_text(json.dumps(PropertyFamily(members).to_json_dict()))
        assert main(["verify-family", "--family", str(path), "--states", "0"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["aggregate"] == {"pass": 3, "fail": 0}
        assert document["instances"][2]["detail"] == {"check": "domain_equalities", "states": 0}

    def test_verify_family_rejects_overlapping_certainty(self):
        # Loose enough that Pplus lies both above and below the support of
        # the first probe, P0's state.
        pol = TolerancePolicy(op_tol=0.75, eig_gap=0.8)
        message = "certainly true and certainly false overlap on ['Pplus']"
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_family(reference_qubit_family(pol), 0, 0, pol)

    def test_audit_standard_and_sr(self, family_file, state_file, statements_file, capsys):
        code = main(
            [
                "audit",
                "--family",
                family_file,
                "--state",
                state_file,
                "--statements",
                statements_file,
                "--mode",
                "standard",
            ]
        )
        assert code == 0
        standard = json.loads(capsys.readouterr().out)
        assert standard["verdict"] == "complete"
        assert standard["flagged"] == ["(implies Pplus (or Pplus P0))"]

        code = main(
            [
                "audit",
                "--family",
                family_file,
                "--state",
                state_file,
                "--statements",
                statements_file,
                "--mode",
                "sr",
            ]
        )
        assert code == 0
        realist = json.loads(capsys.readouterr().out)
        assert realist["verdict"] == "incomplete"
        assert realist["witness"] == "Pplus"

    def test_audit_rejects_bad_statement(self, family_file, state_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("(and P0\n")
        code = main(
            [
                "audit",
                "--family",
                family_file,
                "--state",
                state_file,
                "--statements",
                str(bad),
                "--mode",
                "standard",
            ]
        )
        assert code == 2
        assert "bad.txt:1" in capsys.readouterr().err

    def test_audit_rejects_mismatched_state(self, family_file, tmp_path, capsys):
        state = tmp_path / "state3.json"
        state.write_text(
            json.dumps({"dim": 3, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
        )
        statements = tmp_path / "s.txt"
        statements.write_text("I\n")
        code = main(
            [
                "audit",
                "--family",
                family_file,
                "--state",
                str(state),
                "--statements",
                str(statements),
                "--mode",
                "standard",
            ]
        )
        assert code == 2
        assert "dim" in capsys.readouterr().err

    def test_audit_accepts_the_deepest_nesting(self, family_file, state_file, tmp_path, capsys):
        deep = tmp_path / "deep.txt"
        deep.write_text("(not " * 256 + "P0" + ")" * 256 + "\n")
        argv = ["audit", "--family", family_file, "--state", state_file,
                "--statements", str(deep), "--mode", "standard"]
        assert main(argv) == 0
        [row] = json.loads(capsys.readouterr().out)["statements"]
        assert (row["testable"], row["verificationist"]) == (True, "true")

    @pytest.mark.parametrize("depth", [257, 2000])
    def test_audit_rejects_deeper_nesting(self, family_file, state_file, tmp_path, capsys, depth):
        # 2000 levels once overflowed the parser's recursion (exit 1).
        deep = tmp_path / "deep.txt"
        deep.write_text("P0\n" + "(not " * depth + "P0" + ")" * depth + "\n")
        argv = ["audit", "--family", family_file, "--state", state_file,
                "--statements", str(deep), "--mode", "standard"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{deep}:2: statement nests connectives deeper than 256 levels" in err

    # 100,000 open brackets overflowed json's recursion (exit 1, a traceback).
    @pytest.mark.parametrize("flag", ["config", "family", "state"])
    def test_deeply_nested_json_is_usage_error(
        self, family_file, state_file, statements_file, tmp_path, capsys, flag
    ):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = {
            "config": ["run", "--config", str(deep)],
            "family": ["verify-family", "--family", str(deep)],
            "state": ["audit", "--family", family_file, "--state", str(deep),
                      "--statements", statements_file, "--mode", "standard"],
        }[flag]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {deep} nests JSON arrays or objects too deeply\n"
        assert captured.out == ""

    def test_run_rejects_a_non_utf8_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"experiment": "lattice_laws"\xff}')
        assert main(["run", "--config", str(config)]) == 2
        assert f"error: {config} is not UTF-8 text" in capsys.readouterr().err

    def test_verify_family_rejects_a_non_utf8_family(self, qubit_family, tmp_path, capsys):
        family = tmp_path / "family.json"
        family.write_bytes(json.dumps(qubit_family.to_json_dict()).encode() + b"\xff")
        assert main(["verify-family", "--family", str(family)]) == 2
        assert f"error: {family} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["family", "state", "statements"])
    def test_audit_rejects_non_utf8_inputs(
        self, family_file, state_file, statements_file, tmp_path, capsys, which
    ):
        inputs = {"family": family_file, "state": state_file, "statements": statements_file}
        bad = tmp_path / f"bad-{which}"
        bad.write_bytes(open(inputs[which], "rb").read() + b"\xff\n")
        inputs[which] = str(bad)
        argv = ["audit", "--mode", "sr"]
        for name, path in inputs.items():
            argv += [f"--{name}", path]
        assert main(argv) == 2
        assert f"error: {bad} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [2.9, "2", True], ids=["float", "str", "bool"])
    def test_family_and_state_documents_need_an_integer_dim(
        self, qubit_family, family_file, statements_file, tmp_path, capsys, dim
    ):
        # int() would read 2.9 and "2" as 2 and pass, and True as 1.
        family = tmp_path / "family-dim.json"
        family.write_text(json.dumps(dict(qubit_family.to_json_dict(), dim=dim)))
        assert main(["verify-family", "--family", str(family)]) == 2
        assert f"error: {family}: dim must be an integer, got {dim!r}" in capsys.readouterr().err

        state = tmp_path / "state-dim.json"
        state.write_text(json.dumps({"dim": dim, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        argv = ["audit", "--family", family_file, "--state", str(state),
                "--statements", statements_file, "--mode", "standard"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"malformed state document: dim must be an integer, got {dim!r}" in err

    # Rejected before any (dim, dim) matrix is built, so a huge dim allocates nothing.
    @pytest.mark.parametrize("dim", [-1, 0, 1, 9, 10**30])
    def test_family_and_state_documents_keep_dim_in_range(
        self, family_file, statements_file, tmp_path, capsys, dim
    ):
        family = tmp_path / "family-dim.json"
        family.write_text(json.dumps({"dim": dim, "members": []}))
        assert main(["verify-family", "--family", str(family)]) == 2
        assert f"error: {family}: dim must be in [2, 8], got {dim}\n" in capsys.readouterr().err

        state = tmp_path / "state-dim.json"
        state.write_text(json.dumps({"dim": dim, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        argv = ["audit", "--family", family_file, "--state", str(state),
                "--statements", statements_file, "--mode", "standard"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {state}: malformed state document: dim must be in [2, 8], got {dim}\n" in err

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"dim": 3, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "state dim 3 does not match 2 amplitudes"),
            ({"dim": 3, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
             "state dim 3 does not match family dim 2"),
            ({"dim": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]},
             "state vector is not normalized: squared norm is 2.0"),
        ],
        ids=["amplitudes", "family", "norm"],
    )
    def test_audit_state_errors_name_the_file(
        self, family_file, statements_file, tmp_path, capsys, document, message
    ):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(document))
        argv = ["audit", "--family", family_file, "--state", str(state),
                "--statements", statements_file, "--mode", "standard"]
        assert main(argv) == 2
        assert f"error: {state}: {message}\n" in capsys.readouterr().err


class TestSharedParser:
    """``main`` parses every call with the one parser built at import."""

    RUN = ["run", "--experiment", "lattice_laws", "--dim", "2", "--instances", "2"]

    def test_no_call_builds_a_parser(self, family_file, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("main built an ArgumentParser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert main(self.RUN) == 0
        assert main(["verify-family", "--family", family_file, "--states", "2"]) == 0

    def test_no_call_carries_state_into_the_next(
        self, family_file, state_file, statements_file, monkeypatch, capsys
    ):
        monkeypatch.delenv("QLAT_SEED", raising=False)
        assert main(self.RUN + ["--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert json.loads(first)["config"]["seed"] == 5

        # argparse rejects it: --family is required.
        with pytest.raises(SystemExit) as rejected:
            main(["audit", "--state", state_file, "--statements", statements_file,
                  "--mode", "sr"])
        assert rejected.value.code == 2
        # A usage error raised by the handler.
        assert main(["verify-family", "--family", family_file, "--states", "-1"]) == 2
        capsys.readouterr()

        assert main(self.RUN) == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 0
        assert main(self.RUN + ["--seed", "5"]) == 0
        again = capsys.readouterr().out
        wall = re.compile(r'^\s*"wall_time_s": .*\n', re.MULTILINE)
        assert wall.sub("", again) == wall.sub("", first)


def test_readme_quick_start_runs(capsys):
    # Every name the README's library example uses must still exist.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert "incomplete" in capsys.readouterr().out
