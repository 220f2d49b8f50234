import json
import re

import numpy as np
import pytest

from qlat import (
    ExperimentConfig,
    SeededRng,
    commutes,
    generate_model,
    generate_observable_pair,
    generate_property_family,
    haar_random_ket,
    matrices_close,
    run_experiment,
    verify_family,
)
from qlat.cli import main
from qlat.domains import PureStateModel


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

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_dict({"experiment": "lattice_laws", "bogus": 1})

    def test_from_dict_requires_experiment(self):
        with pytest.raises(ValueError, match="experiment"):
            ExperimentConfig.from_dict({"dim": 3})

    def test_from_dict_parses_tolerances(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "lattice_laws", "tolerances": {"op_tol": 1e-8}}
        )
        assert cfg.tolerances.op_tol == 1e-8


class TestGeneration:
    def test_deterministic_per_seed(self):
        first_obs, first_states = generate_model(3, 4, 0.5, SeededRng(42))
        second_obs, second_states = generate_model(3, 4, 0.5, SeededRng(42))
        for a, b in zip(first_obs, second_obs):
            assert np.array_equal(a.operator.matrix, b.operator.matrix)
            for (va, pa), (vb, pb) in zip(a.spectrum, b.spectrum):
                assert va == vb and np.array_equal(pa.matrix, pb.matrix)
        for a, b in zip(first_states, second_states):
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)

    def test_commuting_fraction_one(self):
        observables, _ = generate_model(4, 10, 1.0, SeededRng(1))
        for i in range(0, 10, 2):
            assert commutes(observables[i], observables[i + 1])

    def test_commuting_fraction_zero(self):
        gen = SeededRng(2).generator()
        for _ in range(100):
            first, second = generate_observable_pair(3, False, gen)
            assert not commutes(first, second)

    def test_property_family_contents(self, pol):
        gen = SeededRng(3).generator()
        model = PureStateModel.from_ket(haar_random_ket(4, gen))
        family = generate_property_family(4, 10, model, gen, pol)
        assert matrices_close(family.get("E1"), model.support)
        assert family.get("E2").rank == 3
        assert len(family) == 12  # ten members plus the adjoined bounds
        assert all(member.dim == 4 for _, member in family.pairs())


class TestRunExperiment:
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


@pytest.fixture()
def family_file(tmp_path, qubit_family):
    path = tmp_path / "family.json"
    path.write_text(qubit_family.dumps())
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

    @pytest.mark.parametrize(
        "flag,value",
        [("--seed", "-1"), ("--seed", str(2**64)), ("--states", "-3")],
    )
    def test_verify_family_rejects_out_of_range_flag(self, family_file, capsys, flag, value):
        code = main(["verify-family", "--family", family_file, flag, value])
        assert code == 2
        assert flag in capsys.readouterr().err

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
