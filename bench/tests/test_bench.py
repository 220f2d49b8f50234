"""Tests of the benchmark itself. Run from the repository root with
``python3 -m pytest bench/tests``. No test gates on wall time."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(run.__file__).resolve().parent.parent


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_timed_run(workload, tmp_path):
    result = run.run(workload, run.DEFAULT_SEED, 0.2, False, out=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["reproduction_mismatches"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert (tmp_path / f"{workload}-seed{run.DEFAULT_SEED}-trace0.json").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_matches_untraced_and_self_times_fit(workload, tmp_path):
    result = run.run(workload, run.DEFAULT_SEED, 0.2, True, out=tmp_path)
    assert result["correct"] and result["reproduction_mismatches"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    self_times = [span["self_s"] for span in result["spans"].values()]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= result["traced_wall_s"]


def test_wrapper_returns_what_it_wraps_and_reraises_what_it_raises():
    tracer = Tracer()
    token = object()
    error = ValueError("boom")

    def fail():
        raise error

    assert tracer.wrap(lambda *a, **k: (token, a, k), "numerics.echo")(1, b=2) == (
        token, (1,), {"b": 2}
    )
    assert tracer.wrap(lambda: token, "numerics.same")() is token
    with pytest.raises(ValueError) as caught:
        tracer.wrap(fail, "numerics.fail")()
    assert caught.value is error
    assert tracer.current == -1
    assert {name: calls for name, (calls, _, _) in tracer.summary().items()} == {
        "numerics.echo": 1, "numerics.same": 1, "numerics.fail": 1
    }


def test_self_times_are_nonnegative_and_sum_to_the_traced_time():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    def recurse(depth):
        leaf()
        return recurse(depth - 1) if depth else 0

    leaf = tracer.wrap(leaf, "lattice.leaf")
    recurse = tracer.wrap(recurse, "semantics.recurse")
    for _ in range(5):
        recurse(3)
    spans = tracer.summary()
    assert spans["semantics.recurse"][0] == 20 and spans["lattice.leaf"][0] == 20
    assert all(self_s >= 0.0 for _, self_s, _ in spans.values())
    assert sum(self_s for _, self_s, _ in spans.values()) == pytest.approx(tracer.root_seconds())
    # Recursion is counted once in total time: the outermost calls cover it all.
    assert spans["semantics.recurse"][2] == pytest.approx(tracer.root_seconds())
    assert tracer.layer_seconds()["semantics"] == pytest.approx(tracer.root_seconds())


def test_install_rebinds_every_reference_and_uninstall_restores_them():
    import qlat.experiments
    import qlat.measurement
    import qlat.numerics

    modules = [module for name, module in sys.modules.items() if name.startswith("qlat")]
    before = {id(module): dict(vars(module)) for module in modules}
    projection_init = qlat.numerics.Projection.__post_init__
    eigh = np.linalg.eigh
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = qlat.measurement.compatibility_verdict
        assert wrapped is not before[id(qlat.measurement)]["compatibility_verdict"]
        assert qlat.experiments.compatibility_verdict is wrapped
        assert np.linalg.eigh is not eigh
        qlat.numerics.spectral_decompose(np.diag([1.0, 2.0]))
    finally:
        tracer.uninstall()
    assert tracer.eigh_calls == 1
    assert tracer.summary()["numerics.Projection.__post_init__"][0] == 2
    assert np.linalg.eigh is eigh
    assert qlat.numerics.Projection.__post_init__ is projection_init
    for module in modules:
        after = vars(module)
        assert all(after[name] is value for name, value in before[id(module)].items())


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run._tail([float(i) for i in range(400)]) == (95.0, 379.0, 20)
    assert run._tail([float(i) for i in range(1000)]) == (99.0, 989.0, 10)
    assert run._tail([float(i) for i in range(15)]) == (50.0, 7.0, 7)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compat_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
