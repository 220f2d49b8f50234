"""qlat benchmark: closed-loop campaign workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload compat_mc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
makes a separate run that executes each campaign untraced and then traced,
and reports per-layer metrics from the traced executions. Either way every
output is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
0 only when every output checked out. A results document with provenance is
written under ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported here or in a child, so
# that later parallel work shows against a single-threaded baseline.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import LAYERS, PROJECTION_VALIDATE, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, campaigns_per_pass, check, make_campaigns
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

DEFAULT_SEED = 1
# Held out: a claimed gain is confirmed on this seed, never tuned against.
HELD_OUT_SEED = 20031
DEFAULT_SECONDS = 30
# A timed run repeats a few campaigns for --seconds, in passes over all of
# them, so that each campaign runs many times: 40 (45 for the 15-template
# lattice_domains rotation) is the fewest that leave 10 beyond a p75 tail.
# A run shorter than one pass of them holds fewer.
TIMED_CAMPAIGNS = {"compat_mc": 40, "compat_exact": 40, "lattice_domains": 45, "audit": 40}
# Set-up is sampled before the first pass and then at the first pass
# boundary after each (--seconds / SETUP_SAMPLES) of the run; a run with
# fewer boundaries tops the samples up at its end. Like a campaign, set-up
# reports its fastest sample: the samples fall into a fast and a slow group
# with the host's speed, and the median jumps between them.
SETUP_SAMPLES = 9
# A traced run sizes its campaigns to --seconds / TRACED_SPLIT, since each
# runs once untraced and once traced.
TRACED_SPLIT = 3
MIN_BEYOND_TAIL = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "campaign_p50_ms": "ms",
    "campaign_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Span metrics of the traced run, per campaign: (span name, statistics).
SPAN_METRICS = (
    ("measurement.measure", ("calls", "self_s", "total_s")),
    ("measurement.SeededRng.substream", ("calls", "self_s")),
    ("measurement.haar_random_ket", ("calls", "self_s")),
    ("measurement.sequential_disagreements", ("total_s",)),
    ("measurement.compatibility_verdict", ("self_s", "total_s")),
    ("measurement.nondisturbance_residual", ("self_s",)),
    ("measurement.interposition_residual", ("self_s",)),
    ("measurement.sequence_symmetry_residual", ("self_s",)),
    ("measurement.joint_observable", ("self_s",)),
    ("measurement.mc_trial_floor", ("self_s",)),
    ("measurement.born_probability", ("calls",)),
    ("numerics.spectral_decompose", ("calls", "self_s", "total_s")),
    ("numerics.commutator_norm", ("calls", "self_s")),
    ("lattice.meet", ("calls", "self_s", "total_s")),
    ("lattice.join", ("calls", "self_s", "total_s")),
    ("lattice.orthocomplement", ("calls", "self_s")),
    ("lattice.leq", ("calls", "self_s")),
    ("domains.predictable_domain", ("total_s",)),
    ("domains.compatible_domain", ("total_s",)),
    ("domains.objective_domain", ("total_s",)),
    ("domains.pivot_residual", ("total_s",)),
    ("domains.domain_report", ("total_s",)),
    ("semantics.completeness_audit", ("self_s", "total_s")),
    ("semantics.is_testable", ("calls", "self_s", "total_s")),
    ("semantics.kleene_truth", ("self_s", "total_s")),
    ("semantics.order_isomorphism_check", ("self_s", "total_s")),
    ("semantics.is_classical_tautology", ("total_s",)),
    ("semantics.is_classical_contradiction", ("total_s",)),
    ("experiments.generate_observable_pair", ("total_s",)),
    ("experiments.generate_property_family", ("total_s",)),
    ("experiments.run_experiment", ("self_s",)),
    ("experiments.CampaignReport.dumps", ("total_s",)),
    ("cli.main", ("self_s",)),
)
_SPAN_UNITS = {"calls": "calls/campaign", "self_s": "s/campaign", "total_s": "s/campaign"}
# share.<layer>: self time in the layer over traced wall time;
# inclusive.<layer>: time inside calls into the layer, lower layers included.
SHARES = ("mc", "numerics.Projection") + LAYERS
PER_LAYER = {
    **{f"{name}.{stat}": _SPAN_UNITS[stat] for name, stats in SPAN_METRICS for stat in stats},
    "numerics.Projection.constructions": "calls/campaign",
    "numerics.Projection.validate_s": "s/campaign",
    "numerics.eigh.calls": "calls/campaign",
    "measurement.mc_trials": "trials/campaign",
    "measurement.mc_floor_candidates": "pairs/campaign",
    "measurement.mc_floor_reached_fraction": "ratio",
    "experiments.report_bytes": "B/campaign",
    **{f"share.{layer}": "ratio" for layer in SHARES},
    **{f"inclusive.{layer}": "ratio" for layer in LAYERS},
    "trace.wall_s": "s/campaign",
    "trace.overhead_fraction": "ratio",
    "trace.campaigns": "count",
    "failed_fraction": "ratio",
}
MC_SPANS = ("measurement.measure", "measurement.SeededRng.substream", "measurement.haar_random_ket")

_SETUP_PROBE = r"""
import sys, time
began = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qlat.cli
if not qlat.cli.__file__.startswith(sys.argv[1]):
    raise SystemExit("qlat was imported from outside the checkout")
code = qlat.cli.main(["run", "--experiment", "compatibility_equivalence", "--dim", "2",
                      "--instances", "1", "--mc-trials", "1", "--out", sys.argv[2]])
print(time.perf_counter() - began)
raise SystemExit(code)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qlat" / "__init__.py").is_file():
        print(f"error: no qlat sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {WORKLOADS} or 'all'")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(result)
    return 0 if result["correct"] else 1


def run(workload: str, seed: int, seconds: float, trace: bool, out: Path = OUT) -> dict:
    """One benchmark run; returns the results document (also written to ``out``)."""
    import qlat
    import qlat.cli

    if not Path(qlat.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"qlat was imported from {qlat.__file__}, not from {SRC}")

    workdir = out / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        began = time.perf_counter()
        if trace:
            count = campaigns_per_pass(workload, seconds / TRACED_SPLIT)
        else:
            count = min(TIMED_CAMPAIGNS[workload], campaigns_per_pass(workload, seconds))
        campaigns = make_campaigns(workload, seed, workdir, count)
        inputs_s = time.perf_counter() - began
        # Untimed: warms qlat up and is the reference the first timed campaign
        # must reproduce byte for byte.
        reference = check(workload, campaigns[0], _call(qlat.cli, campaigns[0]))
        if trace:
            document = _traced(qlat.cli, workload, campaigns, reference, out, seed)
        else:
            document = _timed(qlat.cli, workload, campaigns, seconds, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document["inputs_s"] = inputs_s
    document["provenance"] = _provenance(workload, seed, seconds, trace)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return document


def _call(cli, campaign) -> list[int | None]:
    """Run one campaign's CLI calls in order; None marks a call that raised."""
    codes: list[int | None] = []
    for argv in campaign.argvs:
        try:
            codes.append(cli.main(list(argv)))
        except Exception:  # a crashing campaign is a failed one, not a crashed run
            traceback.print_exc(file=sys.stderr)
            codes.append(None)
    return codes


def _timed(cli, workload, campaigns, seconds, reference, workdir) -> dict:
    """Passes over the same campaigns for ``seconds``, closed loop with one
    client: each campaign starts when the previous one returns.

    A campaign's latency is its fastest execution over the passes: on a
    shared host the machine's speed swings by tens of percent from one
    second to the next and drifts over minutes, and the fastest of many
    executions spread over the run is the one least disturbed. Only the CLI
    calls are timed; output checks run between campaigns, and every repeat
    must reproduce its first execution's bytes. The first pass always
    completes; later ones stop at the deadline.
    """
    count = len(campaigns)
    samples: list[list[float]] = [[] for _ in range(count)]
    first: list = []  # each campaign's outcome in the first pass
    attempted, failed = reference.instances, reference.failed
    mismatches = 0
    began = time.perf_counter()
    deadline = began + seconds
    setup = [_setup_sample(workdir)]
    pass_index = 0
    while pass_index == 0 or time.perf_counter() < deadline:
        # Later passes shuffle the order, so that no campaign meets a
        # periodic disturbance at the same phase in every pass.
        order = np.random.default_rng(pass_index).permutation(count) if pass_index else range(count)
        for index in order:
            if pass_index and time.perf_counter() >= deadline:
                break
            campaign = campaigns[index]
            start = time.perf_counter()
            codes = _call(cli, campaign)
            samples[index].append(time.perf_counter() - start)
            outcome = check(workload, campaign, codes)
            if pass_index == 0:
                first.append(outcome)
            expected = reference if index == pass_index == 0 else first[index]
            attempted += outcome.instances
            failed += outcome.failed
            if outcome.normalized != expected.normalized:
                mismatches += 1
                failed += outcome.instances - outcome.failed
        if time.perf_counter() - began >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(_setup_sample(workdir))
        pass_index += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(workdir))

    best = [min(latencies) for latencies in samples]
    percentile, tail, beyond = _tail(best)
    metrics = {
        "setup_s": min(setup),
        "instances_per_s": sum(o.instances for o in first) / sum(best),
        "campaign_p50_ms": statistics.median(best) * 1e3,
        "campaign_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
        "failed_fraction": failed / attempted,
        "reproduction_mismatches": mismatches,
        "campaigns": len(samples),
        "executions": sum(len(latencies) for latencies in samples),
        "passes": pass_index,
        "campaign_tail_percentile": percentile,
        "campaigns_beyond_tail": beyond,
        "setup_samples_s": setup,
        "campaign_ms": [[latency * 1e3 for latency in latencies] for latencies in samples],
    }


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile with
    at least MIN_BEYOND_TAIL samples beyond it, by nearest rank; the median
    when the run is too short for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile * n / 100.0))
        if n - rank >= MIN_BEYOND_TAIL:
            break
    return percentile, ordered[rank - 1], n - rank


def _setup_sample(workdir: Path) -> float:
    """Import qlat plus one small warm-up call, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(workdir / "warmup.json")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def _traced(cli, workload, campaigns, reference, out: Path, seed: int) -> dict:
    """Each campaign runs untraced, then again traced. Pairing the two
    executions of a campaign keeps drift in machine speed out of the
    overhead estimate."""
    tracer = Tracer()
    plain, traced, plain_outcomes, outcomes = [], [], [], []
    for campaign in campaigns:
        for latencies, results, trace in ((plain, plain_outcomes, False), (traced, outcomes, True)):
            if trace:
                tracer.install()
            try:
                start = time.perf_counter()
                codes = _call(cli, campaign)
                latencies.append(time.perf_counter() - start)
            finally:
                tracer.uninstall()
            results.append(check(workload, campaign, codes))
    # The first untraced execution repeats the reference, and every traced
    # execution must reproduce its untraced twin.
    pairs = [(reference, plain_outcomes[0])] + list(zip(plain_outcomes, outcomes))
    mismatched = [b for a, b in pairs if a.normalized != b.normalized]
    every = [reference] + plain_outcomes + outcomes
    attempted = sum(o.instances for o in every)
    failed = sum(o.failed for o in every) + sum(b.instances - b.failed for b in mismatched)

    n = len(traced)
    wall = sum(traced)
    spans = tracer.summary()
    zero = (0, 0.0, 0.0)
    values = {}
    for name, stats in SPAN_METRICS:
        calls, self_s, total_s = spans.get(name, zero)
        picked = {"calls": calls, "self_s": self_s, "total_s": total_s}
        for stat in stats:
            values[f"{name}.{stat}"] = picked[stat] / n
    calls, _, validate_s = spans.get(PROJECTION_VALIDATE, zero)
    values["numerics.Projection.constructions"] = calls / n
    values["numerics.Projection.validate_s"] = validate_s / n
    values["numerics.eigh.calls"] = tracer.eigh_calls / n
    candidates = sum(o.mc_floor_candidates for o in outcomes)
    values["measurement.mc_trials"] = sum(o.mc_trials for o in outcomes) / n
    values["measurement.mc_floor_candidates"] = candidates / n
    values["measurement.mc_floor_reached_fraction"] = (
        sum(o.mc_floor_reached for o in outcomes) / candidates if candidates else 0.0
    )
    values["experiments.report_bytes"] = sum(o.report_bytes for o in outcomes) / n
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, self_s, _) in spans.items():
        layer_self[name.split(".", 1)[0]] += self_s
    values.update({f"share.{layer}": self_s / wall for layer, self_s in layer_self.items()})
    values["share.mc"] = sum(spans.get(name, zero)[2] for name in MC_SPANS) / wall
    values["share.numerics.Projection"] = validate_s / wall
    values.update({f"inclusive.{layer}": s / wall for layer, s in tracer.layer_seconds().items()})
    values["trace.wall_s"] = wall / n
    values["trace.overhead_fraction"] = (wall - sum(plain)) / sum(plain)
    values["trace.campaigns"] = n
    values["failed_fraction"] = failed / attempted

    out.mkdir(parents=True, exist_ok=True)
    tracer.save(out / f"spans-{workload}-seed{seed}.npz")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()},
        "reproduction_mismatches": len(mismatched),
        "untraced_wall_s": sum(plain),
        "traced_wall_s": wall,
        "span_root_s": tracer.root_seconds(),
        "spans": {name: {"calls": c, "self_s": s, "total_s": t} for name, (c, s, t) in spans.items()},
    }


def _print_result(result: dict) -> None:
    for name, metric in result["metrics"].items():
        line = f"{name} {metric['value']:.6g} {metric['unit']}"
        if name == "campaign_tail_ms":
            line += (
                f" (p{result['campaign_tail_percentile']:g} of {result['campaigns']} campaigns,"
                f" {result['campaigns_beyond_tail']} beyond)"
            )
        print(line)
    if "failed_fraction" not in result["metrics"]:
        print(f"failed_fraction {result['failed'] / result['attempted']:.6g} ratio"
              f" ({result['failed']} of {result['attempted']} instances)")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary, sort_keys=True))


def _run_all(workloads, args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit code {done.returncode})")
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def _provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop: one process, one client",
    }


def _git_sha() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_info() -> dict:
    info = {"pinned_env": BLAS_ENV, "name": None, "version": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):  # numpy without the dict mode
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


if __name__ == "__main__":
    sys.exit(main())
