"""Golden report bytes: ``verify-family`` and ``audit`` on two committed
families, and a ``compatibility_equivalence`` campaign at each family's
dimension, must keep their reports byte for byte.

Each directory under ``data/golden`` holds a 12-member family (d = 3 and
d = 8; the loader adjoins 0 and I) drawn by the family generator,
``experiments._property_families``, around a Haar-random state, that state,
30 random depth-3 statements over the family's labels, and the three reports
the CLI wrote for them when the files were committed. ``run-compat.json``
is ``qlat run --experiment compatibility_equivalence --dim d --instances 12
--mc-trials 64 --seed d``;
its Monte Carlo counts depend on the bits of every projection stack.
``run-lattice.json``, ``run-predictable.json`` and ``run-objective.json`` are
the ``lattice_laws``, ``predictable_vs_compatible`` and
``objective_vs_predictable`` campaigns with ``--instances 12 --seed d``; their
residuals come from the lattice operations. The ``run-*`` reports are
compared without their ``wall_time_s`` line. No command builds a
``Projection`` object: that type is ``spectral_decompose``'s return value
alone. The De Morgan gap in
``verify-family.json`` is a rounding-level number, so these bytes belong to
the numpy build that wrote them (numpy 2.4.6 with OpenBLAS 0.3.31, x86-64);
on another build, rewrite them with the code of the last commit that changed
them before comparing a change against them.
"""

import re
from pathlib import Path

import pytest

from qlat import Projection
from qlat.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
SEEDS = {"d3": 3, "d8": 8}
WALL_TIME = re.compile(rb'^ *"wall_time_s": .*\n', re.MULTILINE)


def _commands(case: Path) -> dict[str, list[str]]:
    inputs = [
        "--family", str(case / "family.json"),
        "--state", str(case / "state.json"),
        "--statements", str(case / "statements.txt"),
    ]
    dim, seed = case.name[1:], str(SEEDS[case.name])
    campaign = ["--dim", dim, "--instances", "12", "--seed", seed]
    return {
        "audit-standard.json": ["audit", *inputs, "--mode", "standard"],
        "audit-sr.json": ["audit", *inputs, "--mode", "sr"],
        "verify-family.json": [
            "verify-family", "--family", str(case / "family.json"),
            "--seed", seed, "--states", "4",
        ],
        "run-compat.json": [
            "run", "--experiment", "compatibility_equivalence", *campaign, "--mc-trials", "64",
        ],
        "run-lattice.json": ["run", "--experiment", "lattice_laws", *campaign],
        "run-predictable.json": ["run", "--experiment", "predictable_vs_compatible", *campaign],
        "run-objective.json": ["run", "--experiment", "objective_vs_predictable", *campaign],
    }


@pytest.mark.parametrize("case", sorted(SEEDS))
@pytest.mark.parametrize(
    "report",
    [
        "audit-standard.json", "audit-sr.json", "verify-family.json", "run-compat.json",
        "run-lattice.json", "run-predictable.json", "run-objective.json",
    ],
)
def test_report_bytes_unchanged(case, report, tmp_path, monkeypatch):
    constructions = []
    validate = Projection.__post_init__

    def counted_validate(self):
        constructions.append(self)
        validate(self)

    monkeypatch.setattr(Projection, "__post_init__", counted_validate)
    argv = _commands(GOLDEN / case)[report]
    out = tmp_path / report
    assert main([*argv, "--out", str(out)]) == 0
    written, golden = out.read_bytes(), (GOLDEN / case / report).read_bytes()
    assert WALL_TIME.sub(b"", written) == WALL_TIME.sub(b"", golden)
    assert len(constructions) == 0
