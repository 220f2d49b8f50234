"""Golden report bytes: ``verify-family`` and ``audit`` on two committed
families, and a ``compatibility_equivalence`` campaign at each family's
dimension, must keep their reports byte for byte.

Each directory under ``data/golden`` holds a 12-member family (d = 3 and
d = 8; the loader adjoins 0 and I) drawn by ``generate_property_family``
around a Haar-random state, that state, 30 random depth-3 statements over the
family's labels, and the three reports the CLI wrote for them when the files
were committed. ``run-compat.json`` is ``qlat run --experiment
compatibility_equivalence --dim d --instances 12 --mc-trials 64 --seed d``;
its Monte Carlo counts depend on the bits of every projection stack. It is
compared without its ``wall_time_s`` line. The De Morgan gap in
``verify-family.json`` is a rounding-level number, so these bytes belong to
the numpy build that wrote them (numpy 2.4.6 with OpenBLAS 0.3.31, x86-64);
on another build, rewrite them with the code of the last commit that changed
them before comparing a change against them.
"""

import re
from pathlib import Path

import pytest

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
    return {
        "audit-standard.json": ["audit", *inputs, "--mode", "standard"],
        "audit-sr.json": ["audit", *inputs, "--mode", "sr"],
        "verify-family.json": [
            "verify-family", "--family", str(case / "family.json"),
            "--seed", str(SEEDS[case.name]), "--states", "4",
        ],
        "run-compat.json": [
            "run", "--experiment", "compatibility_equivalence", "--dim", case.name[1:],
            "--instances", "12", "--mc-trials", "64", "--seed", str(SEEDS[case.name]),
        ],
    }


@pytest.mark.parametrize("case", sorted(SEEDS))
@pytest.mark.parametrize(
    "report", ["audit-standard.json", "audit-sr.json", "verify-family.json", "run-compat.json"]
)
def test_report_bytes_unchanged(case, report, tmp_path):
    argv = _commands(GOLDEN / case)[report]
    out = tmp_path / report
    assert main([*argv, "--out", str(out)]) == 0
    written, golden = out.read_bytes(), (GOLDEN / case / report).read_bytes()
    assert WALL_TIME.sub(b"", written) == WALL_TIME.sub(b"", golden)
