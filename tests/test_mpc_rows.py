"""Every ``mpc.run_experiment`` row against the golden file
``tests/data/mpc_rows.json``.

The file holds one experiment per line for N = 1..9, t in {1, 2, 2N} and
f in {logistic, constant, a Gaussian-tail table, step s0 = 0}: its
descriptor (the table's values included, so the test never recomputes
them), its verdict and its rows.  Verdicts, row names and domain fractions
must match exactly; values must match within 1e-13 relative, the gate for
any change of how the rows are computed.

A change meant to move the rows regenerates the file deliberately, from the
repository root, and says so where the change is recorded:

    PYTHONPATH=src python tests/test_mpc_rows.py --record
"""

import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from nclp import mpc

GOLDEN = Path(__file__).resolve().parent / "data" / "mpc_rows.json"
RTOL = 1e-13


def descriptors():
    for n in range(1, mpc.MAX_WINDOW + 1):
        tail = [math.exp(-((s + n + 2) ** 2) / (4 * n)) for s in range(-n - 1, n + 2)]
        kinds = ({"kind": "logistic"}, {"kind": "constant"}, {"kind": "table", "values": tail}, {"kind": "step", "s0": 0})
        for t in sorted({1, 2, 2 * n}):
            for f in kinds:
                yield {"N": n, "f": f, "t": t}


def record(descriptor: dict) -> dict:
    result = mpc.run_experiment(descriptor)
    return {
        "descriptor": descriptor,
        "implementable": result.implementable,
        "asserted": result.asserted,
        "rows": [[r.experiment, r.defect_name, r.value, r.domain_fraction] for r in result.rows],
    }


#: (N, t, kind of f) of each experiment, in the file's order
CASES = [(d["N"], d["t"], d["f"]["kind"]) for d in descriptors()]


@lru_cache(maxsize=None)
def golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("index", range(len(CASES)), ids=[f"N{n}-t{t}-{kind}" for n, t, kind in CASES])
def test_rows_match_the_golden_file(index):
    expected = golden()[index]
    got = record(expected["descriptor"])
    assert (got["implementable"], got["asserted"]) == (expected["implementable"], expected["asserted"])
    assert [r[:2] for r in got["rows"]] == [r[:2] for r in expected["rows"]]
    for (_, name, value, fraction), (_, _, want, want_fraction) in zip(got["rows"], expected["rows"]):
        assert fraction == want_fraction, name
        assert math.isclose(value, want, rel_tol=RTOL, abs_tol=0.0), (name, value, want)


def test_the_golden_file_covers_every_case():
    assert [(e["descriptor"]["N"], e["descriptor"]["t"], e["descriptor"]["f"]["kind"]) for e in golden()] == CASES


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(record(d)) for d in descriptors()) + "\n]\n")
