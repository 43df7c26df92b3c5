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

The file's verdicts and defect rows are also checked against an exact
oracle: every stored slot weight is a dyadic rational, so the step's kernel,
its defects and the pair-scan bound are exact ``Fraction`` sums over the
age slots.
"""

import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from nclp import mpc
from nclp.linalg import ABS_FLOOR, DEFAULT_TOL

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


def golden_step(descriptor: dict) -> mpc.WalshOperator:
    """The step that ``run_experiment`` judges for ``descriptor``."""
    shift = mpc.TruncatedKShift(descriptor["N"])
    f = mpc.spectral_function_from_descriptor(descriptor["f"], shift.half_width)
    if f is None:
        return mpc.coarse_grained_wt(shift, descriptor["f"]["s0"], descriptor["t"])
    return mpc.wt_build(shift, f, descriptor["t"])


def exact_rows(step: mpc.WalshOperator) -> dict:
    """The defect rows and the verdict of ``step``, exactly, from its slot
    weights g0, G_0..G_{L-1} (``_step_slots``).

    Its kernel on the 2^L points depends only on the lowest set bit l of y:
    k(0) = 2^-L (g0 + sum_b 2^b G_b), and the 2^(L-1-l) values of y with
    lowest set bit l have k(y) = 2^-L (g0 + sum_{b<l} 2^b G_b - 2^l G_l).
    """
    slots = [Fraction(w) for w in mpc._step_slots(step).tolist()]
    g0, gs = slots[0], slots[1:]
    size = len(gs)
    below = [g0 + sum(2**b * gs[b] for b in range(low)) for low in range(size + 1)]
    # (value, count) for every class of kernel entries
    kernel = [(below[size] / 2**size, 1)]
    kernel += [((below[low] - 2**low * gs[low]) / 2**size, 2 ** (size - 1 - low)) for low in range(size)]
    moduli = sorted((abs(k) for k, count in kernel for _ in range(min(count, 2))), reverse=True)
    top, second = moduli[0], moduli[1]
    mass = abs(sum(k * count for k, count in kernel) - 1)
    defect = max(max(abs(k - k * k) for k, _ in kernel), top * second) + mass
    limit = max(Fraction(DEFAULT_TOL) * max(1, top * top), Fraction(ABS_FLOOR))
    # slot pairs (i, j): the product of masks in slots i != j lies in slot
    # max(i, j), that of two masks in one slot i > 0 in any slot below i
    triples = [(i, j, max(i, j)) for i in range(size + 1) for j in range(size + 1) if i != j or i == 0]
    triples += [(i, i, r) for i in range(1, size + 1) for r in range(i)]
    worst = max(abs(slots[r] - slots[i] * slots[j]) for i, j, r in triples)
    return {
        "stochasticity_positivity_defect": sum(-k * count for k, count in kernel if k < 0),
        "stochasticity_mass_defect": abs(g0 - 1),
        "stochasticity_unitality_defect": abs(g0 - 1),
        "multiplicativity_defect": defect,
        "multiplicativity_lower_bound": worst / 4**size,
        "implementable": defect <= limit,
    }


def test_every_golden_verdict_and_defect_row_matches_the_exact_oracle():
    for expected in golden():
        case = json.dumps(expected["descriptor"])
        exact = exact_rows(golden_step(expected["descriptor"]))
        assert exact["implementable"] == expected["implementable"], case
        assert exact["multiplicativity_defect"] >= exact["multiplicativity_lower_bound"], case
        rows = {name: value for _, name, value, _ in expected["rows"]}
        if not expected["asserted"]:
            # a coarse step reports no bound
            del exact["multiplicativity_lower_bound"]
        for name, value in exact.items():
            gap = abs(Fraction(rows[name]) - value)
            assert gap <= max(RTOL * abs(value), Fraction(ABS_FLOOR)), (case, name, rows[name], float(value))


def test_a_verdict_carries_the_stochasticity_of_its_own_kernel():
    for expected in golden():
        descriptor = expected["descriptor"]
        shift, t = mpc.TruncatedKShift(descriptor["N"]), descriptor["t"]
        f = mpc.spectral_function_from_descriptor(descriptor["f"], shift.half_width)
        if f is None:
            verdict = mpc.coarse_grained_implementability(shift, descriptor["f"]["s0"], t)
        else:
            verdict = mpc.mpc_implementability(shift, f, t)
        own = mpc._stochasticity_of(verdict.step, verdict.convolution.kernel)
        assert (verdict.positivity_defect, verdict.mass_defect) == own, descriptor


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(record(d)) for d in descriptors()) + "\n]\n")
