"""Command line surface: schemas, exit codes, and byte-identical reports."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nclp import superop
from nclp.cli import COMMANDS, main
from nclp.jsonio import MAX_COUNT, SchemaError, count_value, dumps, integer_value, matrix_to_json, real_value, superop_to_json
from nclp.sampling import random_density, random_unitary, rng_from
from nclp.spaces import QuantumMeasure
from nclp.superop import SuperOperator

#: environment for subprocesses: they import nclp from the source tree
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def strict_loads(text: str):
    """A report parsed as strict JSON: NaN, Infinity and -Infinity are refused."""
    return json.loads(text, parse_constant=_refuse_constant)


def run_cli(capsys, *argv):
    """Run the CLI in process; every JSON report it prints must be strict JSON."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out.startswith("{"):
        strict_loads(captured.out)
    return code, captured.out, captured.err


def payload(obj) -> str:
    return json.dumps(obj)


def test_norm_schatten(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--input", payload({"A": {"matrix": [[3, 0], [0, 4]]}, "p": 1})
    )
    assert code == 0
    report = strict_loads(out)
    assert abs(report["norm"] - 7.0) < 1e-12
    assert report["kind"] == "schatten"


def test_norm_weighted(capsys):
    obj = {
        "A": {"matrix": [[1, 0], [0, 0]]},
        "p": 1,
        "rho": {"matrix": [[2 / 3, 0], [0, 1 / 3]]},
    }
    code, out, _ = run_cli(capsys, "norm", "--input", payload(obj))
    assert code == 0
    assert abs(strict_loads(out)["norm"] - 2 / 3) < 1e-12


def test_norm_rejects_small_p(capsys):
    code, _, err = run_cli(
        capsys, "norm", "--input", payload({"A": {"matrix": [[1]]}, "p": 0.5})
    )
    assert code == 2
    assert "p must be >= 1" in err


def test_missing_field_names_the_culprit(capsys):
    code, _, err = run_cli(capsys, "norm", "--input", payload({"p": 2}))
    assert code == 2
    assert "'A'" in err


def test_inner_fixture(capsys):
    obj = {
        "A": {"matrix": [[0, 1], [0, 0]]},
        "B": {"matrix": [[0, 1], [0, 0]]},
        "rho": {"matrix": [[0.5, 0], [0, 0.5]]},
    }
    code, out, _ = run_cli(capsys, "inner", "--input", payload(obj))
    assert code == 0
    assert np.allclose(strict_loads(out)["inner"], [0.5, 0.0])


def test_decompose_conjugation(capsys):
    u0 = random_unitary(2, rng_from(0))
    obj = {"T": superop_to_json(SuperOperator.ad_unitary(u0)), "p": 2}
    code, out, _ = run_cli(capsys, "decompose", "--input", payload(obj))
    assert code == 0
    report = strict_loads(out)
    assert report["kind"] == "star_isomorphism"
    assert abs(report["lambda"] - 1.0) < 1e-9


def test_decompose_negative_verdict(capsys):
    t = SuperOperator.identity(2).scaled(2.0)
    code, out, _ = run_cli(capsys, "decompose", "--input", payload({"T": superop_to_json(t), "p": 2}))
    assert code == 1
    assert not strict_loads(out)["decomposable"]


def test_decompose_ignores_seed_and_trials(capsys):
    u0 = random_unitary(2, rng_from(2))
    for t in (SuperOperator.ad_unitary(u0), SuperOperator.ad_unitary(u0).scaled(2.0)):
        outputs = set()
        for flags in ((), ("--seed", "5"), ("--trials", "3"), ("--seed", "9", "--trials", "200")):
            code, out, _ = run_cli(capsys, "decompose", "--input", payload({"T": superop_to_json(t), "p": 3}), *flags)
            outputs.add((code, out))
        assert len(outputs) == 1


def test_jordan_unclassifiable_map_is_a_negative_verdict(capsys):
    # fixes 1, sigma_x and sigma_z and sends sigma_y to cos(0.5) sigma_y +
    # sin(0.5) sigma_x: the square test passes, the classification does not
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    sz = np.diag([1.0, -1.0])
    paulis = [np.eye(2), sx, sy, sz]
    images = [np.eye(2), sx, np.cos(0.5) * sy + np.sin(0.5) * sx, sz]
    # column vec(X) of the map is sum_k vec(image_k) <sigma_k, X> / 2
    matrix = sum(np.outer(im.reshape(-1, order="F"), s.conj().reshape(-1, order="F")) for im, s in zip(images, paulis)) / 2
    code, out, _ = run_cli(capsys, "jordan", "--input", payload({"J": superop_to_json(SuperOperator(2, matrix))}))
    assert code == 1
    report = strict_loads(out)
    assert report["is_jordan"] and "rank one" in report["error"]
    assert "kind" not in report


def test_jordan_classify_transpose(capsys):
    t = SuperOperator.transpose_map(2)
    code, out, _ = run_cli(capsys, "jordan", "--input", payload({"J": superop_to_json(t)}))
    assert code == 0
    assert strict_loads(out)["kind"] == "star_anti_isomorphism"


def test_jordan_negative(capsys):
    t = SuperOperator.identity(2).scaled(3.0)
    code, out, _ = run_cli(capsys, "jordan", "--input", payload({"J": superop_to_json(t)}))
    assert code == 1
    assert not strict_loads(out)["is_jordan"]


def test_isometry_exit_codes(capsys):
    good = SuperOperator.ad_unitary(random_unitary(2, rng_from(1)))
    obj = {"T": superop_to_json(good), "p": 3}
    assert run_cli(capsys, "isometry", "--input", payload(obj))[0] == 0
    bad = {"T": superop_to_json(good.scaled(0.5)), "p": 3}
    assert run_cli(capsys, "isometry", "--input", payload(bad))[0] == 1


def test_implementable_subcommand(capsys):
    n = 2
    obj = {
        "V": superop_to_json(SuperOperator.transpose_map(n)),
        "rho": matrix_to_json(np.eye(n) / n),
        "p": 2,
    }
    code, out, _ = run_cli(capsys, "implementable", "--input", payload(obj))
    assert code == 0
    report = strict_loads(out)
    assert report["implementable"] and report["kind"] == "star_anti_isomorphism"


def test_change_rep_subcommand(capsys):
    n = 2
    obj = {
        "U": matrix_to_json(random_unitary(n, rng_from(2))),
        "Lambda": superop_to_json(SuperOperator.transpose_map(n)),
        "rho": matrix_to_json(np.eye(n) / n),
        "t_steps": 2,
    }
    code, out, _ = run_cli(capsys, "change-rep", "--input", payload(obj))
    assert code == 0
    assert strict_loads(out)["all_implementable"]


def test_transport_subcommand(capsys):
    n = 2
    obj = {
        "V": superop_to_json(SuperOperator.ad_unitary(random_unitary(n, rng_from(3)))),
        "rho": matrix_to_json(np.eye(n) / n),
        "p": 2,
    }
    code, out, _ = run_cli(capsys, "transport", "--input", payload(obj))
    assert code == 0
    assert strict_loads(out)["verdicts_agree"]


@pytest.mark.parametrize("p, inverse, builds", [(1, False, 1), (2, False, 1), (2, True, 1)])
def test_transport_builds_the_transport_once_per_direction(capsys, monkeypatch, p, inverse, builds):
    rng = rng_from(5)
    n = 3
    v = SuperOperator.ad_unitary(random_unitary(n, rng))
    rho = random_density(n, rng)
    obj = {"V": superop_to_json(v), "rho": matrix_to_json(rho.matrix), "p": p, "inverse": inverse}
    # the report as the handler built it with a transport of its own
    measure = QuantumMeasure(rho)
    t = superop.weighted_isometry_transport(v, measure, p, inverse=inverse)
    weighted = superop.isometry_check(v, measure, p)
    tracial = superop.isometry_check(t, None, p)
    expected = {
        "transport": superop_to_json(t),
        "isometry_weighted": {f.name: getattr(weighted, f.name) for f in fields(weighted)},
        "isometry_tracial": {f.name: getattr(tracial, f.name) for f in fields(tracial)},
        "verdicts_agree": weighted.is_isometry == tracial.is_isometry,
    }
    calls = []
    build = superop.weighted_isometry_transport
    monkeypatch.setattr(superop, "weighted_isometry_transport", lambda *a, **k: calls.append(1) or build(*a, **k))
    code, out, _ = run_cli(capsys, "transport", "--input", payload(obj))
    assert code == 0
    assert len(calls) == builds
    assert out == dumps(expected)


def test_integrability_subcommand(capsys):
    obj = {
        "T": superop_to_json(SuperOperator.identity(2)),
        "rho": matrix_to_json(np.diag([0.25, 0.75])),
    }
    code, out, _ = run_cli(capsys, "integrability", "--input", payload(obj))
    assert code == 0
    assert abs(strict_loads(out)["constant"] - 1.0) < 1e-12


def test_classical_subcommands(capsys):
    code, out, _ = run_cli(
        capsys, "classical", "koopman", "--input", payload({"n": 3, "map": [1, 2, 0]})
    )
    assert code == 0
    v = strict_loads(out)["koopman"]["matrix"]
    assert v[0][1] == [1.0, 0.0]

    code, out, _ = run_cli(
        capsys,
        "classical",
        "fp",
        "--input",
        payload({"n": 3, "map": [1, 2, 0], "mu": [1 / 3, 1 / 3, 1 / 3]}),
    )
    assert code == 0
    u = strict_loads(out)["frobenius_perron"]["matrix"]
    assert u[1][0] == [1.0, 0.0]  # densities move opposite to observables

    code, _, _ = run_cli(
        capsys,
        "classical",
        "multiplicative",
        "--input",
        payload({"K": {"matrix": [[0, 1], [1, 0]]}}),
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys,
        "classical",
        "multiplicative",
        "--input",
        payload({"K": {"matrix": [[0.5, 0.5], [0.5, 0.5]]}}),
    )
    assert code == 1

    code, out, _ = run_cli(
        capsys,
        "classical",
        "ds-check",
        "--input",
        payload({"W": {"matrix": [[1, 0], [1, 0]]}, "mu": [0.5, 0.5]}),
    )
    assert code == 1
    assert abs(strict_loads(out)["mass_defect"] - 0.5) < 1e-12

    code, out, _ = run_cli(
        capsys,
        "classical",
        "lamperti",
        "--input",
        payload({"V": {"matrix": [[0, 1], [1, 0]]}, "mu": [0.5, 0.5], "p": 3}),
    )
    assert code == 0
    assert strict_loads(out)["map"]["map"] == [1, 0]


def test_mpc_run_negative_verdict_is_exit_one(capsys):
    descriptor = {"N": 2, "f": {"kind": "logistic"}, "t": 1, "seed": 7}
    code, out, _ = run_cli(capsys, "mpc", "run", "--input", payload(descriptor))
    assert code == 1
    report = strict_loads(out)
    assert report["implementable"] is False
    assert "expected" in report["note"]


def test_mpc_run_constant_f_is_exit_zero(capsys):
    descriptor = {"N": 2, "f": {"kind": "constant"}, "t": 1, "seed": 7}
    code, out, _ = run_cli(capsys, "mpc", "run", "--input", payload(descriptor))
    assert code == 0
    assert strict_loads(out)["implementable"] is True


def test_mpc_csv_is_deterministic(capsys, tmp_path):
    descriptor = {"N": 2, "f": {"kind": "logistic"}, "t": 1, "seed": 7}
    outputs = []
    for name in ("a.csv", "b.csv"):
        target = tmp_path / name
        code = main(
            ["mpc", "run", "--input", payload(descriptor), "--format", "csv", "--out", str(target)]
        )
        assert code == 1
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    header = outputs[0].decode().splitlines()[0]
    assert header == "experiment,defect_name,value,domain_fraction"


def test_norm_scale_csv(capsys):
    obj = {"rho": matrix_to_json(np.eye(2) / 2)}
    code, out, _ = run_cli(
        capsys, "norm-scale", "--input", payload(obj), "--trials", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed,dim,p,q,norm_p,norm_q,sign"
    assert len(lines) == 1 + 5 * 10  # 10 exponent pairs per trial


def test_file_input_and_out(tmp_path, capsys):
    source = tmp_path / "in.json"
    source.write_text(payload({"A": {"matrix": [[1, 0], [0, 1]]}, "p": 2}), encoding="utf-8")
    target = tmp_path / "out.json"
    code = main(["norm", "--input", str(source), "--out", str(target)])
    assert code == 0
    assert abs(strict_loads(target.read_text())["norm"] - 2 ** 0.5) < 1e-12


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "nclp.cli", "norm", "--input", '{"A": {"matrix": [[2]]}, "p": 1}'],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert result.returncode == 0
    assert abs(strict_loads(result.stdout)["norm"] - 2.0) < 1e-12


def test_import_needs_only_numpy_and_the_standard_library():
    probe = (
        "import sys; before = set(sys.modules); import nclp.cli; "
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=SRC_ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['nclp', 'numpy']"


#: the modules a process runs only when one of its calls needs them
LAZY = ("nclp.acceptance", "nclp.classical", "nclp.mpc", "nclp.superop")


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["norm", "--input", payload({"A": {"matrix": [[2]]}, "p": 1})], set(LAZY)),
        (
            ["classical", "koopman", "--input", payload({"map": [1, 0]})],
            {"nclp.acceptance", "nclp.mpc", "nclp.superop"},
        ),
        (
            ["jordan", "--input", payload({"J": superop_to_json(SuperOperator.identity(2))})],
            {"nclp.acceptance", "nclp.classical", "nclp.mpc"},
        ),
    ],
    ids=["norm", "classical-koopman", "jordan"],
)
def test_a_subcommand_runs_only_the_modules_it_uses(argv, unloaded):
    # a lazy module's type changes when its body runs; reading an attribute
    # instead would run it
    probe = (
        "import sys, types; from nclp.cli import main; "
        f"code = main({argv!r}); "
        f"print(code, sorted(n for n in {LAZY!r} if type(sys.modules[n]) is not types.ModuleType), file=sys.stderr)"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=SRC_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stderr.strip() == f"0 {sorted(unloaded)}"


def test_bad_json_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "norm", "--input", "{not json")
    assert code == 2
    assert "error" in err


def change_rep_payload(t_steps) -> str:
    return payload({
        "U": {"matrix": [[1, 0], [0, 1]]},
        "Lambda": superop_to_json(SuperOperator.identity(2)),
        "rho": {"matrix": [[0.5, 0], [0, 0.5]]},
        "t_steps": t_steps,
    })


NOT_UNITAL = payload({
    "V": superop_to_json(SuperOperator(2, 2 * np.eye(4))),
    "rho": {"matrix": [[0.5, 0], [0, 0.5]]},
    "p": 2,
})

#: the negated identity on 3 x 3 matrices, with a 2 x 2 state: not
#: positive, not unital and not Jordan, so three subcommands answered "no"
NEGATED_3 = superop_to_json(SuperOperator(3, -np.eye(9)))
RHO_2 = {"matrix": [[0.5, 0], [0, 0.5]]}

#: an integer beyond int64 and the float range
HUGE = 10**400
#: float entries whose norms and products lie beyond the float range
HUGE_ENTRIES = [[1e308, 1e308], [1e308, 1e308]]

IDENTITY_2 = superop_to_json(SuperOperator.identity(2))

#: 1e308 times the identity map on 2 x 2 matrices: finite, but every check of
#: it leaves the float range
HUGE_MAP = superop_to_json(SuperOperator(2, 1e308 * np.eye(4)))

#: inputs that must exit 2 with empty stdout and one error line on stderr
USAGE_ERRORS = {
    "p-null": ["norm", "--input", payload({"A": {"matrix": [[1]]}, "p": None})],
    "f-not-an-object": ["mpc", "run", "--input", payload({"N": 2, "f": "logistic", "t": 1})],
    "N-null": ["mpc", "run", "--input", payload({"N": None, "f": {"kind": "logistic"}, "t": 1})],
    "t_steps-null": ["change-rep", "--input", change_rep_payload(None)],
    "singular-rho": ["inner", "--input", payload({
        "A": {"matrix": [[1, 0], [0, 1]]},
        "B": {"matrix": [[1, 0], [0, 1]]},
        "rho": {"matrix": [[1, 0], [0, 0]]},
    })],
    # not positive definite
    "not-positive-rho": ["implementable", "--input", payload({"V": IDENTITY_2, "rho": {"matrix": [[1.5, 0], [0, -0.5]]}, "p": 2})],
    # positive, but below the invertibility ratio
    "numerically-singular-rho": ["implementable", "--input", payload({"V": IDENTITY_2, "rho": {"matrix": [[1 - 1e-13, 0], [0, 1e-13]]}, "p": 2})],
    "no-input": ["norm"],
    "missing-file": ["norm", "--input", "no-such-input.json"],
    "tol-zero": ["norm", "--input", payload({"A": {"matrix": [[1]]}, "p": 1}), "--tol", "0"],
    "trials-zero": ["norm", "--input", payload({"A": {"matrix": [[1]]}, "p": 1}), "--trials", "0"],
    "N-missing": ["mpc", "run", "--input", payload({"f": {"kind": "logistic"}, "t": 1})],
    "f-missing": ["mpc", "run", "--input", payload({"N": 2, "t": 1})],
    "N-too-large": ["mpc", "run", "--input", payload({"N": 10, "f": {"kind": "logistic"}, "t": 1})],
    "unknown-kind": ["mpc", "run", "--input", payload({"N": 2, "f": {"kind": "wiggle"}, "t": 1})],
    "N-fraction": ["mpc", "run", "--input", payload({"N": 2.5, "f": {"kind": "logistic"}, "t": 1})],
    "t-fraction": ["mpc", "run", "--input", payload({"N": 2, "f": {"kind": "logistic"}, "t": 1.5})],
    "s0-fraction": ["mpc", "run", "--input", payload({"N": 2, "f": {"kind": "step", "s0": 0.5}, "t": 1})],
    "N-bool": ["mpc", "run", "--input", payload({"N": True, "f": {"kind": "logistic"}, "t": 1})],
    "step-t-past-window": ["mpc", "run", "--input", payload({"N": 2, "f": {"kind": "step", "s0": 0}, "t": 5})],
    # 2·id is not unital: an infinite tolerance called it implementable, and
    # a nan one let it through the unitality stage
    "tol-inf": ["implementable", "--input", NOT_UNITAL, "--tol", "inf"],
    "tol-nan": ["implementable", "--input", NOT_UNITAL, "--tol", "nan"],
    # from tol = 1 on a threshold admits the defect of the zero answer: at 10
    # and 1e300, 2·id was "implementable" (exit 0)
    "tol-one": ["implementable", "--input", NOT_UNITAL, "--tol", "1"],
    "tol-ten": ["implementable", "--input", NOT_UNITAL, "--tol", "10"],
    "tol-1e300": ["implementable", "--input", NOT_UNITAL, "--tol", "1e300"],
    "t_steps-fraction": ["change-rep", "--input", change_rep_payload(2.5)],
    "t_steps-bool": ["change-rep", "--input", change_rep_payload(True)],
    # p = 1.0 and p = 3.0 were read from true and "3"
    "p-bool": ["norm", "--input", payload({"A": {"matrix": [[3, 0], [0, 4]]}, "p": True})],
    "p-string": ["norm", "--input", payload({"A": {"matrix": [[3, 0], [0, 4]]}, "p": "3"})],
    # a declared dim, n or map entry was cast to int, or compared as read
    "dim-fraction": ["norm", "--input", payload({"A": {"dim": 1.5, "matrix": [[1]]}, "p": 1})],
    "dim-string": ["norm", "--input", payload({"A": {"dim": "1", "matrix": [[1]]}, "p": 1})],
    "dim-bool": ["norm", "--input", payload({"A": {"dim": True, "matrix": [[1]]}, "p": 1})],
    "superop-dim-bool": ["jordan", "--input", payload({"J": {**superop_to_json(SuperOperator.identity(1)), "dim": True}})],
    "n-fraction": ["classical", "koopman", "--input", payload({"n": 2.0001, "map": [1, 0]})],
    "n-string": ["classical", "koopman", "--input", payload({"n": "2", "map": [1, 0]})],
    "map-fraction": ["classical", "koopman", "--input", payload({"map": [0.7, 1]})],
    "map-bool": ["classical", "koopman", "--input", payload({"map": [True, 1]})],
    # the write to an --out path in a missing directory printed a traceback
    # and exited 1, the code of a genuine "no"
    "out-unwritable": ["norm", "--input", payload({"A": {"matrix": [[1, 0], [0, 1]]}, "p": 2}), "--out", "missing/x.json"],
    # a map of another size than rho exited 1, a genuine "no", here
    "size-integrability": ["integrability", "--input", payload({"T": NEGATED_3, "rho": RHO_2})],
    "size-implementable": ["implementable", "--input", payload({"V": NEGATED_3, "rho": RHO_2, "p": 2})],
    "size-change-rep": ["change-rep", "--input", payload({
        "U": {"matrix": np.eye(3).tolist()}, "Lambda": NEGATED_3, "rho": RHO_2, "t_steps": 1,
    })],
    # an integer beyond the float or int64 range printed an OverflowError
    # traceback and exited 1, the code of a genuine "no"
    "map-overflow": ["classical", "koopman", "--input", payload({"map": [HUGE, 0]})],
    "entry-overflow": ["norm", "--input", payload({"A": {"matrix": [[HUGE]]}, "p": 1})],
    "p-overflow": ["norm", "--input", payload({"A": {"matrix": [[1]]}, "p": HUGE})],
    "mass-overflow": ["classical", "fp", "--input", payload({"map": [1, 0], "mu": [HUGE, 1]})],
    # a mass ratio beyond the float range printed a RuntimeWarning and a
    # matrix with Infinity, which is not JSON, and exited 0
    "mass-ratio-overflow": ["classical", "fp", "--input", payload({"map": [1, 0], "mu": [1e308, 1e-308]})],
    "t-overflow": ["mpc", "run", "--input", payload({"N": 2, "f": {"kind": "logistic"}, "t": HUGE})],
    # a map near the float maximum ended in an OverflowError traceback and
    # exit 1, the code of a genuine "no"
    "jordan-overflow": ["jordan", "--input", payload({"J": HUGE_MAP})],
    "change-rep-overflow": ["change-rep", "--input", payload({
        "U": {"matrix": [[1, 0], [0, 1]]}, "Lambda": HUGE_MAP, "rho": RHO_2, "t_steps": 1,
    })],
    "multiplicative-overflow": ["classical", "multiplicative", "--input", payload({"K": {"matrix": HUGE_ENTRIES}})],
    # a count had no upper bound: one implementability check per step ran
    # for 10^9 steps, and 10^13 trials asked numpy for 582 TiB
    "t_steps-above-bound": ["change-rep", "--input", change_rep_payload(10**9)],
    "trials-above-bound": ["isometry", "--input", payload({"T": superop_to_json(SuperOperator.identity(2)), "p": 2}), "--trials", "10000000000000"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_exit_two_with_one_error_line(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_a_tolerance_below_one_still_decides(capsys):
    # 2·id is not unital: "no" at every tolerance that main accepts
    assert run_cli(capsys, "implementable", "--input", NOT_UNITAL, "--tol", "0.5")[0] == 1


def test_a_mass_ratio_beyond_the_float_range_names_mu(capsys):
    code, out, err = run_cli(capsys, "classical", "fp", "--input", payload({"map": [1, 0], "mu": [1e308, 1e-308]}))
    assert (code, out) == (2, "")
    assert err == "error: field 'mu': the ratio of the largest to the smallest mass must lie within the float range\n"


def test_a_value_beyond_the_float_range_names_its_field(capsys):
    # at p = 1 and p = inf on HUGE_ENTRIES, svd returns an infinite singular
    # value and no numpy flag is raised on the way to the norm
    cases = (
        (HUGE_ENTRIES, 1, "json"),
        (HUGE_ENTRIES, 2, "json"),
        (HUGE_ENTRIES, 3, "json"),
        (HUGE_ENTRIES, math.inf, "json"),
        (HUGE_ENTRIES, 1, "csv"),
        (HUGE_ENTRIES, math.inf, "csv"),
        ([[1e308, 0], [0, 1e308]], 1, "json"),
    )
    for a, p, fmt in cases:
        code, out, err = run_cli(capsys, "norm", "--input", payload({"A": {"matrix": a}, "p": p}), "--format", fmt)
        assert (code, out, err) == (2, "", "error: field 'A': its norm lies beyond the float range\n")
    both = payload({"A": {"matrix": HUGE_ENTRIES}, "B": {"matrix": HUGE_ENTRIES}, "rho": RHO_2})
    code, out, err = run_cli(capsys, "inner", "--input", both)
    assert (code, out, err) == (2, "", "error: field 'A': its inner product with 'B' lies beyond the float range\n")


def test_a_map_that_takes_its_check_beyond_the_float_range_names_its_field(capsys):
    # transport and isometry warned and refused with a message that named no
    # field, implementable named none, and decompose and integrability
    # answered "no" off inf and nan defects, after warnings
    cases = (
        (["jordan"], {"J": HUGE_MAP}, "J"),
        (["change-rep"], {"U": {"matrix": [[1, 0], [0, 1]]}, "Lambda": HUGE_MAP, "rho": RHO_2, "t_steps": 1}, "Lambda"),
        (["change-rep"], {"U": {"matrix": [[1e200, 0], [0, 1]]}, "Lambda": IDENTITY_2, "rho": RHO_2, "t_steps": 1}, "U"),
        (["classical", "multiplicative"], {"K": {"matrix": HUGE_ENTRIES}}, "K"),
        (["classical", "lamperti"], {"V": {"matrix": [[1e308, 0], [0, 1e308]]}, "mu": [1, 1], "p": 2}, "V"),
        (["transport"], {"V": HUGE_MAP, "rho": RHO_2, "p": 2}, "V"),
        (["isometry"], {"T": HUGE_MAP, "rho": RHO_2, "p": 2}, "T"),
        (["implementable"], {"V": HUGE_MAP, "rho": RHO_2, "p": 2}, "V"),
        (["decompose"], {"T": HUGE_MAP, "p": 2}, "T"),
        (["integrability"], {"T": HUGE_MAP, "rho": RHO_2}, "T"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for words, obj, field in cases:
            code, out, err = run_cli(capsys, *words, "--input", payload(obj))
            assert (code, out) == (2, ""), (words, err)
            assert err == f"error: field '{field}': its entries take the check beyond the float range\n"


def test_ds_check_reports_an_overflowing_defect_without_a_warning(capsys):
    # the defects overflow to inf, a "no", with no RuntimeWarning on the way:
    # this suite's warning filters would turn one into an error
    code, out, err = run_cli(capsys, "classical", "ds-check", "--input", payload({"W": {"matrix": HUGE_ENTRIES}, "mu": [1, 1]}))
    assert (code, err) == (1, "")
    assert strict_loads(out) == {"mass_defect": "inf", "ok": False, "positivity_defect": 0.0, "unitality_defect": "inf"}


def test_dumps_refuses_numbers_that_are_not_finite():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            dumps({"x": value})


def test_an_infinite_exponent_is_written_as_inf(capsys):
    obj = payload({"A": {"matrix": [[3, 0], [0, 4]]}, "p": math.inf})
    code, out, _ = run_cli(capsys, "norm", "--input", obj)
    assert code == 0 and strict_loads(out) == {"kind": "schatten", "norm": 4.0, "p": "inf"}
    # CSV renders the float inf as "inf" too
    code, out, _ = run_cli(capsys, "norm", "--input", obj, "--format", "csv")
    assert code == 0 and "p,inf\n" in out


def test_a_singular_map_writes_its_infinite_defect_as_text(capsys):
    # Infinity and NaN, which are not JSON, were written for these "no" answers
    zero = superop_to_json(SuperOperator(2, np.zeros((4, 4))))
    code, out, _ = run_cli(capsys, "jordan", "--input", payload({"J": zero}))
    report = strict_loads(out)
    assert code == 1 and not report["is_jordan"]
    assert report["defect"] == report["invertibility_defect"] == "inf"
    code, out, _ = run_cli(capsys, "decompose", "--input", payload({"T": zero, "p": 2}))
    report = strict_loads(out)
    assert code == 1 and report["reason"].startswith("T(1) is singular") and report["defect"] == "nan"


def test_selftest_stdout_is_one_json_document(capsys):
    code, out, err = run_cli(capsys, "selftest")
    report = strict_loads(out)
    assert code == 0 and report["passed"] and len(report["criteria"]) == 10
    lines = err.splitlines()
    assert len(lines) == 10 and all(line.startswith("[PASS] criterion ") for line in lines)


@pytest.mark.parametrize("images, message", [([0.5, 1], "must be an integer, got 0.5"), ([True, 0], "must be a real number, got True")])
def test_a_point_map_reads_each_image_once(monkeypatch, images, message):
    # the images were read by integer_value in jsonio and then again in
    # PointMap; a refusal names field 'map' once
    from nclp import classical, jsonio

    reads = {"jsonio": 0, "classical": 0}

    def counted(module):
        original = module.integer_value

        def read(value, name):
            reads[module.__name__.rsplit(".", 1)[1]] += 1
            return original(value, name)

        monkeypatch.setattr(module, "integer_value", read)

    # classical first: the first read of its attribute may load it, and it
    # must bind jsonio's own reader, not the counted one
    counted(classical)
    counted(jsonio)
    assert jsonio.point_map_from_json({"n": 2, "map": [1, 0]}).images.tolist() == [1, 0]
    # the declared n in jsonio, each image once in PointMap
    assert reads == {"jsonio": 1, "classical": 2}
    with pytest.raises(jsonio.SchemaError) as refused:
        jsonio.point_map_from_json({"n": 2, "map": images})
    assert refused.value.field == "map"
    assert str(refused.value) == f"field 'map': {message}"


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1, 2]], [[1, math.nan], [0, 1]]], ids=["ragged", "not-square", "nan"])
def test_a_malformed_matrix_is_refused_by_its_field(capsys, matrix):
    # a ragged matrix exited 2 with numpy's message, which named no field
    code, out, err = run_cli(capsys, "norm", "--input", payload({"A": matrix, "p": 1}))
    assert (code, out) == (2, "")
    assert err.startswith("error: field 'A': ") and len(err.splitlines()) == 1


def _integer_rule_before_its_int_fast_path(value, name):
    # every value went through real_value, an int included
    if real_value(value, name) % 1:
        raise SchemaError(name, f"must be an integer, got {value!r}")
    return int(value)


@pytest.mark.parametrize(
    "value",
    [3, -2, 2**60 + 1, 2**63, -(2**63) - 1, HUGE, True, np.int64(3), 3.0, 2.5, "3", None],
    ids=lambda value: "10**400" if value is HUGE else repr(value),
)
def test_integer_value_keeps_its_rule(value):
    try:
        expected = _integer_rule_before_its_int_fast_path(value, "k")
    except SchemaError as exc:
        with pytest.raises(SchemaError) as refused:
            integer_value(value, "k")
        assert str(refused.value) == str(exc)
    else:
        read = integer_value(value, "k")
        assert type(read) is int and read == expected


def test_count_value_refuses_counts_below_one():
    assert count_value(1, "trials") == 1 and count_value(2.0, "trials") == 2
    for bad in (0, -1, 0.0):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            count_value(bad, "trials")
    assert count_value(MAX_COUNT, "trials") == MAX_COUNT == 10_000
    for bad in (MAX_COUNT + 1, 10**13, 1e13):
        with pytest.raises(ValueError, match="^trials must be <= 10000$"):
            count_value(bad, "trials")
    with pytest.raises(SchemaError, match="must be an integer"):
        count_value(1.5, "trials")


def test_a_measure_space_reads_each_mass_once(monkeypatch):
    # the masses were read by real_value in jsonio and then again in
    # FiniteMeasureSpace; a refusal names field 'mu' once
    from nclp import classical, jsonio

    reads = {"jsonio": 0, "classical": 0}

    def counted(module):
        original = module.real_value

        def read(value, name):
            reads[module.__name__.rsplit(".", 1)[1]] += 1
            return original(value, name)

        monkeypatch.setattr(module, "real_value", read)

    # classical first: the first read of its attribute may load it, and it
    # must bind jsonio's own reader, not the counted one
    counted(classical)
    counted(jsonio)
    assert jsonio.measure_space_from_json({"mu": [0.5, 2]}).weights.tolist() == [0.5, 2.0]
    assert reads == {"jsonio": 0, "classical": 2}
    with pytest.raises(jsonio.SchemaError) as refused:
        jsonio.measure_space_from_json({"mu": [True, 1.0]})
    assert refused.value.field == "mu"
    assert str(refused.value) == "field 'mu': must be a real number, got True"


@pytest.mark.parametrize("field", ["N", "f", "t"])
def test_a_missing_mpc_field_is_named(capsys, field):
    # a missing f printed "error: 'f'", the repr of a KeyError
    descriptor = {"N": 2, "f": {"kind": "logistic"}, "t": 1}
    del descriptor[field]
    code, out, err = run_cli(capsys, "mpc", "run", "--input", payload(descriptor))
    assert (code, out, err) == (2, "", f"error: field '{field}': missing\n")


HALF = {"matrix": [[0.5, 0], [0, 0.5]]}


def with_p(command, rest):
    """The ``p`` field of ``command``'s payload ``rest``: a valid 2, or ``v``."""
    return f"p-{command.replace(' ', '-')}", command, lambda v: {**rest, "p": v}, 2


#: (id, command, payload with one numeric field set to v, a valid v)
NUMBER_FIELDS = [
    ("entry", "norm", lambda v: {"A": {"matrix": [[v, 0], [0, 1]]}, "p": 1}, 1),
    ("pair-re", "norm", lambda v: {"A": {"matrix": [[[v, 0], 0], [0, 1]]}, "p": 1}, 1),
    ("pair-im", "norm", lambda v: {"A": {"matrix": [[[1, v], 0], [0, 1]]}, "p": 1}, 0),
    ("dim", "norm", lambda v: {"A": {"dim": v, "matrix": [[1, 0], [0, 1]]}, "p": 1}, 2),
    ("superop-dim", "jordan", lambda v: {"J": {**IDENTITY_2, "dim": v}}, 2),
    ("mu", "classical fp", lambda v: {"map": [1, 0], "mu": [v, 0.5]}, 0.5),
    ("n", "classical koopman", lambda v: {"n": v, "map": [1, 0]}, 2),
    ("map", "classical koopman", lambda v: {"map": [v, 0]}, 1),
    ("N", "mpc run", lambda v: {"N": v, "f": {"kind": "logistic"}, "t": 1}, 1),
    ("t", "mpc run", lambda v: {"N": 1, "f": {"kind": "logistic"}, "t": v}, 1),
    ("s0", "mpc run", lambda v: {"N": 1, "f": {"kind": "step", "s0": v}, "t": 1}, 0),
    ("values", "mpc run", lambda v: {"N": 1, "f": {"kind": "table", "values": [v, 0.9, 0.5, 0.2, 0.05]}, "t": 1}, 1),
    ("t_steps", "change-rep", lambda v: json.loads(change_rep_payload(v)), 1),
    with_p("norm", {"A": {"matrix": [[3, 0], [0, 4]]}}),
    with_p("transport", {"V": IDENTITY_2, "rho": HALF}),
    with_p("isometry", {"T": IDENTITY_2}),
    with_p("decompose", {"T": IDENTITY_2}),
    with_p("implementable", {"V": IDENTITY_2, "rho": HALF}),
    with_p("change-rep", json.loads(change_rep_payload(1))),
    with_p("classical lamperti", {"V": {"matrix": [[0, 1], [1, 0]]}, "mu": [0.5, 0.5]}),
]
NUMBER_CASES = [
    pytest.param(command, build, good, bad, id=f"{name}-{label}")
    for name, command, build, good in NUMBER_FIELDS
    for label, bad in (("true", True), ("string", "1"))
] + [
    pytest.param("transport", lambda v: {"V": IDENTITY_2, "rho": HALF, "p": 2, "inverse": v}, False, bad, id=f"inverse-{label}")
    for label, bad in (("string", "false"), ("number", 1))
]


@pytest.mark.parametrize("command, build, good, bad", NUMBER_CASES)
def test_numbers_in_a_payload_are_json_numbers(capsys, command, build, good, bad):
    # every entry, pair part, mass, table value, p and integer field is a
    # JSON number, and inverse a JSON boolean: a valid value runs, a boolean
    # or a string in its place exits 2
    assert run_cli(capsys, *command.split(), "--input", payload(build(good)))[0] in (0, 1)
    code, out, err = run_cli(capsys, *command.split(), "--input", payload(build(bad)))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


#: (command, payload with one matrix entry set to v, a valid v)
MATRIX_ENTRY_FIELDS = [
    ("classical lamperti", lambda v: {"V": {"matrix": [[v, 1], [1, 0]]}, "mu": [0.5, 0.5], "p": 3}, 0),
    ("classical ds-check", lambda v: {"W": {"matrix": [[v, 1], [1, 0]]}, "mu": [0.5, 0.5]}, 0),
    ("classical multiplicative", lambda v: {"K": {"matrix": [[v, 0], [0, 1]]}}, 1),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, [0, math.nan]], ids=["nan", "inf", "-inf", "pair-nan"])
@pytest.mark.parametrize("command, build, good", MATRIX_ENTRY_FIELDS, ids=[c for c, _, _ in MATRIX_ENTRY_FIELDS])
def test_non_finite_matrix_entries_are_usage_errors(capsys, command, build, good, bad):
    # a NaN entry dropped out of the lamperti support test, a wrong "yes",
    # and gave the other two NaN defects with exit 1
    assert run_cli(capsys, *command.split(), "--input", payload(build(good)))[0] == 0
    code, out, err = run_cli(capsys, *command.split(), "--input", payload(build(bad)))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "finite" in err


def test_readme_and_help_name_the_commands_of_the_table(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    documented = set()
    for line in block.splitlines():
        if line.startswith("nclp "):
            words = line.split(" --", 1)[0].split()[1:]
            documented.update(" ".join([*words[:-1], last]) for last in words[-1].split("|"))
    assert documented == set(COMMANDS)

    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    listed = (
        "{norm,norm-scale,inner,transport,integrability,jordan,isometry,decompose,"
        "implementable,change-rep,selftest,classical,mpc}"
    )
    assert listed in capsys.readouterr().out
