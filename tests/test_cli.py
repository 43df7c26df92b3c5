"""Command line surface: schemas, exit codes, and byte-identical reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nclp.cli import main
from nclp.jsonio import matrix_to_json, superop_to_json
from nclp.sampling import random_unitary, rng_from
from nclp.superop import SuperOperator

#: environment for subprocesses: they import nclp from the source tree
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(obj) -> str:
    return json.dumps(obj)


def test_norm_schatten(capsys):
    code, out, _ = run_cli(
        capsys, "norm", "--input", payload({"A": {"matrix": [[3, 0], [0, 4]]}, "p": 1})
    )
    assert code == 0
    report = json.loads(out)
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
    assert abs(json.loads(out)["norm"] - 2 / 3) < 1e-12


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
    assert np.allclose(json.loads(out)["inner"], [0.5, 0.0])


def test_decompose_conjugation(capsys):
    u0 = random_unitary(2, rng_from(0))
    obj = {"T": superop_to_json(SuperOperator.ad_unitary(u0)), "p": 2}
    code, out, _ = run_cli(capsys, "decompose", "--input", payload(obj))
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "star_isomorphism"
    assert abs(report["lambda"] - 1.0) < 1e-9


def test_decompose_negative_verdict(capsys):
    t = SuperOperator.identity(2).scaled(2.0)
    code, out, _ = run_cli(capsys, "decompose", "--input", payload({"T": superop_to_json(t), "p": 2}))
    assert code == 1
    assert not json.loads(out)["decomposable"]


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
    report = json.loads(out)
    assert report["is_jordan"] and "rank one" in report["error"]
    assert "kind" not in report


def test_jordan_classify_transpose(capsys):
    t = SuperOperator.transpose_map(2)
    code, out, _ = run_cli(capsys, "jordan", "--input", payload({"J": superop_to_json(t)}))
    assert code == 0
    assert json.loads(out)["kind"] == "star_anti_isomorphism"


def test_jordan_negative(capsys):
    t = SuperOperator.identity(2).scaled(3.0)
    code, out, _ = run_cli(capsys, "jordan", "--input", payload({"J": superop_to_json(t)}))
    assert code == 1
    assert not json.loads(out)["is_jordan"]


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
    report = json.loads(out)
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
    assert json.loads(out)["all_implementable"]


def test_transport_subcommand(capsys):
    n = 2
    obj = {
        "V": superop_to_json(SuperOperator.ad_unitary(random_unitary(n, rng_from(3)))),
        "rho": matrix_to_json(np.eye(n) / n),
        "p": 2,
    }
    code, out, _ = run_cli(capsys, "transport", "--input", payload(obj))
    assert code == 0
    assert json.loads(out)["verdicts_agree"]


def test_integrability_subcommand(capsys):
    obj = {
        "T": superop_to_json(SuperOperator.identity(2)),
        "rho": matrix_to_json(np.diag([0.25, 0.75])),
    }
    code, out, _ = run_cli(capsys, "integrability", "--input", payload(obj))
    assert code == 0
    assert abs(json.loads(out)["constant"] - 1.0) < 1e-12


def test_classical_subcommands(capsys):
    code, out, _ = run_cli(
        capsys, "classical", "koopman", "--input", payload({"n": 3, "map": [1, 2, 0]})
    )
    assert code == 0
    v = json.loads(out)["koopman"]["matrix"]
    assert v[0][1] == [1.0, 0.0]

    code, out, _ = run_cli(
        capsys,
        "classical",
        "fp",
        "--input",
        payload({"n": 3, "map": [1, 2, 0], "mu": [1 / 3, 1 / 3, 1 / 3]}),
    )
    assert code == 0
    u = json.loads(out)["frobenius_perron"]["matrix"]
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
    assert abs(json.loads(out)["mass_defect"] - 0.5) < 1e-12

    code, out, _ = run_cli(
        capsys,
        "classical",
        "lamperti",
        "--input",
        payload({"V": {"matrix": [[0, 1], [1, 0]]}, "mu": [0.5, 0.5], "p": 3}),
    )
    assert code == 0
    assert json.loads(out)["map"]["map"] == [1, 0]


def test_mpc_run_negative_verdict_is_exit_one(capsys):
    descriptor = {"N": 2, "f": {"kind": "logistic"}, "t": 1, "seed": 7}
    code, out, _ = run_cli(capsys, "mpc", "run", "--input", payload(descriptor))
    assert code == 1
    report = json.loads(out)
    assert report["implementable"] is False
    assert "expected" in report["note"]


def test_mpc_run_constant_f_is_exit_zero(capsys):
    descriptor = {"N": 2, "f": {"kind": "constant"}, "t": 1, "seed": 7}
    code, out, _ = run_cli(capsys, "mpc", "run", "--input", payload(descriptor))
    assert code == 0
    assert json.loads(out)["implementable"] is True


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
    assert abs(json.loads(target.read_text())["norm"] - 2 ** 0.5) < 1e-12


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "nclp.cli", "norm", "--input", '{"A": {"matrix": [[2]]}, "p": 1}'],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert result.returncode == 0
    assert abs(json.loads(result.stdout)["norm"] - 2.0) < 1e-12


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


def test_bad_json_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "norm", "--input", "{not json")
    assert code == 2
    assert "error" in err
