"""Command line front door: JSON in, verdicts and CSV reports out.

Exit codes distinguish three situations: 0 means every asserted property
held, 1 means a check ran to completion and reported a genuine negative
verdict (a successful run whose mathematical answer is "no"), and 2 means
the input or usage was invalid and nothing was decided.

Every subcommand reads its payload from ``--input``, which accepts either a
path or inline JSON (anything starting with '{').  ``--seed`` and
``--trials`` drive every randomized check, and identical configurations
produce byte-identical output; ``decompose`` samples nothing, so its output
does not depend on them.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import acceptance, classical, jsonio, mpc, spaces, superop
from .jsonio import SchemaError
from .linalg import DEFAULT_TOL, SingularInputError, SingularPowerError
from .spaces import QuantumMeasure

OK, NEGATIVE, USAGE = 0, 1, 2


@dataclass
class RunConfig:
    subcommand: str
    payload: dict | None
    tol: float
    seed: int
    trials: int
    out: str | None
    fmt: str


def _load_payload(raw: str | None) -> dict | None:
    if raw is None:
        return None
    text = raw.strip()
    if not text.startswith("{"):
        text = Path(raw).read_text(encoding="utf-8")
    import json

    value = json.loads(text)
    if not isinstance(value, dict):
        raise SchemaError("input", "top-level JSON value must be an object")
    return value


def _measure(payload: dict, tol: float, field: str = "rho") -> QuantumMeasure:
    return QuantumMeasure(jsonio.matrix_from_json(jsonio.require(payload, field), field), tol=tol)


def _optional_measure(payload: dict, tol: float, field: str = "rho") -> QuantumMeasure | None:
    if field not in payload or payload[field] is None:
        return None
    return _measure(payload, tol, field)


def _exponent(payload: dict) -> float:
    p = jsonio.require(payload, "p")
    if isinstance(p, str) and p in ("inf", "infinity"):
        return math.inf
    return float(p)


def _isometry_json(check: superop.IsometryCheck) -> dict:
    return {
        "is_isometry": check.is_isometry,
        "max_rel_defect": check.max_rel_defect,
        "onto": check.onto,
        "gram_defect": check.gram_defect,
        "trials": check.trials,
    }


def _implementability_json(report: superop.ImplementabilityReport) -> dict:
    out = {
        "implementable": report.implementable,
        "kind": report.kind,
        "failure": report.failure,
        "defects": report.defects,
    }
    if report.jordan is not None:
        out["jordan"] = jsonio.superop_to_json(report.jordan)
    if report.decomposition is not None:
        out["decomposition"] = jsonio.decomposition_to_json(report.decomposition)
    return out


# --- subcommand handlers; each returns (exit_code, report_dict_or_rows) -------


def _cmd_norm(cfg: RunConfig):
    payload = cfg.payload
    a = jsonio.matrix_from_json(jsonio.require(payload, "A"), "A")
    p = _exponent(payload)
    measure = _optional_measure(payload, cfg.tol)
    if measure is None:
        value = spaces.schatten_norm(a, p)
        kind = "schatten"
    else:
        value = spaces.weighted_norm(a, measure, p)
        kind = "weighted"
    return OK, {"norm": value, "p": p, "kind": kind}


def _cmd_norm_scale(cfg: RunConfig):
    measure = _measure(cfg.payload, cfg.tol)
    report = spaces.norm_scale_report(measure, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    rows = [
        (r.seed, r.dim, r.p, r.q, r.norm_p, r.norm_q, r.sign) for r in report.rows
    ]
    obj = {
        "direction": report.direction,
        "consistent": report.consistent,
        "rows": [list(r) for r in rows],
    }
    code = OK if report.consistent else NEGATIVE
    return code, obj, ( ["seed", "dim", "p", "q", "norm_p", "norm_q", "sign"], rows)


def _cmd_inner(cfg: RunConfig):
    payload = cfg.payload
    a = jsonio.matrix_from_json(jsonio.require(payload, "A"), "A")
    b = jsonio.matrix_from_json(jsonio.require(payload, "B"), "B")
    measure = _measure(payload, cfg.tol)
    value = spaces.weighted_inner(a, b, measure)
    return OK, {"inner": jsonio.complex_pair(value)}


def _cmd_transport(cfg: RunConfig):
    payload = cfg.payload
    v = jsonio.superop_from_json(jsonio.require(payload, "V"), "V")
    measure = _measure(payload, cfg.tol)
    p = _exponent(payload)
    inverse = bool(payload.get("inverse", False))
    t = superop.weighted_isometry_transport(v, measure, p, inverse=inverse)
    iso_weighted = superop.isometry_check(v, measure, p, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    iso_tracial = superop.isometry_check(t, None, p, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    return OK, {
        "transport": jsonio.superop_to_json(t),
        "isometry_weighted": _isometry_json(iso_weighted),
        "isometry_tracial": _isometry_json(iso_tracial),
        "verdicts_agree": iso_weighted.is_isometry == iso_tracial.is_isometry,
    }


def _cmd_integrability(cfg: RunConfig):
    payload = cfg.payload
    t = jsonio.superop_from_json(jsonio.require(payload, "T"), "T")
    measure = _measure(payload, cfg.tol)
    try:
        c = spaces.integrability_constant(t, measure, tol=cfg.tol, trials=cfg.trials, seed=cfg.seed)
    except superop.NotPositiveError as exc:
        return NEGATIVE, {"positive": False, "error": str(exc)}
    return OK, {"constant": c, "positive": True}


def _cmd_jordan(cfg: RunConfig):
    j = jsonio.superop_from_json(jsonio.require(cfg.payload, "J"), "J")
    check = superop.jordan_check(j, tol=cfg.tol)
    obj = {
        "is_jordan": check.is_jordan,
        "defect": check.defect,
        "square_defect": check.square_defect,
        "star_defect": check.star_defect,
        "invertibility_defect": check.invertibility_defect,
    }
    if not check.is_jordan:
        return NEGATIVE, obj
    try:
        classification = superop.jordan_classify(j, tol=cfg.tol)
    except superop.NotClassifiableError as exc:
        obj["error"] = str(exc)
        return NEGATIVE, obj
    obj["kind"] = classification.kind
    obj["unitary"] = jsonio.matrix_to_json(classification.unitary)
    obj["classification_residual"] = classification.residual
    return OK, obj


def _cmd_isometry(cfg: RunConfig):
    payload = cfg.payload
    t = jsonio.superop_from_json(jsonio.require(payload, "T"), "T")
    p = _exponent(payload)
    measure = _optional_measure(payload, cfg.tol)
    check = superop.isometry_check(t, measure, p, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    return (OK if check.is_isometry else NEGATIVE), _isometry_json(check)


def _cmd_decompose(cfg: RunConfig):
    payload = cfg.payload
    t = jsonio.superop_from_json(jsonio.require(payload, "T"), "T")
    p = _exponent(payload)
    try:
        dec = superop.lamperti_decompose(t, p, tol=cfg.tol)
    except superop.NotDecomposableError as exc:
        return NEGATIVE, {"decomposable": False, "reason": exc.reason, "defect": exc.defect}
    obj = jsonio.decomposition_to_json(dec)
    obj["decomposable"] = True
    return OK, obj


def _cmd_implementable(cfg: RunConfig):
    payload = cfg.payload
    v = jsonio.superop_from_json(jsonio.require(payload, "V"), "V")
    measure = _measure(payload, cfg.tol)
    p = _exponent(payload)
    report = superop.implementability_check(v, measure, p, tol=cfg.tol, trials=cfg.trials, seed=cfg.seed)
    return (OK if report.implementable else NEGATIVE), _implementability_json(report)


def _cmd_change_rep(cfg: RunConfig):
    payload = cfg.payload
    u = jsonio.matrix_from_json(jsonio.require(payload, "U"), "U")
    lam = jsonio.superop_from_json(jsonio.require(payload, "Lambda"), "Lambda")
    measure = _measure(payload, cfg.tol)
    t_steps = int(jsonio.require(payload, "t_steps"))
    p = float(payload.get("p", 2.0))
    try:
        report = superop.change_of_representation_demo(
            u, lam, measure, t_steps, p=p, tol=cfg.tol, trials=cfg.trials, seed=cfg.seed
        )
    except superop.NotJordanError as exc:
        return NEGATIVE, {"all_implementable": False, "error": str(exc)}
    obj = {
        "all_implementable": report.all_implementable,
        "steps": [
            {"t": s.t, **_implementability_json(s.report)} for s in report.steps
        ],
    }
    return (OK if report.all_implementable else NEGATIVE), obj


def _cmd_classical(cfg: RunConfig, action: str):
    payload = cfg.payload
    if action == "koopman":
        s = jsonio.point_map_from_json(payload)
        return OK, {"koopman": jsonio.matrix_to_json(classical.koopman_of(s))}
    if action == "fp":
        s = jsonio.point_map_from_json(payload)
        space = jsonio.measure_space_from_json(payload)
        return OK, {"frobenius_perron": jsonio.matrix_to_json(classical.frobenius_perron_of(s, space))}
    if action == "ds-check":
        w = jsonio.matrix_from_json(jsonio.require(payload, "W"), "W")
        space = jsonio.measure_space_from_json(payload)
        check = classical.doubly_stochastic_check(w, space, tol=cfg.tol)
        obj = {
            "ok": check.ok,
            "positivity_defect": check.positivity_defect,
            "mass_defect": check.mass_defect,
            "unitality_defect": check.unitality_defect,
        }
        return (OK if check.ok else NEGATIVE), obj
    if action == "lamperti":
        v = jsonio.matrix_from_json(jsonio.require(payload, "V"), "V")
        space = jsonio.measure_space_from_json(payload)
        p = _exponent(payload)
        dec = classical.weighted_permutation_decompose(v, space, p)
        obj = {"ok": dec.ok}
        if dec.ok:
            obj["map"] = jsonio.point_map_to_json(dec.point_map)
            obj["weights"] = [jsonio.complex_pair(h) for h in dec.weights]
            obj["compatibility_defect"] = dec.compatibility_defect
        return (OK if dec.ok else NEGATIVE), obj
    if action == "multiplicative":
        k = jsonio.matrix_from_json(jsonio.require(payload, "K"), "K")
        check = classical.multiplicativity_check(k, tol=cfg.tol)
        obj = {
            "multiplicative": check.multiplicative,
            "defect": check.defect,
            "product_defect": check.product_defect,
            "unitality_defect": check.unitality_defect,
        }
        return (OK if check.multiplicative else NEGATIVE), obj
    raise SchemaError("action", f"unknown classical action {action!r}")


def _cmd_mpc_run(cfg: RunConfig):
    payload = dict(cfg.payload)
    payload.setdefault("seed", cfg.seed)
    experiment = mpc.run_experiment(payload, tol=cfg.tol)
    rows = [
        (r.experiment, r.defect_name, r.value, r.domain_fraction)
        for r in experiment.rows
    ]
    obj = {
        "implementable": experiment.implementable,
        "asserted": experiment.asserted,
        "rows": [list(r) for r in rows],
    }
    if experiment.negative_verdict:
        obj["note"] = (
            "negative implementability verdict; for a strictly decreasing "
            "spectral function this is the expected answer"
        )
    code = NEGATIVE if experiment.negative_verdict else OK
    return code, obj, (["experiment", "defect_name", "value", "domain_fraction"], rows)


def _cmd_selftest(cfg: RunConfig):
    results = acceptance.run_all(verbose=True)
    passed = all(r.passed for r in results)
    obj = {
        "passed": passed,
        "criteria": [
            {"criterion": r.criterion, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
    }
    return (OK if passed else NEGATIVE), obj


def dispatch(cfg: RunConfig) -> tuple[int, str]:
    """Route a config to its handler and render the report."""
    handlers = {
        "norm": _cmd_norm,
        "norm-scale": _cmd_norm_scale,
        "inner": _cmd_inner,
        "transport": _cmd_transport,
        "integrability": _cmd_integrability,
        "jordan": _cmd_jordan,
        "isometry": _cmd_isometry,
        "decompose": _cmd_decompose,
        "implementable": _cmd_implementable,
        "change-rep": _cmd_change_rep,
        "mpc-run": _cmd_mpc_run,
        "selftest": _cmd_selftest,
    }
    if cfg.subcommand.startswith("classical-"):
        result = _cmd_classical(cfg, cfg.subcommand.removeprefix("classical-"))
    else:
        result = handlers[cfg.subcommand](cfg)
    if len(result) == 3:
        code, obj, (header, rows) = result
        text = jsonio.rows_to_csv(header, rows) if cfg.fmt == "csv" else jsonio.dumps(obj)
    else:
        code, obj = result
        if cfg.fmt == "csv":
            flat = {k: v for k, v in obj.items() if isinstance(v, (int, float, bool, str))}
            text = jsonio.flat_report_to_csv(flat)
        else:
            text = jsonio.dumps(obj)
    return code, text


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="path to a JSON file, or inline JSON")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="relative tolerance")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument("--trials", type=int, default=50, help="samples per randomized check")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")

    parser = argparse.ArgumentParser(
        prog="nclp",
        description="finite-dimensional non-commutative L^p toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in (
        "norm",
        "norm-scale",
        "inner",
        "transport",
        "integrability",
        "jordan",
        "isometry",
        "decompose",
        "implementable",
        "change-rep",
        "selftest",
    ):
        sub.add_parser(name, parents=[common])
    c = sub.add_parser("classical", parents=[common])
    c.add_argument("action", choices=("koopman", "fp", "ds-check", "lamperti", "multiplicative"))
    m = sub.add_parser("mpc", parents=[common])
    m.add_argument("action", choices=("run",))
    return parser


_NO_INPUT = {"selftest"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    subcommand = args.subcommand
    if subcommand == "classical":
        subcommand = f"classical-{args.action}"
    elif subcommand == "mpc":
        subcommand = "mpc-run"
    try:
        payload = _load_payload(args.input)
        if payload is None and subcommand not in _NO_INPUT:
            raise SchemaError("input", "this subcommand requires --input")
        cfg = RunConfig(
            subcommand=subcommand,
            payload=payload,
            tol=args.tol,
            seed=args.seed,
            trials=args.trials,
            out=args.out,
            fmt=args.fmt,
        )
        if cfg.tol <= 0:
            raise SchemaError("tol", "tolerance must be positive")
        if cfg.trials < 1:
            raise SchemaError("trials", "trials must be >= 1")
        code, text = dispatch(cfg)
    except (SchemaError, SingularPowerError, SingularInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
