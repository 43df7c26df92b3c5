"""Command line front door: JSON in, verdicts and CSV reports out.

Exit codes distinguish three situations: 0 means every asserted property
held, 1 means a check ran to completion and reported a genuine negative
verdict (a successful run whose mathematical answer is "no"), and 2 means
the input or usage was invalid and nothing was decided.

``COMMANDS`` is the one list of subcommands: the parser, the dispatch and
the rendering all come from it.  Every subcommand except ``selftest``
reads its payload from ``--input``, which accepts either a path or inline
JSON (anything starting with '{').  ``--seed`` and ``--trials`` drive
every randomized check, and identical configurations produce
byte-identical output; ``decompose`` and ``mpc run`` sample nothing, so
their output does not depend on them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# acceptance, classical, mpc and superop are the package's lazy modules: bound
# here, their bodies run only when a handler first uses them
from . import acceptance, classical, jsonio, mpc, spaces, superop
from .jsonio import SchemaError
from .linalg import DEFAULT_TOL
from .spaces import QuantumMeasure

OK, NEGATIVE, USAGE = 0, 1, 2


@dataclass
class RunConfig:
    command: str
    payload: dict | None
    tol: float
    seed: int
    trials: int
    fmt: str


def _load_payload(raw: str | None) -> dict | None:
    if raw is None:
        return None
    text = raw.strip()
    if not text.startswith("{"):
        text = Path(raw).read_text(encoding="utf-8")
    value = json.loads(text)
    if not isinstance(value, dict):
        raise SchemaError("input", "top-level JSON value must be an object")
    return value


def _measure(payload: dict, tol: float, field: str = "rho") -> QuantumMeasure:
    rho = jsonio.matrix_from_json(jsonio.require(payload, field), field)
    return QuantumMeasure(rho, tol)


def _optional_measure(payload: dict, tol: float, field: str = "rho") -> QuantumMeasure | None:
    if field not in payload or payload[field] is None:
        return None
    return _measure(payload, tol, field)


def _exponent(payload: dict) -> float:
    return spaces.check_p(jsonio.require(payload, "p"))


@contextlib.contextmanager
def _within_float_range(field: str, message: str = "its entries take the check beyond the float range"):
    """Run a computation on finite input whose arithmetic must stay within
    the float range.  An overflow, or a value made invalid by one, decides
    nothing: the input is refused, naming ``field``, with no numpy warning
    and no traceback."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise SchemaError(field, message) from exc


def _finite_or_text(value):
    """A report value as strict JSON allows it: a float that is not finite,
    such as the invertibility defect of a singular map or p = inf, is
    written as the text that CSV writes for it, "inf", "-inf" or "nan"."""
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else value


def _fields(result, *skip: str) -> dict:
    """A result dataclass as a report: its fields by name, less ``skip``."""
    return {f.name: _finite_or_text(getattr(result, f.name)) for f in dataclasses.fields(result) if f.name not in skip}


def _table(row_type, rows) -> tuple[list[str], list[list]]:
    """A CSV header of ``row_type``'s field names and each row's values."""
    header = [f.name for f in dataclasses.fields(row_type)]
    return header, [[getattr(row, name) for name in header] for row in rows]


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


# --- subcommand handlers; each returns (exit_code, report[, header, rows]) ----


def _cmd_norm(cfg: RunConfig):
    payload = cfg.payload
    a = jsonio.matrix_from_json(jsonio.require(payload, "A"), "A")
    p = _exponent(payload)
    measure = _optional_measure(payload, cfg.tol)
    kind = "schatten" if measure is None else "weighted"
    beyond = "its norm lies beyond the float range"
    with _within_float_range("A", beyond):
        value = spaces.schatten_norm(a, p) if measure is None else spaces.weighted_norm(a, measure, p)
    # numpy's svd rescales under its own errstate: an infinite singular
    # value, and the max or sum of one, raises no flag
    if not math.isfinite(value):
        raise SchemaError("A", beyond)
    return OK, {"norm": value, "p": _finite_or_text(p), "kind": kind}


def _cmd_norm_scale(cfg: RunConfig):
    measure = _measure(cfg.payload, cfg.tol)
    report = spaces.norm_scale_report(measure, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    header, rows = _table(spaces.NormScaleRow, report.rows)
    obj = {"direction": report.direction, "consistent": report.consistent, "rows": rows}
    return (OK if report.consistent else NEGATIVE), obj, header, rows


def _cmd_inner(cfg: RunConfig):
    payload = cfg.payload
    a = jsonio.matrix_from_json(jsonio.require(payload, "A"), "A")
    b = jsonio.matrix_from_json(jsonio.require(payload, "B"), "B")
    measure = _measure(payload, cfg.tol)
    beyond = "its inner product with 'B' lies beyond the float range"
    with _within_float_range("A", beyond):
        value = spaces.weighted_inner(a, b, measure)
    if not np.isfinite(value):
        raise SchemaError("A", beyond)
    return OK, {"inner": jsonio.complex_pair(value)}


def _cmd_transport(cfg: RunConfig):
    payload = cfg.payload
    v = jsonio.superop_from_json(jsonio.require(payload, "V"), "V")
    measure = _measure(payload, cfg.tol)
    p = _exponent(payload)
    inverse = payload.get("inverse", False)
    if not isinstance(inverse, bool):
        raise SchemaError("inverse", f"must be a JSON boolean, got {inverse!r}")
    with _within_float_range("V"):
        iso_weighted = superop.isometry_check(v, measure, p, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
        t = superop.weighted_isometry_transport(v, measure, p, inverse=inverse)
        iso_tracial = superop.isometry_check(t, None, p, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    return OK, {
        "transport": jsonio.superop_to_json(t),
        "isometry_weighted": _fields(iso_weighted),
        "isometry_tracial": _fields(iso_tracial),
        "verdicts_agree": iso_weighted.is_isometry == iso_tracial.is_isometry,
    }


def _cmd_integrability(cfg: RunConfig):
    payload = cfg.payload
    t = jsonio.superop_from_json(jsonio.require(payload, "T"), "T")
    measure = _measure(payload, cfg.tol)
    try:
        with _within_float_range("T"):
            c = superop.integrability_constant(t, measure, tol=cfg.tol, trials=cfg.trials, seed=cfg.seed)
    except superop.NotPositiveError as exc:
        return NEGATIVE, {"positive": False, "error": str(exc)}
    return OK, {"constant": c, "positive": True}


def _cmd_jordan(cfg: RunConfig):
    j = jsonio.superop_from_json(jsonio.require(cfg.payload, "J"), "J")
    with _within_float_range("J"):
        check = superop.jordan_check(j, tol=cfg.tol)
        obj = _fields(check, "worst_input")
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
    with _within_float_range("T"):
        check = superop.isometry_check(t, measure, p, trials=cfg.trials, seed=cfg.seed, tol=cfg.tol)
    return (OK if check.is_isometry else NEGATIVE), _fields(check)


def _cmd_decompose(cfg: RunConfig):
    payload = cfg.payload
    t = jsonio.superop_from_json(jsonio.require(payload, "T"), "T")
    p = _exponent(payload)
    try:
        with _within_float_range("T"):
            dec = superop.lamperti_decompose(t, p, tol=cfg.tol)
    except superop.NotDecomposableError as exc:
        return NEGATIVE, {"decomposable": False, "reason": exc.reason, "defect": _finite_or_text(exc.defect)}
    obj = jsonio.decomposition_to_json(dec)
    obj["decomposable"] = True
    return OK, obj


def _cmd_implementable(cfg: RunConfig):
    payload = cfg.payload
    v = jsonio.superop_from_json(jsonio.require(payload, "V"), "V")
    measure = _measure(payload, cfg.tol)
    p = _exponent(payload)
    with _within_float_range("V"):
        report = superop.implementability_check(v, measure, p, tol=cfg.tol, trials=cfg.trials, seed=cfg.seed)
    return (OK if report.implementable else NEGATIVE), _implementability_json(report)


def _cmd_change_rep(cfg: RunConfig):
    payload = cfg.payload
    u = jsonio.matrix_from_json(jsonio.require(payload, "U"), "U")
    lam = jsonio.superop_from_json(jsonio.require(payload, "Lambda"), "Lambda")
    measure = _measure(payload, cfg.tol)
    t_steps = jsonio.integer_field(payload, "t_steps")
    p = _exponent(payload) if "p" in payload else 2.0
    try:
        with _within_float_range("U"):
            report = superop.change_of_representation_demo(
                u, lam, measure, t_steps, p=p, tol=cfg.tol, trials=cfg.trials, seed=cfg.seed
            )
    except superop.NotJordanError as exc:
        return NEGATIVE, {"all_implementable": False, "error": str(exc)}
    except SchemaError as exc:
        if exc.field == "U":
            # Lambda is checked before any step uses U: it is the culprit
            # when its own check leaves the float range
            with _within_float_range("Lambda"):
                superop.jordan_check(lam, tol=cfg.tol)
        raise
    obj = {
        "all_implementable": report.all_implementable,
        "steps": [
            {"t": s.t, **_implementability_json(s.report)} for s in report.steps
        ],
    }
    return (OK if report.all_implementable else NEGATIVE), obj


def _cmd_koopman(cfg: RunConfig):
    s = jsonio.point_map_from_json(cfg.payload)
    return OK, {"koopman": jsonio.matrix_to_json(classical.koopman_of(s))}


def _cmd_frobenius_perron(cfg: RunConfig):
    s = jsonio.point_map_from_json(cfg.payload)
    space = jsonio.measure_space_from_json(cfg.payload)
    return OK, {"frobenius_perron": jsonio.matrix_to_json(classical.frobenius_perron_of(s, space))}


def _cmd_ds_check(cfg: RunConfig):
    w = jsonio.matrix_from_json(jsonio.require(cfg.payload, "W"), "W")
    space = jsonio.measure_space_from_json(cfg.payload)
    check = classical.doubly_stochastic_check(w, space, tol=cfg.tol)
    return (OK if check.ok else NEGATIVE), _fields(check)


def _cmd_classical_lamperti(cfg: RunConfig):
    payload = cfg.payload
    v = jsonio.matrix_from_json(jsonio.require(payload, "V"), "V")
    space = jsonio.measure_space_from_json(payload)
    p = _exponent(payload)
    with _within_float_range("V"):
        dec = classical.weighted_permutation_decompose(v, space, p)
    obj = {"ok": dec.ok}
    if dec.ok:
        obj["map"] = jsonio.point_map_to_json(dec.point_map)
        obj["weights"] = [jsonio.complex_pair(h) for h in dec.weights]
        obj["compatibility_defect"] = dec.compatibility_defect
    return (OK if dec.ok else NEGATIVE), obj


def _cmd_multiplicative(cfg: RunConfig):
    k = jsonio.matrix_from_json(jsonio.require(cfg.payload, "K"), "K")
    with _within_float_range("K"):
        check = classical.multiplicativity_check(k, tol=cfg.tol)
    return (OK if check.multiplicative else NEGATIVE), _fields(check)


def _cmd_mpc_run(cfg: RunConfig):
    experiment = mpc.run_experiment(cfg.payload, tol=cfg.tol)
    header, rows = _table(mpc.ExperimentRow, experiment.rows)
    obj = {
        "implementable": experiment.implementable,
        "asserted": experiment.asserted,
        "rows": rows,
    }
    if not experiment.implementable:
        obj["note"] = (
            "negative implementability verdict; for a strictly decreasing "
            "spectral function this is the expected answer"
        )
    return (OK if experiment.implementable else NEGATIVE), obj, header, rows


def _cmd_selftest(cfg: RunConfig):
    results = acceptance.run_all()
    passed = all(r.passed for r in results)
    obj = {
        "passed": passed,
        "criteria": [
            {"criterion": r.criterion, "name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
    }
    return (OK if passed else NEGATIVE), obj


#: Every subcommand, as its command words, in ``nclp --help`` order.  A
#: second word is an ``action`` of the first word's subparser.
COMMANDS = {
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
    "selftest": _cmd_selftest,
    "classical koopman": _cmd_koopman,
    "classical fp": _cmd_frobenius_perron,
    "classical ds-check": _cmd_ds_check,
    "classical lamperti": _cmd_classical_lamperti,
    "classical multiplicative": _cmd_multiplicative,
    "mpc run": _cmd_mpc_run,
}


def dispatch(cfg: RunConfig) -> tuple[int, str]:
    """Run a config's handler and render its report, or its table as CSV."""
    code, report, *table = COMMANDS[cfg.command](cfg)
    if cfg.fmt != "csv":
        return code, jsonio.dumps(report)
    if table:
        return code, jsonio.rows_to_csv(*table)
    return code, jsonio.flat_report_to_csv(report)


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
    actions: dict[str, list[str]] = {}
    for words in COMMANDS:
        first, *action = words.split()
        actions.setdefault(first, []).extend(action)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for first, choices in actions.items():
        command = sub.add_parser(first, parents=[common])
        if choices:
            command.add_argument("action", choices=choices)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"{args.subcommand} {args.action}" if "action" in args else args.subcommand
    try:
        payload = _load_payload(args.input)
        if payload is None and command != "selftest":
            raise SchemaError("input", "this subcommand requires --input")
        # every check accepts a defect up to tol times the size of what it
        # measures; from tol = 1 on, that admits the defect of the zero answer
        if not 0 < args.tol < 1:
            raise SchemaError("tol", "tolerance must be positive and below 1")
        jsonio.count_value(args.trials, "trials")
        cfg = RunConfig(command, payload, args.tol, args.seed, args.trials, args.fmt)
        code, text = dispatch(cfg)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
