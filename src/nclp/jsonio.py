"""JSON and CSV encoding shared by the command line and the tests.

Complex numbers serialize as [re, im] pairs everywhere; matrices as
{"dim": n, "matrix": [[pair, ...], ...]} in row-major order; superoperators
use the same layout with an n^2 x n^2 matrix.  Floats are rendered through
repr, which round-trips exactly, so identical inputs produce byte-identical
output, and a number that is not finite is refused, so that every report is
strict JSON.  The map classes are imported where a decoder builds them, so that
decoding plain matrices runs neither :mod:`nclp.superop` nor
:mod:`nclp.classical`.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from typing import TYPE_CHECKING

import numpy as np

from .linalg import as_matrix

if TYPE_CHECKING:
    from .classical import FiniteMeasureSpace, PointMap
    from .superop import LampertiDecomposition, SuperOperator

#: The largest count ``count_value`` accepts: sampled checks and change-rep
#: steps run once per unit, and at this bound a sample of n = 32 states
#: takes about 164 MB.
MAX_COUNT = 10_000


class SchemaError(ValueError):
    """Input does not match the expected schema; ``field`` names the culprit."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field {field!r}: {message}")
        self.field = field
        self.message = message


def require(obj: dict, field: str):
    if not isinstance(obj, dict):
        raise SchemaError(field, "enclosing object must be a JSON object")
    if field not in obj:
        raise SchemaError(field, "missing")
    return obj[field]


def integer_field(obj: dict, field: str) -> int:
    """``obj[field]`` as an int, by the rule of ``integer_value``."""
    return integer_value(require(obj, field), field)


def real_value(value, name: str) -> float:
    """``value`` as a float, refusing bools, strings and anything else that is
    not a real number rather than casting, and an integer beyond the float
    range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(name, f"must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(name, "must be a real number within the float range") from None


def integer_value(value, name: str) -> int:
    """``value`` as an int, refusing fractions as well as what ``real_value``
    refuses.  A value whose type is ``int`` and that fits in int64 passes
    through unchanged, so a value read once, as ``mpc.run_experiment`` reads
    N, t and s0, costs no second reading in each layer below; a larger int
    takes ``real_value``'s path, which refuses one beyond the float range."""
    if type(value) is int and -(2**63) <= value < 2**63:
        return value
    if real_value(value, name) % 1:
        raise SchemaError(name, f"must be an integer, got {value!r}")
    return int(value)


def count_value(value, name: str) -> int:
    """``value`` as a count, an int in [1, MAX_COUNT] by ``integer_value``'s
    rule; one outside raises ValueError("<name> must be >= 1") or
    ValueError("<name> must be <= 10000")."""
    count = integer_value(value, name)
    if count < 1:
        raise ValueError(f"{name} must be >= 1")
    if count > MAX_COUNT:
        raise ValueError(f"{name} must be <= {MAX_COUNT}")
    return count


def complex_pair(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _entry_to_complex(entry, field: str) -> complex:
    if not isinstance(entry, (list, tuple)):
        return complex(real_value(entry, field))
    if len(entry) == 2:
        return complex(real_value(entry[0], field), real_value(entry[1], field))
    raise SchemaError(field, f"entry must be a number or an [re, im] pair, got {entry!r}")


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "matrix": [[complex_pair(z) for z in row] for row in m],
    }


def _decode(obj, key: str, field: str, nonempty: str, build, declared=None):
    """The one rule of the four payload decoders.  The payload is
    ``obj[key]`` when ``obj`` is an object, else ``obj`` itself, and must be
    a nonempty list (refused with the message ``nonempty``).  ``build``
    makes the value from it, and any refusal it raises is renamed to
    ``field``.  ``declared`` is (name, what, size): an object may declare
    the value's ``size`` under ``name``, an integer that must match."""
    payload = require(obj, key) if isinstance(obj, dict) else obj
    if not isinstance(payload, list) or not payload:
        raise SchemaError(field, nonempty)
    try:
        value = build(payload)
    except (TypeError, ValueError) as exc:
        raise SchemaError(field, exc.message if isinstance(exc, SchemaError) else str(exc)) from exc
    if declared is not None and isinstance(obj, dict) and declared[0] in obj:
        name, what, size = declared
        if integer_value(obj[name], name) != size(value):
            raise SchemaError(field, f"declared {name} does not match the {what}")
    return value


_ROWS = "matrix must be a nonempty list of rows"


def matrix_from_json(obj, field: str) -> np.ndarray:
    """The square matrix of ``obj``, checked by ``linalg.as_matrix``, whose
    refusals, like a ragged or non-finite matrix, are renamed to ``field``."""

    def build(rows):
        return as_matrix([[_entry_to_complex(entry, field) for entry in row] for row in rows])

    return _decode(obj, "matrix", field, _ROWS, build, ("dim", "matrix shape", len))


def superop_to_json(t: SuperOperator) -> dict:
    return {**matrix_to_json(t.matrix), "dim": int(t.dim)}


def superop_from_json(obj, field: str) -> SuperOperator:
    """The map of ``obj``: an n^2 x n^2 matrix, read by ``matrix_from_json``
    from the raw rows, since its declared dim is the algebra dimension n."""
    from .superop import SuperOperator

    def build(rows):
        m = matrix_from_json(rows, field)
        dim = int(round(m.shape[0] ** 0.5))
        if dim * dim != m.shape[0]:
            raise SchemaError(field, f"superoperator side {m.shape[0]} is not a perfect square")
        return SuperOperator(dim, m)

    return _decode(obj, "matrix", field, _ROWS, build, ("dim", "matrix shape", lambda t: t.dim))


def point_map_from_json(obj, field: str = "map") -> PointMap:
    """The point map of ``obj``; ``PointMap`` reads each image once, by
    ``integer_value``."""
    from .classical import PointMap

    nonempty = "map must be a nonempty list of indices"
    return _decode(obj, "map", field, nonempty, PointMap, ("n", "map length", lambda s: s.n))


def point_map_to_json(s: PointMap) -> dict:
    return {"n": int(s.n), "map": [int(i) for i in s.images]}


def measure_space_from_json(obj, field: str = "mu") -> FiniteMeasureSpace:
    """The measure space of ``obj``; ``FiniteMeasureSpace`` reads each mass
    once, by ``real_value``."""
    from .classical import FiniteMeasureSpace

    nonempty = "mu must be a nonempty list of positive masses"
    return _decode(obj, "mu", field, nonempty, FiniteMeasureSpace)


def decomposition_to_json(dec: LampertiDecomposition) -> dict:
    return {
        "kind": dec.kind,
        "lambda": dec.scale,
        "w": matrix_to_json(dec.w),
        "implementing_unitary": matrix_to_json(dec.implementing_unitary),
        "residual": dec.residual,
        "centrality_defect": dec.centrality_defect,
        "scale_defect": dec.scale_defect,
    }


def dumps(obj) -> str:
    """``obj`` as strict JSON: a number that is not finite raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _render_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_render_cell(v) for v in row])
    return buf.getvalue()


def flat_report_to_csv(report: dict) -> str:
    """The report's top-level scalar fields as sorted name,value rows; nested
    objects are left out."""
    rows = [(k, v) for k, v in sorted(report.items()) if isinstance(v, (int, float, bool, str))]
    return rows_to_csv(["name", "value"], rows)
