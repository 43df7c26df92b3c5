"""Span recording around nclp's public functions, for the traced run.

The wrappers live here, outside the package: ``install`` replaces each
target function in every ``nclp.*`` module namespace that holds it (so
by-name imports such as ``superop``'s ``schatten_norm`` are caught too),
patches the two methods on their classes, and wraps ``numpy.linalg.svd``,
``eigh`` and ``eigvalsh`` as the ``linalg.*`` kernels.  A span is
``(name, start, end, parent, case)``; spans stay in memory and are written
out when the run ends.  Start and end are process CPU seconds, the clock of
the end-to-end metrics.  Wrappers record only while ``Tracer.active`` is set,
so the benchmark's own input generation and output checks stay untraced.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (span name, module, attribute) for every traced nclp function.
FUNCTIONS = (
    ("superop.positivity_check", "nclp.superop", "positivity_check"),
    ("superop.isometry_check", "nclp.superop", "isometry_check"),
    ("superop.weighted_isometry_transport", "nclp.superop", "weighted_isometry_transport"),
    ("superop.jordan_check", "nclp.superop", "jordan_check"),
    ("superop.jordan_classify", "nclp.superop", "jordan_classify"),
    ("superop.lamperti_decompose", "nclp.superop", "lamperti_decompose"),
    ("superop.implementability_check", "nclp.superop", "implementability_check"),
    ("superop.choi", "nclp.superop", "choi"),
    ("linalg.polar_decompose", "nclp.linalg", "polar_decompose"),
    ("linalg.hermitian_eig", "nclp.linalg", "hermitian_eig"),
    ("spaces.schatten_norm", "nclp.spaces", "schatten_norm"),
    ("spaces.weighted_norm", "nclp.spaces", "weighted_norm"),
    ("classical.multiplicativity_check", "nclp.classical", "multiplicativity_check"),
    ("mpc.implementability", "nclp.mpc", "mpc_implementability"),
    ("mpc.implementability", "nclp.mpc", "coarse_grained_implementability"),
    ("mpc.fwht", "nclp.mpc", "fwht"),
    ("mpc.wt_build", "nclp.mpc", "wt_build"),
    ("mpc.stochasticity", "nclp.mpc", "_stochasticity_of"),
    ("mpc.lower_bound", "nclp.mpc", "multiplicativity_lower_bound"),
    ("mpc.exact_identities", "nclp.mpc", "commutation_check"),
    ("mpc.exact_identities", "nclp.mpc", "filtration_defect"),
    ("mpc.exact_identities", "nclp.mpc", "time_consistency_defect"),
    ("mpc.exact_identities", "nclp.mpc", "intertwining_defect"),
    ("mpc.exact_identities", "nclp.mpc", "semigroup_defect"),
    ("mpc.exact_identities", "nclp.mpc", "contraction_violation"),
    ("cli.dispatch", "nclp.cli", "dispatch"),
    ("jsonio.decode", "nclp.jsonio", "matrix_from_json"),
    ("jsonio.decode", "nclp.jsonio", "superop_from_json"),
    ("jsonio.decode", "nclp.jsonio", "point_map_from_json"),
    ("jsonio.decode", "nclp.jsonio", "measure_space_from_json"),
    ("jsonio.encode", "nclp.jsonio", "matrix_to_json"),
    ("jsonio.encode", "nclp.jsonio", "superop_to_json"),
    ("jsonio.encode", "nclp.jsonio", "point_map_to_json"),
    ("jsonio.encode", "nclp.jsonio", "decomposition_to_json"),
    ("jsonio.encode", "nclp.jsonio", "dumps"),
    ("jsonio.encode", "nclp.jsonio", "rows_to_csv"),
    ("jsonio.encode", "nclp.jsonio", "flat_report_to_csv"),
)

#: (span name, module, class, method) for the traced methods.
METHODS = (
    ("superop.SuperOperator.apply", "nclp.superop", "SuperOperator", "apply"),
    ("spaces.QuantumMeasure.power", "nclp.spaces", "QuantumMeasure", "power"),
)

#: numpy kernels traced as the linalg layer.
KERNELS = (("linalg.svd", "svd"), ("linalg.eigh", "eigh"), ("linalg.eigvalsh", "eigvalsh"))


class Tracer:
    """In-memory span recorder; spans are tuples (name, start, end, parent, case)."""

    def __init__(self):
        self.active = False
        self.case = None
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.process_time()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.case)

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function, method and kernel (imports all of nclp)."""
    import numpy

    import nclp.cli  # noqa: F401  (pulls in every nclp module)

    modules = [m for n, m in sys.modules.items() if n == "nclp" or n.startswith("nclp.")]
    for name, module_name, attr in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    # criterion k is acceptance.CRITERIA[k - 1]; run_all iterates over that tuple
    acceptance = importlib.import_module("nclp.acceptance")
    criteria = tuple(
        tracer.wrap(f"acceptance.criterion_{k}", fn) for k, fn in enumerate(acceptance.CRITERIA, start=1)
    )
    for fn in criteria:
        setattr(acceptance, fn.__name__, fn)
    acceptance.CRITERIA = criteria
    for name, module_name, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
    for name, attr in KERNELS:
        setattr(numpy.linalg, attr, tracer.wrap(name, getattr(numpy.linalg, attr)))


def aggregate(spans) -> tuple[dict, dict, dict]:
    """Per span name: call count, self seconds, and total seconds.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because the traced code is serial.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
    return calls, self_s, total_s


def write_spans(path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]
