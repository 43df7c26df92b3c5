"""The benchmark's traced names must exist in nclp, and each workload's
pipeline must call the spans the benchmark's coverage check expects of it:
a renamed, deleted or bypassed traced function fails here instead of in a
traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACING = BENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name, module, attr", tracing.FUNCTIONS)
def test_traced_function_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name, module, cls, method", tracing.METHODS)
def test_traced_method_resolves(name, module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))


@pytest.mark.parametrize("name, attr", tracing.KERNELS)
def test_traced_kernel_resolves(name, attr):
    assert callable(getattr(np.linalg, attr))


def coverage_violations() -> list[str]:
    """Trace one small call per workload and check its call counts against
    the exercise and bypass columns of the benchmark's ``LAYER_METRICS``.

    Installing the tracer patches ``numpy.linalg`` and every nclp module, so
    this runs in a process of its own (see the test below).
    """
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)

    from nclp import mpc, superop
    from nclp.sampling import commuting_unitary, random_density
    from nclp.spaces import QuantumMeasure

    rng = np.random.default_rng(1)
    measure = QuantumMeasure(random_density(4, rng))
    u = commuting_unitary(measure.eigenbasis, rng)
    v = superop.SuperOperator(4, np.kron(u.conj(), u))
    # the workload's not-positive map X -> (2 tr X / n) 1 - X: the Choi
    # certificate accepts v with no sample, so this keeps the sampled
    # positivity stage, and its eigvalsh, on the traced path
    e = np.eye(4).reshape(-1, 1)
    flip = superop.SuperOperator(4, 0.5 * (e @ e.T) - np.eye(16))

    tracer = run.tracing.Tracer()
    run.tracing.install(tracer)

    def call_counts(call):
        tracer.spans, tracer.active = [], True
        try:
            result = call()
        finally:
            tracer.active = False
        return result, run.tracing.aggregate(tracer.spans)[0]

    windows = [{"N": 2, "f": f, "t": 1} for f in ({"kind": "logistic"}, {"kind": "step", "s0": 0})]
    _, mpc_calls = call_counts(lambda: [mpc.run_experiment(desc) for desc in windows])
    (report, refusal), impl_calls = call_counts(
        lambda: [superop.implementability_check(v, measure, 1.0), superop.implementability_check(flip, measure, 2.0)]
    )

    violations = [] if report.implementable else ["the commuting Ad(u) case was not accepted"]
    if refusal.failure != "positivity":
        violations.append(f"the not-positive case failed at {refusal.failure!r}")
    for workload, calls in ((run.MPC, mpc_calls), (run.IMPL, impl_calls)):
        for name, (span, _, exercised, bypass) in run.LAYER_METRICS.items():
            if span is None:
                continue
            if workload == exercised and not calls.get(span):
                violations.append(f"{name}: {span} is never called on {workload}")
            if workload == bypass and calls.get(span):
                violations.append(f"{name}: {span} is called {calls[span]} times on {workload}")
    return violations


def test_workloads_call_the_spans_the_benchmark_covers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


if __name__ == "__main__":
    print(json.dumps(coverage_violations()))
