"""nclp benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload implementability --seed 1 --seconds 10 --trace 0

The timed loop runs whole passes over the workload's fixed case list, one
case after another (a closed loop with one client), until ``--seconds`` have
elapsed; it always completes at least one pass.  Cases are timed in CPU
seconds of this process and its children, with OpenBLAS on one thread.
Every case's output is checked.  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` one further pass runs on fresh inputs
with the wrappers of ``tracing.py`` installed and the result carries the
per-layer metrics instead.  The last
line of standard output is the JSON result; the environment record, every
case time and every failure go to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads.  With two, a thread waiting for a
# descheduled partner spins, so time the hypervisor steals from one vCPU is
# charged as CPU time on the other; with one, the kernel's CPU clock leaves
# stolen time out (see bench/README.md).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: setup_s is the median of this many set-ups: the run's own and fresh
#: processes that set up and exit.
SETUPS = 5
#: case_tail_s estimates the highest percentile with this many samples of
#: one pass beyond it.
TAIL_SAMPLES = 10

IMPL, MPC, CLI = "implementability", "mpc-windows", "cli-session"

#: per-layer metric -> (span name, statistic, workload that exercises it,
#: workload that bypasses it).  The coverage self-check wants the value
#: non-zero on the first and zero on the second.  linalg.hermitian_eig is
#: called by no workload today: nclp's pipelines call numpy.linalg.eigh
#: directly, so it is only checked for zero on the bypass workload.
LAYER_METRICS = {
    "superop.SuperOperator.apply.calls": ("superop.SuperOperator.apply", "calls", IMPL, MPC),
    "superop.SuperOperator.apply.self_s": ("superop.SuperOperator.apply", "self_s", IMPL, MPC),
    "superop.positivity_check.self_s": ("superop.positivity_check", "self_s", IMPL, MPC),
    "superop.isometry_check.self_s": ("superop.isometry_check", "self_s", IMPL, MPC),
    "superop.weighted_isometry_transport.self_s": ("superop.weighted_isometry_transport", "self_s", IMPL, MPC),
    "superop.jordan_check.self_s": ("superop.jordan_check", "self_s", IMPL, MPC),
    "superop.jordan_classify.self_s": ("superop.jordan_classify", "self_s", IMPL, MPC),
    "superop.lamperti_decompose.self_s": ("superop.lamperti_decompose", "self_s", IMPL, MPC),
    "superop.implementability_check.self_s": ("superop.implementability_check", "self_s", IMPL, MPC),
    "superop.choi.calls": ("superop.choi", "calls", IMPL, MPC),
    "linalg.svd.calls": ("linalg.svd", "calls", IMPL, MPC),
    "linalg.svd.self_s": ("linalg.svd", "self_s", IMPL, MPC),
    "linalg.eigh.calls": ("linalg.eigh", "calls", IMPL, MPC),
    "linalg.eigh.self_s": ("linalg.eigh", "self_s", IMPL, MPC),
    "linalg.eigvalsh.calls": ("linalg.eigvalsh", "calls", IMPL, MPC),
    "linalg.eigvalsh.self_s": ("linalg.eigvalsh", "self_s", IMPL, MPC),
    "linalg.polar_decompose.self_s": ("linalg.polar_decompose", "self_s", IMPL, MPC),
    "linalg.hermitian_eig.calls": ("linalg.hermitian_eig", "calls", None, MPC),
    "spaces.schatten_norm.calls": ("spaces.schatten_norm", "calls", IMPL, MPC),
    "spaces.schatten_norm.self_s": ("spaces.schatten_norm", "self_s", IMPL, MPC),
    "spaces.weighted_norm.self_s": ("spaces.weighted_norm", "self_s", IMPL, MPC),
    "spaces.QuantumMeasure.power.calls": ("spaces.QuantumMeasure.power", "calls", IMPL, MPC),
    "mpc.implementability.self_s": ("mpc.implementability", "self_s", MPC, IMPL),
    "mpc.fwht.calls": ("mpc.fwht", "calls", MPC, IMPL),
    "mpc.fwht.self_s": ("mpc.fwht", "self_s", MPC, IMPL),
    "classical.multiplicativity_check.calls": ("classical.multiplicativity_check", "calls", MPC, IMPL),
    "classical.multiplicativity_check.self_s": ("classical.multiplicativity_check", "self_s", MPC, IMPL),
    "mpc.grid_bytes": (None, "grid_bytes", MPC, IMPL),
    "mpc.exact_identities.self_s": ("mpc.exact_identities", "self_s", MPC, IMPL),
    "mpc.wt_build.calls": ("mpc.wt_build", "calls", MPC, IMPL),
    "mpc.wt_build.self_s": ("mpc.wt_build", "self_s", MPC, IMPL),
    "mpc.stochasticity.self_s": ("mpc.stochasticity", "self_s", MPC, IMPL),
    "mpc.lower_bound.self_s": ("mpc.lower_bound", "self_s", MPC, IMPL),
    "cli.import_s": ("cli.import", "mean_s", CLI, None),
    "cli.dispatch.self_s": ("cli.dispatch", "self_s", CLI, None),
    "jsonio.decode.self_s": ("jsonio.decode", "self_s", CLI, None),
    "jsonio.encode.self_s": ("jsonio.encode", "self_s", CLI, None),
    **{
        f"acceptance.criterion_{k}.s": (f"acceptance.criterion_{k}", "total_s", CLI, None)
        for k in range(1, 11)
    },
    "trace.overhead_frac": (None, "overhead", None, None),
}

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "mean_s": "s", "grid_bytes": "bytes", "overhead": "fraction"}


def import_nclp():
    """Put the checkout's src first on the path and import nclp from it."""
    if not (SRC / "nclp" / "__init__.py").is_file():
        print(f"error: no nclp package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nclp

    if SRC.resolve() not in Path(nclp.__file__).resolve().parents:
        print(f"error: nclp imported from {nclp.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text(encoding="utf-8").strip()
    except OSError:
        cpu_max = "absent"
    try:
        threads = openblas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cgroup_cpu_max": cpu_max,
    }


def steal_ticks() -> int | None:
    """Clock ticks the hypervisor gave to others while this machine's CPUs
    wanted to run (the ``steal`` column of /proc/stat), or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_passes(cases, seconds: float, tracer=None):
    """Whole passes over ``cases`` until ``seconds`` of wall time have elapsed
    (at least one).

    Returns the records (name, CPU seconds, failure reason or None) and the
    CPU time of the loop.
    """
    records = []
    start, cpu_start = time.perf_counter(), cpu_seconds()
    while True:
        for case in cases:
            t0 = cpu_seconds()
            if tracer is not None:
                tracer.case, tracer.active = case.name, True
            try:
                output, reason = case.run(tracer), None
            except Exception as exc:  # a raising case is a failed case, not a failed run
                output, reason = None, f"raised {type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.active = False
            elapsed = cpu_seconds() - t0
            if reason is None:
                try:
                    reason = case.check(output)
                except Exception as exc:  # malformed output
                    reason = f"check raised {type(exc).__name__}: {exc}"
            records.append((case.name, elapsed, reason))
            del output
        if time.perf_counter() - start >= seconds:
            return records, cpu_seconds() - cpu_start


def tail_percentile(pass_size: int) -> int:
    return math.floor(100 * (pass_size - TAIL_SAMPLES) / pass_size)


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  Cases of different sizes leave gaps in the
    distribution, and a single order statistic next to a gap jumps between
    runs; the weighted mean does not."""
    from scipy.special import betainc  # kept out of the set-up probes

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up CPU seconds of a fresh process that sets up the same inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {proc.stderr.strip()[-200:]}")
    return float(proc.stdout)


def end_to_end_metrics(records, loop_cpu: float, pass_size: int, setup_times, rss_mb: float) -> dict:
    times = [seconds for _, seconds, _ in records]
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdicts_per_s": (len(records) / loop_cpu, "1/s"),
        "case_tail_s": (harrell_davis(times, tail_percentile(pass_size) / 100), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_metrics(spans, workload: str, cases, overhead: float) -> tuple[dict, list]:
    calls, self_s, total_s = tracing.aggregate(spans)
    stats = {
        "calls": calls,
        "self_s": self_s,
        "total_s": total_s,
        "mean_s": {k: total_s[k] / calls[k] for k in calls},
    }
    metrics, violations = {}, []
    for name, (span, stat, exercised, bypass) in LAYER_METRICS.items():
        if stat == "grid_bytes":
            value = max(case.grid_bytes for case in cases)
        elif stat == "overhead":
            value = overhead
        else:
            value = stats[stat].get(span, 0)
        metrics[name] = {"value": value, "unit": UNITS[stat]}
        if workload == exercised and value == 0:
            violations.append(f"{name} is 0 on {workload}, which should exercise it")
        if workload == bypass and value != 0:
            violations.append(f"{name} is {value} on {workload}, which should bypass it")
    return metrics, violations


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(IMPL, MPC, CLI))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="cli-session only: store every report field for this seed in bench/cli_reference.json",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_nclp()
    cases = workloads.WORKLOADS[args.workload](args.seed)
    # CPU seconds since the process started: interpreter, imports, inputs
    own_setup = time.process_time()
    if args.setup_probe:
        print(own_setup, flush=True)
        return 0
    if args.record_reference:
        if args.workload != CLI:
            raise SystemExit("--record-reference applies to cli-session only")
        path = workloads.REFERENCE_FILE
        stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        stored[str(args.seed)] = workloads.record_references(args.seed)
        path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0

    steal_before = steal_ticks()
    wall_start = time.perf_counter()
    records, loop_cpu = run_passes(cases, args.seconds)
    wall = time.perf_counter() - wall_start
    steal_after = steal_ticks()
    untraced_rate = len(records) / loop_cpu
    spans = None
    if args.trace:
        # fresh inputs, so that the traced pass starts as cold as the first
        # untraced one (QuantumMeasure caches its powers)
        cases = workloads.WORKLOADS[args.workload](args.seed)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced, traced_cpu = run_passes(cases, 0.0, tracer)
        records += traced
        spans = tracer.spans
        overhead = (len(traced) / traced_cpu) / untraced_rate - 1.0
        metrics, violations = layer_metrics(spans, args.workload, cases, overhead)
    else:
        rss_mb = peak_rss_mb()  # before the probes, which are children too
        setup = [own_setup] + [probe_setup(args.workload, args.seed) for _ in range(SETUPS - 1)]
        metrics = end_to_end_metrics(records, loop_cpu, len(cases), setup, rss_mb)
        violations = []

    failures = [(name, reason) for name, _, reason in records if reason is not None]
    known_defects = {case.name: case.known_defect for case in cases if case.known_defect}
    unexpected = sorted({name for name, _ in failures if name not in known_defects})
    for name, reason in sorted(set(failures)):
        known = " (known defect)" if name in known_defects else ""
        print(f"FAILED{known} {name}: {reason}", file=sys.stderr)
    for violation in violations:
        print(f"COVERAGE {violation}", file=sys.stderr)

    # share of the machine's CPU time the hypervisor gave to others during the
    # untraced loop: it lengthens the run's wall time, not the CPU times
    steal_frac = None
    if steal_before is not None and steal_after is not None:
        steal_frac = (steal_after - steal_before) / (os.sysconf("SC_CLK_TCK") * wall * os.cpu_count())

    workloads.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "cpu_steal_frac": steal_frac,
        "pass_size": len(cases),
        "case_tail_percentile": tail_percentile(len(cases)),
        "metrics": metrics,
        "wall_s": wall,
        # reported here only; see bench/README.md for why they are not gated
        "case_p50_s": harrell_davis([seconds for _, seconds, _ in records], 0.5),
        "error_rate": len(failures) / len(records),
        "failures": sorted(set(failures)),
        "known_defects": known_defects,
        "coverage_violations": violations,
        "cases": records,
    }
    (workloads.OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        tracing.write_spans(workloads.OUT_DIR / f"spans-{stem}.jsonl", spans)
    result = {
        "correct": not unexpected and not violations,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
