#!/usr/bin/env python3
"""steinbn benchmark: one workload per process, through ``steinbn.cli.run_cli``.

    python3 bench/run.py --workload train-table1 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Load model: a single closed-loop client. One process runs the
workload's CLI calls one after another, with BLAS and OpenMP pinned to one
thread (on a 2-CPU machine the default two threads made two identical
trainings differ by 30%, one thread by 2%).

Times are process CPU times (``time.process_time``), not wall times: the
benchmark runs in a virtual machine whose host takes the CPU away for seconds
at a time (steal time), which a wall clock charges to the program. The work
is single-threaded and CPU-bound (BLAS pinned to one thread, no sleeps, no
fsync), so its CPU time is what it costs. Wall times are printed beside them.

Set-up (imports, inputs, checkpoints, warm-up calls) is repeated three times
and reported as ``setup_s``, the import CPU time plus the median repeat. The
timed phase then runs rounds of the workload's calls until ``--seconds`` of
wall time have passed (at least three rounds); ``cpu_s`` sums the median CPU
time of each call. Every artifact is checked, must be byte-identical across
rounds, and at the default seed must match ``bench/reference.json``.

``--trace 1`` alternates untraced rounds with rounds under the tracer (see
``tracer.py``), reports per-layer metrics per round and ``trace.overhead``,
and requires traced artifacts to be byte-identical to untraced ones.

Earlier lines of standard output describe the run (environment, per-workload
rate, error rate, per-call trace breakdown); the last line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_REPEATS = 3
MIN_ROUNDS = 3
PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-table1", "risk-mc", "eval-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs for the benchmark's own tests; no reference check")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference (default seed only)")
    return parser.parse_args(argv)


def _environment() -> dict:
    import ctypes

    import numpy as np
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for getter in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, getter):
                    fn = getattr(handle, getter)
                    fn.restype = ctypes.c_int
                    blas_threads = fn()
                    break
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "pinned_env": {var: os.environ.get(var) for var in PINNED_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _run_round(cli, items, after_call=None) -> dict:
    """Run every call once; returns wall and CPU times, artifacts and errors
    by item."""
    wall, times, cpu_times, outputs, errors = 0.0, {}, {}, {}, {}
    for item in items:
        log = io.StringIO()
        t0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.run_cli(item.argv)
        except Exception:  # the benchmark must report the failure and go on
            code = traceback.format_exc(limit=3)
        took = perf_counter() - t0
        cpu_times[item.name] = process_time() - c0
        wall += took
        times[item.name] = took
        if after_call is not None:
            after_call(item, took)
        if code != 0:
            errors[item.name] = f"exit {code}: {log.getvalue()[-500:]}"
            continue
        try:
            outputs[item.name] = [_read(path) for path in item.outs]
        except OSError as exc:
            errors[item.name] = f"missing artifact: {exc}"
    return {"wall": wall, "times": times, "cpu_times": cpu_times, "outputs": outputs,
            "errors": errors}


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _run_phase(cli, items, seconds: float) -> list[dict]:
    rounds = []
    deadline = perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        rounds.append(_run_round(cli, items))
    return rounds


def _verify(workload, items, rounds, traced, reference) -> tuple[dict, dict]:
    """Errors by item, and the per-item summaries compared with the reference
    (``None``: no reference check)."""
    errors, summaries = {}, {}
    first = rounds[0]["outputs"]
    for item in items:
        name = item.name
        bad = [r["errors"][name] for r in rounds + traced if name in r["errors"]]
        if bad:
            errors[name] = bad[0]
            continue
        if any(r["outputs"][name] != first[name] for r in rounds):
            errors[name] = "artifacts differ between rounds"
        elif any(r["outputs"][name] != first[name] for r in traced):
            errors[name] = "traced artifacts differ from untraced ones"
        else:
            summaries[name] = workload.summary(item, first[name])
            errors[name] = workload.check(item, first[name])
            if errors[name] is None and reference is not None:
                if name not in reference:
                    errors[name] = "no reference output recorded"
                else:
                    errors[name] = workload.matches_reference(summaries[name], reference[name])
    errors.update(workload.check_round(items, summaries))
    return {k: v for k, v in errors.items() if v}, summaries


def main(argv=None) -> int:
    args = _parse(argv)
    for var in PINNED_VARS:  # before numpy is first imported
        os.environ[var] = "1"

    t_import = process_time()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "steinbn", "__init__.py")):
        print(f"error: no steinbn sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import steinbn
    import steinbn.cli as cli

    if os.path.dirname(os.path.dirname(os.path.abspath(steinbn.__file__))) != src:
        print(f"error: imported steinbn from {steinbn.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    import_s = process_time() - t_import

    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    use_reference = not args.tiny and args.seed == workloads.DEFAULT_SEED
    if args.write_reference and not use_reference:
        print("error: --write-reference needs the default seed and full size", file=sys.stderr)
        return 2
    references = {}
    if use_reference and os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            references = json.load(f)
    check_reference = use_reference and not args.write_reference
    reference = references.get(workload.name, {}) if check_reference else None

    os.makedirs(os.path.join(BENCH_DIR, "_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(BENCH_DIR, "_work"))
    try:
        setup_reps = []
        for _ in range(SETUP_REPEATS):
            t0 = process_time()
            items = workload.prepare(work_dir, args.seed)
            _run_round(cli, [item for item in items if item.warm])
            setup_reps.append(process_time() - t0)
        setup_s = import_s + statistics.median(setup_reps)

        if args.trace:
            rounds, traced, trace_report, trace_errors = _traced_phase(
                cli, tracing, items, args.seconds)
        else:
            rounds, traced, trace_errors = _run_phase(cli, items, args.seconds), [], {}
        errors, summaries = _verify(workload, items, rounds, traced, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    errors.update(trace_errors)
    # a call that failed once counts as failed in every round; broken span
    # accounting fails the run
    runs = len(rounds) + len(traced)
    attempted = len(items) * runs
    failed = min(attempted, runs * sum(item.name in errors for item in items) + len(trace_errors))

    cpu_s = _median_sum(items, rounds, "cpu_times")
    work = sum(item.work for item in items)
    rate_name, rate_unit = workload.rate
    print(json.dumps({"environment": _environment()}))
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_wall_s": [r["wall"] for r in rounds],
        "wall_s": {"value": _median_sum(items, rounds, "times"), "unit": "s"},
        "setup_repeats_cpu_s": setup_reps,
        rate_name: {"value": work / cpu_s, "unit": rate_unit},
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "errors": errors,
    }))

    if args.write_reference and not errors:
        references[workload.name] = summaries
        with open(REFERENCE, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")

    if args.trace:
        print(json.dumps({"trace": trace_report}))
        metrics = trace_report["metrics"]
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "work_per_cpu_s": {"value": work / cpu_s, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _traced_phase(cli, tracing, items, seconds):
    """Untraced and traced rounds, alternating so that drift in the machine's
    speed does not show as tracing overhead. Per-layer metrics are per traced
    round."""
    tracer = tracing.Tracer()
    plain, traced, per_call, errors, marks = [], [], {}, {}, []

    def record_call(item, wall):
        # per-call layer figures, from the first traced round only
        if traced:
            return
        marks.append(tracer.snapshot())
        raw = _diff(marks[-1], marks[-2])
        per_call[item.name] = {
            "wall_s": wall,
            **{k: v for k, (v, _) in tracing.layer_metrics(raw).items() if v},
        }

    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(_run_round(cli, items))
        tracer.install()
        try:
            marks[:] = [tracer.snapshot()]
            round_ = _run_round(cli, items, record_call)
        finally:
            tracer.uninstall()
        traced.append(round_)
        # layer self times plus the time outside every span must add up to
        # the round's wall time, or the span accounting is broken
        raw = _diff(tracer.snapshot(), marks[0])
        self_sum = tracing.self_time_sum(raw)
        remainder = round_["wall"] - raw["top_level"]
        if abs(self_sum + remainder - round_["wall"]) > 1e-6 * max(round_["wall"], 1.0):
            errors["trace"] = f"self times {self_sum} + remainder {remainder} != wall {round_['wall']}"
        if tracer.stack:
            errors["trace"] = "unbalanced spans"

    total = tracer.snapshot()
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in tracing.layer_metrics(total, scale=len(traced)).items()
    }
    metrics["trace.overhead"] = {
        "value": _median_sum(items, traced, "cpu_times") / _median_sum(items, plain, "cpu_times"),
        "unit": "ratio"}
    report = {
        "rounds": len(traced),
        "round_wall_s": [r["wall"] for r in traced],
        "self_time_sum_s": tracing.self_time_sum(total) / len(traced),
        "remainder_s": (sum(r["wall"] for r in traced) - total["top_level"]) / len(traced),
        "sites": tracer.sites,
        "per_call": per_call,
        "metrics": metrics,
    }
    return plain, traced, report, errors


def _median_sum(items, rounds, key: str) -> float:
    """Sum over calls of each call's median time (``key``: ``times`` for wall,
    ``cpu_times`` for CPU) across rounds.

    A burst of interference from other processes slows whichever call is
    running; a per-call median discards it unless it hits that call in half
    the rounds, where a median of round times discards it only when whole
    rounds are spared.
    """
    return sum(statistics.median(r[key][item.name] for r in rounds) for item in items)


def _diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


if __name__ == "__main__":
    sys.exit(main())
