"""Benchmark of the invspec forward and inverse chain.

Run from the repository root:

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``forward``, ``inverse``, ``inverse-long``.  A run
imports ``invspec`` from ``src/`` of the same checkout, sets up its cases,
then repeats whole passes over the case list until ``--seconds`` have gone
by, sampling the host's speed during every call (see calibrate.py).  The
seed only shuffles the order of the cases within each pass; the inputs are
fixed.  Every output is checked; an operation that raises or
whose output a check rejects counts as failed, and a rejected output also
makes ``correct`` false.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics (see tracing.py) with
``--trace 1``.  The traced run also writes its spans to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# One BLAS thread unless the caller says otherwise: the workloads add no
# threads, and on a small shared machine a second BLAS thread only adds noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("forward", "inverse", "inverse-long")
IMPORT_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
               "import invspec, tracing, workloads; print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def fresh_import_s() -> float:
    """Time to import invspec and the benchmark's modules in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def run_case(case, sampler):
    """Run one case: (seconds in the library call, the same in probe units,
    Verdict or None if it raised).  The seconds leave out the sampler's
    handler."""
    raised = False
    sampler.start()
    t = time.perf_counter()
    try:
        output = case.run()
    except Exception:
        raised = True
        print(f"case {case.name}: raised", file=sys.stderr)
        traceback.print_exc()
    finally:
        wall = time.perf_counter() - t
        sampler.stop()
    elapsed = wall - sampler.overhead
    calibrated = sampler.calibrated(elapsed)
    if raised:
        return elapsed, calibrated, None
    try:
        return elapsed, calibrated, case.check(case.read(output))
    except Exception as exc:
        import workloads

        traceback.print_exc()
        return elapsed, calibrated, workloads.Verdict(
            failures=[f"checking the output raised {exc!r}"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "invspec" / "__init__.py").is_file():
        print(f"perfbench: no invspec package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

    import_times = [fresh_import_s() for _ in range(SETUP_REPEATS)]
    # numpy, and with it OpenBLAS, is imported only now that the thread
    # variables are set
    sys.path.insert(0, str(SRC))
    import calibrate
    import tracing
    import workloads

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        cases = workloads.WORKLOADS[args.workload]()
        for case in cases:
            case.warm_up()
        setup_times.append(time.perf_counter() - t)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    rng = random.Random(args.seed)
    attempted = failed = 0
    rejected = False
    errors: dict[str, float] = {}
    pass_times: list[float] = []
    pass_cals: list[float] = []
    probe_counts: list[int] = []
    layers: list[dict] = []
    start = time.perf_counter()
    sampler = calibrate.SpeedSampler()
    try:
        while True:
            order = list(cases)
            rng.shuffle(order)
            mark = tracer.mark() if tracer else None
            pass_time = pass_cal = 0.0
            pass_layer: dict[str, float] = {}
            for case in order:
                attempted += 1
                elapsed, calibrated, verdict = run_case(case, sampler)
                pass_time += elapsed
                pass_cal += calibrated
                probe_counts.append(len(sampler.probes))
                if verdict is None or verdict.failures:
                    failed += 1
                    if verdict is not None:
                        rejected = True
                        print(f"case {case.name}: rejected: {'; '.join(verdict.failures)}",
                              file=sys.stderr)
                    continue
                if verdict.error is not None:
                    errors[case.name] = max(errors.get(case.name, 0.0), verdict.error)
                for name, value in verdict.layer.items():
                    if name in tracing.MAXED:
                        pass_layer[name] = max(pass_layer.get(name, 0.0), value)
                    else:
                        pass_layer[name] = pass_layer.get(name, 0.0) + value
            pass_times.append(pass_time)
            pass_cals.append(pass_cal)
            if tracer:
                layer = tracer.summary(mark)
                layer.update(pass_layer)
                layers.append(layer)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    pass_s = statistics.median(pass_times)
    pass_cal = statistics.median(pass_cals)

    print(f"workload {args.workload}: {len(pass_times)} passes over {len(cases)} cases, "
          f"{attempted} operations, {failed} failed")
    print(f"  setup {setup_s:.3f} s (imports {', '.join(f'{t:.3f}' for t in import_times)} s, "
          f"cases and warm-up {', '.join(f'{t:.3f}' for t in setup_times)} s)")
    print(f"  passes {', '.join(f'{t:.3f}' for t in pass_times)} s, "
          f"{', '.join(f'{c:.1f}' for c in pass_cals)} probe times "
          f"({sum(probe_counts)} probes)")
    for case in cases:
        if case.name in errors:
            print(f"  {case.name}: {case.error_name} {errors[case.name]:.6e}")

    if tracer:
        names = tracing.TIMED + list(tracing.SELF_TIMED) + tracing.COUNTED + tracing.MAXED
        metrics = {name: metric(statistics.median(layer.get(name, 0.0) for layer in layers),
                                tracing.unit(name))
                   for name in names}
        metrics["trace.pass_s"] = metric(pass_s, "s")
        metrics["trace.pass_cal"] = metric(pass_cal, "1")
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.dump()}))
    else:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "pass_cal": metric(pass_cal, "1"),
            "peak_rss_mib": metric(peak_rss_mib, "MiB"),
            "ref_error": metric(max(errors.values()) if errors else None, "1"),
        }
    print(json.dumps({"correct": not rejected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
