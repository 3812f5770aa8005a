"""weylreps benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gram_sharp --seed 1 --seconds 17 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs one cycle of the workload's operations untraced and then traced,
repeated until ``--seconds`` have passed, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count.  A full record, the input
manifest and (traced) the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# The calibration kernel's time at reference speed; see at_reference_speed().
REFERENCE_KERNEL_S = 0.003
# How often the kernel is timed during a timed call.
TICK_S = 0.05
_KERNEL_LABELS = [(Fraction(3 * i - 23, 1 + i % 7), Fraction(29 - 5 * i, 2 + i % 5))
                  for i in range(16)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify_all", "gram_sharp", "gram_vacuum", "cli_session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import weylreps from this checkout; returns the import time.

    Sets the environment first, for this process and its children: one
    BLAS thread (below nproc), and no ``WEYLREPS_SEED``, which would
    override the seeds the workloads pass to ``verify``.
    """
    if not (SRC / "weylreps" / "__init__.py").is_file():
        raise SystemExit(f"error: no weylreps sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("WEYLREPS_SEED", None)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import weylreps.cli  # noqa: F401  (imports every module of the package)

    elapsed = time.perf_counter() - start
    if Path(weylreps.cli.__file__).resolve().parent != SRC / "weylreps":
        raise SystemExit(f"error: imported weylreps from {weylreps.cli.__file__}")
    return elapsed


def child_import_times() -> list[float]:
    """Import time of ``weylreps.cli`` in SETUP_REPEATS fresh interpreters.

    A fresh interpreter imports numpy and the package cold, as a user's
    first call does; the median of several is steadier than the one import
    this process makes.  Each time is at reference speed.
    """
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import weylreps.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        proc = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(at_reference_speed(float(proc.stdout), [before, calibrate()]))
    return times


def calibration_kernel() -> int:
    """Fixed interpreter work shaped like the program's own.

    Rational label sums and products, float phases and dict merges, as in
    a Weyl product.  It calls nothing in weylreps, so a change to the
    program never changes it.
    """
    merged: dict = {}
    for a1, b1 in _KERNEL_LABELS:
        for a2, b2 in _KERNEL_LABELS:
            key = (a1 + a2, b1 + b2)
            merged[key] = merged.get(key, 0j) + cmath.exp(1j * float(a2 * b1))
    return len(merged)


def calibrate() -> float:
    """CPU seconds one calibration kernel takes now.

    CPU time, not wall time: a kernel that runs while a CLI child holds the
    same vCPU must not count the child's share.  On a shared virtual host,
    CPU time slows with the host as wall time does (README.md).
    """
    start = time.thread_time()
    calibration_kernel()
    return time.thread_time() - start


def at_reference_speed(seconds: float, kernel_times: list[float]) -> float:
    """A time, scaled to reference speed by kernel times taken around it.

    A shared virtual host's speed can swing by up to a factor of two over
    seconds to minutes (README.md).  The calibration kernel slows with it, so the
    scaled time is what the measured work would have taken while the
    kernel took REFERENCE_KERNEL_S.
    """
    return seconds * REFERENCE_KERNEL_S / statistics.fmean(kernel_times)


def timed_at_reference_speed(call):
    """Run ``call()``; return its result, its time as measured, and at reference speed.

    The kernel is timed just before and just after the call, and every
    TICK_S during it from a SIGALRM handler in this thread.  The handler's
    CPU time, which delayed the call (or the CLI child on the same vCPU) by
    as much, is taken out of the call's time.  A long call is thus scaled by
    the speed it actually ran at, not by the speed at its ends.
    """
    ticks: list[float] = []
    kernel_times = [calibrate()]
    previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(calibrate()))
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    start = time.perf_counter()
    try:
        result = call()
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed -= sum(ticks)
    kernel_times += ticks + [calibrate()]
    return result, elapsed, at_reference_speed(elapsed, kernel_times)


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest order statistic with at least ten samples beyond it.

    Below 21 samples that statistic falls under the median, so the tail is
    the maximum instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max (n={n} < 21)"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} (10 of {n} beyond)"


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup(name: str, seed: int, workdir: Path):
    """Input generation and warm-up, SETUP_REPEATS times; keeps the last.

    Each time is at reference speed.
    """
    from workloads import WORKLOADS

    def build():
        workload = WORKLOADS[name](seed, workdir)
        workload.warm_up()
        return workload

    times = []
    for _ in range(SETUP_REPEATS):
        workload, _, elapsed = timed_at_reference_speed(build)
        times.append(elapsed)
    return workload, times


def closed_loop(workload, seconds: float, failures: list) -> tuple[list, list]:
    """Run whole cycles of operations back to back until ``seconds`` of operation time.

    Only ``execute`` is timed, with calibrations around and during it;
    checks run between operations.  Returns each operation's time at
    reference speed, and as measured.  Stopping at a cycle boundary keeps
    the mix identical from run to run; counting time at reference speed
    keeps the number of cycles, and so the rank ``op_tail_ms`` takes, from
    following the host's speed.  A wall-clock cap keeps a run on a much
    slower host, or with very slow checks, inside the time limit.
    """
    samples: list[float] = []
    measured: list[float] = []
    busy, wall_start = 0.0, time.perf_counter()
    clock = time.perf_counter
    while (busy < seconds or len(samples) % workload.cycle_length) \
            and clock() - wall_start < 2 * seconds + 10:
        op = workload.op(len(samples))
        result, elapsed, scaled = timed_at_reference_speed(lambda: workload.execute(op))
        samples.append(scaled)
        measured.append(elapsed)
        busy += scaled
        verdict = workload.check(op, result)
        if verdict is not None:
            failures.append(verdict)
    return samples, measured


def traced_cycles(workload, seconds: float, failures: list):
    """Alternate one untraced and one traced pass over the first cycle."""
    from spans import Tracer

    tracer = Tracer()
    cycle = [workload.op(i) for i in range(workload.cycle_length)]
    untraced = traced = 0.0
    child_wall = child_import = 0.0
    exit2 = []
    repeats = 0
    clock = time.perf_counter
    start = clock()
    while repeats == 0 or clock() - start < seconds:
        for op in cycle:
            t0 = clock()
            workload.execute(op)
            untraced += clock() - t0
        for k, op in enumerate(cycle):
            tracer.op = repeats * len(cycle) + k
            if workload.name == "cli_session":
                path = OUT / f"child-{os.getpid()}.json"
                t0 = clock()
                result = workload.execute(op, traced_spans=str(path))
                elapsed = clock() - t0
                dump = json.loads(path.read_text(encoding="utf-8"))
                path.unlink()
                tracer.merge(dump, tracer.op)
                child_wall += elapsed
                child_import += dump["import_s"]
                code = result[0]
            else:
                tracer.install()
                t0 = clock()
                try:
                    result = workload.execute(op)
                finally:
                    elapsed = clock() - t0
                    tracer.uninstall()
                code = result[0] if workload.name == "verify_all" else 0
            traced += elapsed
            if repeats == 0:
                exit2.append(code == 2)
            verdict = workload.check(op, result)
            if verdict is not None:
                failures.append(verdict)
        repeats += 1
    return tracer, {"repeats": repeats, "untraced_s": untraced, "traced_s": traced,
                    "child_wall_s": child_wall, "child_import_s": child_import,
                    "exit2_per_cycle": sum(exit2)}


def preregistered(workload, tracer) -> dict:
    """Counts named in advance, per operation of the first traced cycle."""
    from spans import layer_totals, sup_bound_terms

    out = {}
    for k in range(workload.cycle_length):
        op = workload.op(k)
        totals = layer_totals(tracer, ops=[k])
        if workload.name == "gram_sharp":
            seen, nonzero = tracer.nonzero.get(k, [0, 0])
            words = sum(len(w) for w in op["basis"])
            out[f"op{k}"] = {"words": op["words"], "scale": op["scale"], "kind": op["kind"],
                             "algebra.mul_term_pairs": totals["algebra.mul"]["n_in"],
                             "expected_mul_term_pairs": words * words,
                             "states.nonzero_term_ratio": f"{nonzero}/{seen}"}
        elif workload.name == "cli_session" and op["request"].startswith("gns:"):
            n = len(json.loads(workload.files[op["argv"][-1]]))
            out[f"op{k}"] = {"request": op["request"], "words": n,
                             "gns.inner_calls": totals.get("gns.inner", {}).get("calls", 0),
                             "expected_2n2_plus_n": 2 * n * n + n}
        elif workload.name == "verify_all":
            under, expected = sup_bound_terms(tracer, k)
            out[f"op{k}"] = {
                "seed": op["data"],
                "almost_periodic.evaluate_terms": totals["almost_periodic.evaluate"]["n_in"],
                "evaluate_terms_under_sup_norm_bounds": under,
                "expected_1024_x_sup_norm_terms": expected}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # One vCPU for this process and its children: each vCPU of a shared
    # host drifts on its own, and the calibrations must see the same one
    # as the operations they scale.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_s = import_program()
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"requests-{os.getpid()}"
    try:
        return run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, import_s: float, workdir: Path) -> int:
    import spans
    from workloads import KNOWN_DEFECTS

    import_times = child_import_times()
    workload, setup_times = setup(args.workload, args.seed, workdir)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    # The input pool lives for the whole run; keep the collector from
    # re-scanning it, so collections cost what the program's own objects cost.
    gc.freeze()
    manifest = {"workload": args.workload, "seed": args.seed, **workload.manifest()}
    tag = f"{args.workload}-seed{args.seed}"
    spans.write_json(OUT / f"manifest-{tag}.json", manifest)
    print(f"inputs: {manifest['operations']} operations, sha256 {manifest['sha256']}")

    failures: list = []
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(), "import_s": import_s,
              "child_import_times_s": import_times, "setup_times_s": setup_times,
              "manifest": manifest}
    with workload.session():
        if args.trace == 0:
            samples, measured = closed_loop(workload, args.seconds, failures)
            attempted = len(samples)
            tail_ms, tail_name = tail(samples)
            tail_ms *= 1000
            metrics = {
                "ops_per_s": (attempted / sum(samples), "1/s"),
                "op_p50_ms": (statistics.median(samples) * 1000, "ms"),
                "op_tail_ms": (tail_ms, "ms"),
                "ok_frac": ((attempted - len(failures)) / attempted, "frac"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb(args.workload == "cli_session"), "MB"),
            }
            notes = {"ops_per_s": f"as measured {attempted / sum(measured):.6g}",
                     "op_p50_ms": f"as measured {statistics.median(measured) * 1000:.6g}",
                     "op_tail_ms": f"{tail_name}, as measured {tail(measured)[0] * 1000:.6g}",
                     "ok_frac": f"failed_frac "
                     f"{len(failures) / attempted:.4f} ({len(failures)}/{attempted})",
                     "setup_s": f"median of {SETUP_REPEATS} fresh imports + median of "
                                f"{SETUP_REPEATS} setups"}
            record["samples_s"] = samples
            record["measured_samples_s"] = measured
        else:
            suite_times = spans.time_suites(args.seed)
            tracer, info = traced_cycles(workload, args.seconds, failures)
            n_ops = info["repeats"] * workload.cycle_length
            attempted = n_ops
            metrics = spans.layer_metrics(tracer, n_ops)
            in_child = args.workload == "cli_session"
            main_wall = spans.layer_totals(tracer).get("cli.main", {}).get("wall", 0.0)
            metrics["cli.import_s"] = (
                info["child_import_s"] / n_ops if in_child else import_s, "s")
            metrics["cli.process_s"] = (
                (info["child_wall_s"] - main_wall) / n_ops if in_child else 0.0, "s/op")
            metrics["cli.exit2_count"] = (info["exit2_per_cycle"], "count")
            for name, value in suite_times.items():
                metrics[name] = (value, "s")
            metrics["trace.overhead_frac"] = (info["traced_s"] / info["untraced_s"] - 1, "frac")
            notes = {"trace.overhead_frac": f"{info['repeats']} traced cycles of "
                     f"{workload.cycle_length} operations"}
            record["trace_info"] = info
            record["preregistered"] = preregistered(workload, tracer)
            tracer.save(OUT / f"spans-{args.workload}.npz")

    unexpected = [f for f in failures if f[0] not in KNOWN_DEFECTS]
    classes: dict = {}
    for failure_class, _ in failures:
        classes[failure_class] = classes.get(failure_class, 0) + 1
    record.update(failures=[list(f) for f in failures[:50]], failure_classes=classes,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  notes=notes)
    spans.write_json(OUT / f"record-{args.workload}-trace{args.trace}.json", record)

    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:40s} {value:14.6g} {unit:9s} n={attempted} {note}")
    print(f"failed {len(failures)}/{attempted} by class {classes}; "
          f"unexpected {len(unexpected)}")
    for failure in unexpected[:5]:
        print(f"unexpected failure: {failure}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
