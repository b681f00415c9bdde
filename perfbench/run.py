"""ptsphere benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a ptsphere checkout:

    python3 perfbench/run.py --workload exact-eval --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client runs the workload's operations back to back (a closed loop) on
one thread: BLAS is held to one thread too.  With --trace 0 the run prints
the end-to-end metrics, in CPU seconds scaled to a reference speed (raw CPU
and wall times go to the record); with --trace 1 it runs untraced passes,
then traced passes, and prints the per-layer metrics in wall seconds.  Every
operation's verdict is checked.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the full
record, with the environment and the trace, goes to perfbench/results/.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("exact-eval", "symbolic-build", "float-spectra")
SETUP_PROBES = 3  # fresh interpreters timed for setup_s
MIN_PASSES = 11  # a tail percentile needs ten passes beyond it
MAX_RUN_S = 150.0  # stop adding passes well before the 180 s limit
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run, before tracing starts
RUN_START = time.perf_counter()
# median CPU seconds of reference_kernel() on the machine the benchmark was
# tuned on (Intel Xeon, 2 vCPUs, Python 3.12, numpy 2.4).  A pass's CPU
# seconds are scaled by REF_S / (the median of the kernel runs just before and
# just after that pass)
REF_S = 0.019
REF_REPS = 3  # reference-kernel runs between two timed passes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def limit_blas_threads():
    """One BLAS thread, so the process's CPU time is the one client's work.

    Must run before numpy is imported.  Idle OpenBLAS threads spin, and
    their spinning would count as CPU time of the pass.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    if not os.path.isfile(os.path.join(SRC, "ptsphere", "__init__.py")):
        sys.exit(f"error: no ptsphere sources under {SRC}; run from a full checkout")
    limit_blas_threads()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


# -- environment record ---------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_threads():
    """Threads the loaded OpenBLAS reports, else the environment setting."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return f"env OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- reference speed ---------------------------------------------------------------


def reference_kernel():
    """Fixed work that does not touch ptsphere; returns its CPU seconds.

    On a shared host, other tenants change how fast a core runs by up to half
    from minute to minute, and CPU time moves with it.  The kernel mixes the
    work the workloads do (exact rationals, dict updates, a small complex
    eigensolve), so its speed in a run tracks the machine's speed in that run.
    """
    import numpy

    rng = numpy.random.default_rng(0)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    c0 = time.process_time()
    acc, counts = Fraction(0), {}
    for i in range(1, 1200):
        acc += Fraction(i, i * i + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    numpy.linalg.eigvals(m)
    return time.process_time() - c0


# -- set-up ---------------------------------------------------------------------------


def setup_probe(workload, seed):
    """Fresh-interpreter set-up: import the program, build the workload.

    Prints the CPU seconds it took, then the wall seconds.
    """
    c0, t0 = time.process_time(), time.perf_counter()
    import ptsphere.cli  # noqa: F401
    import ptsphere.reduction  # noqa: F401
    import ptsphere.spectral  # noqa: F401
    import workloads

    workloads.setup(workload, seed)
    print(f"{time.process_time() - c0:.9f} {time.perf_counter() - t0:.9f}")


def measure_setup(workload, seed):
    """Median CPU seconds of the set-up probes; the (cpu, wall) samples."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload",
             workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        cpu, wall = map(float, out.stdout.split()[-2:])
        samples.append((cpu, wall))
    return statistics.median(c for c, _ in samples), samples


# -- passes ---------------------------------------------------------------------------


def run_pass(ops, tracer=None):
    """One pass over the operations.

    Returns (cpu s, wall s, [(ok, cpu s, error)]).  CPU time leaves out the
    time the process waits for a core, which is the host's load, not
    ptsphere's work.
    """
    results = []
    c_pass, t_pass = time.process_time(), time.perf_counter()
    for op in ops:
        c0 = time.process_time()
        try:
            ok = bool(tracer.call(op.run) if tracer else op.run())
            err = None
        except Exception as exc:  # a crashing operation is a failed verdict
            ok, err = False, f"{type(exc).__name__}: {exc}"
        results.append((ok, time.process_time() - c0, err))
    return time.process_time() - c_pass, time.perf_counter() - t_pass, results


class Verdicts:
    """Per-operation tally of attempts, failures and times over a run."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.per_op = {op.name: {"attempts": 0, "failures": 0, "times": [], "error": None}
                       for op in ops}

    def add(self, results):
        for op, (ok, dt, err) in zip(self.ops, results):
            rec = self.per_op[op.name]
            rec["attempts"] += 1
            rec["times"].append(dt)
            self.attempted += 1
            if not ok:
                rec["failures"] += 1
                rec["error"] = rec["error"] or err
                self.failed += 1

    @property
    def correct(self):
        """Every failure is a documented known defect."""
        return all(
            op.known_defect or self.per_op[op.name]["failures"] == 0 for op in self.ops
        )

    def summary(self):
        out = []
        for op in self.ops:
            rec = self.per_op[op.name]
            out.append({
                "op": op.name,
                "attempts": rec["attempts"],
                "failures": rec["failures"],
                "median_s": statistics.median(rec["times"]),
                "error": rec["error"],
                "known_defect": op.known_defect,
            })
        return out


def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n < MIN_PASSES:
        raise ValueError(f"{n} passes; a tail needs at least {MIN_PASSES}")
    return v[n - MIN_PASSES], 100.0 * (n - 10) / n


def timed_passes(ops, verdicts, seconds, min_passes, tracer=None, ref=None):
    """Passes until `seconds` of wall time have gone by and at least
    `min_passes` ran; each pass is (cpu s, wall s, results, trace snapshot).

    With a list `ref`, REF_REPS reference-kernel times are added to it
    before each pass and after the last one.
    """
    start = time.perf_counter()
    passes = []
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if time.perf_counter() - RUN_START > MAX_RUN_S:
            break
        if ref is not None:
            ref.extend(reference_kernel() for _ in range(REF_REPS))
        if tracer:
            tracer.reset()
        cpu, wall, results = run_pass(ops, tracer)
        verdicts.add(results)
        passes.append((cpu, wall, results, tracer.snapshot(wall) if tracer else None))
    if ref is not None:
        ref.extend(reference_kernel() for _ in range(REF_REPS))
    return passes


def pass_scales(ref, n):
    """REF_S over the median kernel time around each of `n` passes."""
    k = REF_REPS
    return [REF_S / statistics.median(ref[k * i:k * (i + 2)]) for i in range(n)]


# -- end-to-end run -------------------------------------------------------------------


def end_to_end(workload, seed, seconds):
    setup_s, setup_samples = measure_setup(workload, seed)
    import workloads

    ops = workloads.setup(workload, seed)
    verdicts = Verdicts(ops)
    window = time.perf_counter()
    _, warm_s, warm = run_pass(ops)  # fills caches and lazy imports; not timed
    verdicts.add(warm)
    ref = []
    passes = timed_passes(ops, verdicts, seconds - (time.perf_counter() - window), MIN_PASSES,
                          ref=ref)
    scales = pass_scales(ref, len(passes))
    cpu_times = [p[0] for p in passes]
    wall_times = [p[1] for p in passes]
    pass_times = [c * f for c, f in zip(cpu_times, scales)]
    tail_s, tail_pct = tail(pass_times)
    slowest = [max(dt for _, dt, _ in p[2]) * f for p, f in zip(passes, scales)]
    metrics = {
        "setup_s": (setup_s * REF_S / statistics.median(ref), "s"),
        "pass_s.p50": (statistics.median(pass_times), "s"),
        "pass_s.tail": (tail_s, "s"),
        "slowest_verdict_s.p50": (statistics.median(slowest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"times are CPU seconds at reference speed: measured CPU seconds x REF_S "
        f"{REF_S} s / the reference kernel's median CPU s around the pass (set-up: "
        f"over the run); the kernel's median over {len(ref)} runs was "
        f"{statistics.median(ref):.5f} s, scale factors {min(scales):.3f}-{max(scales):.3f}",
        f"pass_s.tail is the p{tail_pct:.1f} of {len(pass_times)} timed passes "
        f"(nearest rank, ten passes beyond it); the warm-up pass took {warm_s:.3f} s "
        "wall and is not timed",
        f"measured CPU s of a pass: median {statistics.median(cpu_times):.4f}, "
        f"range {min(cpu_times):.4f}-{max(cpu_times):.4f}; wall s: median "
        f"{statistics.median(wall_times):.4f}, range {min(wall_times):.4f}-"
        f"{max(wall_times):.4f}",
        f"setup_s is the median of {SETUP_PROBES} fresh interpreters, measured cpu/wall s: "
        + ", ".join(f"{c:.4f}/{w:.4f}" for c, w in setup_samples),
        f"fail_ratio {verdicts.failed / verdicts.attempted:.6f} ratio "
        f"({verdicts.failed} failed of {verdicts.attempted} operations attempted)",
    ]
    record = {"pass_s": pass_times, "pass_cpu_s": cpu_times, "pass_wall_s": wall_times,
              "warmup_wall_s": warm_s, "slowest_verdict_s": slowest,
              "setup_cpu_wall_s": setup_samples, "reference_kernel_cpu_s": ref}
    return metrics, verdicts, notes, record


# -- traced run ------------------------------------------------------------------------


def per_layer(workload, seed, seconds):
    import tracing
    import workloads

    ops = workloads.setup(workload, seed)
    verdicts = Verdicts(ops)
    window = time.perf_counter()
    _, _, warm = run_pass(ops)
    verdicts.add(warm)
    untraced = timed_passes(ops, verdicts, seconds * UNTRACED_SHARE
                            - (time.perf_counter() - window), 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_passes(ops, verdicts, seconds - (time.perf_counter() - window), 2,
                              tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_s = statistics.median(p[1] for p in untraced)
    snaps = [p[3] for p in traced]
    metrics, notes = tracing.layer_metrics(snaps, untraced_s)
    record = {
        "untraced_pass_wall_s": [p[1] for p in untraced],
        "traced_pass_wall_s": [p[1] for p in traced],
        "last_traced_pass": tracer.dump(),
    }
    return metrics, verdicts, notes, record


# -- output -----------------------------------------------------------------------------


def declared_metrics(traced):
    """Metric names BENCHMARK.json declares for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def report(workload, seed, seconds, traced):
    import workloads

    env = environment(seed)
    run = per_layer if traced else end_to_end
    metrics, verdicts, notes, record = run(workload, seed, seconds)
    declared = declared_metrics(traced)
    if declared is not None and sorted(declared) != sorted(metrics):
        sys.exit("error: measured metrics differ from BENCHMARK.json: "
                 f"{sorted(set(declared) ^ set(metrics))}")
    print(f"== ptsphere benchmark: workload {workload}, seed {seed}, "
          f"{'traced (per-layer)' if traced else 'untraced (end-to-end)'} ==")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"load: closed loop, one client, BLAS threads {env['openblas_threads']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    for line in notes:
        print("note: " + line)
    print("note: " + workloads.SEED_IGNORED)
    for rec in verdicts.summary():
        if rec["failures"]:
            why = f"known defect: {rec['known_defect']}" if rec["known_defect"] else rec["error"]
            print(f"failed: {rec['op']} {rec['failures']}/{rec['attempts']} ({why})")
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}.seed{seed}.trace{int(traced)}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seconds": seconds, "environment": env,
                   "metrics": values,
                   "notes": notes, "operations": verdicts.summary(), "run": record},
                  fh, indent=1, default=str)
    print(f"record: {os.path.relpath(path, ROOT)}")
    return {
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": values,
    }


def run_all(args):
    """Each workload in its own interpreter, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180, cwd=ROOT, check=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    return combined



def main(argv=None):
    args = parse_args(argv)
    import_program()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
