"""Benchmark of the clifford_mellin library: three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload spectra-512 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

One caller runs ops back to back (closed loop) in one process per workload,
with the BLAS pool capped at the CPU count.  Every op's output is checked
outside the timed span.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: the median over several set-ups spread through the run, each
  importing numpy and the library in a fresh interpreter, generating and
  writing the workload's inputs, indexing them and running one warm-up op.
* ``ops_per_kref``, ``op_cost.p50``, ``op_cost.p80``: throughput and per-op
  cost in reference units (see ``Reference``), with the sample count.
* ``peak_rss_mb``: the process's peak resident set.

``--trace 1`` alternates untraced and traced stretches of ops, the latter with
spans recorded around the library's public functions (see ``tracing.py``),
and reports the per-layer metrics.  Results and spans are written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")
NAMES = ("spectra-512", "image-match", "cli-roundtrip")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUPS = 7  # set-ups per untraced run; setup_s is their median
PROBE_EVERY_S = 0.2  # the reference is probed between ops at least this far apart
PROBES = 3  # reference timings per probe; their median is the probe's value
REF_SHAPE = (256, 256)
PY_LOOP = 20000
TRACE_SEGMENT_S = 1.0  # length of each untraced or traced stretch of a traced run
COPY_FLOATS = 1 << 19  # 4 MB, twice the per-core L2
COPIES = 4

IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import numpy, clifford_mellin\n"
    "print(time.perf_counter() - start)\n"
)

# name -> unit; the untraced run reports exactly these.
END_TO_END = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "op_cost.p50": "ref",
    "op_cost.p80": "ref",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> int:
    """Cap the BLAS pool at the CPU count; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return int(os.environ[BLAS_VARS[0]])


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "cpus": len(os.sched_getaffinity(0)),
        "caches_per_core": caches or "unknown",
        "machine": platform.machine(),
    }


class TwoFFT2:
    """Times two complex ``np.fft.fft2`` calls on a fixed array of one shape.

    Outputs go to a preallocated buffer and one untimed call precedes the
    timed pair, so the time depends on the machine's speed rather than on the
    heap and cache state the workload left behind.
    """

    def __init__(self, shape):
        import numpy as np

        rng = np.random.default_rng(0)
        self.array = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.out = np.empty_like(self.array)

    def seconds(self) -> float:
        import numpy as np

        np.fft.fft2(self.array, out=self.out)
        start = time.perf_counter()
        np.fft.fft2(self.array, out=self.out)
        np.fft.fft2(self.array, out=self.out)
        return time.perf_counter() - start


def python_loop_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(PY_LOOP):
        total += i * i
    return time.perf_counter() - start


class Reference:
    """One reference unit (ref): two complex fft2 calls on a fixed 256x256
    array, a fixed pure-Python loop and COPIES copies of a 4 MB array, about
    6 ms in all.

    The library's ops mix numpy kernels, interpreter work and passes over
    arrays larger than L2, so the unit holds one of each.  It is probed
    between ops and each op's time is divided by the mean of the probes just
    before and after it, so costs in refs follow the machine's speed through
    the run, which on a shared machine drifts by more than a tenth within
    seconds.
    """

    def __init__(self):
        import numpy as np

        self.fft = TwoFFT2(REF_SHAPE)
        self.source = np.random.default_rng(0).standard_normal(COPY_FLOATS)
        self.target = np.empty_like(self.source)

    def seconds(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for _ in range(COPIES):
            np.copyto(self.target, self.source)
        copy = time.perf_counter() - start
        return self.fft.seconds() + python_loop_seconds() + copy


class Phase:
    """Ops run back to back, each with its time and its reference."""

    def __init__(self, first_op: int = 1):
        self.seconds: list[float] = []
        self.ok: list[bool] = []
        self.refs: list[float] = []  # per op: the mean of the probes around it
        self.probes: list[float] = []
        self.errors: list[str] = []
        self.next_op = first_op
        self._last_probe: float | None = None

    def add(self, result) -> None:
        self.seconds.append(result.seconds)
        self.ok.append(result.ok)
        if not result.ok and len(self.errors) < 3:
            self.errors.append(result.error)

    def probe(self, ref: Reference) -> None:
        """Probe the reference; the ops since the last probe take the mean of
        the probes before and after them."""
        samples = [ref.seconds() for _ in range(PROBES)]
        self.probes += samples
        value = statistics.median(samples)
        around = value if self._last_probe is None else (self._last_probe + value) / 2.0
        self.refs += [around] * (len(self.seconds) - len(self.refs))
        self._last_probe = value

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def costs(self, ok_only: bool = True) -> list[float]:
        """Per-op cost in refs, of the ops that succeeded unless ``ok_only`` is off."""
        return [s / r for s, r, ok in zip(self.seconds, self.refs, self.ok) if ok or not ok_only]

    def p(self, q: float) -> float:
        """Percentile of the successful ops' costs (of all ops if none succeeded)."""
        import numpy as np

        return float(np.percentile(self.costs() or self.costs(ok_only=False), q))


def measure(workload, seconds: float, phase: Phase, ref: Reference, tracer=None) -> None:
    """Run ops back to back for ``seconds``, probing the reference between ops."""
    from workloads import attempt

    phase.probe(ref)
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start + PROBE_EVERY_S
    while True:
        phase.add(attempt(workload, phase.next_op, tracer))
        phase.next_op += 1
        now = time.perf_counter()
        if now >= next_probe or now >= deadline:
            phase.probe(ref)
            next_probe = time.perf_counter() + PROBE_EVERY_S
        if now >= deadline:
            break


def import_seconds() -> float:
    """Time importing numpy and the library in a fresh interpreter."""
    child = subprocess.run([sys.executable, "-c", IMPORT_CODE, SRC], capture_output=True,
                           text=True, check=True, timeout=120)
    return float(child.stdout)


def workdir(name: str, label: str) -> str:
    path = os.path.join(WORK, f"{name}-{os.getpid()}", label)
    os.makedirs(path)
    return path


def run_untraced(cls, seed: int, seconds: float):
    """SETUPS set-ups spread over the run, each followed by an equal share of
    the measured time, so that setup_s samples the machine as the ops do."""
    from workloads import attempt

    warmups = Phase()
    setup_seconds, imports = [], []
    phase = Phase()
    ref = Reference()
    path = None
    for k in range(SETUPS):
        workload = None  # release the previous set-up before making the next
        if path:
            shutil.rmtree(path)
        path = workdir(cls.name, f"setup{k}")
        imports.append(import_seconds())
        start = time.perf_counter()
        workload = cls(seed)
        workload.prepare(path)
        warmups.add(attempt(workload, 0))  # op 0 is every set-up's warm-up
        setup_seconds.append(imports[-1] + time.perf_counter() - start)
        measure(workload, seconds / SETUPS, phase, ref)
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_kref": 1000.0 * (phase.attempted - phase.failed) / sum(phase.costs(False)),
        "op_cost.p50": phase.p(50),
        "op_cost.p80": phase.p(80),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_runs_s": setup_seconds,
        "import_runs_s": imports,
        "ref_median_s": statistics.median(phase.probes),
        "ref_samples": len(phase.probes),
        "op_cost_samples": len(phase.costs()),
        "op_p50_s": statistics.median(phase.seconds),
    }
    return metrics, END_TO_END, [warmups, phase], notes


def run_traced(cls, seed: int, seconds: float):
    from tracing import PER_LAYER, SETUP, Tracer, layer_metrics
    from workloads import attempt

    workload = cls(seed)
    tracer = Tracer()
    tracer.install()
    tracer.op = SETUP
    try:
        workload.prepare(workdir(cls.name, "setup"))
    finally:
        tracer.op = None
        tracer.uninstall()
    warmups = Phase()
    warmups.add(attempt(workload, 0))
    workload.counters.clear()
    ref = Reference()
    untraced, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:  # alternate, so both halves see the same machine
        measure(workload, TRACE_SEGMENT_S, untraced, ref)
        traced.next_op = untraced.next_op
        tracer.install()
        try:
            measure(workload, TRACE_SEGMENT_S, traced, ref, tracer)
        finally:
            tracer.uninstall()
        untraced.next_op = traced.next_op

    floors = {}

    def floor(shape):
        if shape not in floors:
            timer = TwoFFT2(shape)
            floors[shape] = statistics.median(timer.seconds() for _ in range(9))
        return floors[shape]

    overhead = traced.p(50) / untraced.p(50) - 1.0
    ops = untraced.attempted + traced.attempted
    outcomes = {name: count / ops for name, count in workload.counters.items()}
    metrics = layer_metrics(tracer, traced.attempted, floor, outcomes, overhead)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{cls.name}-seed{seed}.csv.gz")
    tracer.write(spans_path)
    notes = {
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "untraced_ops": untraced.attempted,
        "traced_ops": traced.attempted,
        "floors_s": {f"{a}x{b}": s for (a, b), s in floors.items()},
    }
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return metrics, units, [warmups, untraced, traced], notes


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    blas_threads = cap_blas_threads()
    sys.path.insert(0, SRC)
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2

    env = environment(seed, blas_threads)
    try:
        run = run_traced if trace else run_untraced
        metrics, units, phases, notes = run(WORKLOADS[name], seed, seconds)
    finally:
        shutil.rmtree(os.path.join(WORK, f"{name}-{os.getpid()}"), ignore_errors=True)

    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    for phase in phases:
        for error in phase.errors:
            print(error, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"workload": name, "environment": env, "notes": notes, **result}, fh, indent=2)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{name}: attempted {attempted}, failed {failed}, fail_frac {failed / attempted:g}")
    for key, value in notes.items():
        print(f"{name}: {key} {value}")
    for metric, value in metrics.items():
        print(f"{name}: {metric} {value:.6g} {units[metric]}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so set-up time and peak memory are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
