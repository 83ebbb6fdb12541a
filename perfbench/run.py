"""polarlines benchmark: one closed-loop workload per run, one task in flight.

    python3 perfbench/run.py --workload <build|scheme|search|session> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; polarlines is imported from its `src/`.  A
run sets the workload up from the seed, makes one untimed warm-up pass over
its task list, then repeats the pass while the next one still fits in
`--seconds` (at least two timed passes), checks every result against a
pinned or independently recomputed oracle, prints every metric by name with
unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
slowest_task_s, peak_rss_mib), their times scaled to the host's speed (see
HostSpeed).  With --trace 1 untraced and traced passes alternate, and the
metrics are the per-layer ones, read from spans recorded around polarlines'
public functions (see tracer.py), plus the tracing overhead.  Spaces are built once by a child process and cached under
.bench_build/perfbench/spaces/<hash of the program sources>/; run records and
span files go under .bench_build/perfbench/ as well.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS workers spin for 2^28 cycles after each call by default.  Where the
# vCPUs share a core, that halves the speed of the Python code that follows
# for over 0.1 s, both the program's and the calibration kernel's; 2^4 cycles
# makes them sleep at once.
BLAS_SPIN = ("OPENBLAS_THREAD_TIMEOUT", "4")
SETUP_SAMPLES = 7
MIN_PASSES = 2  # untraced passes; a traced run makes as many traced ones
# HostSpeed's kernel time on an uncontended core of the machine the
# benchmark was written on (2.1 GHz x86-64 vCPU, Python 3.11)
CALIBRATION_S = 0.00025


def _bootstrap():
    """Fix BLAS threads and spin before numpy loads; put the checkout's src first."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    os.environ[BLAS_SPIN[0]] = BLAS_SPIN[1]
    if not (SRC / "polarlines" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polarlines sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polarlines

    if Path(polarlines.__file__).resolve().parent != (SRC / "polarlines").resolve():
        sys.exit(f"perfbench: imported polarlines from {polarlines.__file__}, not {SRC}")
    return nproc


class HostSpeed:
    """Scales timings by the host's current speed, read from a small kernel.

    On a shared host the same code runs up to half again as slow for seconds
    at a time.  While a timing runs, a timer signal runs a fixed pure-Python
    loop every SAMPLE_EVERY seconds; BRACKET more runs come just before and
    just after it.  The time, less the kernel's time within it, is scaled by
    CALIBRATION_S over the mean kernel time, so it reads as seconds on a host
    where the kernel takes CALIBRATION_S.  The kernel calls nothing in
    polarlines, so a change to the program does not move it.
    """

    SAMPLE_EVERY = 0.05
    BRACKET = 4

    def __init__(self):
        self.samples = []

    def _sample(self, *_signal):
        t0 = perf_counter()
        s = 0
        for i in range(4_000):
            s += i * i % 7
        self.samples.append(perf_counter() - t0)

    def start(self, during=True):
        """Sample before a timing starts; with `during`, keep sampling until stop()."""
        self.samples = []
        for _ in range(self.BRACKET):
            self._sample()
        if during:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY, self.SAMPLE_EVERY)

    def stop(self, seconds, within=()):
        """Scale `seconds`, timed since start(); `within` are samples a child took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        inside = sum(self.samples[self.BRACKET :]) + sum(within)
        for _ in range(self.BRACKET):
            self._sample()
        every = self.samples + list(within)
        return (seconds - inside) * CALIBRATION_S / (sum(every) / len(every))


def _source_hash(*dirs):
    h = hashlib.sha256()
    for base in dirs:
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _child(*args):
    return [sys.executable, str(Path(__file__).resolve()), *args]


def _fill_cache(cache_dir, names):
    """Build and save the named spaces; each file lands atomically."""
    import polarlines.spaces as pl_spaces
    from workloads import SPACES

    os.makedirs(cache_dir, exist_ok=True)
    for name in names:
        family, q = SPACES[name]
        final = os.path.join(cache_dir, f"{family}_q{q}.json")
        if os.path.exists(final):
            continue
        tmp = os.path.join(cache_dir, f".tmp-{os.getpid()}-{family}_q{q}.json")
        pl_spaces.save_space(pl_spaces.build_space(family, q), tmp)
        os.replace(tmp + ".labels.npy", final + ".labels.npy")
        os.replace(tmp, final)


def _ensure_cache(cache_dir, names):
    from workloads import SPACES

    paths = {n: os.path.join(cache_dir, "%s_q%d.json" % SPACES[n]) for n in names}
    missing = [n for n, path in paths.items() if not os.path.exists(path)]
    if missing:
        subprocess.run(_child("--fill-cache", cache_dir, *missing), check=True)


def _setup(workload, seed, cache_dir):
    import workloads

    workdir = tempfile.mkdtemp(prefix="work-", dir=STATE)
    ctx = workloads.Context(seed, cache_dir, workdir)
    return ctx, workload.make_tasks(ctx)


def _setup_probe(name, seed, cache_dir, speed):
    """Child side of a set-up sample: set up, say "ready" and the kernel samples, clean up."""
    import workloads

    ctx, _ = _setup(workloads.WORKLOADS[name], seed, cache_dir)
    signal.setitimer(signal.ITIMER_REAL, 0)
    print("ready " + json.dumps(speed.samples), flush=True)
    shutil.rmtree(ctx.workdir, ignore_errors=True)


def _setup_seconds(name, seed, cache_dir, speed):
    """Process start to inputs ready, in a fresh interpreter each time."""
    cmd = _child("--setup-probe", "--workload", name, "--seed", str(seed), "--cache-dir", cache_dir)
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        speed.start(during=False)  # the child samples itself; a sampling parent would slow it
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        ready, _, within = proc.stdout.readline().partition(" ")
        raw.append(perf_counter() - t0)
        proc.stdout.read()
        if proc.wait() != 0 or ready != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(speed.stop(raw[-1], json.loads(within)))
    return samples, raw


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.warmup = False
        self.wall = 0.0  # scaled to the host's speed, as are times
        self.raw_wall = 0.0
        self.times = []
        self.raw_times = []
        self.results = []  # (summary, error) per task
        self.layers = None


def _run_pass(tasks, index, speed, tracer=None):
    """One pass; a task's time covers its run() only, not its summary."""
    p = Pass(tracer is not None)
    for i, task in enumerate(tasks):
        summary = error = None
        speed.start(during=tracer is None)  # keep the kernel out of the spans
        t0 = perf_counter()
        try:
            if tracer is None:
                answer = task.run()
            else:
                answer = tracer.task(index * 1000 + i, task.kind, task.run)
        except Exception as exc:  # a failed task is counted, and the run goes on
            error = exc
        seconds = perf_counter() - t0
        p.raw_times.append(seconds)
        p.times.append(speed.stop(seconds))
        if error is None:
            try:
                summary = task.summarize(answer)
            except Exception as exc:
                error = exc
            # free the answer now, so the next task starts on the same heap
            # whatever came before it
            answer = None
        if error is not None:
            traceback.print_exception(error)
            error = f"{type(error).__name__}: {error}"
        p.results.append((summary, error))
    p.wall, p.raw_wall = sum(p.times), sum(p.raw_times)
    return p


def _traced_pass(tasks, index, speed, tracer, expected_errors):
    import tracer as tr
    import workloads

    first = len(tracer.spans)
    ops = tracer.field_ops
    tracer.install()
    try:
        p = _run_pass(tasks, index, speed, tracer)
    finally:
        tracer.uninstall()
    spans = list(enumerate(tracer.spans[first:], start=first))
    expected = sum(
        1
        for exp, (s, _) in zip(expected_errors, p.results)
        if exp and s is not None and s["rc"] == 1
    )
    p.layers = tr.layer_metrics(
        spans,
        tracer.field_ops - ops,
        p.raw_wall,
        workloads.BUILD_SPACES,
        workloads.SCHEME_SPACES,
        expected,
    )
    return p


def _judge(tasks, passes, ctx, history):
    """Count failed task executions: exceptions, drift, failed oracles."""
    import workloads

    failed, notes = 0, []
    digests = {}
    for i, task in enumerate(tasks):
        runs = [p.results[i] for p in passes]
        errors = [e for _, e in runs if e]
        ok = [s for s, e in runs if not e]
        failed += len(errors)
        if errors:
            notes.append(f"{task.name}: raised {errors[0]}")
        if not ok:
            continue
        keys = {json.dumps(s, sort_keys=True) for s in ok}
        digests[task.name] = workloads.digest(min(keys))
        if len(keys) > 1:
            failed += len(ok)
            notes.append(f"{task.name}: result drifts between passes")
            continue
        if history.get(task.name, digests[task.name]) != digests[task.name]:
            failed += len(ok)
            notes.append(f"{task.name}: result differs from an earlier run of this code and seed")
            continue
        try:
            problems = task.check(ctx, ok[0])
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += len(ok)
            notes.append(f"{task.name}: {'; '.join(problems)}")
    return failed, notes, digests


def _changed_nodes(tasks, passes):
    import oracles

    changed = []
    for i, task in enumerate(tasks):
        want = oracles.PINNED_NODES.get(task.name)
        summary = next((s for s, _ in (p.results[i] for p in passes) if s), None)
        if want is not None and summary is not None:
            doc = summary if "nodes" in summary else json.loads(summary["out"])
            got = doc.get("nodes")
            if got != want:
                changed.append(f"{task.name}: {got} (pinned {want})")
    return changed


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _save_json(path, doc):
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    os.replace(tmp, path)


def _measure(tasks, seconds, speed, tracer, expected_errors):
    """An untimed warm-up pass, then passes while the next one fits in `seconds`.

    The warm-up counts against `seconds` and its results are checked, but its
    times are in no metric.  With a tracer, untraced and traced passes alternate.
    """
    start = perf_counter()
    gc.collect()
    passes = [_run_pass(tasks, 0, speed)]
    passes[0].warmup = True
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        gc.collect()
        if traced:
            passes.append(_traced_pass(tasks, len(passes), speed, tracer, expected_errors))
        else:
            passes.append(_run_pass(tasks, len(passes), speed))
        step = passes[-2:] if tracer is not None else passes[-1:]
        fits = perf_counter() - start + sum(p.raw_wall for p in step) <= seconds
        measured = len(passes) - 1
        if tracer is None and measured >= MIN_PASSES and not fits:
            return passes
        if traced and measured >= 2 * MIN_PASSES and not fits:
            return passes


def _layer_rows(passes, spec, history):
    """Per-layer rows (name, value, unit, n) and the exact counters that drift."""
    untraced = [p for p in passes if not (p.traced or p.warmup)]
    traced = [p for p in passes if p.traced]
    exact = [name for name, unit, _ in spec if unit in ("count", "bytes")]
    counters = {k: traced[0].layers[k] for k in exact}
    earlier = history.get("counters", counters)
    drift = [
        k
        for k in exact
        if earlier.get(k, counters[k]) != counters[k]
        or any(p.layers[k] != counters[k] for p in traced)
    ]
    history["counters"] = counters
    rows = []
    for name, unit, _ in spec[:-1]:
        value = counters[name] if name in counters else median([p.layers[name] for p in traced])
        rows.append((name, value, unit, len(traced)))
    overhead = median([p.wall for p in traced]) - median([p.wall for p in untraced])
    rows.append(("trace.overhead_s", overhead, "s", len(traced)))
    return rows, drift


def _end_to_end_rows(passes, setup_samples, peak_rss_mib):
    return [
        ("setup_s", median(setup_samples), "s", len(setup_samples)),
        ("wall_s", median([p.wall for p in passes]), "s", len(passes)),
        ("slowest_task_s", median([max(p.times) for p in passes]), "s", len(passes)),
        ("peak_rss_mib", peak_rss_mib, "MiB", 1),
    ]


def _benchmark(args, nproc):
    import numpy as np

    import tracer as tr
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    # spaces depend on the program only; recorded results on the benchmark too
    cache_dir = str(STATE / "spaces" / _source_hash(SRC / "polarlines"))
    runs_dir = STATE / "runs" / _source_hash(SRC / "polarlines", HERE)
    _ensure_cache(cache_dir, workload.cached)
    speed = HostSpeed()
    setup_samples, setup_raw = ([], []) if args.trace else _setup_seconds(
        args.workload, args.seed, cache_dir, speed
    )
    ctx, tasks = _setup(workload, args.seed, cache_dir)
    try:
        tracer = tr.Tracer() if args.trace else None
        expected_errors = [workloads.is_expected_error(t) for t in tasks]
        passes = _measure(tasks, args.seconds, speed, tracer, expected_errors)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runs_file = runs_dir / f"{args.workload}-seed{args.seed}.json"
        history = _load_json(runs_file)
        failed, notes, digests = _judge(tasks, passes, ctx, history.get("results", {}))
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    attempted = sum(len(p.results) for p in passes)
    untraced = [p for p in passes if not (p.traced or p.warmup)]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {v: os.environ[v] for v in (*BLAS_VARS, BLAS_SPIN[0])},
        "tasks_per_pass": len(tasks),
        "passes": len(untraced),
        "traced_passes": sum(p.traced for p in passes),
    }
    print("perfbench " + " ".join(f"{k}={v}" for k, v in info.items()))
    drift = []
    if tracer:
        spec = tr.per_layer_spec(workloads.BUILD_SPACES, workloads.SCHEME_SPACES)
        rows, drift = _layer_rows(passes, spec, history)
        trace_file = STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        trace_file.parent.mkdir(exist_ok=True)
        tracer.write(trace_file, {**info, "tasks": [t.name for t in tasks]})
        print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    else:
        rows = _end_to_end_rows(untraced, setup_samples, peak_rss_mib)
    history["results"] = {**history.get("results", {}), **digests}
    runs_dir.mkdir(parents=True, exist_ok=True)
    _save_json(runs_file, history)

    for name, value, unit, n in rows + [("error_rate", failed / attempted, "ratio", attempted)]:
        print(f"  {name:<46} {value:>16.6f} {unit:<9} n={n}")
    # scaled values, and in brackets the unscaled wall-clock ones
    walls = [
        f"{p.wall:.4f}({p.raw_wall:.4f}){'w' if p.warmup else 't' if p.traced else ''}"
        for p in passes
    ]
    print("pass walls (s; w warm-up, t traced): " + " ".join(walls))
    if setup_samples:
        pairs = zip(setup_samples, setup_raw)
        print("setup samples (s): " + " ".join(f"{t:.4f}({r:.4f})" for t, r in pairs))
    if untraced:
        raw_slowest = median([max(p.raw_times) for p in untraced])
        raw_wall = median([p.raw_wall for p in untraced])
        print(f"unscaled: wall_s {raw_wall:.4f} slowest_task_s {raw_slowest:.4f}")
    medians = {t.name: median([p.times[i] for p in untraced]) for i, t in enumerate(tasks)}
    print("task medians (s): " + json.dumps(medians))
    changed = _changed_nodes(tasks, passes)
    print("node counts differ from the pinned ones:" if changed else "node counts as pinned")
    for line in changed:
        print(f"  {line}")
    for line in notes:
        print(f"FAILED {line}")
    for name in drift:
        print(f"DRIFT exact counter {name} differs between traced passes or from an earlier run")
    result = {
        "correct": failed == 0 and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    parser.add_argument("--fill-cache", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:  # set-up time includes imports, so sample from here on
        probe_speed = HostSpeed()
        probe_speed.start()

    nproc = _bootstrap()
    STATE.mkdir(parents=True, exist_ok=True)
    if args.fill_cache:
        _fill_cache(args.fill_cache[0], args.fill_cache[1:])
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS or args.seed is None:
        parser.error(f"give --seed and --workload, one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, args.cache_dir, probe_speed)
    else:
        _benchmark(args, nproc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
