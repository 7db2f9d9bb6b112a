"""casphere benchmark: time to converged energies on three workloads.

    python3 bench/run.py --workload em-pair --seed 1 --seconds 30 --trace 0

One client in one process runs passes over the workload's items in a
closed loop (each solve starts when the previous one ends) for about
`--seconds` seconds; the seed draws the item order of every pass and the
kappa of the l=32 probes.  Every result is checked against the pinned
references.  With ``--trace 0`` no wrapper is installed and the
end-to-end metrics of BENCHMARK.json are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported.  Wall times in the end-to-end metrics are corrected for the
shared host's drifting speed by a gauge that ticks during every pass and
set-up (see gauge.py); the uncorrected times are printed and kept with
the result.  The last line of standard output is one JSON object; the full
result, with provenance, goes to ``.bench_out/`` in the checkout, and the
spans of a traced run to ``.bench_out/spans-<workload>.jsonl.gz``.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gauge
import spans
import workloads

REFERENCES = Path(__file__).with_name("references.json")
SETUP_CHILDREN = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
PERCENTILES = (50, 75, 90, 95, 99)


# ---------------------------------------------------------------------------
# checkout
# ---------------------------------------------------------------------------

def repo_root():
    return Path(__file__).resolve().parent.parent


def use_checkout_source(root):
    """Import casphere from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "casphere" / "__init__.py").is_file():
        raise SystemExit("bench: no casphere sources under %s" % src)
    sys.path.insert(0, str(src))
    import casphere
    if Path(casphere.__file__).resolve().parent != src / "casphere":
        raise SystemExit("bench: casphere imported from %s, not %s"
                         % (casphere.__file__, src))
    return casphere


def scratch_dir(root):
    path = root / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def declared_metrics(root):
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def source_identity(root):
    """Git commit when the checkout is a repository, and a hash of src/."""
    commit = None
    if (root / ".git").exists():
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Threads OpenBLAS will use, read from the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(root, args, load_start):
    import numpy
    import scipy
    import sympy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        **source_identity(root),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_config": blas.get("openblas configuration"),
                 "threads": _blas_threads()},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Outcome:
    """Solves attempted and failed over a run, with messages by item."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run_item(self, item, references):
        self.attempted += item.solves
        try:
            result = item.call()
        except Exception:  # a failed solve is counted, the run goes on
            fails = ["%s raised: %s" % (item.name, traceback.format_exc())]
            fails *= item.solves
        else:
            fails = workloads.check(item, result, references)
        self.failed += min(len(fails), item.solves)
        self.messages.extend(fails)


def run_pass(items, rng, references, outcome, tracer=None):
    """One pass over the items in a fresh seeded order.

    Returns (wall seconds, {item name: seconds}).
    """
    order = list(items)
    rng.shuffle(order)
    times = {}
    t0 = time.perf_counter()
    for item in order:
        t_item = time.perf_counter()
        if tracer is None:
            outcome.run_item(item, references)
        else:
            if item.kind != "sweep":
                tracer.new_request()  # the CLI's sweep points open their own
            with tracer.span("bench.item", item.name):
                outcome.run_item(item, references)
        times[item.name] = time.perf_counter() - t_item
    return time.perf_counter() - t0, times


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def cold_setup(workload, rng, references, scratch):
    """Import casphere, build the items and fill the caches.

    Returns (items, seconds, corrected seconds) as gauge.Gauge.correct
    gives them; timed from before the import, so in a fresh interpreter
    it is the whole set-up a user pays once.
    """
    with gauge.Gauge() as ticking:
        t0 = time.perf_counter()
        use_checkout_source(repo_root())
        items = workloads.build(workload, rng, scratch)
        workloads.fill_caches(items, references, scratch)
        t1 = time.perf_counter()
    return (items,) + ticking.correct(t0, t1)


def child_setups(workload, seed, count):
    """(seconds, corrected) of cold_setup in `count` fresh interpreters."""
    script = Path(__file__).with_name("coldstart.py")
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(script), workload, str(seed)],
            capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError("cold-start child failed:\n" + proc.stderr)
        seconds, corrected = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((seconds, corrected))
    return out


def summarize(samples):
    """Median, quartiles and the highest percentile with >= 10 beyond it."""
    n = len(samples)
    quart = statistics.quantiles(samples, n=4) if n >= 2 else [samples[0]] * 3
    high = [p for p in PERCENTILES if n * (100 - p) / 100.0 >= 10]
    top = None
    if high:
        p = high[-1]
        top = {"p": p, "value": statistics.quantiles(samples, n=100)[p - 1]}
    return {"n": n, "median": statistics.median(samples),
            "q1": quart[0], "q3": quart[2], "min": min(samples),
            "max": max(samples), "high_percentile": top}


def _describe(name, unit, summary):
    top = summary["high_percentile"]
    tail = ("p%d %.4g %s" % (top["p"], top["value"], unit) if top else
            "no percentile above the median has ten samples beyond it")
    return ("%s: median %.4g %s over %d samples (quartiles %.4g..%.4g; %s)"
            % (name, summary["median"], unit, summary["n"], summary["q1"],
               summary["q3"], tail))


def measure_untraced(items, rng, references, outcome, seconds, ticking=None):
    """Untraced passes for about `seconds`, at least one.

    Returns [(wall seconds, {item: seconds}, corrected seconds)]; with a
    running gauge, wall and corrected are as Gauge.correct gives them,
    otherwise corrected is None.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        found = spans.wrapped_attributes()
        if found:
            raise RuntimeError("tracing wrappers left installed: %r" % found)
        t0 = time.perf_counter()
        wall, times = run_pass(items, rng, references, outcome)
        t1 = time.perf_counter()
        corrected = None
        if ticking is not None:
            wall, corrected = ticking.correct(t0, t1)
        passes.append((wall, times, corrected))
        if t1 + (t1 - t0) > deadline:  # another pass would overrun
            return passes


def measure_traced(items, rng, references, outcome, seconds, tracer):
    """Alternate untraced and traced passes: (untraced, traced) results."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain += measure_untraced(items, rng, references, outcome, 0.0)
        with tracer:
            with tracer.span("bench.pass"):
                traced.append(run_pass(items, rng, references, outcome,
                                       tracer))
        if time.perf_counter() + plain[-1][0] + traced[-1][0] > deadline:
            return plain, traced


def n2_ratio(passes):
    """Median over passes of the N-body / two-sphere time of one pair."""
    nbody, pair = workloads.N2_ITEMS
    ratios = [times[nbody] / times[pair] for _, times, _ in passes
              if nbody in times]
    return statistics.median(ratios) if ratios else 0.0


def write_spans(path, tracer):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_untraced(args, references, scratch, rng, outcome):
    """End-to-end metrics: set-up samples, then untraced passes."""
    items, seconds, corrected = cold_setup(args.workload, rng, references,
                                           scratch)
    setups = [(seconds, corrected)] + child_setups(args.workload, args.seed,
                                                   SETUP_CHILDREN)
    with gauge.Gauge() as ticking:
        passes = measure_untraced(items, rng, references, outcome,
                                  args.seconds, ticking)
    walls = [c for _, _, c in passes]
    raw_walls = [w for w, _, _ in passes]
    setup_times = [c for _, c in setups]
    wall, setup = summarize(walls), summarize(setup_times)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": wall["median"], "setup_s": setup["median"],
              "peak_rss_mb": peak_mb}
    details = {"wall_s": wall, "setup_s": setup, "walls": walls,
               "setups": setup_times, "raw_walls": raw_walls,
               "raw_setups": [s for s, _ in setups],
               "ticks": [s for _, s in ticking.ticks],
               "tick_ref_s": gauge.REF_S}
    lines = [_describe("wall_s", "s", wall), _describe("setup_s", "s", setup),
             "peak_rss_mb: %.1f MB" % peak_mb,
             "uncorrected: wall %.4g s, set-up %.4g s; median gauge tick "
             "%.4g ms (reference %.4g ms)"
             % (statistics.median(raw_walls),
                statistics.median(details["raw_setups"]),
                1e3 * statistics.median(details["ticks"]), 1e3 * gauge.REF_S)]
    return values, details, lines


def run_traced(args, references, scratch, rng, outcome):
    """Per-layer metrics: traced set-up, then alternating passes."""
    use_checkout_source(repo_root())
    items = workloads.build(args.workload, rng, scratch)
    tracer = spans.Tracer()
    with tracer:
        with tracer.span("bench.setup"):
            tracer.new_request()
            workloads.fill_caches(items, references, scratch)
    cpu0, wall0 = _cpu_seconds(), time.perf_counter()
    plain, traced = measure_traced(items, rng, references, outcome,
                                   args.seconds, tracer)
    cpu_util = (_cpu_seconds() - cpu0) / (time.perf_counter() - wall0)
    if spans.wrapped_attributes():
        raise RuntimeError("tracing wrappers survived the traced run")
    plain_walls = [w for w, _, _ in plain]
    traced_walls = [w for w, _ in traced]
    values = spans.layer_metrics(tracer.spans)
    values["energy.nbody_n2_ratio"] = n2_ratio(plain)
    values["process.cpu_util"] = cpu_util
    values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                     / statistics.median(plain_walls) - 1.0)
    write_spans(scratch / ("spans-%s.jsonl.gz" % args.workload), tracer)
    details = {"untraced_walls": plain_walls, "traced_walls": traced_walls,
               "spans": len(tracer.spans)}
    return values, details, ["%s: %.6g" % kv for kv in values.items()]


def main(argv=None):
    args = parse_args(argv)
    root = repo_root()
    if not (root / "src" / "casphere" / "__init__.py").is_file():
        print("bench: no casphere sources in this checkout", file=sys.stderr)
        return 2
    load_start = list(os.getloadavg())
    units = declared_metrics(root)[args.trace]  # end-to-end or per-layer
    references = json.loads(REFERENCES.read_text())["items"]
    scratch = scratch_dir(root)
    outcome = Outcome()
    measure = run_traced if args.trace else run_untraced
    values, details, lines = measure(args, references, scratch,
                                     random.Random(args.seed), outcome)
    if set(values) != set(units):
        raise RuntimeError("emitted metrics %s differ from BENCHMARK.json %s"
                           % (sorted(values), sorted(units)))

    prov = provenance(root, args, load_start)
    result = {"correct": outcome.failed == 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units}}
    out_path = scratch / ("result-%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    out_path.write_text(json.dumps(
        {"result": result, "details": details, "failures": outcome.messages,
         "provenance": prov}, indent=1) + "\n")
    for msg in outcome.messages:
        print("FAIL " + msg.rstrip().replace("\n", "\n     "))
    print("%s seed %d trace %d: %d solves attempted, %d failed"
          % (args.workload, args.seed, args.trace, outcome.attempted,
             outcome.failed))
    for line in lines:
        print(line)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
