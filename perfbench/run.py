"""Benchmark of frustra: end-to-end pass times, set-up time and memory, or,
with ``--trace 1``, per-layer calls and self times.

The gated times are brought to a nominal machine speed with the reference
kernels of ``reference.py``, timed beside the calls; the raw times are on
the ``summary:`` line.

Run from the repository root:

    python3 perfbench/run.py --workload fsp-exponents --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30       # every workload, one table

A single-workload run prints an ``env:`` line, a ``summary:`` line and, last,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metrics are those BENCHMARK.json lists as end-to-end, or
as per-layer with ``--trace 1``.  It exits with code 2, printing no result, when the repository's
``src/frustra`` is missing.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread and keep the package's own threads off before
# numpy loads; child processes inherit the same environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FRUSTRA_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("fsp-exponents", "nfsp-sweep-wide", "cold-solves")
SETUP_REPEATS = 7

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per run (split evenly between the "
                             "untraced and traced halves with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=1,
                        help="keep measuring past --seconds until this many passes")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": git_commit()}


# ---------------------------------------------------------------------------
# measuring


def time_setup(workload: str, seed: int, gauge) -> tuple[float, float]:
    """Wall time of a fresh interpreter importing frustra and building the
    workload's inputs, raw and at the gauge's nominal speed."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            f"import frustra, workloads; "
            f"workloads.WORKLOADS[{workload!r}]({seed}, {str(OUT)!r})")
    mark = gauge.read()
    start = time.perf_counter()
    # no timeout: waiting with one polls in 50 ms steps and rounds the time
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    gauge.read()
    return elapsed, elapsed * gauge.scale(mark)


class Passes:
    """The timed passes of a run: each pass's time, each call's times by
    key, and each call's time with the mark of its gauge reading."""

    def __init__(self):
        self.totals: list[float] = []
        self.calls: dict[str, list[float]] = {}
        self.marked: list[list[tuple[float, int]]] = []

    def __len__(self) -> int:
        return len(self.totals)

    def add(self, timings) -> None:
        for key, elapsed, _ in timings:
            self.calls.setdefault(key, []).append(elapsed)
        self.totals.append(sum(elapsed for _, elapsed, _ in timings))
        self.marked.append([(elapsed, mark) for _, elapsed, mark in timings])

    def best(self) -> float:
        """Pass time with every call at its fastest over the run."""
        return sum(min(times) for times in self.calls.values())

    def norm(self, gauge) -> float:
        """Median pass time at the gauge's nominal speed: each call's time
        scaled by the kernel readings around it.  Call after the gauge's
        last reading."""
        return statistics.median(sum(elapsed * gauge.scale(mark) for elapsed, mark in calls)
                                 for calls in self.marked)


def run_passes(workload, tally, passes: Passes, until: float, min_passes: int,
               first: int = 1, tracer=None) -> None:
    """Closed loop: pass after pass until the clock reads ``until`` and at
    least ``min_passes`` passes have run, added to ``passes``."""
    start = len(passes)
    output_bytes = 0
    while time.perf_counter() < until or len(passes) - start < min_passes:
        if tracer is not None:
            tracer.pass_id = first + len(passes)
        passes.add(workload.run_pass(first + len(passes), tally))
        output_bytes += workload.output_bytes
    if len(passes) > start:
        workload.bytes_per_pass = output_bytes / (len(passes) - start)


def tail(times: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten passes beyond it, as
    (percentile, seconds); (None, None) below eleven passes."""
    if len(times) < 11:
        return None, None
    rank = len(times) - 10  # 1-based rank of the slowest pass with ten above it
    return 100.0 * rank / len(times), sorted(times)[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> int:
    import reference  # noqa: E402
    import workloads  # noqa: E402  (needs SRC on sys.path)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        tally = workloads.Tally()
        workload.run_pass(0, tally)  # warm-up, discarded: setup_s carries the cold cost
        seconds = args.seconds / 2 if args.trace else args.seconds
        # The set-up probes are spread over the measuring time, so that their
        # median stands for the whole run on a machine whose load changes.
        # Import time is interpreter-bound, so the small kernel gauges it.
        setup_gauge = reference.Gauge("small")
        setup_times, setup_norms, passes = [], [], Passes()
        start = time.perf_counter()
        for k in range(1, SETUP_REPEATS + 1):
            raw, norm = time_setup(args.workload, args.seed, setup_gauge)
            setup_times.append(raw)
            setup_norms.append(norm)
            min_passes = args.min_passes - len(passes) if k == SETUP_REPEATS else 0
            run_passes(workload, tally, passes, start + k * seconds / SETUP_REPEATS,
                       min_passes)
        workload.gauge.close()
        pass_norm = passes.norm(workload.gauge)
        if args.trace:
            layers = run_traced(workload, tally, 1 + len(passes), seconds, args,
                                pass_norm)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = passes.totals
    percentile, tail_s = tail(times)
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": len(times),
        "setup_s": statistics.median(setup_norms),
        "setup_s.raw": statistics.median(setup_times),
        "pass_s.norm": pass_norm, "pass_s.best": passes.best(),
        "pass_s.p50": statistics.median(times),
        "pass_s.tail": tail_s, "pass_s.tail_percentile": percentile,
        "peak_rss_mb": peak_rss_mb(),
        "fail_ratio": tally.failed / tally.attempted,
        "attempted": tally.attempted, "failed": tally.failed,
        "exhaustive_calls": tally.exhaustive_calls,
        "exhaustive_overcounts": tally.overcounts,
        "failures": tally.messages,
    }
    print("env: " + json.dumps(environment(), sort_keys=True))
    print("summary: " + json.dumps(summary))
    if args.trace:
        values = {name: value for name, (value, _) in layers.items()}
        print("layers: " + json.dumps(values))
    else:
        values = summary
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_traced(workload, tally, first, seconds, args, untraced_norm):
    """Traced half of a --trace 1 run: per-pass layer metrics plus the
    tracing overhead against the untraced half."""
    import tracing  # noqa: E402

    tracer = tracing.Tracer()
    overcounts = tally.overcounts
    passes = Passes()
    tracer.install()
    try:
        run_passes(workload, tally, passes, time.perf_counter() + seconds,
                   args.min_passes, first, tracer)
    finally:
        tracer.uninstall()
    workload.gauge.close()
    traced_norm = passes.norm(workload.gauge)
    layers = tracer.layer_metrics(len(passes))
    layers["cli.output_bytes"] = (workload.bytes_per_pass, "B")
    layers["meanfield.exhaustive_overcounts"] = (
        (tally.overcounts - overcounts) / len(passes), "count")
    layers["trace.pass_s.p50"] = (statistics.median(passes.totals), "s")
    layers["trace.pass_s.norm"] = (traced_norm, "s")
    layers["trace.overhead_s"] = (traced_norm - untraced_norm, "s")
    tracer.dump(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "passes": len(passes)})
    return layers


# ---------------------------------------------------------------------------
# every workload, one table


def run_all(args) -> int:
    """Run each workload in its own process and print its metrics by name."""
    failed = False
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--min-passes", str(max(args.min_passes, 11))]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines()
                     if line.startswith(("env: ", "summary: ", "layers: ")))
        if proc.returncode != 0 or "summary" not in lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            failed = True
            continue
        summary = json.loads(lines["summary"])
        failed |= summary["failed"] > 0
        print(f"== {name} (seed {args.seed}, {summary['passes']} passes) "
              f"env {lines['env']}")
        print(f"  setup_s      {summary['setup_s']:.4f} s "
              f"(raw {summary['setup_s.raw']:.4f} s)")
        print(f"  pass_s.norm  {summary['pass_s.norm']:.4f} s")
        print(f"  pass_s.best  {summary['pass_s.best']:.4f} s")
        print(f"  pass_s.p50   {summary['pass_s.p50']:.4f} s")
        print(f"  pass_s.tail  {summary['pass_s.tail']:.4f} s "
              f"(p{summary['pass_s.tail_percentile']:.0f} of {summary['passes']} passes)")
        print(f"  peak_rss_mb  {summary['peak_rss_mb']:.1f} MB")
        print(f"  fail_ratio   {summary['fail_ratio']:.4f} "
              f"({summary['failed']} of {summary['attempted']} operations)")
        print(f"  known defect: exhaustive over-count on {summary['exhaustive_overcounts']} "
              f"of {summary['exhaustive_calls']} oracle calls")
        if "layers" in lines:
            for metric, value in json.loads(lines["layers"]).items():
                print(f"  {metric:54s} {value:.6g}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "frustra" / "__init__.py").is_file():
        print(f"error: no frustra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
