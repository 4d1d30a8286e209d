"""Self-test of the benchmark: one traced pass of each workload, seeded
inputs, the reference gauge's arithmetic, checks that bite, and a refusal
to run without the sources.

    python3 perfbench/selftest.py

Exits with code 1 and lists what failed, or prints "selftest: ok".
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from frustra import meanfield, model  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def test_seeded_inputs() -> None:
    points = workloads.draw_cold_points(7)
    expect(points == workloads.draw_cold_points(7), "cold-solves: same seed, same points")
    expect(points != workloads.draw_cold_points(8), "cold-solves: another seed, other points")
    above = sum(p.g > p.critical_coupling() for p in points)
    expect(len(points) == 96 and above == 48, "cold-solves: 96 points, 48 above g_c")
    sweep = [workloads.NfspSweepWide(seed, str(run.OUT)).samples for seed in (7, 7, 8)]
    expect(sweep[0] == sweep[1] != sweep[2], "nfsp-sweep-wide: samples follow the seed")
    fsp = workloads.FspExponents(7, str(run.OUT))
    expect(fsp.order(3) == workloads.FspExponents(7, str(run.OUT)).order(3),
           "fsp-exponents: same seed, same call order")


def test_gauge() -> None:
    gauge = reference.Gauge("small", interval=60.0)
    first = gauge.mark()
    expect(gauge.mark() == first == 0 and len(gauge.readings) == 1,
           "gauge: one kernel reading per interval")
    nominal = gauge.nominal
    gauge.readings = [2 * nominal, 2 * nominal, 6 * nominal]
    expect(abs(gauge.scale(0) - 0.5) < 1e-12 and abs(gauge.scale(1) - 0.25) < 1e-12
           and abs(gauge.scale(2) - 1 / 6) < 1e-12,
           "gauge: a call is scaled by the mean of the readings around it")


def traced_pass(cls, workdir):
    """One pass of a workload under the tracer: (workload, tally, layers)."""
    workload = cls(1, workdir)
    workload.prepare()
    tally = workloads.Tally()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.run_pass(0, tally)
    finally:
        tracer.uninstall()
    return workload, tally, tracer.layer_metrics(1)


def test_passes_and_checks(workdir: str) -> None:
    fsp, tally, layers = traced_pass(workloads.FspExponents, workdir)
    expect(tally.attempted == 3 and tally.failed == 0, "fsp-exponents: one clean pass")
    expect(layers["fluctuations.williamson_diagonalize.calls"][0] == 0,
           "fsp-exponents: no Williamson calls")
    expect(layers["fluctuations.forms_per_point"][0] == 2.0,
           "fsp-exponents: two quadratic forms per frustrated point")
    text = open(fsp.paths[3], encoding="utf-8").read()
    expect(workloads.check_exponents(0, text) == [], "fsp-exponents: N=3 output passes")
    payload = json.loads(text)
    rows = payload["results"]
    drop = next(i for i, row in enumerate(rows) if row["observable"] == "check")
    payload["results"] = rows[:drop] + rows[drop + 1:]
    biting = tally_of(workloads.check_exponents(0, json.dumps(payload)))
    expect(biting.failed == 1, "fsp-exponents: a dropped check row raises fail_ratio")

    sweep, tally, layers = traced_pass(workloads.NfspSweepWide, workdir)
    expect(tally.attempted == 1 and tally.failed == 0, "nfsp-sweep-wide: one clean pass")
    expect(layers["fluctuations.williamson_diagonalize.calls"][0] == 102,
           "nfsp-sweep-wide: one Williamson call per point")
    text = sweep.reference.decode()
    target = sweep.samples[-1]
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines)
               if line.startswith(f"{target!r},") and ",gaps,2," in line)
    head, value = lines[row].rsplit(",", 1)
    lines[row] = f"{head},{float(value) * (1 + 1e-6)!r}"
    perturbed = "\n".join(lines) + "\n"
    biting = tally_of(workloads.check_sweep(0, perturbed, sweep.grid, sweep.references))
    expect(biting.failed == 1, "nfsp-sweep-wide: a perturbed gap row raises fail_ratio")
    dropped = "\n".join(line for i, line in enumerate(text.splitlines()) if i != row) + "\n"
    biting = tally_of(workloads.check_sweep(0, dropped, sweep.grid, sweep.references))
    expect(biting.failed == 1, "nfsp-sweep-wide: a missing gap row raises fail_ratio")

    _, tally, layers = traced_pass(workloads.ColdSolves, workdir)
    expect(tally.attempted == 146 and tally.failed == 0, "cold-solves: one clean pass")
    expect(layers["fluctuations.williamson_diagonalize.calls"][0] == 0,
           "cold-solves: no Williamson calls")
    params = model.ModelParams(1.0, 1.0, 0.01, 1.01, 5)
    solution = meanfield.solve_ground_state(params)
    members = meanfield.enumerate_degenerate_ground_states(
        params, meanfield.SolverOptions(seed_mode="exhaustive"))
    probe = workloads.Tally()
    expect(workloads.check_manifold(solution, members, probe) == [],
           "cold-solves: full manifold passes")
    biting = tally_of(workloads.check_manifold(solution, members[:-1], probe))
    expect(biting.failed == 1, "cold-solves: a wrong manifold size raises fail_ratio")


def tally_of(problems: list[str]) -> workloads.Tally:
    """A tally of one clean operation followed by one with these problems."""
    tally = workloads.Tally()
    tally.record([])
    tally.record(problems)
    return tally


def test_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copytree(run.BENCH_DIR, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "cold-solves", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/frustra the benchmark exits non-zero and prints no result")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    test_seeded_inputs()
    test_gauge()
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        test_passes_and_checks(workdir)
    test_refuses_without_sources()
    if FAILURES:
        print(f"selftest: {len(FAILURES)} failed")
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
