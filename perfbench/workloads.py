"""The three seeded workloads of the frustra benchmark and their output checks.

Each workload is a closed loop with one client: the next public call starts
when the previous one returns.  A pass is a fixed unit of work, the same
calls on the same inputs every pass; ``run_pass`` returns the wall time of
each public call under a key naming the call, with the index of the reading
of the workload's reference gauge (``reference.py``) taken before it, so
output checks and reference computations never count.  An operation is one
public call plus its check.

Calls go through module attributes (``cli.main``, ``meanfield.solve_ground_state``
and so on) at call time, so the tracer in ``tracing.py`` sees them.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from frustra import cli, fluctuations, meanfield, model, scaling
from frustra.errors import FrustraError

import reference


class Tally:
    """Operations attempted and failed, with the first few failure messages.

    ``overcounts`` tallies exhaustive enumerations that return more distinct
    minima than the solution's degeneracy: a known defect of the exhaustive
    oracle near g_c, recorded beside the failures rather than as one.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.exhaustive_calls = 0
        self.overcounts = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append("; ".join(problems))


def _timed(gauge: reference.Gauge, fn, *args):
    mark = gauge.mark()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start, mark


# ---------------------------------------------------------------------------
# fsp-exponents: the headline exponent extraction, through the CLI

EXPONENT_SIZES = (3, 5, 7)
EXPONENT_CHECKS = 7  # structural checks per frustrated ring


def check_exponents(code: int, text: str) -> list[str]:
    """Problems with one ``frustra exponents --format json`` output."""
    if code != 0:
        return [f"exit code {code}"]
    rows = json.loads(text)["results"]
    checks = {row["index"]: row["value"] for row in rows if row["observable"] == "check"}
    problems = []
    if len(checks) != EXPONENT_CHECKS:
        problems.append(f"{len(checks)} check rows, expected {EXPONENT_CHECKS}")
    problems += [f"check {name} = {value}" for name, value in sorted(checks.items())
                 if value != 1.0]
    return problems


class FspExponents:
    """``frustra exponents --jbar 0.01 --reduced-min 1e-7`` for N = 3, 5, 7.

    The seed fixes the order of the three calls within each pass.
    """

    name = "fsp-exponents"
    kernel = "small"  # reference kernel: solve_ground_state is about 80 % of a pass

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.gauge = reference.Gauge(self.kernel)
        self.paths = {n: os.path.join(workdir, f"exponents-{n}.json")
                      for n in EXPONENT_SIZES}
        self.argv = {n: ["exponents", "--jbar", "0.01", "--sites", str(n),
                         "--reduced-min", "1e-7", "--format", "json",
                         "--output", self.paths[n]] for n in EXPONENT_SIZES}
        self.reference: dict[int, bytes] = {}
        self.output_bytes = 0

    def order(self, index: int) -> list[int]:
        rng = np.random.default_rng([self.seed, index])
        return [int(n) for n in rng.permutation(EXPONENT_SIZES)]

    def prepare(self) -> None:
        """Nothing to precompute: the outputs carry their own checks."""

    def run_pass(self, index: int, tally: Tally) -> list[tuple[str, float, int]]:
        timings, self.output_bytes = [], 0
        for n in self.order(index):
            code, seconds, mark = _timed(self.gauge, cli.main, self.argv[n])
            timings.append((f"exponents N={n}", seconds, mark))
            data = _read(self.paths[n]) if code == 0 else b""
            self.output_bytes += len(data)
            problems = check_exponents(code, data.decode())
            reference = self.reference.setdefault(n, data)
            if data != reference:
                problems.append(f"N={n}: bytes differ from the first pass")
            tally.record(problems)
        return timings


# ---------------------------------------------------------------------------
# nfsp-sweep-wide: a two-sided uniform-phase sweep at N = 21, CSV out

SWEEP_SITES = 21
SWEEP_JBAR = -0.01
SWEEP_SAMPLES = 6  # reference-checked grid points per run, half on each side
GAP_RTOL = 1e-8


def sweep_spec() -> scaling.SweepSpec:
    """The grid ``frustra sweep`` uses for this workload's flags."""
    return scaling.SweepSpec(jbar=SWEEP_JBAR, n_sites=SWEEP_SITES)


def reference_gaps(g: float) -> np.ndarray:
    """The 2N excitation energies at g by a route independent of the sweep:
    the momentum-k closed form below g_c, the eigenvalue moduli of
    i Omega H above it."""
    params = model.ModelParams(1.0, 1.0, SWEEP_JBAR, g, SWEEP_SITES)
    if g < params.critical_coupling():
        return np.sort([energy for t in range(SWEEP_SITES)
                        for energy in fluctuations.normal_phase_mode_energies(
                            g, SWEEP_JBAR, 1.0, 2.0 * np.pi * t / SWEEP_SITES)])
    solution = meanfield.solve_ground_state(params)
    form = fluctuations.build_quadratic_hamiltonian(solution, params)
    return fluctuations.symplectic_spectrum_modulus(form)


def parse_sweep_csv(text: str) -> dict[float, dict[str, dict[str, float]]]:
    points: dict[float, dict[str, dict[str, float]]] = {}
    for line in text.splitlines()[1:]:
        g, _, observable, index, value = line.split(",")
        points.setdefault(float(g), {}).setdefault(observable, {})[index] = float(value)
    return points


def check_sweep(code: int, text: str, grid, references: dict[float, np.ndarray]
                ) -> list[str]:
    """Problems with one ``frustra sweep`` CSV: every grid point must carry
    every observable (a missing row is a failure), and the gaps at the
    reference points must match to GAP_RTOL."""
    if code != 0:
        return [f"exit code {code}"]
    n = SWEEP_SITES
    points = parse_sweep_csv(text)
    problems = []
    if sorted(points) != sorted(grid):
        problems.append(f"{len(points)} points, expected {len(grid)}")
    expected = {"energy": [""], "gaps": range(1, 2 * n + 1),
                "photon_numbers": range(1, n + 1), "squeezing": range(1, n + 1),
                "hessian_eigenvalues": range(1, n + 1)}
    for g, observables in points.items():
        for observable, indices in expected.items():
            values = observables.get(observable, {})
            if sorted(values) != sorted(str(i) for i in indices):
                problems.append(f"g={g!r}: {len(values)} {observable} rows")
        photons = np.array(list(observables.get("photon_numbers", {}).values()))
        if not np.all(np.isfinite(photons) & (photons > 0)):
            problems.append(f"g={g!r}: photon number not finite and positive")
    for g, reference in references.items():
        gaps = points.get(g, {}).get("gaps", {})
        if len(gaps) != len(reference):
            continue  # already reported above
        values = np.array([gaps[str(rank)] for rank in range(1, len(reference) + 1)])
        defect = float(np.max(np.abs(values - reference) / reference))
        if defect > GAP_RTOL:
            problems.append(f"g={g!r}: gaps off the reference by {defect:.2e}")
    return problems


class NfspSweepWide:
    """``frustra sweep --jbar -0.01 --sites 21``: 102 points, both sides of g_c.

    The seed picks the grid points whose gaps are checked against references.
    """

    name = "nfsp-sweep-wide"
    kernel = "dense"  # reference kernel: williamson_diagonalize is about 75 % of a pass

    def __init__(self, seed: int, workdir: str):
        self.gauge = reference.Gauge(self.kernel)
        self.path = os.path.join(workdir, "sweep.csv")
        self.argv = ["sweep", "--jbar", str(SWEEP_JBAR), "--sites", str(SWEEP_SITES),
                     "--output", self.path]
        spec = sweep_spec()
        self.grid = spec.grid
        gc = spec.g_critical
        rng = np.random.default_rng(seed)
        below = [g for g in self.grid if g < gc]
        above = [g for g in self.grid if g > gc]
        half = SWEEP_SAMPLES // 2
        self.samples = sorted(float(g) for side in (below, above)
                              for g in rng.choice(side, size=half, replace=False))
        self.references: dict[float, np.ndarray] = {}
        self.reference: bytes | None = None
        self.output_bytes = 0

    def prepare(self) -> None:
        self.references = {g: reference_gaps(g) for g in self.samples}

    def run_pass(self, index: int, tally: Tally) -> list[tuple[str, float, int]]:
        code, seconds, mark = _timed(self.gauge, cli.main, self.argv)
        timings = [("sweep", seconds, mark)]
        data = _read(self.path) if code == 0 else b""
        self.output_bytes = len(data)
        if self.reference is not None and code == 0 and data == self.reference:
            tally.record([])  # identical bytes pass exactly the checks they passed before
            return timings
        problems = check_sweep(code, data.decode(), self.grid, self.references)
        if self.reference is None:
            self.reference = data
        else:
            problems.append("bytes differ from the first pass")
        tally.record(problems)
        return timings


# ---------------------------------------------------------------------------
# cold-solves: cold solves, the exhaustive 2^N oracle and derivative scans

COLD_SIZES = (3, 5, 7)
COLD_DRAWS = 8  # points per (N, hopping sign, side of g_c) stratum
ENERGY_SLACK = 1e-10
D2_RTOL = 0.02


def _stratified_exponents(rng, low: float, high: float) -> np.ndarray:
    """COLD_DRAWS uniform draws from [low, high), one in each of its
    COLD_DRAWS equal parts, in random order."""
    width = (high - low) / COLD_DRAWS
    return low + (rng.permutation(COLD_DRAWS) + rng.uniform(size=COLD_DRAWS)) * width


def draw_cold_points(seed: int) -> list[model.ModelParams]:
    """The points of a run, the same every pass.

    For each N, hopping sign and side of g_c, COLD_DRAWS points with
    jbar = +-10^U(-3, -0.7) and reduced distance 10^U(-5, -1).  Both
    exponents are drawn one per eighth of their range, so that every seed
    gets about the same mix of near- and far-from-critical points and
    therefore about the same cost.
    """
    rng = np.random.default_rng(seed)
    points = []
    for n in COLD_SIZES:
        for sign in (-1.0, 1.0):
            for side in (-1.0, 1.0):
                jbars = sign * 10.0 ** _stratified_exponents(rng, -3.0, -0.7)
                reduced = 10.0 ** _stratified_exponents(rng, -5.0, -1.0)
                for jbar, distance in zip(jbars, reduced):
                    gc = model.critical_point(jbar, n, "negative" if sign < 0 else "positive")
                    points.append(model.ModelParams(1.0, 1.0, float(jbar),
                                                    gc * (1.0 + side * distance), n))
    return points


def check_solution(params: model.ModelParams, solution) -> list[str]:
    if params.g < params.critical_coupling():
        phase, degeneracy = meanfield.Phase.NORMAL, 1
    elif params.jbar < 0:
        phase, degeneracy = meanfield.Phase.NFSP, 2
    else:
        phase, degeneracy = meanfield.Phase.FSP, 2 * params.n_sites
    problems = []
    if solution.phase is not phase or solution.degeneracy != degeneracy:
        problems.append(f"{params}: {solution.phase.name} x{solution.degeneracy}, "
                        f"expected {phase.name} x{degeneracy}")
    if not solution.converged or solution.grad_norm > meanfield.SOLUTION_GRAD_TOL:
        problems.append(f"{params}: gradient residual {solution.grad_norm:.2e}")
    return problems


def check_manifold(solution, members, tally: Tally) -> list[str]:
    """The canonical solve must reach the oracle's minimum, and the oracle
    must find the whole manifold.  More members than the degeneracy is the
    known over-count, tallied apart."""
    if not members:
        return ["exhaustive oracle returned no minima"]
    minimum = min(member.energy for member in members)
    problems = []
    if solution.config.energy > minimum + ENERGY_SLACK:
        problems.append(f"solve energy {solution.config.energy!r} above the "
                        f"exhaustive minimum {minimum!r}")
    if len(members) < solution.degeneracy:
        problems.append(f"exhaustive manifold has {len(members)} members, "
                        f"degeneracy is {solution.degeneracy}")
    elif len(members) > solution.degeneracy:
        tally.overcounts += 1
    return problems


#: The two transition-order scans of acceptance criterion 9.
G_SCAN = model.ModelParams(1.0, 1.0, 0.01, 1.0, 3)
JBAR_SCAN = model.ModelParams(1.0, 1.0, 0.01, 1.2, 3)


def check_g_scan(diag) -> list[str]:
    target = -4.0 / G_SCAN.critical_coupling() ** 2
    problems = []
    if diag.discontinuity_order != 2:
        problems.append(f"g scan order {diag.discontinuity_order}, expected 2")
    if abs(diag.d2_right - target) > D2_RTOL * abs(target):
        problems.append(f"g scan d2_right {diag.d2_right!r}, expected {target!r}")
    return problems


def check_jbar_scan(diag) -> list[str]:
    problems = []
    if diag.discontinuity_order != 1:
        problems.append(f"jbar scan order {diag.discontinuity_order}, expected 1")
    if not abs(diag.d1_jump) > 0.5:
        problems.append(f"jbar scan |d1_jump| = {abs(diag.d1_jump)!r}, expected > 0.5")
    return problems


class ColdSolves:
    """Cold ``solve_ground_state`` on 96 seeded points, the exhaustive 2^N
    oracle on the 48 superradiant ones, and the two criterion-9 scans."""

    name = "cold-solves"
    kernel = "small"  # reference kernel: the solver is nearly all of a pass
    output_bytes = 0

    def __init__(self, seed: int, workdir: str):
        self.points = draw_cold_points(seed)
        self.gauge = reference.Gauge(self.kernel)

    def prepare(self) -> None:
        """Nothing to precompute: the oracle and closed forms run per pass."""

    def run_pass(self, index: int, tally: Tally) -> list[tuple[str, float, int]]:
        timings = []
        exhaustive = meanfield.SolverOptions(seed_mode="exhaustive")

        def call(key, fn, *args):
            mark = self.gauge.mark()
            start = time.perf_counter()
            try:
                return fn(*args)
            except FrustraError as exc:
                tally.record([f"{key}: {exc!r}"])
                return None
            finally:
                timings.append((key, time.perf_counter() - start, mark))

        for i, params in enumerate(self.points):
            solution = call(f"solve {i}", meanfield.solve_ground_state, params)
            if solution is None:
                continue
            tally.record(check_solution(params, solution))
            if params.g < params.critical_coupling():
                continue  # the oracle checks the superradiant points
            tally.exhaustive_calls += 1
            members = call(f"exhaustive {i}", meanfield.enumerate_degenerate_ground_states,
                           params, exhaustive)
            if members is not None:
                tally.record(check_manifold(solution, members, tally))
        for params, axis, check in ((G_SCAN, "g", check_g_scan),
                                    (JBAR_SCAN, "jbar", check_jbar_scan)):
            diag = call(f"{axis} scan", scaling.energy_derivative_diagnostics, params, axis)
            if diag is not None:
                tally.record(check(diag))
        return timings


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


WORKLOADS = {cls.name: cls for cls in (FspExponents, NfspSweepWide, ColdSolves)}
