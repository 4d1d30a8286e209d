"""Digest of the ``frustra`` command line's outputs, for comparing two trees.

Runs a fixed list of CLI runs (every subcommand in CSV and JSON, at
N = 3, 5, 7, 9, 21 and jbar = +-0.01, -0.3, 0.2, 0.45, ``ground-state`` also
at the strong couplings g = 10 and 1000, and at jbar = +-0.01 at g = 1e10
and 1e12, the exhaustive
``--manifold`` oracle at N = 3, 5, 7, with jbar = -0.01 also at 0.5 g_c and
g_c (1 + 1e-9) and jbar = 0.2 also at the strong coupling g = 1e6, and
``sweep`` and ``exponents`` at jbar = 0.0), then the
transition-order scans ``energy_derivative_diagnostics`` over N = 3, 5, 7,
jbar = +-0.01, 0.2, -0.3, both axes and four (half_width, step) pairs,
the solver's records: ``meanfield._solve_stack`` over N = 3, 5, 7, 9,
21 and jbar = -0.49, -0.01, -1e-5, 0, 1e-5, 0.01, 0.45, each on one grid of
g_c (the tree's own ``critical_point``), g_c moved by 1 to 6 ulps either
way, 0.5 g_c and g_c (1 + r) for reduced couplings r from 1e-16 to 1e8,
and the exhaustive oracle's members (``enumerate_degenerate_ground_states``
in exhaustive mode) over N = 3, 5, 7 and jbar = +-1e-3, +-1e-2, +-0.2, each
at g_c (1 + r) for r = 1e-5, 1e-3 and 1e-1.
It runs them against the package under a given ``src`` directory, in one
child process, and prints one line per run: its exit code, the SHA-256 of
its stdout (a scan's ``repr``; a record's phases, alphas, residuals and
spectra by point; the oracle's members by point) and of its stderr (a
scan's error; a record's or the oracle's error types and texts by point),
and its arguments.

    python tests/cli_digest.py src                        # one digest per run
    python tests/cli_digest.py src --dump rows.json       # and the parsed rows
    python tests/cli_digest.py src --against other/src    # what moved, run by run

``--against`` runs both trees and prints each run whose bytes differ: as
``values`` when only numbers moved (their count, where they sit and the
worst move), as ``structure`` when its exit code, stderr, row labels or
JSON config and warnings differ.  Where they sit is, for a CLI run or a
scan, each observable or row kind with the index ranges of its moved rows,
for a record, each moved part (g, alphas, residual or spectra) with
the phases and index ranges of its moved points, and for the oracle, each
point (g0, g1, g2 by reduced coupling) with the index ranges of its moved
members.  A relative move is
taken against the other tree's value where that is non-zero; moves from
or to zero are counted apart.  Standard library only; the package needs
numpy as always.  Not a test module.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

SIZES = (3, 5, 7, 9, 21)
HOPPINGS = (0.01, -0.01, -0.3, 0.2, 0.45)
EXHAUSTIVE_SIZES = (3, 5, 7)
#: The scans: sizes, hoppings, axes (each at its g) and (half_width, step) pairs.
SCAN_SIZES = (3, 5, 7)
SCAN_HOPPINGS = (0.01, -0.01, 0.2, -0.3)
SCAN_AXES = {"g": 1.0, "jbar": 1.2}
SCAN_STEPS = ((4e-3, 1e-4), (1e-3, 1e-4), (2e-4, 1e-4), (0.05, 3e-3))
#: The solver records: hoppings about 0 and near the stability edges, and
#: the reduced couplings of each grid above its ulp steps about g_c.
RECORD_HOPPINGS = (-0.49, -0.01, -1e-5, 0.0, 1e-5, 0.01, 0.45)
RECORD_REDUCED = (1e-16, 1e-12, 1e-8, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e8)
#: The oracle's members: sizes, hoppings, and reduced couplings of each grid.
ORACLE_SIZES = (3, 5, 7)
ORACLE_HOPPINGS = (-0.2, -1e-2, -1e-3, 1e-3, 1e-2, 0.2)
ORACLE_REDUCED = (1e-5, 1e-3, 1e-1)


def cli_runs() -> list[list[str]]:
    """The argument lists of every run, in a fixed order."""
    runs = []
    for n, jbar, fmt in itertools.product(SIZES, HOPPINGS, ("csv", "json")):
        common = ["--sites", str(n), "--jbar", repr(jbar), "--format", fmt]
        runs += [["critical-point", *common], ["critical-point", *common, "--g", "1.2"]]
        for g in ("0.5", "1.001", "1.2"):
            runs += [["ground-state", *common, "--g", g], ["spectrum", *common, "--g", g]]
        runs += [["ground-state", *common, "--g", "1.2", "--manifold"],
                 ["sweep", *common], ["exponents", *common]]
        runs += [["ground-state", *common, "--g", g] for g in ("10", "1000")]  # strong coupling
        if abs(jbar) == 0.01:  # where |alpha| ~ g/2 lifts the gradient's rounding floor
            runs += [["ground-state", *common, "--g", g] for g in ("1e10", "1e12")]
        if n in EXHAUSTIVE_SIZES:  # the oracle's routes
            couplings = ["1.001", "1.2"]
            if jbar == -0.01:  # its certified origin, and its uniform candidate at g_c
                gc = math.sqrt(1.0 + 2.0 * jbar)  # the package's g_c at jbar < 0, bit for bit
                couplings += [repr(0.5 * gc), repr(gc * (1.0 + 1e-9))]
            if jbar == 0.2:  # where |alpha| ~ g/2 lifts the oracle's rounding
                couplings.append("1e6")
            runs += [["ground-state", *common, "--g", g, "--manifold", "--seed-mode", "exhaustive"]
                     for g in couplings]
    for n, fmt in itertools.product(SIZES, ("csv", "json")):  # the first-order line
        common = ["--sites", str(n), "--jbar", "0.0", "--format", fmt]
        runs += [["sweep", *common], ["exponents", *common]]
    return runs


def scan_runs() -> list[list[str]]:
    """The argument lists of every transition-order scan, in a fixed order."""
    return [["scan", "--axis", axis, "--sites", str(n), "--jbar", repr(jbar),
             "--half-width", repr(half_width), "--step", repr(step)]
            for n, jbar, axis, (half_width, step) in itertools.product(
                SCAN_SIZES, SCAN_HOPPINGS, SCAN_AXES, SCAN_STEPS)]


def record_runs() -> list[list[str]]:
    """The argument lists of every solver record, in a fixed order."""
    return [["solve-stack", "--sites", str(n), "--jbar", repr(jbar)]
            for n, jbar in itertools.product(SIZES, RECORD_HOPPINGS)]


def oracle_runs() -> list[list[str]]:
    """The argument lists of every oracle record, in a fixed order."""
    return [["oracle", "--sites", str(n), "--jbar", repr(jbar)]
            for n, jbar in itertools.product(ORACLE_SIZES, ORACLE_HOPPINGS)]


def _members(argv: list[str]) -> dict:
    """One oracle record: a row per member, labelled by its point (g0, g1,
    g2 by reduced coupling) and its index, holding g and the alphas, as
    stdout, and each failed point's error as stderr."""
    import numpy as np

    from frustra.errors import FrustraError
    from frustra.meanfield import SolverOptions, enumerate_degenerate_ground_states
    from frustra.model import ModelParams, critical_point

    option = dict(zip(argv[1::2], argv[2::2]))
    n, jbar = int(option["--sites"]), float(option["--jbar"])
    gc, exhaustive = critical_point(jbar, n), SolverOptions(seed_mode="exhaustive")
    rows, errors = [], []
    for i, reduced in enumerate(ORACLE_REDUCED):
        g = gc * (1.0 + reduced)
        try:
            members = enumerate_degenerate_ground_states(ModelParams(1.0, 1.0, jbar, g, n),
                                                         exhaustive)
        except (FrustraError, np.linalg.LinAlgError) as exc:
            errors.append(f"g{i} {type(exc).__name__}: {exc}\n")
            continue
        rows += [[f"g{i}", str(m), g, *member.alphas.tolist()] for m, member in enumerate(members)]
    return {"argv": argv, "exit": 0, "stdout": json.dumps(rows), "stderr": "".join(errors),
            "rows": rows}


def _record(argv: list[str]) -> dict:
    """One solver record: a row per point, labelled by its phase or its
    error type, holding g, the alphas, the residual and the spectrum, as
    stdout, and each failed point's error as stderr."""
    import numpy as np

    from frustra.meanfield import _solve_stack
    from frustra.model import critical_point

    option = dict(zip(argv[1::2], argv[2::2]))
    n, jbar = int(option["--sites"]), float(option["--jbar"])
    gc = critical_point(jbar, n)
    couplings, below, above = [gc, 0.5 * gc], gc, gc
    for _ in range(6):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        couplings += [below, above]
    couplings += [gc * (1.0 + r) for r in RECORD_REDUCED]
    states = _solve_stack(n, np.array(couplings), np.full(len(couplings), jbar))
    rows, errors = [], []
    for i, (g, alphas, phase, residual, spectrum, error) in enumerate(zip(
            couplings, states.alphas.tolist(), states.phases, states.grad_norm.tolist(),
            states.hessian_eigenvalues.tolist(), states.errors)):
        rows.append([type(error).__name__ if phase is None else phase.name, str(i), g,
                     *alphas, residual, *spectrum])
        if error is not None:
            errors.append(f"{i} {type(error).__name__}: {error}\n")
    return {"argv": argv, "exit": 0, "stdout": json.dumps(rows), "stderr": "".join(errors),
            "rows": rows}


def _scan(argv: list[str]) -> dict:
    """One scan's result: its ``repr`` as stdout, an error as stderr, and
    its numbers as rows, a table row per grid point and one of the limits."""
    from frustra.errors import FrustraError
    from frustra.model import ModelParams
    from frustra.scaling import energy_derivative_diagnostics

    option = dict(zip(argv[1::2], argv[2::2]))
    axis, n = option["--axis"], int(option["--sites"])
    params = ModelParams(1.0, 1.0, float(option["--jbar"]), SCAN_AXES[axis], n)
    try:
        diag = energy_derivative_diagnostics(params, axis, float(option["--half-width"]),
                                             float(option["--step"]))
    except FrustraError as exc:
        return {"argv": argv, "exit": 1, "stdout": "", "stderr": f"{exc!r}\n", "rows": []}
    rows = [["table", str(i), *entry] for i, entry in enumerate(diag.table)]
    rows.append(["limits", str(diag.discontinuity_order), diag.center, diag.d1_left,
                 diag.d1_right, diag.d2_left, diag.d2_right, diag.detected_location])
    return {"argv": argv, "exit": 0, "stdout": repr(diag), "stderr": "", "rows": rows}


def _run_all(src: str) -> None:
    """Child side: run every CLI run in this process, print the results as JSON."""
    sys.path.insert(0, src)
    from frustra.cli import main

    results = []
    for argv in cli_runs():
        out, err = io.StringIO(), io.StringIO()
        # a fresh warnings state per run, as a process of its own would have
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        results.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    results += [_scan(argv) for argv in scan_runs()]
    results += [_record(argv) for argv in record_runs()]
    results += [_members(argv) for argv in oracle_runs()]
    json.dump(results, sys.stdout)


def collect(src: str) -> list[dict]:
    child = subprocess.run([sys.executable, __file__, src, "--child"],
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def parse(result: dict):
    """(frame, rows) of one run: the JSON config and warnings (None for
    CSV and scans), and each output row as [observable, index, g, reduced,
    value], or a scan's or a record's rows as [kind, index, *numbers]."""
    stdout, argv = result["stdout"], result["argv"]
    if "rows" in result:
        return None, result["rows"]
    if not stdout:
        return None, []
    if argv[argv.index("--format") + 1] == "json":
        data = json.loads(stdout)
        return ([data["config"], data["warnings"]],
                [[r["observable"], r["index"], r["g"], r["reduced_coupling"], r["value"]]
                 for r in data["results"]])
    rows = []
    for line in stdout.splitlines()[1:]:
        g, reduced, observable, index, value = line.split(",")
        rows.append([observable, index, float(g), float(reduced), float(value)])
    return None, rows


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float) and a != a and b != b)


def _ranges(indices) -> str:
    """Row indices as text: runs of consecutive integers as first..last,
    then the other labels (a soft mode's ``mf``, ``f``) in order."""
    spans: list[list[int]] = []
    for number in sorted({int(index) for index in indices if index.isdigit()}):
        if spans and number == spans[-1][1] + 1:
            spans[-1][1] = number
        else:
            spans.append([number, number])
    words = [f"{first}..{last}" if last > first else str(first) for first, last in spans]
    return ",".join(words + sorted({index for index in indices if not index.isdigit()}))


def _part(record: bool, row: list, column: int) -> str:
    """The name of a row's moved number at ``column`` (from 2, after the
    row's labels): a record row is g, N alphas, the residual and N
    eigenvalues; a CLI or scan row is named by its observable or kind."""
    if not record:
        return row[0]
    n = (len(row) - 4) // 2
    if column == 2:
        return "g"
    return "alphas" if column < 3 + n else "residual" if column == 3 + n else "spectra"


def compare(new: list[dict], old: list[dict]) -> int:
    """Print each run that differs; return the number of structural changes."""
    moved_runs = structural = moved = zero_flips = 0
    worst_rel = worst_abs = 0.0
    for run, base in zip(new, old):
        if all(run[key] == base[key] for key in ("exit", "stdout", "stderr")):
            continue
        label = " ".join(run["argv"])
        (frame, rows), (base_frame, base_rows) = parse(run), parse(base)
        if (run["exit"], run["stderr"], frame) != (base["exit"], base["stderr"], base_frame) \
                or [r[:2] for r in rows] != [r[:2] for r in base_rows]:
            structural += 1
            print(f"structure  {label}")
            continue
        count, rel, absolute, where = 0, 0.0, 0.0, {}
        record = run["argv"][0] == "solve-stack"
        for row, base_row in zip(rows, base_rows):
            for column, (a, b) in enumerate(zip(row[2:], base_row[2:]), start=2):
                if _same(a, b):
                    continue
                count += 1
                part = _part(record, row, column)
                where.setdefault(f"{part} of {row[0]}" if record else part, set()).add(row[1])
                absolute = max(absolute, abs(a - b))
                if a == 0 or b == 0:
                    zero_flips += 1
                else:
                    rel = max(rel, abs(a - b) / abs(b))
        moved_runs, moved = moved_runs + 1, moved + count
        worst_rel, worst_abs = max(worst_rel, rel), max(worst_abs, absolute)
        moved_at = "; ".join(f"{part}[{_ranges(indices)}]" for part, indices in where.items())
        print(f"values     {label}: {count} moved ({moved_at}), worst rel {rel:.3g}, "
              f"worst abs {absolute:.3g}")
    values = sum(len(row) - 2 for run in old for row in parse(run)[1])
    print(f"{len(new)} runs: {len(new) - moved_runs - structural} identical, "
          f"{moved_runs} with moved values, {structural} structural; "
          f"{moved} of {values} values moved ({zero_flips} from or to zero), "
          f"worst rel {worst_rel:.3g}, worst abs {worst_abs:.3g}")
    return structural


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the src directory holding the frustra package")
    parser.add_argument("--against", metavar="SRC", help="another tree's src to compare with")
    parser.add_argument("--dump", metavar="FILE", help="write the parsed rows of every run")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _run_all(args.src)
        return 0
    results = collect(args.src)
    if args.dump:
        with open(args.dump, "w") as handle:
            json.dump([{"argv": r["argv"], "exit": r["exit"], "stderr": r["stderr"],
                        "rows": parse(r)[1]} for r in results], handle, allow_nan=True)
    if args.against:
        return 1 if compare(results, collect(args.against)) else 0
    for result in results:
        print(result["exit"], digest(result["stdout"]), digest(result["stderr"]),
              " ".join(result["argv"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
