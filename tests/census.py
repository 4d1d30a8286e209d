"""Census of the solver's fault grids, for comparing two trees.

Each grid is a fixed set of points solved through ``meanfield._solve_stack``,
one call per (N, jbar), as the sweep solves them:

- ``near-gc``: jbar 1e-5 and 1e-4; N = 5, 7, 9, 13, 19, 21, 23, 41; 33
  reduced couplings r from 1e-7 to 1e-2, at g = g_c (1 + r): 528 points
  where the landscape is flat and an absolute descent stop says nothing
  about convergence;
- ``large-g``: N = 3, 5, 7, 9, 11, 13, 21; jbar 1e-4, 0.01, 0.05, 0.2, 0.3
  and 0.45; 190 couplings from 10 to 1e20: 7980 points where the
  gradient's rounding grows as |alpha| ~ g/2.

Per grid it prints the points, the failures by error type and text (each
number in a text shown as ``#``), the largest descent and endgame step
counts of Newton's rows with the number of rows at ``MAX_ITERATIONS``
descent steps, and the wall time.  The grids run in one child process per
tree, with ``meanfield._newton_minimize`` wrapped to read its step counts.

    python tests/census.py src                         # every grid
    python tests/census.py src --grid near-gc          # one grid
    python tests/census.py src --against other/src     # both trees, and what changed

``--against`` prints both trees' census and then, per grid, each count
that differs, or that the grid is unchanged; wall times are not compared.
It exits 1 if any count differs.  Standard library only; the package needs
numpy as always.  Not a test module.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time

#: Per grid: sizes, hoppings, and the couplings as ("reduced", exponents)
#: about each point's g_c or ("absolute", exponents), each a logspace.
GRIDS = {
    "near-gc": {"sizes": (5, 7, 9, 13, 19, 21, 23, 41), "hoppings": (1e-5, 1e-4),
                "couplings": ("reduced", -7.0, -2.0, 33)},
    "large-g": {"sizes": (3, 5, 7, 9, 11, 13, 21),
                "hoppings": (1e-4, 0.01, 0.05, 0.2, 0.3, 0.45),
                "couplings": ("absolute", 1.0, 20.0, 190)},
}


def _run_grid(name: str) -> dict:
    """Child side: solve one grid, return its counts."""
    import numpy as np

    from frustra import meanfield
    from frustra.model import critical_point

    spec, steps = GRIDS[name], []
    real = meanfield._newton_minimize

    def counted(*args):
        outcome = real(*args)
        steps.append(outcome[2])
        return outcome

    meanfield._newton_minimize = counted
    kind, low, high, count = spec["couplings"]
    points, failures = 0, {}
    start = time.perf_counter()
    try:
        for n in spec["sizes"]:
            for jbar in spec["hoppings"]:
                spaced = np.logspace(low, high, count)
                g = critical_point(jbar, n) * (1.0 + spaced) if kind == "reduced" else spaced
                states = meanfield._solve_stack(n, g, np.full(len(g), jbar))
                points += len(g)
                for error in states.errors:
                    if error is not None:
                        text = re.sub(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?", "#", str(error))
                        key = f"{type(error).__name__}: {text}"
                        failures[key] = failures.get(key, 0) + 1
    finally:
        meanfield._newton_minimize = real
    seconds = time.perf_counter() - start
    rows = np.concatenate(steps) if steps else np.zeros((0, 2), dtype=int)
    descent, endgame = rows.max(axis=0).tolist() if len(rows) else (0, 0)
    return {"grid": name, "points": points, "failed": sum(failures.values()),
            "failures": dict(sorted(failures.items())), "newton_rows": len(rows),
            "max_descent": descent, "max_endgame": endgame,
            "capped": int((rows[:, 0] >= meanfield.MAX_ITERATIONS).sum()), "seconds": seconds}


def collect(src: str, grids: list[str]) -> list[dict]:
    child = subprocess.run([sys.executable, __file__, src, "--child", *grids],
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def show(label: str, results: list[dict]) -> None:
    for result in results:
        print(f"{label} {result['grid']}: {result['points']} points, {result['failed']} failed, "
              f"{result['seconds']:.2f} s")
        for text, count in result["failures"].items():
            print(f"  {count:6d}  {text}")
        print(f"  Newton rows {result['newton_rows']}: descent steps max {result['max_descent']} "
              f"({result['capped']} rows at MAX_ITERATIONS), endgame steps max "
              f"{result['max_endgame']}")


#: The counts --against compares; wall times are not among them.
COUNTS = ("points", "failed", "failures", "newton_rows", "max_descent", "max_endgame", "capped")


def compare(new: list[dict], old: list[dict]) -> int:
    """Print each count that differs between the trees; return how many do."""
    changed = 0
    for run, base in zip(new, old):
        moved = [key for key in COUNTS if run[key] != base[key]]
        for key in moved:
            print(f"{run['grid']}: {key} {base[key]} -> {run[key]}")
        if not moved:
            print(f"{run['grid']}: unchanged ({run['seconds']:.2f} s against "
                  f"{base['seconds']:.2f} s)")
        changed += len(moved)
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the src directory holding the frustra package")
    parser.add_argument("--grid", choices=sorted(GRIDS), action="append",
                        help="a grid to run (repeatable; default every grid)")
    parser.add_argument("--against", metavar="SRC", help="another tree's src to compare with")
    parser.add_argument("--child", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        sys.path.insert(0, args.src)
        json.dump([_run_grid(name) for name in args.child], sys.stdout)
        return 0
    grids = args.grid or list(GRIDS)
    results = collect(args.src, grids)
    show(args.src, results)
    if args.against:
        base = collect(args.against, grids)
        show(args.against, base)
        return 1 if compare(results, base) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
