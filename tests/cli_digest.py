"""Digest of the ``frustra`` command line's outputs, for comparing two trees.

Runs a fixed list of CLI runs (every subcommand in CSV and JSON, at
N = 3, 5, 7, 9, 21 and jbar = +-0.01, -0.3, 0.2, 0.45) against the package
under a given ``src`` directory, in one child process, and prints one line
per run: its exit code, the SHA-256 of its stdout and of its stderr, and
its arguments.

    python tests/cli_digest.py src                        # one digest per run
    python tests/cli_digest.py src --dump rows.json       # and the parsed rows
    python tests/cli_digest.py src --against other/src    # what moved, run by run

``--against`` runs both trees and prints each run whose bytes differ: as
``values`` when only numbers moved (their count and worst move), as
``structure`` when its exit code, stderr, row labels or JSON config and
warnings differ.  A relative move is taken against the other tree's value
where that is non-zero; moves from or to zero are counted apart.  Standard
library only; the package needs numpy as always.  Not a test module.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

SIZES = (3, 5, 7, 9, 21)
HOPPINGS = (0.01, -0.01, -0.3, 0.2, 0.45)


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
    return runs


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
    json.dump(results, sys.stdout)


def collect(src: str) -> list[dict]:
    child = subprocess.run([sys.executable, __file__, src, "--child"],
                           capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def parse(result: dict):
    """(frame, rows) of one run: the JSON config and warnings (None for
    CSV), and each output row as [observable, index, g, reduced, value]."""
    stdout, argv = result["stdout"], result["argv"]
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
        count, rel, absolute = 0, 0.0, 0.0
        for row, base_row in zip(rows, base_rows):
            for a, b in zip(row[2:], base_row[2:]):
                if _same(a, b):
                    continue
                count += 1
                absolute = max(absolute, abs(a - b))
                if a == 0 or b == 0:
                    zero_flips += 1
                else:
                    rel = max(rel, abs(a - b) / abs(b))
        moved_runs, moved = moved_runs + 1, moved + count
        worst_rel, worst_abs = max(worst_rel, rel), max(worst_abs, absolute)
        print(f"values     {label}: {count} moved, worst rel {rel:.3g}, worst abs {absolute:.3g}")
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
