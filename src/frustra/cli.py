"""Command-line front end.

Subcommands: critical-point, ground-state, spectrum, sweep, exponents.
Results are emitted as CSV (columns g, reduced_coupling, observable, index,
value) or as a JSON document {"config": ..., "results": [...],
"warnings": [...]}.  Floats are written as shortest round-trip decimals, so
identical configurations produce identical bytes.  In either format each
warning is also written to stderr as a ``warning: ...`` line.

Exit codes: 0 success, 2 validation error, 3 convergence/instability error,
4 fit-quality error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields
from itertools import accumulate, groupby

import numpy as np

from . import fluctuations, meanfield, model, scaling
from .errors import (
    ConvergenceError,
    DomainError,
    FitQualityError,
    InstabilityError,
    PhaseError,
    ValidationError,
)

EXIT_VALIDATION = 2
EXIT_UNSTABLE = 3
EXIT_FIT = 4


@dataclass
class RunConfig:
    """Fully resolved run configuration (flags merged over config file)."""

    command: str
    jbar: float = 0.01
    sites: int = 3
    g: float | None = None
    omega0: float = 1.0
    omega_atom: float = 1.0
    output: str | None = None
    format: str = "csv"
    seed_mode: str = "symmetry-orbit"
    manifold: bool = False
    reduced_min: float = 1e-4
    reduced_max: float = 1e-2
    points_per_decade: int = 25
    side: str = "both"
    observables: str = ",".join(scaling.OBSERVABLES)

    def params(self) -> model.ModelParams:
        if self.g is None:
            raise ValidationError("this command requires --g")
        return model.ModelParams(self.omega0, self.omega_atom, self.jbar, self.g, self.sites)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command"}
#: The JSON types each flag type accepts: an int stands for a float, a bool for no number.
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,), "bool": (bool,),
               "None": (type(None),)}


def _merge_config(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    flags = _CONFIG_KEYS & vars(args).keys()  # the subparser sets each of its flags
    file_values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ValidationError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(file_values, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_values) - _CONFIG_KEYS
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    merged = RunConfig(command=args.command)
    if args.command == "exponents":  # extract_exponents' window, not the sweep's
        merged.reduced_min, merged.reduced_max = scaling.EXPONENT_WINDOW
    for key, value in file_values.items():
        flag_type = RunConfig.__annotations__[key]  # such as "float | None"
        if not any(type(value) in _JSON_TYPES[kind] for kind in flag_type.split(" | ")):
            raise ValidationError(f"config key {key} must be {flag_type}, got {json.dumps(value)}")
        if key not in flags:
            raise ValidationError(f"config key {key} is not a flag of {args.command}")
        setattr(merged, key, value)
    for key in flags:
        value = getattr(args, key)
        if value is not None:
            setattr(merged, key, value)
    if merged.format not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {merged.format}")
    meanfield.SolverOptions(seed_mode=merged.seed_mode)  # rejects unknown modes
    return merged, flags


# ---------------------------------------------------------------------------
# result assembly


def _one_point(g, reduced, rows):
    """A one-point table of (observable, index, value) rows, one column per
    run of consecutive rows of one observable, so that the rows keep their
    order: the table's values, labels and mask are one array each, and a
    column holds slices of them."""
    observables, labels, values = zip(*rows) if rows else ((), (), ())
    values = np.array([values], dtype=float)
    labels, mask = np.array(list(map(str, labels))), np.ones(values.shape, dtype=bool)
    bounds = [0, *accumulate(len(list(run)) for _, run in groupby(observables))]
    return np.array([float(g)]), np.array([float(reduced)]), [
        (observables[a], labels[a:b], values[:, a:b], mask[:, a:b])
        for a, b in zip(bounds, bounds[1:])]


#: Present values per block of CSV lines that :func:`_csv_chunks` joins in one call.
_CSV_BLOCK = 2048


def _csv_chunks(table):
    """The CSV writer of every command: the header, then the lines in
    blocks of at most ``_CSV_BLOCK``, each block as one string.  A table is
    (g, reduced_coupling, columns): arrays over its points, and per column
    (observable, labels, values, mask), with values and mask of shape
    (points, labels).  A point's lines are its columns' present values in
    label order.  Each distinct value is formatted once per table, keyed by
    its bit pattern so that 0.0 and -0.0 stay apart, and each point's
    ``g,reduced_coupling,`` head once; a line is its point's head, its
    column's ``observable,label,`` prefix and its value's text, all three
    picked by index, and a block's lines are joined in one call."""
    g, reduced, columns = table
    names, values, mask = scaling._flat_table(len(g), columns)
    bits = values.view(np.int64)
    point_of, column_of = np.nonzero(mask)  # the present values, in row order
    keys, value_of = np.unique(bits[point_of, column_of], return_inverse=True)
    text = np.array(list(map(repr, keys.view(float).tolist())), dtype=object) + "\n"
    heads = np.array(list(map("{!r},{!r},".format, g.tolist(), reduced.tolist())), dtype=object)
    prefixes = np.array([f"{observable},{label}," for observable, label in names], dtype=object)
    yield "g,reduced_coupling,observable,index,value\n"
    for start in range(0, len(point_of), _CSV_BLOCK):
        block = slice(start, start + _CSV_BLOCK)
        lines = np.empty((len(point_of[block]), 3), dtype=object)
        lines[:, 0] = heads[point_of[block]]
        lines[:, 1] = prefixes[column_of[block]]
        lines[:, 2] = text[value_of[block]]
        yield "".join(lines.ravel().tolist())


#: JSON values C-encoded with one item a line, indented as the document's
#: config and warnings (``_FIELDS``) and its results rows (``_ROWS``).
_FIELDS = json.JSONEncoder(sort_keys=True, separators=(",\n  ", ": "))
_ROWS = json.JSONEncoder(sort_keys=True, separators=(",\n   ", ": "))


def _emit(config: RunConfig, flags, table, warnings):
    """The output text in pieces: the CSV table block by block, so that only
    one block's text is built at a time, or the JSON document, whose config
    echoes the command and its ``flags``.  The JSON is
    ``json.dumps(..., sort_keys=True, indent=1)`` byte for byte, but its
    parts are C-encoded (an indent makes ``json`` encode in Python), the
    results rows' dicts as one list, and set in the indented frame."""
    if config.format == "csv":
        return _csv_chunks(table)
    echo = _FIELDS.encode({key: getattr(config, key) for key in {"command", *flags}})
    texts = _FIELDS.encode(list(warnings))
    rows = _ROWS.encode(list(scaling._present_rows(*table)))
    # JSON escapes the quotes and line breaks inside strings, so "},\n   {" only
    # joins two flat rows
    results = "[]" if rows == "[]" else "[\n  {\n   %s\n  }\n ]" % rows[2:-2].replace(
        "},\n   {", "\n  },\n  {\n   ")
    notes = "[]" if texts == "[]" else f"[\n  {texts[1:-1]}\n ]"
    return [f'{{\n "config": {{\n  {echo[1:-1]}\n }},\n "results": {results},\n'
            f' "warnings": {notes}\n}}\n']


def _write(config: RunConfig, pieces) -> None:
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise ValidationError(f"cannot write output file {config.output}: {exc}") from None
    else:
        sys.stdout.writelines(pieces)


# ---------------------------------------------------------------------------
# subcommands


def cmd_critical_point(config: RunConfig):
    gc = model.critical_point(config.jbar, config.sites)
    # ModelParams rejects a bad --g, --omega0 or --omega-atom
    g_eval = model.ModelParams(config.omega0, config.omega_atom, config.jbar,
                               gc if config.g is None else config.g, config.sites).g
    rows = [("g_c", "", gc)] + [("origin_hessian_eigenvalue", t, lam) for t, lam in enumerate(
        model.origin_hessian_eigenvalues(g_eval, config.jbar, config.sites), start=1)]
    return _one_point(g_eval, abs(g_eval - gc) / gc, rows), []


def cmd_ground_state(config: RunConfig):
    params = config.params()
    gc = params.critical_coupling()
    solution = meanfield.solve_ground_state(params)

    def member_rows(member, tag=""):
        jx = member.jx_expectation()
        return [(name, f"{tag}{site}", values[site - 1]) for site in range(1, len(jx) + 1)
                for name, values in (("alpha", member.alphas), ("theta", member.thetas),
                                     ("phi", member.phis), ("jx", jx))]

    rows = [("energy", "", solution.config.energy), ("phase", solution.phase.value, 1.0),
            ("degeneracy", "", solution.degeneracy), *member_rows(solution.config)]
    warnings = []
    if config.manifold:
        members = meanfield.enumerate_degenerate_ground_states(
            solution, meanfield.SolverOptions(seed_mode=config.seed_mode))
        for m, member in enumerate(members, start=1):
            rows += [("manifold_energy", m, member.energy), *member_rows(member, tag=f"{m}/")]
        if len(members) != solution.degeneracy:
            warnings.append(
                f"manifold size {len(members)} differs from expected "
                f"degeneracy {solution.degeneracy}")
    return _one_point(params.g, abs(params.g - gc) / gc, rows), warnings


def cmd_spectrum(config: RunConfig):
    params = config.params()
    gc = params.critical_coupling()
    solution = meanfield.solve_ground_state(params)
    form = fluctuations.build_quadratic_hamiltonian(solution)
    decomp = fluctuations.williamson_diagonalize(form)
    rows = [("excitation_energy", mode, eps)
            for mode, eps in enumerate(decomp.symplectic_eigenvalues, start=1)]
    for mode in range(1, decomp.n_modes + 1):
        weights = fluctuations.mode_weights(decomp, mode)
        rows += [(name, f"{mode}/{site}", values[site - 1])
                 for site in range(1, params.n_sites + 1)
                 for name, values in (("weight_cavity", weights.cavity),
                                      ("weight_atom", weights.atom))]
    warnings = []
    if decomp.critical_regime:
        warnings.append("critical-regime: smallest excitation below 1e-8 omega0 or not "
                        "resolved in double precision; excitation energies and "
                        "covariance-derived values carry enlarged error bounds")
    return _one_point(params.g, abs(params.g - gc) / gc, rows), warnings


def cmd_sweep(config: RunConfig):
    result = scaling.run_sweep(scaling.SweepSpec(
        jbar=config.jbar, n_sites=config.sites, omega0=config.omega0, Omega=config.omega_atom,
        reduced_min=config.reduced_min, reduced_max=config.reduced_max,
        points_per_decade=config.points_per_decade, sides=config.side,
        observables=tuple(name for name in config.observables.split(",") if name)))
    table = (result.g, result.reduced, [(name, *column) for name, column in result.table.items()])
    return table, result.warnings + [
        f"missing g={m.g!r} {m.observable}: {m.reason}" for m in result.missing]


def cmd_exponents(config: RunConfig):
    params = model.ModelParams(config.omega0, config.omega_atom, config.jbar,
                               1.0, config.sites)
    report = scaling.extract_exponents(
        params, window=(config.reduced_min, config.reduced_max),
        points_per_decade=config.points_per_decade)
    fits = [("gamma", "mf", report.gamma_mf), ("gamma", "f", report.gamma_f)]
    for name, by_key in (("photon_exponent", report.photon_exponents),
                         ("squeezing_exponent", report.squeezing_exponents),
                         ("hessian_exponent", report.hessian_exponents)):
        fits += [(name, key, by_key[key]) for key in sorted(by_key)]
    rows = [row for name, index, fit in fits if fit is not None for row in (
        (name, index, abs(fit.exponent)), (name + "_r_squared", index, fit.r_squared))]
    rows += [("check", name, 1.0 if passed else 0.0)
             for name, passed in sorted(report.checks.items())]
    return _one_point(params.critical_coupling(), 0.0, rows), list(report.warnings)


_COMMANDS = {
    "critical-point": cmd_critical_point,
    "ground-state": cmd_ground_state,
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "exponents": cmd_exponents,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frustra",
        description="Mean-field ground states, excitation spectra and critical "
                    "scaling of the one-dimensional Dicke lattice.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON file with the same keys as the flags")
        cmd.add_argument("--jbar", type=float, default=None,
                         help="dimensionless hopping J/omega0 (default 0.01)")
        cmd.add_argument("--sites", type=int, default=None,
                         help="lattice size N, odd and >= 3 (default 3)")
        if name in ("critical-point", "ground-state", "spectrum"):
            cmd.add_argument("--g", type=float, default=None, help="coupling strength")
        cmd.add_argument("--omega0", type=float, default=None,
                         help="cavity frequency (default 1.0)")
        cmd.add_argument("--omega-atom", dest="omega_atom", type=float, default=None,
                         help="atomic frequency (default 1.0)")
        cmd.add_argument("--output", default=None, help="output path (default stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
        if name == "ground-state":
            cmd.add_argument("--seed-mode", dest="seed_mode",
                             choices=("symmetry-orbit", "exhaustive"), default=None,
                             help="how --manifold enumerates the degenerate "
                                  "minima (default symmetry-orbit)")
            cmd.add_argument("--manifold", action="store_true", default=None,
                             help="emit the full degenerate manifold")
        if name in ("sweep", "exponents"):
            cmd.add_argument("--reduced-min", dest="reduced_min", type=float)
            cmd.add_argument("--reduced-max", dest="reduced_max", type=float)
            cmd.add_argument("--points-per-decade", dest="points_per_decade", type=int)
        if name == "sweep":
            cmd.add_argument("--side", choices=("both", "above", "below"))
            cmd.add_argument("--observables", default=None,
                             help="comma-separated subset of "
                                  + ",".join(scaling.OBSERVABLES))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config, flags = _merge_config(args)
        table, warnings = _COMMANDS[args.command](config)
        _write(config, _emit(config, flags, table, warnings))
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InstabilityError, ConvergenceError, PhaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except FitQualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
