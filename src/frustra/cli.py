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
import json
import sys
from dataclasses import dataclass, fields

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


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            file_values = json.load(handle)
        unknown = set(file_values) - _CONFIG_KEYS
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    merged = RunConfig(command=args.command)
    for key, value in file_values.items():
        setattr(merged, key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(merged, key, value)
    if merged.format not in ("csv", "json"):
        raise ValidationError(f"format must be csv or json, got {merged.format}")
    meanfield.SolverOptions(seed_mode=merged.seed_mode)  # rejects unknown modes
    return merged


# ---------------------------------------------------------------------------
# result assembly


def _row(g, reduced, observable, index, value):
    return {"g": float(g), "reduced_coupling": float(reduced),
            "observable": observable, "index": str(index), "value": float(value)}


def rows_to_csv(rows) -> str:
    lines = ["g,reduced_coupling,observable,index,value"]
    for row in rows:
        lines.append(",".join([
            repr(row["g"]), repr(row["reduced_coupling"]), row["observable"],
            row["index"], repr(row["value"])]))
    return "\n".join(lines) + "\n"


def csv_to_rows(text: str):
    lines = [line for line in text.splitlines() if line.strip()]
    rows = []
    for line in lines[1:]:
        g, reduced, observable, index, value = line.split(",")
        rows.append(_row(float(g), float(reduced), observable, index, float(value)))
    return rows


def _emit(config: RunConfig, rows, warnings) -> str:
    if config.format == "csv":
        return rows_to_csv(rows)
    payload = {
        "config": {key: getattr(config, key) for key in sorted(_CONFIG_KEYS | {"command"})},
        "results": rows,
        "warnings": list(warnings),
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _write(config: RunConfig, text: str) -> None:
    if config.output:
        with open(config.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _reduced(g: float, gc: float) -> float:
    return abs(g - gc) / gc


# ---------------------------------------------------------------------------
# subcommands


def cmd_critical_point(config: RunConfig):
    gc = model.critical_point(config.jbar, config.sites,
                              model.default_hopping_sign(config.jbar))
    g_eval = config.g if config.g is not None else gc
    rows = [_row(g_eval, _reduced(g_eval, gc), "g_c", "", gc)]
    for t, lam in enumerate(model.origin_hessian_eigenvalues(
            g_eval, config.jbar, config.sites)):
        rows.append(_row(g_eval, _reduced(g_eval, gc), "origin_hessian_eigenvalue",
                         t + 1, lam))
    return rows, []


def cmd_ground_state(config: RunConfig):
    params = config.params()
    gc = params.critical_coupling()
    reduced = _reduced(params.g, gc)
    solution = meanfield.solve_ground_state(params)
    rows = [
        _row(params.g, reduced, "energy", "", solution.config.energy),
        _row(params.g, reduced, "phase", solution.phase.value, 1.0),
        _row(params.g, reduced, "degeneracy", "", float(solution.degeneracy)),
    ]

    def member_rows(config_mf, tag=""):
        out = []
        jx = config_mf.jx_expectation()
        for site in range(1, params.n_sites + 1):
            label = f"{tag}{site}"
            out.append(_row(params.g, reduced, "alpha", label, config_mf.alphas[site - 1]))
            out.append(_row(params.g, reduced, "theta", label, config_mf.thetas[site - 1]))
            out.append(_row(params.g, reduced, "phi", label, config_mf.phis[site - 1]))
            out.append(_row(params.g, reduced, "jx", label, jx[site - 1]))
        return out

    rows += member_rows(solution.config)
    warnings = []
    if config.manifold:
        members = meanfield.enumerate_degenerate_ground_states(
            params, meanfield.SolverOptions(seed_mode=config.seed_mode))
        for m, member in enumerate(members, start=1):
            rows.append(_row(params.g, reduced, "manifold_energy", m, member.energy))
            rows += member_rows(member, tag=f"{m}/")
        if len(members) != solution.degeneracy:
            warnings.append(
                f"manifold size {len(members)} differs from expected "
                f"degeneracy {solution.degeneracy}")
    return rows, warnings


def cmd_spectrum(config: RunConfig):
    params = config.params()
    gc = params.critical_coupling()
    reduced = _reduced(params.g, gc)
    solution = meanfield.solve_ground_state(params)
    form = fluctuations.build_quadratic_hamiltonian(solution, params)
    decomp = fluctuations.williamson_diagonalize(form)
    rows, warnings = [], []
    for mode, eps in enumerate(decomp.symplectic_eigenvalues, start=1):
        rows.append(_row(params.g, reduced, "excitation_energy", mode, eps))
    for mode in range(1, decomp.n_modes + 1):
        weights = fluctuations.mode_weights(decomp, mode)
        for site in range(1, params.n_sites + 1):
            rows.append(_row(params.g, reduced, "weight_cavity", f"{mode}/{site}",
                             weights.cavity[site - 1]))
            rows.append(_row(params.g, reduced, "weight_atom", f"{mode}/{site}",
                             weights.atom[site - 1]))
    if decomp.critical_regime:
        warnings.append("critical-regime: smallest excitation below 1e-8 omega0 or not "
                        "resolved in double precision; excitation energies and "
                        "covariance-derived values carry enlarged error bounds")
    return rows, warnings


def _sweep_spec(config: RunConfig) -> scaling.SweepSpec:
    observables = tuple(name for name in config.observables.split(",") if name)
    return scaling.SweepSpec(
        jbar=config.jbar, n_sites=config.sites, omega0=config.omega0, Omega=config.omega_atom,
        reduced_min=config.reduced_min, reduced_max=config.reduced_max,
        points_per_decade=config.points_per_decade, sides=config.side,
        observables=observables)


def cmd_sweep(config: RunConfig):
    result = scaling.run_sweep(_sweep_spec(config))
    rows = [_row(r.g, r.reduced_coupling, r.observable, r.index, r.value)
            for r in result.rows]
    warnings = list(dict.fromkeys(result.warnings))
    warnings += [f"missing g={m.g!r} {m.observable}: {m.reason}"
                 for m in result.missing]
    return rows, warnings


def cmd_exponents(config: RunConfig):
    params = model.ModelParams(config.omega0, config.omega_atom, config.jbar,
                               1.0, config.sites)
    report = scaling.extract_exponents(
        params, window=(config.reduced_min, config.reduced_max),
        points_per_decade=config.points_per_decade)
    gc = params.critical_coupling()
    rows = []

    def fit_rows(name, index, fit):
        if fit is None:
            return
        rows.append(_row(gc, 0.0, name, index, abs(fit.exponent)))
        rows.append(_row(gc, 0.0, name + "_r_squared", index, fit.r_squared))

    fit_rows("gamma", "mf", report.gamma_mf)
    fit_rows("gamma", "f", report.gamma_f)
    for site in sorted(report.photon_exponents):
        fit_rows("photon_exponent", site, report.photon_exponents[site])
    for site in sorted(report.squeezing_exponents):
        fit_rows("squeezing_exponent", site, report.squeezing_exponents[site])
    for key in sorted(report.hessian_exponents):
        fit_rows("hessian_exponent", key, report.hessian_exponents[key])
    for name, passed in sorted(report.checks.items()):
        rows.append(_row(gc, 0.0, "check", name, 1.0 if passed else 0.0))
    return rows, list(report.warnings)


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
            cmd.add_argument("--reduced-min", dest="reduced_min", type=float,
                             default=None)
            cmd.add_argument("--reduced-max", dest="reduced_max", type=float,
                             default=None)
            cmd.add_argument("--points-per-decade", dest="points_per_decade",
                             type=int, default=None)
            cmd.add_argument("--side", choices=("both", "above", "below"),
                             default=None)
            cmd.add_argument("--observables", default=None,
                             help="comma-separated subset of "
                                  + ",".join(scaling.OBSERVABLES))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        rows, warnings = _COMMANDS[args.command](config)
        _write(config, _emit(config, rows, warnings))
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
