import warnings

import numpy as np
import pytest

from frustra import cli, fluctuations, meanfield, scaling
from frustra.errors import (
    ConvergenceError,
    DomainError,
    FitQualityError,
    FrustraError,
    ValidationError,
)
from frustra.fluctuations import analytic_nfsp_spectrum, analytic_np_spectrum
from frustra.meanfield import (
    GroundStates,
    GroundStateSolution,
    Phase,
    _solve_stack,
)
from frustra.model import (
    MeanFieldConfiguration,
    ModelParams,
    critical_point,
    origin_hessian_eigenvalues,
)
from frustra.scaling import (
    SweepMissing,
    SweepRow,
    SweepSpec,
    default_grid,
    energy_derivative_diagnostics,
    extract_exponents,
    fit_power_law,
    lowest_decade_fit,
    run_sweep,
)
from csv_reference import csv_to_rows


def params(jbar, g=1.0, n=3):
    return ModelParams(1.0, 1.0, jbar, g, n)


def reference_series(result, observable, index, side="above"):
    """:meth:`SweepResult.series` by one label comparison and one side
    mask per call."""
    labels, values, present = result.table.get(observable, (np.array([], dtype=str),) * 3)
    column = np.flatnonzero(labels == index)[:1]
    if not len(column):
        return np.array([]), np.array([])
    keep = present[:, column[0]] & ((result.g > result.spec.g_critical) == (side == "above"))
    reduced, values = result.reduced[keep], values[keep, column[0]]
    order = np.lexsort((values, reduced))
    return reduced[order], values[order]


def reference_power_law(points) -> scaling.PowerLawFit:
    """:func:`fit_power_law` on its stacked points, its line by np.polyfit."""
    pts = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    residual = ly - (slope * lx + intercept)
    total = ((ly - ly.sum() / len(ly)) ** 2).sum()
    r_squared = 1.0 - float((residual ** 2).sum() / total) if total > 0 else 1.0
    return scaling.PowerLawFit(float(slope), float(np.exp(intercept)), r_squared,
                               (float(x.min()), float(x.max())), len(pts))


class TestSweepSpec:
    def test_default_grid_excludes_critical_point(self):
        spec = SweepSpec(jbar=0.01, n_sites=3)
        gc = spec.g_critical
        grid = np.asarray(spec.grid)
        assert np.all(np.diff(grid) > 0)
        assert np.min(np.abs(grid - gc)) > 1e-5
        reduced = np.abs(grid - gc) / gc
        assert reduced.min() == pytest.approx(1e-4, rel=1e-9)
        assert reduced.max() == pytest.approx(1e-2, rel=1e-9)

    def test_default_density(self):
        grid = default_grid(1.0, 1e-4, 1e-2, 25, sides="above")
        assert len(grid) == 51  # 25 per decade over two decades

    @pytest.mark.parametrize("sides", ["below", "both"])
    def test_below_side_stops_at_zero_coupling(self, sides):
        with pytest.raises(ValidationError, match=r"reduced window \[0.0001, 1.5\]"):
            SweepSpec(jbar=-0.01, n_sites=3, reduced_max=1.5, sides=sides)
        # reduced_max = 1 is the decoupled point g = 0, which is kept
        grid = SweepSpec(jbar=-0.01, n_sites=3, reduced_max=1.0, sides=sides).grid
        assert grid[0] == 0.0 and min(grid) >= 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            SweepSpec(jbar=0.01, n_sites=3, observables=("bogus",))
        with pytest.raises(ValidationError):
            SweepSpec(jbar=0.01, n_sites=3, grid=(1.2, 1.1))

    @pytest.mark.parametrize("grid", [(1.1, np.nan), (np.nan, 1.1), (np.nan,), (1.1, np.inf),
                                      (-np.inf, 0.5)])
    def test_non_finite_grid_is_rejected(self, grid):
        # NaN compares False, so the increasing check alone passes it
        with pytest.raises(ValidationError, match="grid must be finite"):
            SweepSpec(jbar=0.01, n_sites=3, grid=grid)


    @pytest.mark.parametrize("grid", [((1.1,), (1.2,)), ((1.1, 1.2),), 1.1])
    def test_grid_that_is_not_one_dimensional_is_rejected(self, grid):
        # a column of couplings passed the increasing check, which reads
        # along rows, and was flattened to a grid that was never checked
        with pytest.raises(ValidationError, match="grid must be one-dimensional"):
            SweepSpec(jbar=0.01, n_sites=3, grid=grid)

    def test_grid_below_zero_coupling_is_rejected(self):
        # at construction, with the message and precedence of the grid's
        # first point as ModelParams checks it, before anything is solved
        with pytest.raises(ValidationError, match=r"^g must be non-negative, got -0.1$"):
            SweepSpec(jbar=0.01, n_sites=3, grid=(-0.1, -0.05, 0.5))
        with pytest.raises(ValidationError, match="omega0 must be positive"):
            SweepSpec(jbar=0.01, n_sites=3, omega0=0.0, grid=(-0.1, 0.5))
        with pytest.raises(ValidationError, match="Omega must be positive"):
            SweepSpec(jbar=0.01, n_sites=3, Omega=-1.0)
        with pytest.raises(ValidationError, match="omega0 must be positive"):
            SweepSpec(jbar=0.01, n_sites=3, omega0=-1.0, grid=())
        assert SweepSpec(jbar=0.01, n_sites=3, grid=(0.0, 0.5)).grid == (0.0, 0.5)


class TestRunSweep:
    def test_np_side_gap_matches_analytic(self):
        jbar = -0.01
        spec = SweepSpec(jbar=jbar, n_sites=3, sides="below",
                         reduced_min=1e-3, reduced_max=1e-1, points_per_decade=8,
                         observables=("gaps",))
        result = run_sweep(spec)
        gc = spec.g_critical
        rows = [r for r in result.rows if r.observable == "gaps" and r.index == "1"]
        assert len(rows) > 10
        for row in rows:
            expected = analytic_np_spectrum(row.g, jbar, 1.0)[0]
            assert row.value == pytest.approx(expected, rel=1e-10)

    def test_nfsp_side_gap_matches_analytic(self):
        jbar = -0.01
        spec = SweepSpec(jbar=jbar, n_sites=3, sides="above",
                         reduced_min=1e-3, reduced_max=1e-1, points_per_decade=8,
                         observables=("gaps",))
        result = run_sweep(spec)
        rows = [r for r in result.rows if r.observable == "gaps" and r.index == "1"]
        for row in rows:
            expected = analytic_nfsp_spectrum(row.g, jbar, 1.0)[0]
            assert row.value == pytest.approx(expected, rel=1e-10)

    def test_fsp_sweep_has_two_vanishing_gaps(self):
        spec = SweepSpec(jbar=0.01, n_sites=3, sides="above",
                         reduced_min=1e-4, reduced_max=1e-2, points_per_decade=6,
                         observables=("gaps",))
        result = run_sweep(spec)
        red_f, eps_f = result.series("gaps", "f")
        red_mf, eps_mf = result.series("gaps", "mf")
        assert len(red_f) == len(red_mf) > 8
        assert np.all(eps_f < eps_mf)  # distinct branches
        assert eps_f[0] < eps_f[-1] / 50  # vanishing towards the critical point
        assert eps_mf[0] < eps_mf[-1] / 5

    def test_series_reads_the_critical_coupling_of_its_spec_once(self, monkeypatch):
        # the spec works g_c out when it is built; a series call then needs
        # no critical_point call, only one label comparison
        spec = SweepSpec(jbar=0.01, n_sites=3, points_per_decade=4, observables=("gaps",))
        result = run_sweep(spec)
        calls = []
        monkeypatch.setattr(scaling, "critical_point", lambda *args: calls.append(args))
        for index in ("1", "mf", "f", "7", "x"):
            for side in ("above", "below"):
                result.series("gaps", index, side)
        assert result.series("energy", "")[0].size == 0 and result.series("gaps", "7")[0].size == 0
        assert calls == [] and spec.g_critical == critical_point(0.01, 3)

    def test_series_are_the_label_compared_series_bit_for_bit(self):
        # both sides of g_c on a user grid whose consecutive doubles near
        # 0.999 * 2^10 tie in reduced coupling, so the lexsort orders the
        # ties by value; every label of every observable, and absent ones
        gc = critical_point(0.01, 3)
        above = [0.999 * 2.0 ** 10]
        for _ in range(11):
            above.append(float(np.nextafter(above[-1], np.inf)))
        grid = [gc * (1 - r) for r in (0.3, 1e-2, 1e-4)] + [gc * (1 + r) for r in (
            1e-4, 1e-2)] + above
        result = run_sweep(SweepSpec(jbar=0.01, n_sites=3, grid=tuple(grid)))
        assert (np.diff(result.reduced[5:]) == 0).any()
        tied = 0
        for observable, (labels, _, _) in [*result.table.items(), ("nothing", ([], 0, 0))]:
            for index in [*labels, "absent"]:
                for side in ("above", "below", "either"):
                    got = result.series(observable, index, side)
                    want = reference_series(result, observable, index, side)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                    tied += bool((np.diff(got[0]) == 0).any())
        assert tied

    def test_energy_column_monotone_continuous(self):
        spec = SweepSpec(jbar=0.01, n_sites=3, reduced_min=1e-3,
                         reduced_max=1e-1, points_per_decade=10,
                         observables=("energy",))
        result = run_sweep(spec)
        pairs = sorted((r.g, r.value) for r in result.rows if r.observable == "energy")
        energies = np.array([v for _, v in pairs])
        assert np.all(np.diff(energies) <= 1e-14)
        assert np.max(np.abs(np.diff(energies))) < 2e-2

    def test_deterministic_rows(self):
        spec = SweepSpec(jbar=0.01, n_sites=3, reduced_min=1e-3,
                         reduced_max=1e-2, points_per_decade=5)
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert first.rows == second.rows

    @pytest.mark.parametrize("n, jbar", [(3, 0.01), (5, 0.01), (7, 0.01), (9, -0.01)])
    def test_rows_do_not_depend_on_grid_neighbours(self, n, jbar):
        # every 7th point of a two-sided sweep, re-solved as a one-point
        # sweep, must give the same rows and missing rows bit for bit
        spec = SweepSpec(jbar=jbar, n_sites=n, reduced_min=1e-6)
        full = run_sweep(spec)
        for g in spec.grid[::7]:
            alone = run_sweep(SweepSpec(jbar=jbar, n_sites=n, grid=(g,)))
            assert [r for r in full.rows if r.g == g] == alone.rows
            assert [m for m in full.missing if m.g == g] == alone.missing

    @pytest.mark.parametrize("jbar", [0.01, 0.2])
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_frustrated_rank_one_is_the_softer_soft_mode(self, monkeypatch, n, jbar):
        # one eigensolve per frustrated point, the solver's, and no Hessian
        # built after it: over the exponents window its lowest ranked
        # Hessian eigenvalue is the lesser of its mean-field and frustrated
        # soft modes, bit for bit
        def unused(*args):
            raise AssertionError("energy_hessian called")

        monkeypatch.setattr(meanfield, "energy_hessian", unused)
        spec = SweepSpec(jbar=jbar, n_sites=n, reduced_min=1e-7, sides="above",
                         observables=("hessian_eigenvalues",))
        labels, values, present = run_sweep(spec).table["hessian_eigenvalues"]
        column = {label: values[:, i] for i, label in enumerate(labels.tolist())}
        assert present.all()
        assert column["1"].tobytes() == np.minimum(column["mf"], column["f"]).tobytes()

    def test_deep_points_recorded_missing_for_paired_sites(self):
        spec = SweepSpec(jbar=0.01, n_sites=7, sides="above",
                         reduced_min=1e-6, reduced_max=1e-5, points_per_decade=4,
                         observables=("photon_numbers",))
        result = run_sweep(spec)
        assert any("resolution" in m.reason for m in result.missing)
        site1 = [r for r in result.rows
                 if r.observable == "photon_numbers" and r.index == "1"]
        assert len(site1) == 5  # unpaired site survives arbitrarily deep


class TestFitPowerLaw:
    def test_exact_power_law(self):
        x = np.logspace(-4, -2, 12)
        fit = fit_power_law(np.column_stack([x, 3.0 * x ** 0.5]))
        assert fit.exponent == pytest.approx(0.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
        assert fit.r_squared > 1 - 1e-12

    def test_rejects_nonpositive_and_short_data(self):
        x = np.logspace(-4, -2, 12)
        with pytest.raises(DomainError):
            fit_power_law(np.column_stack([x, -np.ones_like(x)]))
        with pytest.raises(DomainError):
            fit_power_law(np.column_stack([x[:4], x[:4]]))

    def test_rejects_poor_fit(self):
        rng = np.random.default_rng(0)
        x = np.logspace(-4, -2, 24)
        y = x ** 0.5 * np.exp(rng.normal(scale=0.5, size=x.size))
        with pytest.raises(FitQualityError) as info:
            fit_power_law(np.column_stack([x, y]))
        assert info.value.r_squared is not None

    def test_array_list_and_generator_fit_alike(self):
        # an array, a list, pairs and a generator, sorted or not, fit as the
        # stacked points in the order given, through np.polyfit's line
        rng = np.random.default_rng(3)
        x = np.logspace(-6, -2, 17)
        y = 2.5 * x ** 1.5 * np.exp(rng.normal(scale=1e-3, size=x.size))
        for points in (np.column_stack([x, y]), np.column_stack([x, y])[rng.permutation(17)]):
            fit = fit_power_law(points)
            assert fit == reference_power_law(points)
            assert fit_power_law(points.tolist()) == fit
            assert fit_power_law(zip(points[:, 0].tolist(), points[:, 1].tolist())) == fit
            assert fit_power_law((row for row in points)) == fit

    def test_lowest_decade_trims_noise_plateau(self):
        x = np.logspace(-6, -2, 40)
        y = x ** 2.0
        noisy = np.where(y < 1e-9, 1e-9, y)  # saturated floor
        fit = lowest_decade_fit(x, noisy, diverging=False)
        assert fit.exponent == pytest.approx(2.0, abs=1e-6)
        assert fit.window[0] > 3e-5  # plateau excluded


class TestLineFit:
    """The fits call the gufunc behind numpy.linalg.lstsq directly, the way
    np.polyfit calls it; a numpy upgrade that changes it fails here first."""

    def test_lstsq_is_numpy_linalg_lstsq_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for m, n in ((6, 2), (26, 2), (5, 3), (4, 4)):
            a, b = rng.normal(size=(m, n)), rng.normal(size=(m, 1))
            if n == 4:  # a rank-deficient system
                a[:, -1] = a[:, 0]
            for rcond in (m * np.finfo(float).eps, 1e-3):
                x, _, rank, s = scaling._lstsq(a, b, rcond)
                x_np, _, rank_np, s_np = np.linalg.lstsq(a, b, rcond)
                assert x.tobytes() == x_np.tobytes() and s.tobytes() == s_np.tobytes()
                assert int(rank) == rank_np

    def test_lstsq_failure_is_a_nan_row_where_numpy_linalg_raises(self):
        # a stack of systems: a row whose SVD fails comes back with NaN
        # coefficients and singular values, exactly where numpy.linalg.lstsq
        # raises on it, and every other row with that function's bits
        rng = np.random.default_rng(24)
        a, b = rng.normal(size=(4, 6, 2)), rng.normal(size=(4, 6, 1))
        a[1], b[3, 2] = np.nan, np.inf
        rcond = 6 * np.finfo(float).eps
        x, _, rank, s = scaling._lstsq(a, b, rcond)
        raised = []
        for row in range(len(a)):
            try:
                x_np, _, rank_np, s_np = np.linalg.lstsq(a[row], b[row], rcond)
            except np.linalg.LinAlgError as exc:
                assert str(exc) == "SVD did not converge in Linear Least Squares"
                assert np.isnan(x[row]).all() and np.isnan(s[row]).all()
                raised.append(row)
                continue
            assert x[row].tobytes() == x_np.tobytes() and s[row].tobytes() == s_np.tobytes()
            assert int(rank[row]) == rank_np
        assert raised == [1]

    def test_failed_fit_raises_as_polyfit_does(self):
        # x all zero scales its column by 0/0, and the SVD of NaN fails
        x, y = np.zeros(8), np.linspace(1.0, 2.0, 8)
        for fit in (scaling._line_fit, lambda x, y: np.polyfit(x, y, 1)):
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")  # raised before polyfit's RankWarning
                with pytest.raises(np.linalg.LinAlgError,
                                   match="^SVD did not converge in Linear Least Squares$"):
                    fit(x, y)

    def test_constant_x_warns_as_polyfit_does(self):
        x, y = np.full(8, -3.0), np.linspace(1.0, 2.0, 8)
        with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
            lean = scaling._line_fit(x, y)
        with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
            assert lean.tobytes() == np.polyfit(x, y, 1).tobytes()


class TestExponentReports:
    def test_trimer_frustrated_exponents(self):
        report = extract_exponents(params(0.01), window=(1e-5, 1e-2),
                                   points_per_decade=10)
        assert abs(report.gamma_mf.exponent) == pytest.approx(0.5, abs=0.03)
        assert abs(report.gamma_f.exponent) == pytest.approx(1.0, abs=0.05)
        assert abs(report.photon_exponents[1].exponent) == pytest.approx(0.5, abs=0.03)
        assert abs(report.photon_exponents[2].exponent) == pytest.approx(1.0, abs=0.05)
        assert abs(report.hessian_exponents["mf"].exponent) == pytest.approx(1.0, abs=0.05)
        assert abs(report.hessian_exponents["f"].exponent) == pytest.approx(2.0, abs=0.1)
        assert report.site_labels == {1: "unpaired", 2: "paired", 3: "paired"}
        assert all(report.checks.values()), report.checks

    def test_five_site_frustration_exponent(self):
        report = extract_exponents(params(0.01, n=5), window=(1e-5, 1e-2),
                                   points_per_decade=10)
        assert abs(report.gamma_f.exponent) == pytest.approx(2.0, abs=0.1)
        assert abs(report.gamma_mf.exponent) == pytest.approx(0.5, abs=0.03)

    def test_nfsp_single_exponent(self):
        # the additive non-critical background biases shallow windows, so the
        # lowest fitted decade has to sit well inside the asymptotic regime
        report = extract_exponents(params(-0.01), window=(1e-6, 1e-2),
                                   points_per_decade=10)
        assert report.gamma_f is None
        assert abs(report.gamma_mf.exponent) == pytest.approx(0.5, abs=0.03)
        for site in (1, 2, 3):
            assert abs(report.photon_exponents[site].exponent) == pytest.approx(
                0.5, abs=0.03)
            assert abs(report.squeezing_exponents[site].exponent) == pytest.approx(
                0.5, abs=0.03)
        assert report.site_labels[1] == "uniform"
        assert all(report.checks.values()), report.checks

    def test_window_shift_invariance(self):
        base = extract_exponents(params(0.01), window=(1e-4, 1e-2),
                                 points_per_decade=10)
        shifted = extract_exponents(params(0.01), window=(2e-4, 2e-2),
                                    points_per_decade=10)
        assert abs(base.gamma_f.exponent - shifted.gamma_f.exponent) < 0.05
        assert abs(base.gamma_mf.exponent - shifted.gamma_mf.exponent) < 0.03

    def test_grid_density_invariance(self):
        dense = extract_exponents(params(0.01), window=(1e-4, 1e-2),
                                  points_per_decade=25)
        sparse = extract_exponents(params(0.01), window=(1e-4, 1e-2),
                                   points_per_decade=12)
        assert abs(dense.gamma_f.exponent - sparse.gamma_f.exponent) < 0.05

    def test_sweeps_only_the_observables_it_fits(self, monkeypatch):
        specs = []

        def recording(spec):
            specs.append(spec)
            return run_sweep(spec)

        monkeypatch.setattr(scaling, "run_sweep", recording)
        extract_exponents(params(0.01), window=(1e-3, 1e-2), points_per_decade=6)
        assert set(specs[0].observables) == set(scaling.OBSERVABLES) - {"energy"}

    def test_energy_is_computed_only_when_requested(self, monkeypatch):
        def unrequested(config):
            raise AssertionError("energy read for a sweep that does not tabulate it")

        monkeypatch.setattr(MeanFieldConfiguration, "energy", property(unrequested))
        spec = SweepSpec(jbar=0.01, n_sites=5, points_per_decade=2,
                         observables=("gaps", "hessian_eigenvalues"))
        result = run_sweep(spec)
        assert {r.observable for r in result.rows} == {"gaps", "hessian_eigenvalues"}

    def test_exponents_build_no_missing_rows(self, monkeypatch):
        # the fits never read the sweep's missing rows, so none is built;
        # the same sweep builds them when `missing` is read
        built = []

        def spy(*args):
            built.append(args)
            return SweepMissing(*args)

        monkeypatch.setattr(scaling, "SweepMissing", spy)
        extract_exponents(params(0.01, n=7), window=(1e-7, 1e-2))
        assert built == []
        spec = SweepSpec(jbar=0.01, n_sites=7, reduced_min=1e-7, sides="above",
                         observables=("gaps", "photon_numbers", "squeezing",
                                      "hessian_eigenvalues"))
        result = run_sweep(spec)
        assert built == []
        assert len(result.missing) == len(built) > 0

    def test_rows_and_missing_are_built_on_each_read(self):
        # equal lists on every read, each a new list that the result never caches
        spec = SweepSpec(jbar=0.01, n_sites=5, reduced_min=1e-7, sides="above",
                         points_per_decade=4)
        result = run_sweep(spec)
        rows, missing = result.rows, result.missing
        assert rows and missing
        assert result.rows == rows and result.rows is not rows
        assert result.missing == missing and result.missing is not missing
        rows.clear(), missing.clear()
        assert result.rows and result.missing

    def test_zero_hopping_is_refused_before_sweeping(self, monkeypatch):
        # the whole superradiant side of jbar = 0 is the unclassified
        # first-order line, so no sweep runs and no fit is silently dropped
        def refuse(spec):
            raise AssertionError("swept")

        monkeypatch.setattr(scaling, "run_sweep", refuse)
        with pytest.raises(ValidationError) as caught:
            extract_exponents(params(0.0))
        assert str(caught.value) == str(meanfield._UNCLASSIFIED)

    def test_large_lattice_flagged_unvalidated(self):
        report = extract_exponents(params(0.01, n=9), window=(3e-4, 1e-2),
                                   points_per_decade=6)
        assert any("extrapolate" in w for w in report.warnings)

    def test_large_uniform_lattice_not_flagged(self):
        # no frustration exponent is fitted for negative hopping
        report = extract_exponents(params(-0.01, n=9), window=(3e-4, 1e-2),
                                   points_per_decade=6)
        assert not any("extrapolate" in w for w in report.warnings)


def every_series_report(params, window=scaling.EXPONENT_WINDOW, points_per_decade=25):
    """The report of :func:`extract_exponents` with one ``lowest_decade_fit``
    per observable and index, each failure warned where it happens."""
    n, frustrated = params.n_sites, params.jbar > 0
    result = run_sweep(SweepSpec(
        jbar=params.jbar, n_sites=n, omega0=params.omega0, Omega=params.Omega,
        reduced_min=window[0], reduced_max=window[1], points_per_decade=points_per_decade,
        sides="above", observables=("gaps", "photon_numbers", "squeezing",
                                    "hessian_eigenvalues")))
    warnings = list(result.warnings)
    if frustrated and n > 7:
        warnings.append("frustration exponents for more than 7 sites extrapolate the "
                        "(N-1)/2 law beyond its validated range")

    def fit(observable, index, floor=0.0, diverging=False):
        reduced, values = result.series(observable, str(index))
        if len(reduced) < scaling.FIT_MIN_POINTS:
            return None
        try:
            return scaling.lowest_decade_fit(reduced, values, floor, diverging)
        except (DomainError, FitQualityError) as exc:
            warnings.append(f"{observable}[{index}]: {exc}")
            return None

    photon, squeeze = {}, {}
    for site in range(1, n + 1):
        photon[site] = fit("photon_numbers", site, diverging=True)
        squeeze[site] = fit("squeezing", site, diverging=True)
    gap_floor = scaling.CRITICAL_REGIME_FACTOR * params.omega0
    if frustrated:
        gamma_mf, gamma_f = (fit("gaps", key, floor=gap_floor) for key in ("mf", "f"))
        hessian = {key: fit("hessian_eigenvalues", key, floor=scaling.HESSIAN_FLOOR)
                   for key in ("mf", "f")}
    else:
        gamma_mf, gamma_f = fit("gaps", 1, floor=gap_floor), None
        hessian = {"mf": fit("hessian_eigenvalues", 1, floor=scaling.HESSIAN_FLOOR)}
    checks = scaling._structural_checks(n, frustrated, gamma_mf, gamma_f, photon, squeeze,
                                        hessian)
    warnings += [f"check {name} failed" for name, ok in sorted(checks.items()) if not ok]
    labels = {site: ("unpaired" if site == 1 else "paired") if frustrated else "uniform"
              for site in range(1, n + 1)}
    return scaling.ExponentReport(Phase.FSP if frustrated else Phase.NFSP, n, params.jbar,
                                  window, gamma_mf, gamma_f, photon, squeeze, hessian, labels,
                                  checks, tuple(warnings))


class TestFitOnce:
    """An exponent run fits each distinct series once; mirror partners, and
    the sites of a uniform run, share their fit."""

    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_mirror_partners_hold_equal_columns(self, n):
        result = run_sweep(SweepSpec(jbar=0.01, n_sites=n, reduced_min=1e-7, sides="above",
                                     observables=("photon_numbers", "squeezing")))
        for name in ("photon_numbers", "squeezing"):
            labels, values, present = result.table[name]
            column = {int(label): k for k, label in enumerate(labels.tolist())}
            assert np.isnan(values).any()  # the deep paired values are unresolved
            for site in range(2, n + 1):
                partner = column[n + 2 - site]
                assert values[:, column[site]].tobytes() == values[:, partner].tobytes()
                assert np.array_equal(present[:, column[site]], present[:, partner])

    @pytest.mark.parametrize("jbar, n, fits, distinct", [
        (0.01, 7, 18, 12), (-0.01, 21, 44, 4), (0.01, 9, 22, 14)])
    def test_one_fit_per_distinct_series(self, monkeypatch, jbar, n, fits, distinct):
        calls = []

        def counted(*args):
            calls.append(args)
            return lowest_decade_fit(*args)

        monkeypatch.setattr(scaling, "lowest_decade_fit", counted)
        reference = every_series_report(params(jbar, n=n))
        assert len(calls) == fits
        calls.clear()
        assert extract_exponents(params(jbar, n=n)) == reference
        assert len(calls) == distinct
        if n == 9:  # mirror partners whose shared fit failed are each warned
            assert {w.split(":")[0] for w in reference.warnings} >= {
                "photon_numbers[2]", "photon_numbers[9]", "squeezing[2]", "squeezing[9]"}


class TestDerivativeDiagnostics:
    # d2E/dg2 just above g_c is -(4N/3)/g_c^2 on the frustrated side and
    # -2N/g_c^2 on the uniform one, at every N
    @pytest.mark.parametrize("jbar", [0.01, 0.2])
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_second_order_jump_positive_hopping(self, n, jbar):
        diag = energy_derivative_diagnostics(params(jbar, n=n), axis="g")
        gc = critical_point(jbar, n)
        assert diag.center == pytest.approx(gc)
        assert diag.detected_location == pytest.approx(gc, abs=2e-4)
        assert diag.discontinuity_order == 2
        assert abs(diag.d1_jump) < 1e-3
        assert diag.d2_left == pytest.approx(0.0, abs=1e-3)
        assert diag.d2_right == pytest.approx(-(4.0 * n / 3.0) / gc ** 2, rel=0.02)

    @pytest.mark.parametrize("jbar", [-0.01, -0.3])
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_second_order_jump_negative_hopping(self, n, jbar):
        diag = energy_derivative_diagnostics(params(jbar, n=n), axis="g")
        gc = critical_point(jbar, n)
        assert diag.discontinuity_order == 2
        assert abs(diag.d1_jump) < 1e-3
        assert diag.d2_right == pytest.approx(-2.0 * n / gc ** 2, rel=0.02)

    def test_first_order_jump_across_zero_hopping(self):
        g = 1.2
        diag = energy_derivative_diagnostics(params(0.01, g=g), axis="jbar")
        assert diag.discontinuity_order == 1
        a_sq = (g * g - 1.0 / (g * g)) / 4.0
        assert diag.d1_left == pytest.approx(6.0 * a_sq, rel=1e-2)
        assert diag.d1_right == pytest.approx(-2.0 * a_sq, rel=1e-2)

    def test_table_has_central_differences(self):
        diag = energy_derivative_diagnostics(params(0.01), axis="g",
                                             half_width=1e-3)
        xs = [row[0] for row in diag.table]
        assert diag.center not in xs
        interior = [row for row in diag.table if not np.isnan(row[2])]
        assert len(interior) > 10

    @pytest.mark.parametrize("axis, jbar, g", [("g", 0.01, 1.0), ("jbar", 0.01, 1.2)])
    def test_energies_are_read_in_one_stacked_call(self, monkeypatch, axis, jbar, g):
        # one rescaled_energy call over every solved point, bit for bit the
        # energies of one-point solves
        calls = []
        stacked = scaling.rescaled_energy
        monkeypatch.setattr(scaling, "rescaled_energy",
                            lambda *args: calls.append(args) or stacked(*args))
        diag = energy_derivative_diagnostics(params(jbar, g=g), axis=axis)
        assert len(calls) == 1
        for x, energy, _, _ in diag.table:
            point = params(jbar, g=x) if axis == "g" else params(x, g=g)
            assert energy == meanfield.solve_ground_state(point).config.energy

    def test_axis_validation(self):
        with pytest.raises(ValidationError):
            energy_derivative_diagnostics(params(0.01), axis="omega")

    @pytest.mark.parametrize("half_width, step", [
        (4e-3, 0.0), (4e-3, -1e-4), (0.0, 1e-4), (-4e-3, 1e-4), (4e-3, 1e-2),
        (np.nan, 1e-4), (4e-3, np.nan), (np.inf, 1e-4), (4e-3, np.inf), (1e300, 1e-300)])
    @pytest.mark.parametrize("axis", ["g", "jbar"])
    def test_scan_validation(self, axis, half_width, step):
        # a scan without a step inside its half width has no grid
        with pytest.raises(ValidationError):
            energy_derivative_diagnostics(params(0.01, g=1.2), axis=axis,
                                          half_width=half_width, step=step)

    def test_first_failing_point_in_scan_order_is_raised(self, monkeypatch):
        # the scan solves all its points in one stack, but reports the
        # failure a point-by-point scan would meet first
        center = params(0.01).critical_coupling()
        grid = center + np.array([-2, -1, 1, 2]) * 1e-4
        bad = {float(grid[3]), float(grid[2])}  # both superradiant
        real_seeds = meanfield._seed_alphas
        monkeypatch.setattr(meanfield, "_seed_alphas", lambda g, jbar, gc: (
            0.0 if g in bad else real_seeds(g, jbar, gc)))
        with pytest.raises(ConvergenceError, match=f"g={float(grid[2])}"):
            energy_derivative_diagnostics(params(0.01), axis="g", half_width=2e-4)

    @pytest.mark.parametrize("failing", [None, -0.1])
    def test_first_failing_point_of_a_point_by_point_scan(self, failing, monkeypatch):
        # a jbar scan whose Richardson points reach past the stability window
        # (the first at jbar -0.6, the fifth Richardson point): the error
        # raised is the one a scan solving point by point meets first, a
        # solve failure at an earlier point included
        point = params(0.01, g=1.2)
        real_seeds = meanfield._seed_alphas
        monkeypatch.setattr(meanfield, "_seed_alphas", lambda g, jbar, gc: (
            0.0 if jbar == failing else real_seeds(g, jbar, gc)))
        xs = [-0.2, 0.2] + [sign * k * h for k in range(1, 5)
                            for sign in (-1.0, +1.0) for h in (0.2, 0.1)]
        expected = None
        for x in xs:
            try:
                meanfield.solve_ground_state(
                    ModelParams(point.omega0, point.Omega, x, point.g, point.n_sites))
            except (ValidationError, ConvergenceError) as exc:
                expected = exc
                break
        assert type(expected) is (ValidationError if failing is None else ConvergenceError)
        with pytest.raises(type(expected)) as caught:
            energy_derivative_diagnostics(point, axis="jbar", half_width=0.2, step=0.2)
        assert str(caught.value) == str(expected)


def stub_record(alphas, phase, spectra, error=None):
    """A solver record of every row alike: the coherences and spectra
    (rows, N), the phase and the error of each row, and no soft modes (a
    row that is not frustrated)."""
    rows = len(alphas)
    return GroundStates(alphas, np.full(rows, phase), np.zeros(rows) if error is None
                        else np.full(rows, np.nan), spectra, np.full((rows, 2), np.nan),
                        (error,) * rows)


class TestSweepErrors:
    # run_sweep solves its grid through the stacked array core, so the
    # seam stubs replace _solve_stack and answer for every point
    def test_solver_failure_becomes_missing_row(self, monkeypatch):
        def fail(n_sites, g, jbar):
            nan = np.full((len(g), n_sites), np.nan)
            return stub_record(nan, None, nan, ConvergenceError("no stable stationary point"))

        monkeypatch.setattr(scaling, "_solve_stack", fail)
        spec = SweepSpec(jbar=0.01, n_sites=3, sides="above", points_per_decade=2)
        result = run_sweep(spec)
        assert not result.rows
        assert len(result.missing) == len(spec.grid)
        assert all(m.reason.startswith("solver: ") for m in result.missing)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected argument")

        monkeypatch.setattr(scaling, "_solve_stack", broken)
        spec = SweepSpec(jbar=0.01, n_sites=3, sides="above", points_per_decade=2)
        with pytest.raises(TypeError):
            run_sweep(spec)

    def test_unstable_uniform_point_becomes_missing_row(self, monkeypatch):
        # a normal-phase state handed over past the threshold: its k = 0
        # momentum block is not positive definite
        def stale(n_sites, g, jbar):
            origin = np.zeros((len(g), n_sites))
            return stub_record(origin, Phase.NORMAL, origin_hessian_eigenvalues(g, jbar, n_sites))

        monkeypatch.setattr(scaling, "_solve_stack", stale)
        spec = SweepSpec(jbar=-0.01, n_sites=5, sides="above",
                         reduced_min=1e-3, reduced_max=1e-2, points_per_decade=2,
                         observables=("gaps", "energy"))
        result = run_sweep(spec)
        assert [r.observable for r in result.rows] == ["energy"] * len(spec.grid)
        assert len(result.missing) == len(spec.grid)
        assert all(m.observable == "gaps" and "not positive definite" in m.reason
                   for m in result.missing)

    def test_failing_point_keeps_its_neighbours_rows(self, monkeypatch):
        spec = SweepSpec(jbar=0.01, n_sites=5, sides="both", reduced_min=1e-6,
                         points_per_decade=4)
        clean = run_sweep(spec)
        bad = spec.grid[len(spec.grid) // 2 + 3]
        real_seeds = meanfield._seed_alphas
        monkeypatch.setattr(meanfield, "_seed_alphas", lambda g, jbar, gc: (
            0.0 if g == bad else real_seeds(g, jbar, gc)))
        result = run_sweep(spec)
        assert result.rows == [r for r in clean.rows if r.g != bad]
        assert [m for m in result.missing if m.g != bad] == [
            m for m in clean.missing if m.g != bad]
        lost = [m for m in result.missing if m.g == bad]
        assert [m.observable for m in lost] == ["all"]
        assert lost[0].reason.startswith("solver: no stable stationary point")

    def test_normal_side_point_at_reduced_1e_13_is_resolved(self):
        jbar, n = -0.01, 7
        gc = critical_point(jbar, n)
        spec = SweepSpec(jbar=jbar, n_sites=n, grid=(gc * (1 - 1e-13),))
        result = run_sweep(spec)
        assert not result.missing
        gaps = sorted(r.value for r in result.rows if r.observable == "gaps")
        assert len(gaps) == 2 * n and 0 < gaps[0] < 1e-6
        photons = {r.value for r in result.rows if r.observable == "photon_numbers"}
        assert len(photons) == 1

    def test_superradiant_points_within_1e_10_of_threshold_are_resolved(self):
        # the uniform state, not the origin, is the minimum just above g_c
        spec = SweepSpec(jbar=-0.01, n_sites=3, sides="above", reduced_min=1e-12,
                         reduced_max=1e-10, points_per_decade=2)
        result = run_sweep(spec)
        assert not result.missing
        gaps = result.series("gaps", "1")[1]
        assert len(gaps) == len(spec.grid) and np.all(gaps > 0)


def grid_points(spec):
    """The ModelParams of each point of a sweep's grid."""
    return [ModelParams(spec.omega0, spec.Omega, spec.jbar, g, spec.n_sites) for g in spec.grid]


def solve_alone(params):
    """The one-point solve's solution or error."""
    try:
        return meanfield.solve_ground_state(params)
    except (FrustraError, np.linalg.LinAlgError) as exc:
        return exc


def reference_sweep(spec):
    """A sweep's rows, missing rows and warnings built one row at a time,
    each point solved on its own (:func:`solve_ground_state`, its Hessian
    spectrum read from its one-point record) and observed on its own as a
    stack of one, then sorted by coupling, observable and index string."""
    gc, want = spec.g_critical, set(spec.observables)
    gaussian = ",".join(sorted(want & {"gaps", "photon_numbers", "squeezing"}))
    rows, missing, warnings = [], [], []
    unresolved = "frustrated sector below double-precision resolution"
    for params in grid_points(spec):
        g, outcome = params.g, solve_alone(params)

        def put(observable, index, value):
            if observable in want and not np.isnan(value):
                rows.append(SweepRow(g, abs(g - gc) / gc, observable, str(index),
                                     float(value)))

        if not isinstance(outcome, GroundStateSolution):
            missing.append(SweepMissing(g, "all", f"solver: {outcome}"))
            continue
        put("energy", "", outcome.config.energy)
        (spectrum,) = _solve_stack(params.n_sites, np.array([g]),
                                   np.array([params.jbar])).hessian_eigenvalues
        for rank, value in enumerate(spectrum, start=1):
            put("hessian_eigenvalues", rank, value)
        if outcome.phase is Phase.FSP:
            modes = meanfield.hessian_critical_modes(outcome)
            put("hessian_eigenvalues", "mf", modes.lambda_mf)
            put("hessian_eigenvalues", "f", modes.lambda_f)
        if not gaussian:
            continue
        moments = fluctuations.site_moments([outcome])
        if moments.errors[0] is not None:
            missing.append(SweepMissing(g, gaussian, str(moments.errors[0])))
            continue
        eps, eps_even = moments.eps[0], moments.eps_even[0]
        lowest = (eps_even if np.isnan(eps[0]) else eps)[0]
        if lowest < fluctuations.CRITICAL_REGIME_FACTOR * params.omega0:
            warnings.append(f"critical-regime point at g={g!r}")
        put("gaps", "mf", eps_even[0])
        put("gaps", "f", moments.eps_odd[0, 0])
        if np.isnan(eps[0]) and "gaps" in want:
            missing.append(SweepMissing(g, "gaps", unresolved))
        for rank, value in enumerate(eps, start=1):
            put("gaps", rank, value)
        for name, values in (("photon_numbers", moments.photon_numbers[0]),
                             ("squeezing", moments.var_q[0])):
            for site, value in enumerate(values, start=1):
                put(name, site, value)
                if np.isnan(value) and name in want:
                    missing.append(SweepMissing(g, f"{name}[{site}]", unresolved))
    rows.sort(key=lambda row: (row.g, row.observable, row.index))
    return rows, missing, warnings


#: the exponent run's grid at N = 7, and the uniform grid at N = 21
ARRAY_SWEEPS = {
    "exponents N=7": dict(jbar=0.01, n_sites=7, reduced_min=1e-7, sides="above",
                          observables=("gaps", "photon_numbers", "squeezing",
                                       "hessian_eigenvalues")),
    "uniform N=21": dict(jbar=-0.01, n_sites=21),
}


SWEEP_CASES = {
    "uniform N=21": ("--jbar -0.01 --sites 21", dict(jbar=-0.01, n_sites=21)),
    "exponents N=7": ("--jbar 0.01 --sites 7 --reduced-min 1e-7 --side above --observables "
                      "gaps,photon_numbers,squeezing,hessian_eigenvalues",
                      ARRAY_SWEEPS["exponents N=7"]),
    "deep N=5": ("--jbar 0.01 --sites 5 --reduced-min 1e-7",
                 dict(jbar=0.01, n_sites=5, reduced_min=1e-7)),
    "strong hopping N=7": ("--jbar 0.3 --sites 7", dict(jbar=0.3, n_sites=7)),
    "gaps and energy": ("--jbar 0.01 --sites 5 --observables gaps,energy",
                        dict(jbar=0.01, n_sites=5, observables=("gaps", "energy"))),
    "below only": ("--jbar 0.01 --sites 5 --side below",
                   dict(jbar=0.01, n_sites=5, sides="below")),
    "unstable points": ("--jbar -0.01 --sites 3 --reduced-min 1e-12 --points-per-decade 2",
                        dict(jbar=-0.01, n_sites=3, reduced_min=1e-12,
                             points_per_decade=2)),
    "solver failure": ("--jbar 0.01 --sites 5 --reduced-min 1e-6 --points-per-decade 4",
                       dict(jbar=0.01, n_sites=5, reduced_min=1e-6, points_per_decade=4)),
    "critical regime": ("--jbar 0.01 --sites 5 --omega-atom 1e-7 --points-per-decade 4",
                        dict(jbar=0.01, n_sites=5, Omega=1e-7, points_per_decade=4)),
}
# what each case is there to exercise, as missing-row observables
CASE_MISSING = {"deep N=5": {"gaps", "photon_numbers[2]", "squeezing[5]"},
                "strong hopping N=7": {"gaps", "photon_numbers[4]"},
                "unstable points": {"gaps,photon_numbers,squeezing"},
                "solver failure": {"all"}}
# the grid points a case seeds from the origin alone: a saddle, which fails
# the point, and points within 1e-10 of g_c, where the origin passes the
# PSD tolerance and wins as a normal state that is not stable there
ORIGIN_SEEDED = {
    "solver failure": lambda spec, g: g == spec.grid[len(spec.grid) // 2 + 3],
    "unstable points": lambda spec, g: (g - spec.g_critical) / spec.g_critical < 1e-10,
}


@pytest.mark.parametrize("case", ARRAY_SWEEPS)
def test_sweep_builds_no_per_point_records(case, monkeypatch):
    # the grid stays arrays from the solve to the table
    spec = SweepSpec(**ARRAY_SWEEPS[case])
    built = []
    for record in (ModelParams, MeanFieldConfiguration, GroundStateSolution):
        def counted(self, *args, __init__=record.__init__, **kwargs):
            built.append(type(self).__name__)
            __init__(self, *args, **kwargs)
        monkeypatch.setattr(record, "__init__", counted)
    assert run_sweep(spec).rows and built == []


class TestSweepTable:
    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_table_matches_row_by_row_reference(self, case, capsys, monkeypatch):
        flags, kwargs = SWEEP_CASES[case]
        spec = SweepSpec(**kwargs)
        if case in ORIGIN_SEEDED:
            origin_only, real_seeds = ORIGIN_SEEDED[case], meanfield._seed_alphas
            monkeypatch.setattr(meanfield, "_seed_alphas", lambda g, jbar, gc: (
                0.0 if origin_only(spec, g) else real_seeds(g, jbar, gc)))
        result = run_sweep(spec)
        rows, missing, warnings = reference_sweep(spec)
        assert result.rows == rows and repr(result.rows) == repr(rows)
        assert (result.missing, result.warnings) == (missing, warnings)
        assert CASE_MISSING.get(case, set()) <= {m.observable for m in missing}
        if case == "critical regime":  # some points warn, and some do not
            assert 0 < len(warnings) < len(spec.grid)

        # the CLI writes the table's rows, unique and in row order
        assert cli.main(["sweep", *flags.split()]) == 0
        written = csv_to_rows(capsys.readouterr().out)
        keys = [(row["g"], row["observable"], row["index"]) for row in written]
        assert keys == sorted(set(keys))
        assert written == [{"g": r.g, "reduced_coupling": r.reduced_coupling,
                            "observable": r.observable, "index": r.index,
                            "value": r.value} for r in rows]

        # every series, requested or not, is the sorted rows of one side
        gc, by_series = spec.g_critical, {}
        for r in rows:
            by_series.setdefault((r.observable, r.index, r.g > gc), []).append(
                (r.reduced_coupling, r.value))
        indices = ["", "mf", "f", *map(str, range(1, 2 * spec.n_sites + 2))]
        for observable in scaling.OBSERVABLES:
            for index in indices:
                for side in ("above", "below"):
                    reduced, values = result.series(observable, index, side)
                    assert list(zip(reduced.tolist(), values.tolist())) == sorted(
                        by_series.get((observable, index, side == "above"), []))


def every_point_flags(spec, points, outcomes):
    """A sweep's missing rows and warnings from a loop over every grid
    point, as the sweep recorded them before it visited only the flagged
    points."""
    want = set(spec.observables)
    gaussian = want & {"gaps", "photon_numbers", "squeezing"}
    solved = np.array([isinstance(outcome, GroundStateSolution) for outcome in outcomes])
    missing, warnings = [], []
    if solved.any() and gaussian:
        moments = fluctuations.site_moments([o for o, ok in zip(outcomes, solved) if ok])
        critical = np.fmin(moments.eps[:, 0], moments.eps_even[:, 0]) < (
            fluctuations.CRITICAL_REGIME_FACTOR * spec.omega0)
        blocks = {"photon_numbers": moments.photon_numbers, "squeezing": moments.var_q}
    unresolved = "frustrated sector below double-precision resolution"
    stack_row = np.cumsum(solved) - 1
    for i, (params, outcome) in enumerate(zip(points, outcomes)):

        def lost(observable, reason):
            missing.append(SweepMissing(params.g, observable, reason))

        if not solved[i]:
            lost("all", f"solver: {outcome}")
            continue
        if not gaussian:
            continue
        row = stack_row[i]
        if moments.errors[row] is not None:
            lost(",".join(sorted(gaussian)), str(moments.errors[row]))
            continue
        if critical[row]:
            warnings.append(f"critical-regime point at g={params.g!r}")
        if "gaps" in want and np.isnan(moments.eps[row, 0]):
            lost("gaps", unresolved)
        for name in ("photon_numbers", "squeezing"):
            if name in want:
                for site in np.flatnonzero(np.isnan(blocks[name][row])) + 1:
                    lost(f"{name}[{site}]", unresolved)
    return missing, warnings


FLAG_CASES = {
    "deep frustrated": dict(jbar=0.01, n_sites=5, reduced_min=1e-9),
    "one failing point": dict(jbar=0.01, n_sites=5, reduced_min=1e-6, points_per_decade=4),
    "critical regime": dict(jbar=0.01, n_sites=5, Omega=1e-7, points_per_decade=4),
    "gaps only": dict(jbar=0.01, n_sites=5, reduced_min=1e-7, observables=("gaps", "energy")),
}


class TestFlaggedPoints:
    @pytest.mark.parametrize("case", FLAG_CASES)
    def test_missing_rows_and_warnings_match_the_every_point_loop(self, case, monkeypatch):
        spec = SweepSpec(**FLAG_CASES[case])
        if case == "one failing point":
            bad, real_seeds = spec.grid[len(spec.grid) // 2 + 3], meanfield._seed_alphas
            monkeypatch.setattr(meanfield, "_seed_alphas", lambda g, jbar, gc: (
                0.0 if g == bad else real_seeds(g, jbar, gc)))
        result = run_sweep(spec)
        points = grid_points(spec)
        missing, warnings = every_point_flags(spec, points, meanfield.solve_ground_states(points))
        assert (result.missing, result.warnings) == (missing, warnings)
        if case == "deep frustrated":  # the stderr lines of `frustra sweep`
            assert len(missing) + len(warnings) == 864
        if case == "one failing point":
            assert [m.observable for m in missing if m.g == bad] == ["all"]
        if case == "critical regime":
            assert 0 < len(warnings) < len(spec.grid)
