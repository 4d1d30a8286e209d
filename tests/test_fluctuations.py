import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg
from numpy.testing import assert_allclose

from frustra import fluctuations

from frustra.errors import (
    ConvergenceError,
    DomainError,
    InstabilityError,
    PhaseError,
    ValidationError,
)
from frustra.fluctuations import (
    QuadraticForm,
    analytic_nfsp_spectrum,
    analytic_np_spectrum,
    build_quadratic_hamiltonian,
    covariance,
    fsp_frustrated_mode_energy,
    fsp_sector_spectra,
    fsp_site_moments,
    mode_weights,
    normal_phase_mode_energies,
    photon_number,
    quadrature_labels,
    site_moments,
    squeezing_variance,
    symplectic_spectrum_modulus,
    williamson_diagonalize,
)
from frustra.meanfield import (
    SOLUTION_GRAD_TOL,
    GroundStateSolution,
    Phase,
    solve_ground_state,
    solve_ground_states,
)
from frustra.model import MeanFieldConfiguration, ModelParams, critical_point
from williamson_reference import _williamson_generic


MOMENT_FIELDS = ("var_q", "var_p", "eps", "eps_even", "eps_odd")


def params(jbar, g, n=3, omega0=1.0, Omega=1.0):
    return ModelParams(omega0, Omega, jbar, g, n)


def solved_form(jbar, g, n=3, omega0=1.0, Omega=1.0):
    p = params(jbar, g, n, omega0, Omega)
    sol = solve_ground_state(p)
    return sol, p, build_quadratic_hamiltonian(sol)


class TestBuild:
    def test_zero_coupling_decouples_light_and_matter(self):
        sol, p, form = solved_form(0.01, 0.0)
        m = form.matrix
        for site in range(3):
            qi, Qi = 4 * site, 4 * site + 2
            assert m[qi, Qi] == 0.0
            assert m[Qi, Qi] == pytest.approx(1.0)
            assert m[qi, qi] == pytest.approx(1.0)

    def test_normal_phase_coupling_value(self):
        omega0, Omega, g = 1.3, 0.8, 0.6
        sol, p, form = solved_form(0.01, g, omega0=omega0, Omega=Omega)
        expected = -g * np.sqrt(omega0 * Omega)
        for site in range(3):
            qi, Qi = 4 * site, 4 * site + 2
            assert form.matrix[qi, Qi] == pytest.approx(expected, rel=1e-14)

    def test_fsp_coupling_signs(self):
        sol, p, form = solved_form(0.01, 1.01)
        couplings = [form.matrix[4 * site, 4 * site + 2] for site in range(3)]
        # phi_1 = 0 on the negative unpaired site flips that coupling's sign
        assert couplings[0] < 0 < couplings[1]
        assert couplings[1] == couplings[2]

    def test_hopping_appears_on_q_and_p(self):
        sol, p, form = solved_form(-0.03, 0.5)
        hop = p.jbar * p.omega0
        # the indices follow the quadrature ordering q1, p1, Q1, P1, q2, ...
        assert quadrature_labels(3)[:5] == ["q1", "p1", "Q1", "P1", "q2"]
        assert quadrature_labels(3)[-1] == "P3"
        assert form.matrix[0, 4] == pytest.approx(hop)
        assert form.matrix[1, 5] == pytest.approx(hop)
        assert form.matrix[2, 6] == 0.0  # no atomic hopping

    @pytest.mark.parametrize("jbar", [0.01, -0.01])
    def test_large_coupling_keeps_atomic_precision(self, jbar):
        # cos theta = -1/sqrt(1 + 4 g^2 alpha^2) is about -1e-16 at g = 1e8;
        # the cosine of the stored theta carries almost none of its digits
        sol, p, form = solved_form(jbar, 1e8)
        stretch = np.sqrt(1.0 + 4.0 * p.g ** 2 * sol.config.alphas ** 2)
        assert_allclose(np.diag(form.matrix)[2::4], stretch, rtol=1e-15)
        if jbar < 0:
            assert_allclose(site_moments([sol]).eps[0],
                            analytic_nfsp_spectrum(p.g, jbar, 1.0), rtol=1e-12)
        # at g = 1e10 it used to flip the form indefinite
        williamson_diagonalize(solved_form(jbar, 1e10)[2])

    def test_rejects_unconverged_solution(self):
        # the form is assembled only at a checked minimum: a residual above
        # SOLUTION_GRAD_TOL never makes a solution
        sol, p, form = solved_form(0.01, 1.01)
        at_tolerance = GroundStateSolution(sol.config, sol.phase, SOLUTION_GRAD_TOL, p)
        assert np.array_equal(build_quadratic_hamiltonian(at_tolerance).matrix, form.matrix)
        for grad_norm in (np.nextafter(SOLUTION_GRAD_TOL, 1.0), 1e-3):
            with pytest.raises(ConvergenceError, match="stationarity residual"):
                GroundStateSolution(sol.config, sol.phase, grad_norm=grad_norm, params=p)

    def test_accepts_only_the_solutions_own_params(self):
        sol, p, form = solved_form(0.01, 1.1)
        assert np.array_equal(build_quadratic_hamiltonian(sol, sol.params).matrix, form.matrix)
        for other in (params(0.01, 1.2), params(0.02, 1.1), params(0.01, 1.1, n=5),
                      params(0.01, 1.1, omega0=1.3), params(0.01, 1.1, Omega=0.8)):
            with pytest.raises(ValidationError, match="differ from the solution's"):
                build_quadratic_hamiltonian(sol, other)

    @pytest.mark.parametrize("g, critical", [(1e3, False), (1e4, True)])
    def test_unresolvable_form_is_critical_regime(self, g, critical):
        # the soft modes stay near omega0, but from g = 1e4 their squares
        # fall below RESOLUTION_FACTOR eps e_max^2
        decomp = williamson_diagonalize(solved_form(0.01, g)[2])
        assert decomp.symplectic_eigenvalues.min() > 0.5
        assert decomp.critical_regime is critical

    def test_symmetry_validation(self):
        with pytest.raises(ValidationError):
            QuadraticForm(np.arange(16.0).reshape(4, 4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_rejected(self, value):
        # NaN compares False, so the symmetry check alone passes a NaN form
        for matrix in (np.full((4, 4), value), np.diag([1.0, 1.0, 2.0, value])):
            with pytest.raises(ValidationError, match="finite"):
                QuadraticForm(matrix)


class TestWilliamson:
    def test_two_uncoupled_oscillators(self):
        form = QuadraticForm(np.diag([1.0, 1.0, 2.0, 2.0]))
        decomp = williamson_diagonalize(form)
        assert_allclose(decomp.symplectic_eigenvalues, [1.0, 2.0], atol=1e-14)
        assert decomp.symplectic_residual < 1e-12

    def test_normal_phase_matches_closed_form(self):
        jbar, g = 0.01, 0.8
        sol, p, form = solved_form(jbar, g)
        decomp = williamson_diagonalize(form)
        expected = analytic_np_spectrum(g, jbar, p.omegabar)
        assert_allclose(decomp.symplectic_eigenvalues, expected, rtol=1e-10)

    def test_nfsp_matches_closed_form(self):
        jbar = -0.01
        gc = critical_point(jbar, 3)
        g = 1.1 * gc
        sol, p, form = solved_form(jbar, g)
        decomp = williamson_diagonalize(form)
        expected = analytic_nfsp_spectrum(g, jbar, p.omegabar)
        assert_allclose(decomp.symplectic_eigenvalues, expected, rtol=1e-10)

    def test_fsp_lowest_matches_pair_difference_energy(self):
        jbar = 0.01
        gc = critical_point(jbar, 3)
        g = 1.01 * gc
        sol, p, form = solved_form(jbar, g)
        decomp = williamson_diagonalize(form)
        expected = fsp_frustrated_mode_energy(g, jbar, p.omegabar,
                                              sol.config.alphas[1])
        assert abs(decomp.symplectic_eigenvalues[0] - expected) < 1e-8

    def test_invariants_and_cross_routes(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            n = int(rng.choice([3, 5]))
            jbar = float(rng.uniform(-0.3, 0.6))
            gc = critical_point(jbar, n)
            g = float(rng.uniform(0.2, 0.97)) * gc
            sol, p, form = solved_form(jbar, g, n)
            decomp = williamson_diagonalize(form)
            omega = form.symplectic_form
            s_mat = decomp.symplectic_matrix
            assert np.max(np.abs(s_mat @ omega @ s_mat.T - omega)) < 1e-10
            target = np.diag(np.repeat(decomp.symplectic_eigenvalues, 2))
            assert np.max(np.abs(s_mat @ form.matrix @ s_mat.T - target)) < 1e-9
            assert_allclose(decomp.symplectic_eigenvalues,
                            symplectic_spectrum_modulus(form), atol=1e-10)

    def test_unstable_form_raises_with_direction(self):
        # a stale normal-phase mean field past the critical point
        p = params(0.01, 1.2)
        config = MeanFieldConfiguration(np.zeros(3), p.g, p.jbar)
        stale = GroundStateSolution(config, Phase.NORMAL, 0.0, p)
        form = build_quadratic_hamiltonian(stale)
        with pytest.raises(InstabilityError):
            williamson_diagonalize(form)

    def test_critical_regime_flag(self):
        # synthetic nearly-soft oscillator next to a hard one
        soft = 3e-9
        form = QuadraticForm(np.diag([soft, soft, 1.0, 1.0]), omega0=1.0)
        decomp = williamson_diagonalize(form)
        assert decomp.critical_regime
        assert decomp.symplectic_eigenvalues[0] == pytest.approx(soft, rel=1e-10)
        sol, p, hard = solved_form(0.01, 0.9)
        assert not williamson_diagonalize(hard).critical_regime


class TestAnalyticSpectra:
    def test_bare_frequencies_at_zero_coupling(self):
        spec = analytic_np_spectrum(0.0, 0.0, omegabar=2.0)
        assert_allclose(spec, [1.0, 1.0, 1.0, 2.0, 2.0, 2.0], atol=1e-14)

    def test_momentum_pair_degeneracy(self):
        k = 2 * np.pi / 3
        lo_p, hi_p = normal_phase_mode_energies(0.7, 0.05, 1.0, k)
        lo_m, hi_m = normal_phase_mode_energies(0.7, 0.05, 1.0, -k)
        assert lo_p == lo_m and hi_p == hi_m

    def test_np_gap_closes_at_negative_critical_point(self):
        jbar = -0.01
        gc = critical_point(jbar, 3)
        lo, _ = normal_phase_mode_energies(gc * (1 - 1e-10), jbar, 1.0, 0.0)
        assert lo < 2e-5

    def test_np_gap_closes_at_positive_critical_point_with_degeneracy(self):
        jbar = 0.01
        gc = critical_point(jbar, 3)
        spec = analytic_np_spectrum(gc * (1 - 1e-10), jbar, 1.0)
        assert spec[0] < 2e-5 and spec[1] < 2e-5  # two-fold degenerate pair

    def test_np_domain_error_past_threshold(self):
        jbar = 0.01
        gc = critical_point(jbar, 3)
        with pytest.raises(DomainError):
            analytic_np_spectrum(1.01 * gc, jbar, 1.0)

    def test_nfsp_gap_exponent_half(self):
        jbar = -0.01
        gc = critical_point(jbar, 3)
        lo1 = analytic_nfsp_spectrum(gc * (1 + 1e-6), jbar, 1.0)[0]
        lo2 = analytic_nfsp_spectrum(gc * (1 + 4e-6), jbar, 1.0)[0]
        assert lo2 / lo1 == pytest.approx(2.0, rel=1e-3)

    def test_nfsp_upper_branch_grows_quadratically(self):
        jbar = -0.01
        hi1 = analytic_nfsp_spectrum(2.0, jbar, 1.0)[-1]
        hi2 = analytic_nfsp_spectrum(4.0, jbar, 1.0)[-1]
        assert hi2 / hi1 == pytest.approx(4.0, rel=0.05)

    def test_nfsp_domain(self):
        with pytest.raises(DomainError):
            analytic_nfsp_spectrum(0.9, -0.01, 1.0)
        with pytest.raises(DomainError):
            analytic_nfsp_spectrum(1.2, +0.01, 1.0)

    @pytest.mark.parametrize("spectrum, g", [(analytic_np_spectrum, 0.1),
                                             (analytic_nfsp_spectrum, 1.2)])
    @pytest.mark.parametrize("jbar, omegabar, n_sites, coupling", [
        (-0.7, 1.0, 3, 1.0),  # below the window: the k = 0 cavity frequency is negative
        (-0.3, 1.0, 5, -1.0),  # a negative coupling
        (-0.3, -1.0, 3, 1.0),  # a negative atomic frequency
        (-0.3, 1.0, 4, 1.0),  # an even ring
        (-0.3, 1.0, 3, np.nan)])
    def test_rejects_what_model_params_rejects(self, spectrum, g, jbar, omegabar, n_sites,
                                               coupling):
        # a bare cavity frequency omega0 (1 + 2 jbar cos k) below zero is
        # outside the stability window, where the branches read positive
        with pytest.raises(ValidationError):
            spectrum(coupling * g, jbar, omegabar, n_sites=n_sites)

    def test_normal_spectrum_rejects_a_hopping_past_its_rings_window(self):
        # inside the three-site window but past the five-site one
        assert (analytic_np_spectrum(0.1, 0.9, 1.0) > 0).all()
        with pytest.raises(ValidationError):
            analytic_np_spectrum(0.1, 0.9, 1.0, n_sites=5)

    def test_frustrated_energy_vanishes_at_threshold(self):
        jbar = 0.05
        assert fsp_frustrated_mode_energy(
            critical_point(jbar, 3), jbar, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_frustrated_energy_slope(self):
        jbar, omegabar = 0.01, 1.0
        gc = critical_point(jbar, 3)
        slope = 2.0 * np.sqrt((1 - jbar) * (2 + jbar)
                              / (3 * jbar * ((1 - jbar) ** 2 + omegabar ** 2)))
        dg = 1e-7
        sol = solve_ground_state(params(jbar, gc + dg))
        eps = fsp_frustrated_mode_energy(gc + dg, jbar, omegabar,
                                         sol.config.alphas[1])
        assert eps / dg == pytest.approx(slope, rel=1e-2)

    def test_frustrated_energy_errors(self):
        with pytest.raises(DomainError):
            fsp_frustrated_mode_energy(1.1, -0.01, 1.0, 0.1)
        with pytest.raises(InstabilityError):
            # far-too-small pair coherence at strong coupling: unstable sector
            fsp_frustrated_mode_energy(1.4, 0.01, 1.0, 0.0)


class TestCovariance:
    def test_vacuum_for_decoupled_bare_oscillators(self):
        sol, p, form = solved_form(0.0, 0.0)
        cov = covariance(williamson_diagonalize(form))
        assert_allclose(cov.matrix, 0.5 * np.eye(12), atol=1e-12)
        for site in (1, 2, 3):
            assert photon_number(cov, site) == pytest.approx(0.0, abs=1e-12)
            assert squeezing_variance(cov, site) == pytest.approx(0.5, abs=1e-12)

    def test_translational_symmetry_of_photon_numbers(self):
        sol, p, form = solved_form(0.01, 0.9)
        cov = covariance(williamson_diagonalize(form))
        values = [photon_number(cov, site) for site in (1, 2, 3)]
        assert np.ptp(values) < 1e-11
        assert values[0] > 0

    def test_cavity_variance_diverges_towards_threshold(self):
        jbar = -0.02
        gc = critical_point(jbar, 3)
        variances = []
        for g in (0.9 * gc, 0.999 * gc, 0.9999 * gc):
            sol, p, form = solved_form(jbar, g)
            cov = covariance(williamson_diagonalize(form))
            variances.append(squeezing_variance(cov, 1))
        assert variances[0] < variances[1] < variances[2]
        assert variances[2] > 5 * variances[0]

    def test_physicality_on_random_stable_draws(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.choice([3, 5]))
            jbar = float(rng.uniform(-0.3, 0.6))
            gc = critical_point(jbar, n)
            stable_side = rng.uniform(0.2, 0.95) * gc if rng.random() < 0.5 \
                else gc * (1 + rng.uniform(0.005, 0.2))
            try:
                sol, p, form = solved_form(jbar, float(stable_side), n)
            except ValidationError:
                continue
            cov = covariance(williamson_diagonalize(form))
            scale = max(1.0, np.max(np.abs(cov.matrix)))
            assert cov.physicality_defect() > -1e-10 * scale

    def test_site_range_checked(self):
        sol, p, form = solved_form(0.01, 0.9)
        cov = covariance(williamson_diagonalize(form))
        with pytest.raises(DomainError):
            photon_number(cov, 0)
        with pytest.raises(DomainError):
            squeezing_variance(cov, 4)

    def test_fsp_site_one_smaller_than_pair(self):
        jbar = 0.01
        gc = critical_point(jbar, 3)
        sol, p, form = solved_form(jbar, gc * (1 + 1e-3))
        cov = covariance(williamson_diagonalize(form))
        n1 = photon_number(cov, 1)
        n2 = photon_number(cov, 2)
        assert photon_number(cov, 3) == pytest.approx(n2, rel=1e-9)
        assert n1 < n2 / 3


class TestStackedSectors:
    def test_stack_reads_each_points_frequencies(self):
        # omega0 and Omega differ from point to point, on both routes
        n = 5
        gc_f, gc_u = critical_point(0.01, n), critical_point(-0.01, n)
        points = [params(0.01, 0.5, n, omega0=1.3, Omega=0.8),
                  params(-0.01, gc_u * 1.05, n, omega0=0.7, Omega=1.9),
                  params(0.01, gc_f * 1.01, n, omega0=2.1, Omega=0.6),
                  params(0.01, gc_f * 1.02, n, omega0=0.9, Omega=1.4)]
        solutions = [solve_ground_state(p) for p in points]
        moments = site_moments(solutions)
        for i, sol in enumerate(solutions):
            decomp = williamson_diagonalize(build_quadratic_hamiltonian(sol))
            cov = covariance(decomp)
            assert_allclose(moments.eps[i], decomp.symplectic_eigenvalues, rtol=1e-9)
            assert_allclose(moments.photon_numbers[i],
                            [photon_number(cov, site) for site in range(1, n + 1)], rtol=1e-9)

    @pytest.mark.parametrize("sector", ["even", "odd"])
    def test_failed_svd_fails_only_its_own_point(self, monkeypatch, sector):
        # an SVD that does not converge comes back NaN from the row-wise
        # gufunc (numpy.linalg.svd raised for the whole stack): its point
        # fails, an InstabilityError in the mirror-even sector and an
        # unresolved mirror-odd sector in the other, as a failed Cholesky
        # factor does, and every other point keeps its bits
        jbar, n, bad = 0.01, 5, 2
        gc = critical_point(jbar, n)
        points = [params(jbar, gc * (1 + r), n) for r in (1e-4, 1e-3, 1e-2, 3e-2, 1e-1)]
        solutions = [solve_ground_state(p) for p in points]
        clean, real, calls = site_moments(solutions), fluctuations._svd, []

        def svd(a):
            u, eps, vt = real(a)
            if ["even", "odd"][len(calls)] == sector:
                u[bad] = eps[bad] = vt[bad] = np.nan
            calls.append(len(a))
            return u, eps, vt

        monkeypatch.setattr(fluctuations, "_svd", svd)
        stacked = site_moments(solutions)
        assert calls == [len(points)] * 2
        for i in range(len(points)):
            kept = MOMENT_FIELDS if i != bad else {
                "even": (), "odd": ("eps_even",)}[sector]
            for field in MOMENT_FIELDS:
                if field in kept:
                    got, want = getattr(stacked, field)[i], getattr(clean, field)[i]
                    assert got.tobytes() == want.tobytes()
                elif field in ("var_q", "var_p") and sector == "odd":  # the unpaired site stays
                    assert getattr(stacked, field)[i, 0] == getattr(clean, field)[i, 0]
                    assert np.isnan(getattr(stacked, field)[i, 1:]).all()
                else:
                    assert np.isnan(getattr(stacked, field)[i]).all()
        assert [type(error) for error in stacked.errors] == [
            InstabilityError if i == bad and sector == "even" else type(None)
            for i in range(len(points))]

    def test_non_positive_point_leaves_the_others_bitwise(self):
        # a frustrated label on the origin past g_c: both mirror sectors of
        # its form are indefinite, so its Cholesky factor fails in the stack
        jbar, n = 0.01, 5
        gc = critical_point(jbar, n)
        points = [params(jbar, gc * (1 + r), n) for r in (1e-7, 1e-4, 1e-2, 1e-1)]
        solutions = [solve_ground_state(p) for p in points]
        stale = GroundStateSolution(MeanFieldConfiguration(
            np.zeros(n), points[2].g, jbar), Phase.FSP, 0.0, points[2])
        solutions[2] = stale
        stacked = site_moments(solutions)
        assert isinstance(stacked.errors[2], InstabilityError)
        assert all(np.isnan(getattr(stacked, field)[2]).all() for field in MOMENT_FIELDS)
        with pytest.raises(InstabilityError):
            fsp_site_moments(stale)
        for i in (0, 1, 3):
            alone = fsp_site_moments(solutions[i])
            assert stacked.errors[i] is None and alone.errors == (None,)
            for field in MOMENT_FIELDS:
                assert np.array_equal(getattr(stacked, field)[i], getattr(alone, field)[0],
                                      equal_nan=True)
        assert np.isnan(stacked.eps[0]).all() and not np.isnan(stacked.eps[3]).any()

    def test_mixed_stack_matches_one_point_routes(self):
        # one lattice size, every phase: normal, uniform, a resolved and an
        # unresolved frustrated point, and stale non-positive labels of both
        # routes on the origin past g_c
        n = 7
        gc_f, gc_u = critical_point(0.01, n), critical_point(-0.01, n)
        points = [params(0.01, 0.5, n), params(-0.01, gc_u * (1 + 1e-3), n),
                  params(0.01, gc_f * (1 + 3e-3), n), params(0.01, gc_f * (1 + 1e-5), n),
                  params(0.01, gc_f * 1.1, n), params(-0.01, gc_u * 1.1, n)]
        solutions = [solve_ground_state(p) for p in points[:4]]
        solutions += [GroundStateSolution(MeanFieldConfiguration(
            np.zeros(n), p.g, p.jbar), phase, 0.0, p)
            for p, phase in zip(points[4:], (Phase.FSP, Phase.NFSP))]
        stacked = site_moments(solutions)
        assert not np.isnan(stacked.eps[2]).any() and np.isnan(stacked.eps[3]).all()
        # uniform points have no mirror sectors
        assert np.isnan(stacked.eps_even[[0, 1]]).all() and np.isnan(stacked.eps_odd[[0, 1]]).all()
        for i, sol in enumerate(solutions):
            alone = site_moments([sol])
            error = stacked.errors[i]
            assert isinstance(error, InstabilityError) if i >= 4 else error is None
            assert str(error) == str(alone.errors[0])
            for field in MOMENT_FIELDS:
                assert np.array_equal(getattr(stacked, field)[i], getattr(alone, field)[0],
                                      equal_nan=True)


def deep_frustrated_points(n):
    """The solved points of a frustrated sweep down to reduced coupling
    1e-9, whose deep mirror-odd sectors cannot be factored."""
    gc = critical_point(0.01, n)
    points = [params(0.01, gc * (1 + r), n) for r in np.logspace(-9, -2, 36)]
    return [s for s in solve_ground_states(points) if isinstance(s, GroundStateSolution)]


def split_modes_alone(form):
    """eps, x_modes, p_modes and positive of one split form on its own,
    through ``np.linalg.cholesky``, which raises for a form that fails."""
    try:
        lx, lp = np.linalg.cholesky(form[None, 0]), np.linalg.cholesky(form[None, 1])
    except np.linalg.LinAlgError:
        size = form.shape[-1]
        return np.full(size, np.nan), np.full((size, size), np.nan), np.full(
            (size, size), np.nan), False
    u, eps, vt = np.linalg.svd(np.swapaxes(lx, -1, -2) @ lp)
    return (eps[0, ::-1], (lp @ np.swapaxes(vt[:, ::-1], -1, -2))[0],
            (lx @ u[..., ::-1])[0], bool(eps[0, -1] > 0))


class TestSplitModesFactorisation:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_stack_matches_each_form_alone(self, n):
        solutions = deep_frustrated_points(n)
        even, odd = fluctuations._sector_blocks(*fluctuations._per_point(solutions))
        for sector in (even, odd):
            modes = fluctuations._SplitModes(sector)
            for i, form in enumerate(sector):
                eps, x_modes, p_modes, positive = split_modes_alone(form)
                assert modes.eps[i].tobytes() == eps.tobytes()
                assert modes.x_modes[i].tobytes() == x_modes.tobytes()
                assert modes.p_modes[i].tobytes() == p_modes.tobytes()
                assert modes.positive[i] == positive
        # every even sector factors, and the deepest odd sectors do not
        assert fluctuations._SplitModes(even).positive.all()
        assert not fluctuations._SplitModes(odd).positive.all()

    def test_failing_form_is_nan_without_exception_or_warning(self):
        # pins the gufunc behind np.linalg.cholesky: a form that cannot be
        # factored comes back NaN with the invalid flag raised, and every
        # other form gets the bits of np.linalg.cholesky
        good = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                factors = _umath_linalg.cholesky_lo(np.array([good, bad]), signature="d->d")
            with np.errstate(all="raise"):
                modes = fluctuations._SplitModes(np.array([[good, good], [good, bad]]))
        assert np.isnan(factors[1]).all()
        assert factors[0].tobytes() == np.linalg.cholesky(good).tobytes()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            _umath_linalg.cholesky_lo(bad, signature="d->d")
        assert modes.positive.tolist() == [True, False] and np.isnan(modes.eps[1]).all()

    def test_one_factorisation_call_per_block(self, monkeypatch):
        solutions = deep_frustrated_points(7)
        calls = []

        def cholesky_lo(blocks, signature):
            calls.append(blocks.shape)
            return _umath_linalg.cholesky_lo(blocks, signature=signature)

        monkeypatch.setattr(fluctuations, "_umath_linalg", SimpleNamespace(cholesky_lo=cholesky_lo))
        monkeypatch.setattr(np.linalg, "cholesky", None)  # no per-sector retries
        moments = site_moments(solutions)
        assert calls == [(len(solutions), 2, 8, 8), (len(solutions), 2, 6, 6)]
        assert np.isnan(moments.eps_odd).any()  # some odd forms did fail


class TestModeWeights:
    def test_trimer_frustrated_mode(self):
        jbar = 0.01
        gc = critical_point(jbar, 3)
        sol, p, form = solved_form(jbar, gc * (1 + 1e-3))
        decomp = williamson_diagonalize(form)
        frustrated = mode_weights(decomp, 1)
        assert abs(frustrated.cavity[0]) < 1e-12
        assert abs(frustrated.atom[0]) < 1e-12
        assert frustrated.cavity[1] == pytest.approx(-frustrated.cavity[2], abs=1e-12)
        assert frustrated.atom[1] == pytest.approx(-frustrated.atom[2], abs=1e-12)
        assert np.linalg.norm(frustrated.weights) == pytest.approx(1.0)

    def test_trimer_mean_field_mode(self):
        jbar = 0.01
        gc = critical_point(jbar, 3)
        sol, p, form = solved_form(jbar, gc * (1 + 1e-3))
        decomp = williamson_diagonalize(form)
        mf = mode_weights(decomp, 2)
        assert np.min(np.abs(mf.cavity)) > 1e-3  # support on all sites
        assert mf.cavity[1] == pytest.approx(mf.cavity[2], abs=1e-10)

    @pytest.mark.parametrize("n", [5, 7])
    def test_unpaired_site_decouples_for_larger_rings(self, n):
        jbar = 0.01
        gc = critical_point(jbar, n)
        sol, p, form = solved_form(jbar, gc * (1 + 1e-3), n)
        decomp = williamson_diagonalize(form)
        frustrated = mode_weights(decomp, 1)
        assert abs(frustrated.cavity[0]) < 1e-10
        assert abs(frustrated.atom[0]) < 1e-10
        for j in range(1, (n - 1) // 2 + 1):
            assert frustrated.cavity[j] == pytest.approx(-frustrated.cavity[n - j], abs=1e-9)

    @pytest.mark.parametrize("jbar, g, n", [(0.01, 0.9, 3), (0.01, 0.9, 5),
                                            (-0.01, 1.1, 5), (-0.01, 1.1, 7)])
    def test_degenerate_pair_weights_are_uniform_over_sites(self, jbar, g, n):
        # within a +-k pair the basis is arbitrary, so only the pair's
        # summed squared weights are pinned: cos^2 + sin^2 on every site
        sol, p, form = solved_form(jbar, g, n)
        assert sol.phase in (Phase.NORMAL, Phase.NFSP)
        decomp = williamson_diagonalize(form)
        eps = decomp.symplectic_eigenvalues
        pairs = [m for m in range(1, len(eps)) if eps[m] - eps[m - 1] < 1e-9 * eps[m]]
        assert len(pairs) == n - 1  # (N-1)/2 pairs on each branch
        for mode in pairs:
            first, second = mode_weights(decomp, mode), mode_weights(decomp, mode + 1)
            cavity = first.cavity ** 2 + second.cavity ** 2
            atom = first.atom ** 2 + second.atom ** 2
            assert_allclose(cavity, cavity.mean(), rtol=1e-9)
            assert_allclose(atom, atom.mean(), rtol=1e-9)

    def test_sign_convention_deterministic(self):
        sol, p, form = solved_form(0.01, 0.9)
        decomp = williamson_diagonalize(form)
        for mode in range(1, 7):
            weights = mode_weights(decomp, mode).weights
            leading = weights[np.abs(weights) > 1e-7][0]
            assert leading > 0

    def test_mode_index_range(self):
        sol, p, form = solved_form(0.01, 0.9)
        decomp = williamson_diagonalize(form)
        with pytest.raises(DomainError):
            mode_weights(decomp, 0)
        with pytest.raises(DomainError):
            mode_weights(decomp, 7)


class TestSymmetryInvariance:
    def test_spectrum_invariant_under_site_relabeling(self):
        # translationally symmetric phase: rotating the labels is a no-op
        jbar, g = -0.02, 1.06
        sol, p, form = solved_form(jbar, g)
        base = williamson_diagonalize(form).symplectic_eigenvalues
        rolled = MeanFieldConfiguration(np.roll(sol.config.alphas, 1), g, jbar)
        rolled_sol = GroundStateSolution(rolled, sol.phase, sol.grad_norm, p)
        rolled_form = build_quadratic_hamiltonian(rolled_sol)
        rolled_eps = williamson_diagonalize(rolled_form).symplectic_eigenvalues
        assert_allclose(base, rolled_eps, rtol=1e-12)

    def test_fsp_orbit_shares_spectrum_and_permuted_moments(self):
        from frustra.meanfield import enumerate_degenerate_ground_states

        jbar = 0.01
        gc = critical_point(jbar, 3)
        p = params(jbar, gc * 1.01)
        members = enumerate_degenerate_ground_states(p)
        spectra, photon_sets = [], []
        for member in members:
            sol = GroundStateSolution(member, Phase.FSP, 0.0, p)
            decomp = williamson_diagonalize(build_quadratic_hamiltonian(sol))
            spectra.append(decomp.symplectic_eigenvalues)
            cov = covariance(decomp)
            photon_sets.append(sorted(photon_number(cov, s) for s in (1, 2, 3)))
        for eps in spectra[1:]:
            assert_allclose(eps, spectra[0], rtol=1e-9)
        for values in photon_sets[1:]:
            assert_allclose(values, photon_sets[0], rtol=1e-8)


class TestSectorMoments:
    def test_matches_full_covariance_at_moderate_coupling(self):
        jbar = 0.01
        for n in (3, 5):
            gc = critical_point(jbar, n)
            p = params(jbar, gc * (1 + 3e-3), n)
            sol = solve_ground_state(p)
            moments = fsp_site_moments(sol)
            cov = covariance(williamson_diagonalize(build_quadratic_hamiltonian(sol)))
            for site in range(1, n + 1):
                assert moments.photon_numbers[0, site - 1] == pytest.approx(
                    photon_number(cov, site), rel=1e-9)
                assert moments.var_q[0, site - 1] == pytest.approx(
                    squeezing_variance(cov, site), rel=1e-9)

    @pytest.mark.parametrize("n, reduced", [(3, 3e-3), (5, 3e-3), (7, 3e-3), (7, 1e-5)])
    def test_sector_spectra_carried_on_moments(self, n, reduced):
        jbar = 0.01
        gc = critical_point(jbar, n)
        p = params(jbar, gc * (1 + reduced), n)
        sol = solve_ground_state(p)
        moments = fsp_site_moments(sol)
        eps_even, eps_odd = fsp_sector_spectra(sol)
        assert np.array_equal(moments.eps_even[0], eps_even)
        # the N=7 frustrated gap ~ reduced^3 is below resolution at 1e-5
        assert (eps_odd is None) == (reduced < 1e-4)
        if eps_odd is None:
            assert np.isnan(moments.eps_odd).all() and np.isnan(moments.eps).all()
            return
        assert np.array_equal(moments.eps_odd[0], eps_odd)
        merged = np.sort(np.concatenate([eps_even, eps_odd]))
        assert np.array_equal(moments.eps[0], merged)
        full = williamson_diagonalize(build_quadratic_hamiltonian(sol))
        assert_allclose(merged, full.symplectic_eigenvalues, rtol=1e-9)

    @pytest.mark.parametrize("jbar, g, phase", [(-0.01, 1.05, Phase.NFSP),
                                                (0.01, 0.5, Phase.NORMAL)])
    def test_sector_routes_refuse_other_phases(self, jbar, g, phase):
        # a uniform or normal state has no mirror sectors: both routes refuse it alike
        sol = solve_ground_state(params(jbar, g))
        assert sol.phase is phase
        for route in (fsp_site_moments, fsp_sector_spectra):
            with pytest.raises(PhaseError, match="require the frustrated phase"):
                route(sol)

    def test_deep_point_keeps_unpaired_site(self):
        # far below resolution for the frustrated sector at N=7
        jbar = 0.01
        gc = critical_point(jbar, 7)
        p = params(jbar, gc * (1 + 1e-6), 7)
        sol = solve_ground_state(p)
        moments = fsp_site_moments(sol)
        assert np.isfinite(moments.photon_numbers[0, 0])
        assert np.isnan(moments.photon_numbers[0, 1])
        assert np.isnan(moments.eps_odd).all() and np.isfinite(moments.eps_even).all()
        assert np.isnan(moments.eps).all()


class TestUniformPhaseMoments:
    def test_vacuum_without_coupling(self):
        sol, p, _ = solved_form(0.05, 0.0, n=5)
        moments = site_moments([sol])
        assert_allclose(moments.var_q, 0.5, rtol=1e-14)
        assert_allclose(moments.var_p, 0.5, rtol=1e-14)
        assert moments.photon_numbers[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_rejects_unconverged_solution(self):
        # the moments are read only at a checked minimum: a residual above
        # SOLUTION_GRAD_TOL never makes a solution
        sol, p, _ = solved_form(-0.01, 0.9)
        at_tolerance = GroundStateSolution(sol.config, sol.phase, SOLUTION_GRAD_TOL, p)
        assert site_moments([at_tolerance]).var_q.tobytes() == site_moments([sol]).var_q.tobytes()
        for grad_norm in (np.nextafter(SOLUTION_GRAD_TOL, 1.0), 1e-3):
            with pytest.raises(ConvergenceError, match="stationarity residual"):
                GroundStateSolution(sol.config, sol.phase, grad_norm=grad_norm, params=p)
        with pytest.raises(ValidationError):
            site_moments([])

    @pytest.mark.parametrize("phase, jbar, g", [(Phase.NORMAL, -0.01, 0.9),
                                                (Phase.NFSP, -0.01, 1.2),
                                                (Phase.NORMAL, 0.01, 0.9)])
    def test_unequal_coherences_have_no_momentum_blocks(self, phase, jbar, g):
        # the momentum route reads site 1 only, so a normal or uniform label
        # on a state that is not translation invariant is refused, also
        # beside a valid point
        p = params(jbar, g, n=5)
        good = solve_ground_state(p)
        alphas = np.array(good.config.alphas)
        alphas[2] += 1e-3
        stale = GroundStateSolution(MeanFieldConfiguration(alphas, g, jbar), phase, 0.0, p)
        for stack in ([stale], [good, stale]):
            with pytest.raises(ValidationError, match="equal coherences"):
                site_moments(stack)
        assert site_moments([good]).errors == (None,)

    @pytest.mark.parametrize("jbar, g", [(0.01, 1.2), (0.7, 0.1)])
    def test_stale_normal_state_is_unstable(self, jbar, g):
        # past g_c, and past the five-site hopping window where the cavity
        # frequency of the k = +-4pi/5 blocks turns negative; ModelParams
        # rejects a hopping outside its size's window, so the solution
        # carries a stand-in for its point's params
        p = SimpleNamespace(omega0=1.0, Omega=1.0, jbar=jbar, g=g, n_sites=5)
        config = MeanFieldConfiguration(np.zeros(5), p.g, p.jbar)
        stale = GroundStateSolution(config, Phase.NORMAL, 0.0, p)
        with pytest.raises(InstabilityError):
            williamson_diagonalize(build_quadratic_hamiltonian(stale))
        moments = site_moments([stale])
        assert isinstance(moments.errors[0], InstabilityError)
        assert np.isnan(moments.var_q).all() and np.isnan(moments.eps).all()

    def test_only_unstable_points_carry_errors(self):
        # stable normal points between stale ones: past g_c, where the k = 0
        # block's lower energy is NaN, and past the hopping window, where the
        # first failing block is k = 4pi/5 and its lower energy is finite
        def normal(jbar, g):
            p = SimpleNamespace(omega0=1.0, Omega=1.0, jbar=jbar, g=g, n_sites=5)
            config = MeanFieldConfiguration(np.zeros(5), g, jbar)
            return GroundStateSolution(config, Phase.NORMAL, 0.0, p)

        moments = site_moments([normal(0.01, 0.5), normal(0.01, 1.2),
                                normal(-0.01, 0.9), normal(0.7, 0.1)])
        assert [None if e is None else (type(e), str(e)) for e in moments.errors] == [
            None,
            (InstabilityError, "momentum block k=0.0000 is not positive definite "
                               "(lower energy nan)"),
            None,
            (InstabilityError, "momentum block k=2.5133 is not positive definite "
                               "(lower energy 1.376e-01)")]
        assert np.isfinite(moments.eps[[0, 2]]).all() and np.isnan(moments.eps[[1, 3]]).all()


class TestGenericRoute:
    def test_position_momentum_coupled_form(self):
        # a phase-space rotation of a squeezed oscillator produces genuine
        # q-p coupling: the package rejects it, and the test-side generic
        # Cholesky/Schur reference still satisfies the invariants
        base = np.diag([1.0, 1.5, 2.0, 2.0, 0.7, 0.7, 1.3, 1.3])
        theta = 0.3
        rot = np.eye(8)
        rot[0, 0] = rot[1, 1] = np.cos(theta)
        rot[0, 1] = theta_s = np.sin(theta)
        rot[1, 0] = -theta_s
        matrix = rot.T @ base @ rot
        assert abs(matrix[0, 1]) > 0.1  # split structure really is broken
        form = QuadraticForm(matrix, omega0=1.0)
        with pytest.raises(ValidationError):
            williamson_diagonalize(form)
        decomp = _williamson_generic(form)
        omega = form.symplectic_form
        s_mat = decomp.symplectic_matrix
        assert np.max(np.abs(s_mat @ omega @ s_mat.T - omega)) < 1e-10
        target = np.diag(np.repeat(decomp.symplectic_eigenvalues, 2))
        assert np.max(np.abs(s_mat @ matrix @ s_mat.T - target)) < 1e-9
        assert_allclose(decomp.symplectic_eigenvalues,
                        symplectic_spectrum_modulus(form), atol=1e-10)


class TestMeanFieldModeExpansion:
    def test_second_lowest_follows_sqrt_law(self):
        # eps_mf = 2 omega0 sqrt((1-jbar)^(3/2) / ((1-jbar)^2 + omegabar^2))
        #          * (g - gc)^(1/2) to leading order
        jbar, omegabar = 0.01, 1.0
        gc = critical_point(jbar, 3)
        dg = 1e-7
        sol, p, form = solved_form(jbar, gc + dg)
        eps_mf = williamson_diagonalize(form).symplectic_eigenvalues[1]
        prefactor = 2.0 * np.sqrt((1 - jbar) ** 1.5 / ((1 - jbar) ** 2 + omegabar ** 2))
        assert eps_mf == pytest.approx(prefactor * np.sqrt(dg), rel=1e-3)

    def test_angle_relations_of_configurations(self):
        sol, p, form = solved_form(0.01, 1.02)
        config = sol.config
        for alpha, theta, phi in zip(config.alphas, config.thetas, config.phis):
            assert np.cos(phi) == pytest.approx(-np.sign(alpha) if alpha else 1.0)
            assert np.cos(theta) == pytest.approx(
                -1.0 / np.sqrt(1.0 + 4.0 * p.g ** 2 * alpha * alpha), rel=1e-14)
