import itertools
import logging
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frustra import fluctuations, meanfield
from frustra.errors import (
    ConvergenceError,
    DomainError,
    PhaseError,
    ValidationError,
)
from frustra.meanfield import (
    ENERGY_TOL,
    MATCH_TOL,
    PSD_TOLERANCE,
    SOLUTION_GRAD_TOL,
    GroundStateSolution,
    Phase,
    SolverOptions,
    _canonical,
    _canonical_frames,
    _mirror_reduced,
    _near_critical_magnitude,
    _newton_minimize,
    _seed_alphas,
    _solve_stack,
    enumerate_degenerate_ground_states,
    fsp_approximation,
    hessian_critical_modes,
    nfsp_closed_form,
    saddle_configuration,
    solve_ground_state,
    solve_ground_states,
)
from frustra.model import (
    MeanFieldConfiguration,
    ModelParams,
    _circulant_eigenvalues,
    _hessian_diagonal,
    _kernels,
    _pack,
    _spectral_lower_bound,
    critical_point,
    energy_gradient,
    energy_hessian,
    group_images,
    orbit_patterns,
    origin_hessian_eigenvalues,
    rescaled_energy,
    ring,
    stability_window,
)
from frustra.scaling import SweepSpec, run_sweep

EPS = np.finfo(float).eps


def params(jbar, g, n=3):
    return ModelParams(1.0, 1.0, jbar, g, n)


def circulant_spectra(alphas, g, jbar):
    """The solver's closed-form Hessian spectra of a stack (rows, N) of
    rows of equal coherences, with g and jbar one value per row: the
    circulant d + 4 jbar cos k of each row's diagonal entry d."""
    return _circulant_eigenvalues(_hessian_diagonal(alphas[:, :1], g[:, None]), jbar,
                                  alphas.shape[-1])


def point_spectrum(point):
    """The Hessian spectrum of a point's row in its one-point solver record."""
    states = _solve_stack(point.n_sites, np.array([point.g]), np.array([point.jbar]))
    return states.hessian_eigenvalues[0]


def sector_spectra(hess):
    """The solver's Hessian spectra of frustrated points from their Hessians
    (rows, N, N): the sorted union of ``numpy.linalg.eigh`` of each row's
    mirror-even and mirror-odd blocks, in the bases of the ring table."""
    tables = ring(hess.shape[-1])
    return np.sort(np.hstack([np.linalg.eigh(basis @ hess @ basis.T)[0]
                              for basis in (tables.even, tables.odd)]), axis=-1)


def tagged(pack, rows):
    """A stack's constants for Newton, one row per row of a ``rows``-row
    stack, with the row's id as a last column: the kernels read only the
    first three columns, and a test's wrapper reads the ids of the rows
    Newton passes it from the rows of its pack."""
    return np.column_stack([np.broadcast_to(pack, (rows, 3)), np.arange(rows)])


def row_ids(pack):
    """The row ids of a :func:`tagged` pack's rows."""
    return pack[:, -1].astype(int)


def stacked_seeds(n, g, jbar):
    """The solver's seed magnitudes of superradiant points (g, jbar) of one
    lattice size, from the g_c and near-critical scale of their hoppings."""
    gc, scale, _ = meanfield._critical_couplings(n, jbar)
    return _seed_alphas(g, jbar, gc, scale)


def seed_alphas(point):
    """The solver's start of a superradiant point as a full configuration:
    the uniform closed form, else the canonical frustrated pattern with its
    unpaired site doubled, at the seed magnitude."""
    (magnitude,) = stacked_seeds(point.n_sites, np.array([point.g]),
                                 np.array([point.jbar])).tolist()
    if point.jbar <= 0:
        return np.full(point.n_sites, magnitude)
    seed = magnitude * ring(point.n_sites).pattern
    seed[0] *= 2.0
    return seed


class TestClosedForms:
    @pytest.mark.parametrize("n", range(3, 22, 2))
    def test_near_critical_magnitude_keeps_the_bits_of_both_former_copies(self, n):
        # the solver's seed wrote it with math.sqrt, the oracle's scale with
        # np.sqrt of |g - g_c|; both round correctly, so all three agree
        _, hi = stability_window(n)
        for jbar in np.linspace(0.0, hi, 13)[1:-1].tolist() + [1e-6, float(np.nextafter(hi, 0))]:
            gc = critical_point(jbar, n)
            grid = [gc * (1.0 + reduced) for reduced in np.logspace(-9, 0, 37).tolist()]
            stacked = stacked_seeds(n, np.array(grid), np.full(len(grid), jbar))
            for g, seed in zip(grid, stacked.tolist()):
                magnitude = _near_critical_magnitude(g, gc)
                assert magnitude.hex() == (
                    math.sqrt(g - gc) / (math.sqrt(3.0) * gc ** 1.5)).hex()
                assert magnitude.hex() == float(
                    np.sqrt(abs(g - gc)) / (np.sqrt(3.0) * gc ** 1.5)).hex()
                assert seed.hex() == magnitude.hex()

    def test_nfsp_vanishes_at_threshold(self):
        gc = critical_point(-0.01, 3)
        assert nfsp_closed_form(gc, -0.01) == 0.0

    def test_nfsp_is_stationary(self):
        mag = nfsp_closed_form(1.05, -0.01)
        grad = energy_gradient(np.full(3, mag), 1.05, -0.01)
        assert np.max(np.abs(grad)) < 1e-12

    def test_nfsp_decoupled_limit(self):
        g = 1.2
        single_site = np.sqrt(g * g - 1.0 / (g * g)) / 2.0
        assert nfsp_closed_form(g, -1e-12) == pytest.approx(single_site, rel=1e-9)

    def test_nfsp_domain(self):
        with pytest.raises(DomainError):
            nfsp_closed_form(1.2, +0.01)
        with pytest.raises(DomainError):
            nfsp_closed_form(0.5, -0.01)

    def test_fsp_approximation_vanishes_at_threshold(self):
        gc = critical_point(0.01, 3)
        assert fsp_approximation(gc, 0.01) == (0.0, 0.0)

    def test_fsp_leading_ratio(self):
        # leading coefficients -2/sqrt(3) vs 1/sqrt(3): ratio -> -2 at threshold
        gc = critical_point(0.01, 3)
        a1, pair = fsp_approximation(gc + 1e-8, 0.01)
        assert a1 / pair == pytest.approx(-2.0, abs=1e-3)

    def test_fsp_approximation_domain(self):
        with pytest.raises(DomainError):
            fsp_approximation(1.1, -0.01)
        with pytest.raises(DomainError):
            fsp_approximation(0.5, 0.01)


class TestSolveGroundState:
    def test_normal_phase_below_threshold(self):
        gc = critical_point(0.01, 3)
        sol = solve_ground_state(params(0.01, 0.9 * gc))
        assert sol.phase is Phase.NORMAL
        assert sol.degeneracy == 1
        assert_allclose(sol.config.alphas, 0.0)
        assert_allclose(sol.config.thetas, np.pi)
        assert sol.config.energy == pytest.approx(-1.5)

    def test_nfsp_uniform_solution(self):
        gc = critical_point(-0.01, 3)
        g = 1.02 * gc
        sol = solve_ground_state(params(-0.01, g))
        assert sol.phase is Phase.NFSP
        assert sol.degeneracy == 2
        expected = nfsp_closed_form(g, -0.01)
        assert_allclose(np.abs(sol.config.alphas), expected, atol=1e-12)
        assert np.ptp(sol.config.alphas) < 1e-12  # uniform across sites

    def test_fsp_structure_and_series_agreement(self):
        jbar = 0.01
        gc = critical_point(jbar, 3)
        g = gc + 0.001
        sol = solve_ground_state(params(jbar, g))
        a = sol.config.alphas
        assert sol.phase is Phase.FSP
        assert sol.degeneracy == 6
        assert a[0] < 0 < a[1]
        assert a[1] == a[2]  # mirror pair exactly equal: Newton runs with pairs locked
        approx1, approx_pair = fsp_approximation(g, jbar)
        assert abs((a[0] - approx1) / a[0]) < 0.05
        assert abs((a[1] - approx_pair) / a[1]) < 0.05

    def test_fsp_canonical_representative(self):
        sol = solve_ground_state(params(0.05, 1.05))
        a = sol.config.alphas
        assert a[0] < 0 <= a[1]

    def test_solution_is_verified_stationary_minimum(self):
        for jbar, g, n in ((0.01, 1.01, 3), (0.02, 1.03, 5), (-0.05, 1.1, 3),
                           (0.3, 1.2, 7)):
            sol = solve_ground_state(params(jbar, g, n))
            grad = energy_gradient(sol.config.alphas, g, jbar)
            assert np.max(np.abs(grad)) < 1e-10
            eig = np.linalg.eigvalsh(energy_hessian(sol.config.alphas, g, jbar))
            assert eig.min() > -1e-9

    def test_fsp_mirror_pairing_general(self):
        for n in (5, 7):
            sol = solve_ground_state(params(0.01, 1.005, n))
            a = sol.config.alphas
            for j in range(1, (n - 1) // 2 + 1):
                assert a[j] == a[n - j]

    def test_jbar_zero_superradiant_is_rejected(self):
        with pytest.raises(ValidationError):
            solve_ground_state(params(0.0, 1.2))

    def test_jbar_zero_normal_is_fine(self):
        sol = solve_ground_state(params(0.0, 0.8))
        assert sol.phase is Phase.NORMAL

    def test_phase_is_a_function_of_g_and_jbar(self):
        # at g_c, 1 to 6 doubles either side of it and reduced couplings up
        # to 1e8, a solved row is normal exactly at g <= g_c and above it
        # uniform or frustrated by the sign of jbar; at jbar = 0 above 1 no
        # row has a phase.  The one other failure, N = 21 at jbar 1e-5 and
        # reduced 1e-6, is the near-critical stall of small positive hopping
        reduced = np.array([-0.5, 1e-12, 1e-6, 1e-2, 1.0, 1e4, 1e8])
        for n, jbar in itertools.product((3, 5, 7, 9, 21),
                                         (-0.49, -0.01, -1e-5, 0.0, 1e-5, 0.01, 0.45)):
            gc = critical_point(jbar, n)
            below, above = [gc], [gc]
            for _ in range(6):
                below.append(np.nextafter(below[-1], 0.0))
                above.append(np.nextafter(above[-1], np.inf))
            g = np.concatenate([below, above[1:], gc * (1.0 + reduced)])
            states = _solve_stack(n, g, np.full(len(g), jbar))
            superradiant = Phase.FSP if jbar > 0 else Phase.NFSP if jbar < 0 else None
            for g_i, phase, error in zip(g.tolist(), states.phases, states.errors):
                if error is None:
                    assert phase is (Phase.NORMAL if g_i <= gc else superradiant)
                elif jbar == 0:
                    assert g_i > 1.0 and type(error) is ValidationError
                    assert str(error) == str(meanfield._UNCLASSIFIED)
                else:
                    assert (n, jbar, g_i) == (21, 1e-5, gc * (1.0 + 1e-6))
                    assert str(error).startswith("stationarity residual")

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_oracle_at_jbar_zero_decides_before_any_newton(self, n, monkeypatch):
        # above g = 1 the oracle refuses the point as the solver does, with
        # no Newton run; at g <= 1 it still certifies the origin, one row each
        real, rows = meanfield._newton_minimize, []

        def counted(fun, jac, hess_fn, x0, consts):
            rows.append(len(x0))
            return real(fun, jac, hess_fn, x0, consts)

        monkeypatch.setattr(meanfield, "_newton_minimize", counted)
        exhaustive = SolverOptions(seed_mode="exhaustive")
        for g in (np.nextafter(1.0, 2.0), 1.2, 1e3):
            with pytest.raises(ValidationError) as caught:
                enumerate_degenerate_ground_states(params(0.0, g, n), exhaustive)
            assert str(caught.value) == str(meanfield._UNCLASSIFIED)
        assert rows == []
        for g in (0.5, 1.0):
            (member,) = enumerate_degenerate_ground_states(params(0.0, g, n), exhaustive)
            assert member.alphas.tobytes() == np.zeros(n).tobytes()
        assert rows == [1, 1]

    def test_just_below_threshold_is_normal(self):
        gc = critical_point(0.01, 3)
        sol = solve_ground_state(params(0.01, gc - 1e-9))
        assert sol.phase is Phase.NORMAL

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("jbar", [-0.01, 0.01])
    @pytest.mark.parametrize("dg", [3e-8, 1e-7, 9e-7])
    def test_superradiant_just_above_threshold(self, n, jbar, dg):
        # the landscape is nearly flat here, yet the same Newton path must
        # return a converged, exactly structured global minimum
        gc = critical_point(jbar, n)
        p = params(jbar, gc + dg, n)
        sol = solve_ground_state(p)
        assert sol.phase is (Phase.NFSP if jbar < 0 else Phase.FSP)
        assert sol.converged and sol.grad_norm <= SOLUTION_GRAD_TOL
        a = sol.config.alphas
        if jbar > 0:
            assert a[0] < 0 <= a[1]
            for j in range(1, (n - 1) // 2 + 1):
                assert a[j] == a[n - j]
        # the oracle finds the solver's manifold, member for member
        members = enumerate_degenerate_ground_states(p, SolverOptions(seed_mode="exhaustive"))
        orbit = enumerate_degenerate_ground_states(sol)
        assert len(members) == len(orbit) == sol.degeneracy
        for member in members:
            assert min(np.abs(member.alphas - o.alphas).max() for o in orbit) < MATCH_TOL

    @pytest.mark.parametrize("n, jbar, reduced", [
        (5, -0.01, 3e-8), (7, -0.3, 1e-9), (5, -0.001, 3e-8), (9, -0.1, 1e-9)])
    def test_uniform_oracle_near_threshold_returns_the_solver_pair(self, n, jbar, reduced):
        # the orbit rows stall here at uniform states up to 40 % smaller,
        # inside SOLUTION_GRAD_TOL and within eps of the minimum energy, and
        # were counted as members (4, 4, 12 and 6 of them); the lower bound
        # certifies the one candidate row instead
        p = params(jbar, critical_point(jbar, n) * (1 + reduced), n)
        a = solve_ground_state(p).config.alphas
        members = enumerate_degenerate_ground_states(p, SolverOptions(seed_mode="exhaustive"))
        assert len(members) == 2  # in orbit order: the all -1 candidate's, then its flip
        assert np.abs(members[0].alphas + a).max() < MATCH_TOL
        assert np.abs(members[1].alphas - a).max() < MATCH_TOL

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("jbar", [-0.01, 0.01])
    @pytest.mark.parametrize("reduced", [-0.5, -1e-6])
    def test_oracle_below_threshold_returns_the_origin(self, n, jbar, reduced):
        # the orbit rows stopped up to 1.7e-11 off the origin
        p = params(jbar, critical_point(jbar, n) * (1 + reduced), n)
        (member,) = enumerate_degenerate_ground_states(p, SolverOptions(seed_mode="exhaustive"))
        assert member.alphas.tobytes() == solve_ground_state(p).config.alphas.tobytes()
        assert member.alphas.tobytes() == np.zeros(n).tobytes()

    @pytest.mark.parametrize("n, jbar, reduced, phase", [
        (3, -0.01, 1e-12, Phase.NFSP), (3, -0.01, 1e-11, Phase.NFSP),
        (3, -0.01, 1e-10, Phase.NFSP), (9, 0.4, 1e-9, Phase.FSP)])
    def test_superradiant_within_1e_9_of_threshold(self, n, jbar, reduced, phase):
        # the origin is stationary here and passes the PSD tolerance, so
        # only an unseeded origin keeps these points superradiant
        gc = critical_point(jbar, n)
        assert solve_ground_state(params(jbar, gc * (1 + reduced), n)).phase is phase

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("jbar", [-0.3, -0.01, 0.0, 0.01, 0.3])
    def test_seeds_only_the_orbits_that_can_hold_the_minimum(self, n, jbar):
        # one seed per point, on either side of sqrt(1 + 2 jbar), where the
        # uniform state begins to exist: the uniform closed form for
        # jbar <= 0, else the canonical frustrated pattern at its
        # near-critical magnitude with the unpaired site doubled
        gc = critical_point(jbar, n)
        uniform_from = np.sqrt(1 + 2 * jbar)
        for g in (gc * (1 + 1e-6), gc * 1.1, uniform_from * 1.1):
            seed = seed_alphas(params(jbar, g, n))
            assert seed.shape == (n,) and np.all(seed != 0)
            if jbar <= 0:
                assert np.array_equal(seed, np.full(n, nfsp_closed_form(g, jbar)))
                continue
            assert np.array_equal(np.sign(seed), ring(n).pattern)
            magnitude = np.abs(seed)
            assert np.all(magnitude[1:] == _near_critical_magnitude(g, gc))
            assert magnitude[0] == 2 * magnitude[1]

    def test_uniformity_property_negative_hopping(self):
        # energy lower bound argument: the minimizer is uniform for jbar < 0
        rng = np.random.default_rng(2)
        for _ in range(5):
            jbar = rng.uniform(-0.45, -0.005)
            gc = critical_point(jbar, 3)
            g = gc * rng.uniform(1.01, 1.4)
            sol = solve_ground_state(params(jbar, g))
            assert np.ptp(sol.config.alphas) < 1e-10

    def test_fsp_pair_equality_and_positive_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            jbar = rng.uniform(0.005, 0.4)
            gc = critical_point(jbar, 3)
            g = gc * rng.uniform(1.001, 1.2)
            sol = solve_ground_state(params(jbar, g))
            a = sol.config.alphas
            assert a[1] == a[2]
            assert a.sum() > 0

    def test_energy_continuity_in_g(self):
        jbar = 0.01
        gc = critical_point(jbar, 3)
        gs = np.linspace(gc - 0.02, gc + 0.02, 81)
        energies = np.array([solve_ground_state(params(jbar, g)).config.energy
                             for g in gs])
        steps = np.abs(np.diff(energies))
        assert steps.max() < 5e-3  # no jumps at the grid scale
        assert np.all(np.diff(energies) <= 1e-14)  # monotone non-increasing


class TestSaddle:
    def test_saddle_is_stationary_with_one_negative_direction(self):
        g, jbar = 1.05, 0.05
        saddle = saddle_configuration(g, jbar)
        assert np.max(np.abs(energy_gradient(saddle.alphas, g, jbar))) < 1e-10
        eig = np.linalg.eigvalsh(energy_hessian(saddle.alphas, g, jbar))
        assert eig[0] < -1e-6
        assert eig[1] > 1e-6 and eig[2] > 1e-6

    def test_saddle_degenerates_to_origin_at_threshold(self):
        jbar = 0.05
        gc = critical_point(jbar, 3)
        saddle = saddle_configuration(gc + 1e-13, jbar)
        assert np.max(np.abs(saddle.alphas)) < 1e-5

    def test_saddle_never_returned_by_solver(self):
        g, jbar = 1.05, 0.05
        saddle = saddle_configuration(g, jbar)
        sol = solve_ground_state(params(jbar, g))
        assert sol.config.energy < saddle.energy - 1e-6

    def test_saddle_domain(self):
        with pytest.raises(DomainError):
            saddle_configuration(0.9, 0.05)
        with pytest.raises(DomainError):
            saddle_configuration(1.1, -0.05)


class TestDegenerateManifold:
    def test_fsp_trimer_six_fold(self):
        members = enumerate_degenerate_ground_states(params(0.01, 1.01))
        assert len(members) == 6
        energies = [m.energy for m in members]
        assert np.ptp(energies) < 1e-10
        distinct = {tuple(np.round(m.alphas, 10)) for m in members}
        assert len(distinct) == 6

    def test_nfsp_two_fold(self):
        members = enumerate_degenerate_ground_states(params(-0.01, 1.05))
        assert len(members) == 2
        assert_allclose(members[0].alphas, -members[1].alphas, atol=1e-14)

    def test_fsp_five_sites_ten_fold(self):
        members = enumerate_degenerate_ground_states(params(0.01, 1.01, 5))
        assert len(members) == 10

    def test_normal_single(self):
        members = enumerate_degenerate_ground_states(params(0.01, 0.5))
        assert len(members) == 1

    def test_exhaustive_matches_orbit_counts(self):
        opts = SolverOptions(seed_mode="exhaustive")
        gc3 = critical_point(0.01, 3)
        found = enumerate_degenerate_ground_states(params(0.01, 1.01 * gc3), opts)
        assert len(found) == 6
        found_nfsp = enumerate_degenerate_ground_states(params(-0.01, 1.05), opts)
        assert len(found_nfsp) == 2

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("jbar, factor", [(0.01, 1.01), (-0.01, 1.01), (0.01, 0.5)])
    def test_exhaustive_mode_runs_no_orbit_solve(self, monkeypatch, n, jbar, factor):
        def refuse(*args, **kwargs):
            raise AssertionError("exhaustive mode must not call solve_ground_state")

        # the one-point solve is the stacked entry on a stack of one, so
        # both entries are refused; the orbit search, the certified uniform
        # candidate and the certified origin
        monkeypatch.setattr("frustra.meanfield.solve_ground_state", refuse)
        monkeypatch.setattr("frustra.meanfield.solve_ground_states", refuse)
        gc = critical_point(jbar, n)
        found = enumerate_degenerate_ground_states(
            params(jbar, factor * gc, n), SolverOptions(seed_mode="exhaustive"))
        assert len(found) == (1 if factor < 1 else 2 if jbar < 0 else 2 * n)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_a_missed_bound_falls_back_to_the_same_members(self, monkeypatch, n):
        # the certificate's slack decides the route, never the answer: with
        # the bound out of reach the orbit search runs after the candidate
        # and returns the certified members bit for bit
        opts = SolverOptions(seed_mode="exhaustive")
        points = [params(jbar, critical_point(jbar, n) * (1 + reduced), n)
                  for jbar in (-0.3, -0.01) for reduced in (1e-6, 1e-2, 1.0)]
        certified = [enumerate_degenerate_ground_states(p, opts) for p in points]
        newton, stacks = meanfield._newton_minimize, []

        def spy(fun, jac, hess_fn, x0, consts):
            stacks.append(len(x0))
            return newton(fun, jac, hess_fn, x0, consts)

        monkeypatch.setattr(meanfield, "_newton_minimize", spy)
        monkeypatch.setattr(meanfield, "_spectral_lower_bound", lambda g, jbar, n: -math.inf)
        for p, members in zip(points, certified):
            stacks.clear()
            fallback = enumerate_degenerate_ground_states(p, opts)
            assert stacks == [1, len(orbit_patterns(n))]
            assert [m.alphas.tobytes() for m in fallback] == [m.alphas.tobytes() for m in members]

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_cancelling_terms_keep_the_certified_route(self, monkeypatch, n):
        # at jbar -0.49 the energy's terms nearly cancel, so |E| is far below
        # the sum of their magnitudes, which sets its rounding: measured in
        # that sum the uniform minima meet the bound and run no orbit search,
        # and their members are the fallback's bit for bit
        opts = SolverOptions(seed_mode="exhaustive")
        points = [params(-0.49, critical_point(-0.49, n) * (1 + reduced), n)
                  for reduced in (0.1, 10.0, 100.0)]

        def refuse(n_sites):
            raise AssertionError("the orbit search ran")

        with monkeypatch.context() as patch:
            patch.setattr(meanfield, "orbit_patterns", refuse)
            certified = [enumerate_degenerate_ground_states(p, opts) for p in points]
        monkeypatch.setattr(meanfield, "_spectral_lower_bound", lambda g, jbar, n: -math.inf)
        for p, members in zip(points, certified):
            fallback = enumerate_degenerate_ground_states(p, opts)
            assert [m.alphas.tobytes() for m in fallback] == [m.alphas.tobytes() for m in members]

    def test_exhaustive_counts_each_minimum_once_near_threshold(self):
        # the mirror-odd direction is nearly flat here, so unpolished copies
        # of one minimum stop more than MATCH_TOL apart
        assert MATCH_TOL <= 1e-8 and ENERGY_TOL <= 1e-10
        gc = critical_point(0.0096, 7)
        found = enumerate_degenerate_ground_states(
            params(0.0096, gc * (1 + 7.8e-5), 7), SolverOptions(seed_mode="exhaustive"))
        assert len(found) == 14
        energies = [m.energy for m in found]
        assert np.ptp(energies) <= ENERGY_TOL

    def test_exhaustive_keeps_only_solver_stationary_members(self):
        # members must meet the solver's own acceptance, SOLUTION_GRAD_TOL
        # (its rounding floor lies below it here); an absolute 1e-8 let ten
        # stalled runs into this two-fold tier
        jbar, n = -0.01, 5
        g = critical_point(jbar, n) + 1e-7
        found = enumerate_degenerate_ground_states(
            params(jbar, g, n), SolverOptions(seed_mode="exhaustive"))
        assert len(found) == 2
        for member in found:
            assert np.max(np.abs(energy_gradient(member.alphas, g, jbar))) <= SOLUTION_GRAD_TOL

    @pytest.mark.parametrize("n, jbar, g", [
        (3, 0.2, 1e6), (5, 0.2, 1e6), (7, 0.2, 1e6),
        (7, 0.45, critical_point(0.45, 7) * (1 + 1e8))])
    def test_exhaustive_oracle_at_strong_coupling(self, n, jbar, g):
        # |alpha| ~ g/2 lifts the gradient's rounding floor above
        # SOLUTION_GRAD_TOL and spreads copies of one minimum beyond an
        # absolute MATCH_TOL: the oracle judges stationarity by the solver's
        # rule and matches at MATCH_TOL times the tier's scale, and returns
        # the symmetry orbit, each member within 4 eps of it relative
        point = params(jbar, g, n)
        orbit = np.array([m.alphas for m in enumerate_degenerate_ground_states(point)])
        found = np.array([m.alphas for m in enumerate_degenerate_ground_states(
            point, SolverOptions(seed_mode="exhaustive"))])
        assert len(found) == len(orbit) == 2 * n
        distance = np.abs(found[:, None] - orbit[None]).max(axis=-1)
        scale = 4 * EPS * np.abs(orbit).max()
        assert distance.min(axis=0).max() <= scale and distance.min(axis=1).max() <= scale

    def test_saddle_free_steps_bound_the_oracle_line_search(self, monkeypatch):
        # N = 7 cold points: the oracle's rows pass through the indefinite
        # region near the origin.  Stepping with |w| there takes 719 energy
        # evaluations in all; the minimal shift w + |w_min| took 1167.
        points = [(0.001, 1e-3), (0.003, 5e-2), (0.01, 2e-3), (0.02, 2e-2),
                  (0.05, 5e-3), (0.08, 3e-2), (0.12, 1e-3), (0.2, 1e-2)]
        evaluations = []
        newton = meanfield._newton_minimize

        def counted(fun, jac, hess_fn, x0, consts):
            def fun_counted(a, pack):
                evaluations.append(len(pack))
                return fun(a, pack)
            return newton(fun_counted, jac, hess_fn, x0, consts)

        monkeypatch.setattr(meanfield, "_newton_minimize", counted)
        for jbar, reduced in points:
            gc = critical_point(jbar, 7)
            found = enumerate_degenerate_ground_states(
                params(jbar, gc * (1 + reduced), 7), SolverOptions(seed_mode="exhaustive"))
            assert len(found) == 14
        assert sum(evaluations) <= 900


class TestOrbitPatterns:
    @pytest.mark.parametrize("n, orbits", [(3, 2), (5, 4), (7, 10), (9, 30)])
    def test_one_pattern_per_rotation_flip_orbit(self, n, orbits):
        assert np.shape(orbit_patterns(n)) == (orbits, n)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_every_pattern_lies_in_exactly_one_orbit(self, n):
        orbits = [set(map(tuple, group_images(np.array(pattern))))
                  for pattern in orbit_patterns(n)]
        for pattern, orbit in zip(orbit_patterns(n), orbits):
            assert tuple(pattern) == min(orbit)  # the lexicographically first
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            assert sum(signs in orbit for orbit in orbits) == 1

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_integer_codes_give_the_least_tuple_of_each_orbit(self, n):
        # the set-of-tuples definition: each pattern's least group image
        expected = tuple(sorted({min(map(tuple, group_images(np.array(signs))))
                                 for signs in itertools.product((-1.0, 1.0), repeat=n)}))
        assert orbit_patterns(n) == expected

    @pytest.mark.parametrize("n", range(3, 20, 2))
    def test_orbit_count_is_the_necklace_count(self, n):
        # binary necklaces under rotation and complement, n odd:
        # (2^n + sum over divisors d > 1 of phi(d) 2^(n/d)) / (2n)
        def phi(d):
            return sum(math.gcd(d, k) == 1 for k in range(1, d + 1))

        count = (2 ** n + sum(phi(d) * 2 ** (n // d)
                              for d in range(2, n + 1) if n % d == 0)) // (2 * n)
        assert len(orbit_patterns(n)) == count
        assert n != 19 or count == 13798

    def test_group_images_are_the_rotations_and_flips(self):
        alphas = np.array([-0.3, 0.1, 0.2, 0.1, 0.4])
        expected = [flip * np.roll(alphas, shift) for flip in (1.0, -1.0) for shift in range(5)]
        assert np.array_equal(group_images(alphas), expected)


def _origin_only_at(g_bad):
    """_seed_alphas with the one point at g_bad seeded from the origin
    alone: a saddle there, so no seed passes the PSD filter."""
    def seeds(g, jbar, *critical):
        return np.where(g == g_bad, 0.0, _seed_alphas(g, jbar, *critical))
    return seeds


class TestDerivedSolutionFields:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_degeneracy_follows_phase_and_size(self, n):
        config = MeanFieldConfiguration(np.zeros(n), 1.0, 0.01)
        assert [GroundStateSolution(config, phase, 0.0, params(0.01, 1.0, n)).degeneracy
                for phase in (Phase.NORMAL, Phase.NFSP, Phase.FSP)] == [1, 2, 2 * n]

    def test_converged_is_the_residual_within_tolerance(self):
        # a solution is built only with a residual that converged accepts;
        # any other, NaN included, raises the solver's ConvergenceError
        config = MeanFieldConfiguration(np.zeros(3), 0.5, 0.01)
        for grad_norm in (0.0, SOLUTION_GRAD_TOL):
            assert GroundStateSolution(config, Phase.NORMAL, grad_norm,
                                       params(0.01, 0.5)).converged is True
        for grad_norm in (np.nextafter(SOLUTION_GRAD_TOL, 1.0), 1e-3, np.nan):
            with pytest.raises(ConvergenceError, match="stationarity residual") as caught:
                GroundStateSolution(config, Phase.NORMAL, grad_norm, params(0.01, 0.5))
            assert np.array_equal(caught.value.best_residual, grad_norm, equal_nan=True)

    def test_rejects_params_of_another_lattice_point(self):
        # a solution records the point it minimizes: its configuration's
        # coupling, hopping and size must be those of params
        sol = solve_ground_state(params(0.01, 1.1, 5))
        for other in (params(0.01, 1.2, 5), params(0.02, 1.1, 5), params(0.01, 1.1, 7)):
            with pytest.raises(ValidationError, match="another lattice point"):
                GroundStateSolution(sol.config, sol.phase, sol.grad_norm, other)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_frustrated_winners_need_only_a_sign_flip(self, n, monkeypatch):
        # every winner of the mirror-reduced stack has its unpaired site at
        # site 1 already, so the canonical frame of the raw winner has shift
        # 0, and the returned solution is canonical; the frames of the whole
        # stack are checked in one call
        frames = []

        def spy(alphas):
            frames.append(_canonical_frames(alphas))
            return frames[-1]

        monkeypatch.setattr(meanfield, "_canonical_frames", spy)
        points = [ModelParams(1.0, 1.0, jbar, critical_point(jbar, n) * (1 + r), n)
                  for jbar in (0.01, 0.3) for r in np.logspace(-7, np.log10(0.3), 14)]
        outcomes = solve_ground_states(points)
        assert all(solution.phase is Phase.FSP for solution in outcomes)
        ((shifts, _, errors),) = frames
        assert len(shifts) == len(points) and not errors
        assert set(shifts) == {0}
        shifts, signs, errors = _canonical_frames(
            np.array([solution.config.alphas for solution in outcomes]))
        assert set(shifts) == {0} and set(signs.tolist()) == {1.0} and not errors

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_canonical_solution_flips_a_positive_unpaired_site(self, n):
        # the raw winners never have alpha_1 > 0, so hand it the mirror-
        # symmetric frustrated minimizer with its sign flipped
        p = params(0.01, 1.01 * critical_point(0.01, n), n)
        solution = solve_ground_state(p)
        assert solution.phase is Phase.FSP
        flipped = -solution.config.alphas
        assert flipped[0] > 0
        (a,), errors = _canonical(flipped[None], np.array([solution.grad_norm]),
                                  np.array([SOLUTION_GRAD_TOL]), np.array([0]))
        assert not errors
        assert a[0] < 0 <= a[1]
        assert np.array_equal(a, solution.config.alphas)
        # the record's spectrum is kept over the flip: the flipped
        # configuration has the canonical one's, bit for bit
        spectrum = sector_spectra(energy_hessian(flipped, p.g, p.jbar)[None])[0]
        assert spectrum.tobytes() == point_spectrum(p).tobytes()


class TestGradientTolerance:
    """Stationarity is judged against SOLUTION_GRAD_TOL, or against the
    rounding floor of the gradient's terms where that is larger."""

    @staticmethod
    def term_sum(a, g, jbar):
        """Per site |2 a_n| + |2 jbar (a_{n-1} + a_{n+1})|
        + |2 g^2 a_n / sqrt(1 + 4 g^2 a_n^2)|."""
        return (np.abs(2.0 * a)
                + np.abs(2.0 * jbar * (np.roll(a, 1, axis=-1) + np.roll(a, -1, axis=-1)))
                + np.abs(2.0 * g * g * a / np.sqrt(1.0 + 4.0 * g * g * a * a)))

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_the_bound_wherever_the_floor_lies_below_it(self, n):
        rng = np.random.default_rng(n)
        for bound in (SOLUTION_GRAD_TOL, 1e-6):
            for g, jbar in itertools.product((0.5, 1.01, 30.0, 1e5, 1e9, 1e40),
                                             (-0.49, -0.01, 0.0, 0.01, 0.3)):
                a = rng.normal(size=(6, n)) * g / 2.0 * np.logspace(-12, 0, 6)[:, None]
                floor = 4.0 * EPS * self.term_sum(a, g, jbar).max(axis=-1)
                tolerance = meanfield._gradient_tolerance(a, g, jbar, bound)
                assert np.array_equal(tolerance, np.where(floor < bound, bound, floor))
                # one value per row, or scalars: the same bits
                per_row = meanfield._gradient_tolerance(a, np.full(6, g), np.full(6, jbar), bound)
                assert per_row.tobytes() == tolerance.tobytes()
                for row, expected in zip(a, tolerance.tolist()):
                    assert meanfield._gradient_tolerance(row, g, jbar, bound) == expected

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_near_critical_floor_is_far_below_the_absolute_bound(self, n):
        # so every decision near g_c is the absolute bound's
        for jbar in (-0.3, -0.01, 0.01, 0.3):
            gc = critical_point(jbar, n)
            for reduced in (1e-9, 1e-4, 1e-2, 1.0):
                sol = solve_ground_state(params(jbar, gc * (1 + reduced), n))
                a = sol.config.alphas
                assert 4.0 * EPS * self.term_sum(a, sol.config.g, jbar).max() < 1e-3 * (
                    SOLUTION_GRAD_TOL)

    @pytest.mark.parametrize("jbar, g", [(-0.01, 1e10), (0.01, 1e10), (-0.3, 1e7)])
    def test_a_solution_above_the_absolute_bound_meets_its_raised_floor(self, jbar, g):
        # the residual of a strong-coupling solution exceeds SOLUTION_GRAD_TOL
        # and stays within the floor; a residual just past the floor is
        # refused with an error that names the floor
        sol = solve_ground_state(params(jbar, g, 5))
        tolerance = meanfield._gradient_tolerance(sol.config.alphas, g, jbar, SOLUTION_GRAD_TOL)
        assert SOLUTION_GRAD_TOL < sol.grad_norm <= tolerance and sol.converged
        assert GroundStateSolution(sol.config, sol.phase, tolerance, sol.params).converged
        past = np.nextafter(tolerance, np.inf)
        with pytest.raises(ConvergenceError) as caught:
            GroundStateSolution(sol.config, sol.phase, past, sol.params)
        assert str(caught.value) == f"stationarity residual {past:.2e} above {tolerance:.3g}"
        assert caught.value.best_residual == past

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_uniform_points_are_their_closed_form_up_to_1e76(self, n):
        # two couplings a decade from 10^0.5 to 10^76: each uniform point
        # solves with its closed form on every site, bit for bit, or raises
        # DomainError where (g/g_c)^4 overflows
        g = 10.0 ** (np.arange(1, 153) / 2.0)
        for jbar in (-0.49, -0.01):
            states = _solve_stack(n, g, np.full(len(g), jbar))
            for g_i, alphas, phase, error in zip(g.tolist(), states.alphas, states.phases,
                                                 states.errors):
                if error is not None:
                    assert isinstance(error, DomainError)
                    continue
                magnitude = meanfield._uniform_magnitude(g_i, jbar)
                assert phase is Phase.NFSP
                assert alphas.tobytes() == np.full(n, magnitude).tobytes()
            assert states.solved.all()

    def test_the_strong_coupling_grid_solves(self):
        # 57 log-spaced couplings from 1.5 to 1e8 at N = 3, 5, 7, 9 and five
        # hoppings: the absolute bound alone failed 164 of these 1140 points,
        # the first at g = 8.4e4, where |alpha| reaches 4e4
        g = np.logspace(np.log10(1.5), 8, 57)
        for n, jbar in itertools.product((3, 5, 7, 9), (-0.3, -0.01, 0.01, 0.2, 0.5)):
            states = _solve_stack(n, g, np.full(len(g), jbar))
            assert states.solved.all(), [str(e) for e in states.errors if e is not None][:3]
            assert set(states.phases.tolist()) == {Phase.NFSP if jbar < 0 else Phase.FSP}
            assert (states.hessian_eigenvalues[:, 0] >= PSD_TOLERANCE).all()


class TestStackedSeeds:
    """The solver's routes and seed magnitudes are decided over the stack's
    arrays; each point keeps the one-point formulas' bits and errors."""

    @staticmethod
    def one_point_seed(g, jbar, gc):
        """The seed magnitude of one point above gc by the one-point
        formulas, or the DomainError of its overflowing (g/g_c)^4."""
        try:
            uniform = meanfield._uniform_magnitude(g, jbar)
        except DomainError as exc:
            return exc
        return uniform if jbar <= 0 else _near_critical_magnitude(g, gc)

    @pytest.mark.parametrize("n", [3, 5, 7, 21])
    def test_seed_magnitudes_are_the_one_point_bits(self, n):
        # couplings 1 to 6 ulps above g_c, g_c (1 + r) for r from 1e-16 to
        # 1e8, and about the coupling where the uniform (g/g_c)^4 overflows,
        # (largest double)^(1/4) times the uniform g_c, with its ulps: a value
        # keeps its bits, and an overflowing point reads inf at either sign
        _, hi = stability_window(n)
        for jbar in (-0.49, -0.01, -1e-5, 0.0, 1e-5, 0.01, 0.45, float(np.nextafter(hi, 0))):
            gc = critical_point(jbar, n)
            edge = float(np.finfo(float).max) ** 0.25 * math.sqrt(1.0 + 2.0 * jbar)
            grid = [gc]
            for _ in range(6):
                grid.append(float(np.nextafter(grid[-1], np.inf)))
            grid = grid[1:] + [gc * (1.0 + r) for r in np.logspace(-16, 8, 25).tolist()]
            grid += [edge * f for f in (0.5, 0.99, 1.0, 1.01, 2.0)] + [1e77, 1e300]
            for f in (-2.0, -1.0, 1.0, 2.0):
                grid.append(float(edge + f * np.spacing(edge)))
            grid = [g for g in grid if g > gc]
            stacked = stacked_seeds(n, np.array(grid), np.full(len(grid), jbar))
            overflowed = 0
            for g, seed in zip(grid, stacked.tolist()):
                expected = self.one_point_seed(g, jbar, gc)
                if isinstance(expected, DomainError):
                    overflowed += 1
                    assert seed == math.inf, (g, jbar)
                else:
                    assert seed.hex() == expected.hex(), (g, jbar)
            assert 0 < overflowed < len(grid)

    def test_overflow_and_unclassified_points_keep_their_errors(self):
        # the stack's errors by point, in the order a point meets them: an
        # overflowing coupling is a DomainError at either sign of jbar, also
        # at jbar = 0, where a representable one has no phase
        n, g = 5, np.array([1e200, 1.5, 1e200, 1e200, 1.5, 1.2])
        jbar = np.array([0.01, 0.0, 0.0, -0.01, 0.01, -0.01])
        states = _solve_stack(n, g, jbar)
        assert [type(error).__name__ for error in states.errors] == [
            "DomainError", "ValidationError", "DomainError", "DomainError", "NoneType",
            "NoneType"]
        assert str(states.errors[0]) == (
            "coupling g=1e+200 too large: (g/g_c)^4 overflows double precision")
        assert states.errors[1] is not meanfield._UNCLASSIFIED

    def test_critical_coupling_is_worked_out_once_per_distinct_hopping(self, monkeypatch):
        # runs of equal hoppings, a hopping that comes back, two NaN hoppings
        # and one outside the window: one critical_point call per distinct
        # value (each NaN its own), and each failing point its own error
        calls, real = [], meanfield.critical_point

        def counted(jbar, n_sites):
            calls.append(jbar)
            return real(jbar, n_sites)

        monkeypatch.setattr(meanfield, "critical_point", counted)
        jbar = np.array([0.01, 0.01, -0.2, 0.01, np.nan, np.nan, 0.7, 0.7, 0.01])
        gc, scale, errors = meanfield._critical_couplings(5, jbar)
        assert [value for value in calls if value == value] == [0.01, -0.2, 0.7]
        assert len(calls) == 5
        assert gc.tolist()[:4] == [real(0.01, 5)] * 2 + [real(-0.2, 5), real(0.01, 5)]
        assert np.isnan(gc[4:8]).all() and gc[8] == real(0.01, 5)
        assert scale.tolist()[:4] == [math.sqrt(3.0) * value ** 1.5 for value in gc.tolist()[:4]]
        assert np.isnan(scale[4:8]).all()
        assert [type(error).__name__ for error in errors] == ["NoneType"] * 4 + [
            "ValidationError"] * 4 + ["NoneType"]
        assert errors[6] is not errors[7] and str(errors[6]) == str(errors[7])
        states = _solve_stack(5, np.full(len(jbar), 1.2), jbar)
        for i, j in enumerate(jbar.tolist()):
            if errors[i] is None:  # the one-point solve's bits
                alone = solve_ground_state(ModelParams(1.0, 1.0, j, 1.2, 5))
                assert states.alphas[i].tobytes() == alone.config.alphas.tobytes()
            else:
                assert type(states.errors[i]) is type(errors[i])
                assert str(states.errors[i]) == str(errors[i])


class TestStackedSolve:
    def test_stack_matches_one_point_solves(self):
        n = 5
        points = [params(jbar, critical_point(jbar, n) * (1 + side * reduced), n)
                  for jbar in (0.01, -0.01, 0.3)
                  for side in (-1, 1) for reduced in (1e-7, 1e-4, 1e-1)]
        for point, stacked in zip(points, solve_ground_states(points[::-1])[::-1]):
            alone = solve_ground_state(point)
            assert stacked.phase is alone.phase
            assert np.array_equal(stacked.config.alphas, alone.config.alphas)
            assert stacked.grad_norm == alone.grad_norm
            assert stacked.config.energy == alone.config.energy

    def test_failing_point_leaves_the_others_bitwise(self, monkeypatch):
        n = 5
        gc = critical_point(0.01, n)
        grid = [gc * (1 + reduced) for reduced in (1e-6, 1e-4, 1e-3, 1e-2)]
        points = [params(0.01, g, n) for g in grid]
        alone = [solve_ground_state(point) for point in points]
        monkeypatch.setattr(meanfield, "_seed_alphas", _origin_only_at(grid[1]))
        outcomes = solve_ground_states(points)
        assert isinstance(outcomes[1], ConvergenceError)
        with pytest.raises(ConvergenceError):
            solve_ground_state(points[1])
        for i in (0, 2, 3):
            assert np.array_equal(outcomes[i].config.alphas, alone[i].config.alphas)
            assert outcomes[i].grad_norm == alone[i].grad_norm

    def test_points_must_share_lattice_size(self):
        with pytest.raises(ValidationError):
            solve_ground_states([params(0.01, 1.1, 3), params(0.01, 1.1, 5)])

    def test_newton_isolates_failing_rows(self):
        # good rows on the mirror-reduced landscape, plus rows whose Hessian
        # is replaced: zero (singular endgame solve, which ends that row's
        # endgame), 1e-320 times the identity (a non-finite endgame step,
        # DomainError), NaN (a failing eigensolve, LinAlgError) and, with a
        # gradient of 1e300, 1e-320 times the identity again (a non-finite
        # first line-search trial, DomainError)
        n, jbar = 5, 0.01
        gc = critical_point(jbar, n)
        rows = [(gc * (1 + r), None) for r in (1e-6, 1e-3, 1e-1)]
        rows += [(gc * 1.01, 0.0), (gc * 1.02, 1e-320), (gc * 1.03, np.nan),
                 (gc * 1.04, 1e-320)]
        huge_gradient = 6
        m = (n + 1) // 2
        seeds = [seed_alphas(params(jbar, g, n))[:m] for g, _ in rows[:3]]
        seeds += [solve_ground_state(params(jbar, g, n)).config.alphas[:m] + 1e-9
                  for g, _ in rows[3:5]]
        seeds += [seed_alphas(params(jbar, g, n))[:m] for g, _ in rows[5:]]

        def run(picked):
            _, energy, grad, hess = _mirror_reduced(n)
            consts = tagged(_pack([rows[i][0] for i in picked], jbar), len(picked))

            def fun(y, pack):
                assert np.isfinite(y).all()  # a non-finite trial fails before it is read
                return energy(y, pack)

            def jac(y, pack):
                out = grad(y, pack)
                out[[picked[row] == huge_gradient for row in row_ids(pack)]] = 1e300
                return out

            def hess_fn(y, pack):
                out = hess(y, pack)
                for k, row in enumerate(row_ids(pack)):
                    scale = rows[picked[row]][1]
                    if scale is not None:
                        out[k] = scale * np.eye(m)
                return out
            with np.errstate(over="ignore", invalid="ignore"):  # the 1e309 step
                return _newton_minimize(fun, jac, hess_fn, np.array([seeds[i] for i in picked]),
                                        consts)

        x, norm, steps, failures = run(list(range(len(rows))))
        assert {row: type(exc) for row, exc in failures.items()} == {
            4: DomainError, 5: np.linalg.LinAlgError, huge_gradient: DomainError}
        assert steps[3, 1] == 0 and np.array_equal(x[3], seeds[3])
        assert not steps[huge_gradient].any()
        assert np.array_equal(x[huge_gradient], seeds[huge_gradient])
        for i in range(len(rows)):
            x1, norm1, steps1, failures1 = run([i])
            assert type(failures1.get(0)) is type(failures.get(i))
            if i not in failures:
                assert np.array_equal(x1[0], x[i])
                assert norm1[0] == norm[i] and np.array_equal(steps1[0], steps[i])

    @pytest.mark.parametrize("sector", [None, 0, 1])
    def test_failed_minimum_check_fails_only_its_point(self, monkeypatch, sector):
        # the solve's one eigensolve of the frustrated rows, in their mirror
        # sectors: a row whose eigensolve fails, as NaN input makes it, or
        # fails in one sector only (None: its Hessian NaN, else that sector
        # NaN, the rowwise gufunc's failure mark), gives its point
        # LinAlgError, and the other points of the stack keep their bits,
        # soft modes included
        n, jbar = 5, 0.01
        gc = critical_point(jbar, n)
        points = [params(jbar, gc * (1 + r), n) for r in (1e-4, 1e-3, 5e-3)]
        g, jbar = np.array([[p.g, p.jbar] for p in points]).T
        clean = _solve_stack(n, g, jbar)
        assert all(phase is Phase.FSP for phase in clean.phases)
        real, checked = meanfield._mirror_eigh, []

        def failing(hess):
            checked.append(len(hess))
            if sector is None:
                hess = hess.copy()
                hess[1] = np.nan
                return real(hess)
            sectors = [[array.copy() for array in pair] for pair in real(hess)]
            for array in sectors[sector]:
                array[1] = np.nan
            return sectors

        monkeypatch.setattr(meanfield, "_mirror_eigh", failing)
        states = _solve_stack(n, g, jbar)
        assert checked == [3]
        assert type(states.errors[1]) is np.linalg.LinAlgError
        assert str(states.errors[1]) == "Eigenvalues did not converge"
        assert np.isnan(states.soft_modes[1]).all()
        assert np.isnan(states.hessian_eigenvalues[1]).all()
        assert type(solve_ground_states(points)[1]) is np.linalg.LinAlgError
        for k in (0, 2):
            assert [states.alphas[k].tobytes(), states.grad_norm[k],
                    states.hessian_eigenvalues[k].tobytes(), states.soft_modes[k].tobytes()] == [
                clean.alphas[k].tobytes(), clean.grad_norm[k],
                clean.hessian_eigenvalues[k].tobytes(), clean.soft_modes[k].tobytes()]

    def test_failed_oracle_minimum_check_raises_linalg_error(self, monkeypatch):
        # the exhaustive oracle's PSD check: one failing row among its
        # stationary rows fails the call with LinAlgError
        point = params(0.01, critical_point(0.01, 5) * 1.01, 5)
        real, checked = meanfield._eigvalsh, []

        def failing(hess):
            checked.append(len(hess))
            hess = hess.copy()
            hess[-1] = np.nan
            return real(hess)

        monkeypatch.setattr(meanfield, "_eigvalsh", failing)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            enumerate_degenerate_ground_states(point, SolverOptions(seed_mode="exhaustive"))
        assert len(checked) == 1 and checked[0] > 1

    def test_indefinite_rows_step_with_absolute_curvature(self):
        # near the origin the landscape is indefinite, so the (-, -, +)
        # pattern at about half the oracle's seed magnitude (0.084) starts
        # with a negative Hessian eigenvalue; the solver's frustrated seed
        # starts positive definite
        point = params(0.05, critical_point(0.05, 3) * 1.02)
        g, jbar = point.g, point.jbar
        seeds = np.array([[-0.04, -0.04, 0.04], seed_alphas(point)])
        trials = []

        def run(x0):
            def fun(a, pack):
                trials.append((row_ids(pack), a.copy()))
                return rescaled_energy(a, g, jbar)
            return _newton_minimize(fun, lambda a, pack: energy_gradient(a, g, jbar),
                                    lambda a, pack: energy_hessian(a, g, jbar), x0,
                                    tagged(_pack(g, jbar), len(x0)))

        x, norm, steps, failures = run(seeds)
        assert not failures
        # the second evaluation is each row's first trial point, a full step
        first_ids, first_trial = trials[1]
        assert np.array_equal(first_ids, [0, 1])
        w, vecs = np.linalg.eigh(energy_hessian(seeds, g, jbar))
        assert w[0, 0] < 0 < w[1, 0]
        coeffs = np.einsum("rji,rj->ri", vecs, energy_gradient(seeds, g, jbar))
        assert_allclose(first_trial - seeds,
                        -np.einsum("rij,rj->ri", vecs, coeffs / (np.abs(w) + 1e-9)),
                        rtol=1e-12, atol=1e-15)
        # the indefinite row ends at a stable minimum with the ground-state energy
        assert norm[0] <= SOLUTION_GRAD_TOL
        assert np.linalg.eigvalsh(energy_hessian(x[0], g, jbar)).min() >= PSD_TOLERANCE
        assert abs(rescaled_energy(x[0], g, jbar)
                   - solve_ground_state(point).config.energy) <= ENERGY_TOL
        for i in (0, 1):
            x1, norm1, steps1, _ = run(seeds[i:i + 1])
            assert np.array_equal(x1[0], x[i]) and norm1[0] == norm[i]
            assert np.array_equal(steps1[0], steps[i])

    def test_mixed_line_search_gives_each_row_its_one_row_iteration(self):
        # the indefinite (-, -, +) seed backtracks once; the solver's
        # frustrated seed and a third pattern take every full step
        point = params(0.05, critical_point(0.05, 3) * 1.02)
        energy, gradient, hessian = _kernels(3)
        seeds = np.array([[-0.04, -0.04, 0.04], seed_alphas(point), [0.3, -0.2, -0.25]])

        def run(x0):
            trials = [[] for _ in x0]  # per row, every point its energy was read at

            def fun(a, pack):
                for row, point in zip(row_ids(pack).tolist(), a):
                    trials[row].append(point.tobytes())
                return energy(a, pack)
            consts = tagged(_pack(point.g, point.jbar), len(x0))
            return (*_newton_minimize(fun, gradient, hessian, x0, consts), trials)

        x, norm, steps, failures, trials = run(seeds)
        assert not failures
        assert len(trials[0]) > 1 + steps[0, 0]  # a backtracking trial
        assert [len(trials[i]) for i in (1, 2)] == [1 + steps[i, 0] for i in (1, 2)]
        for i in range(len(seeds)):
            x1, norm1, steps1, _, trials1 = run(seeds[i:i + 1])
            assert np.array_equal(x1[0], x[i]) and norm1[0] == norm[i]
            assert np.array_equal(steps1[0], steps[i]) and trials1[0] == trials[i]

    def test_full_step_iteration_reads_the_energy_once(self):
        point = params(0.05, critical_point(0.05, 3) * 1.02)
        energy, gradient, hessian = _kernels(3)
        reads = []

        def fun(a, pack):
            reads.append(row_ids(pack).tolist())
            return energy(a, pack)

        _, _, steps, failures = _newton_minimize(
            fun, gradient, hessian, np.array([seed_alphas(point), [0.3, -0.2, -0.25]]),
            tagged(_pack(point.g, point.jbar), 2))
        assert not failures and steps[:, 0].min() >= 3
        # the seeds' energies, then one read per descent iteration
        assert len(reads) == 1 + steps[:, 0].max()
        assert reads[:1 + steps[:, 0].min()] == [[0, 1]] * (1 + steps[:, 0].min())

    def test_every_kernel_call_gets_the_constants_of_its_rows(self, monkeypatch):
        # Newton gathers its live rows' constants once per iteration and
        # hands each kernel call the rows it evaluates: a pack with a row per
        # row of the stack, each the constants of that row's point; and each
        # row of a stacked solve sees exactly the points it sees alone
        n, jbar = 5, 0.01
        gc = critical_point(jbar, n)
        points = [params(jbar, gc * (1 + r), n) for r in (1e-5, 1e-3, 1e-1)]
        exhaustive = SolverOptions(seed_mode="exhaustive")
        clean = [solve_ground_states(points), enumerate_degenerate_ground_states(
            points[1], exhaustive)]
        real, runs = meanfield._newton_minimize, []

        def spy(fun, jac, hess_fn, x0, consts):
            seen: dict = {}  # per row id, each kernel's points in order

            def checked(kernel, name):
                def call(a, pack):
                    ids = row_ids(pack)
                    assert len(pack) == len(a) and np.array_equal(pack[:, :3], consts[ids])
                    for row, point in zip(ids.tolist(), a):
                        seen.setdefault(row, []).append((name, point.tobytes()))
                    return kernel(a, pack)
                return call
            runs.append(seen)
            return real(checked(fun, "energy"), checked(jac, "gradient"),
                        checked(hess_fn, "hessian"), x0, tagged(consts, len(x0)))

        monkeypatch.setattr(meanfield, "_newton_minimize", spy)
        stacked = solve_ground_states(points)
        for row, point in enumerate(points):
            solve_ground_states([point])
            assert runs[-1] == {0: runs[0][row]}
        assert [s.config.alphas.tobytes() for s in stacked] == [
            s.config.alphas.tobytes() for s in clean[0]]
        runs.clear()
        members = enumerate_degenerate_ground_states(points[1], exhaustive)
        assert len(runs) == 2  # the orbit stack, then the polish of its global tier
        assert [m.alphas.tobytes() for m in members] == [m.alphas.tobytes() for m in clean[1]]

    def test_each_size_builds_its_kernels_once(self):
        point = params(0.01, critical_point(0.01, 5) * 1.01, 5)
        _kernels.cache_clear()
        meanfield._mirror_reduced.cache_clear()
        for _ in range(2):
            solution = solve_ground_state(point)
            enumerate_degenerate_ground_states(point, SolverOptions(seed_mode="exhaustive"))
            rescaled_energy(solution.config.alphas, point.g, point.jbar)
        assert _kernels.cache_info().misses == meanfield._mirror_reduced.cache_info().misses == 1

    def test_debug_record_per_oracle_call(self, caplog, monkeypatch):
        point = params(0.01, critical_point(0.01, 5) * 1.05, 5)
        newton, runs = meanfield._newton_minimize, []

        def spy(*args):
            runs.append(newton(*args))
            return runs[-1]

        monkeypatch.setattr(meanfield, "_newton_minimize", spy)
        exhaustive = SolverOptions(seed_mode="exhaustive")
        enumerate_degenerate_ground_states(point, exhaustive)
        assert not [r for r in caplog.records if r.name == "frustra.meanfield"]
        runs.clear()
        with caplog.at_level(logging.DEBUG, logger="frustra.meanfield"):
            members = enumerate_degenerate_ground_states(point, exhaustive)
        (record,) = [r.getMessage() for r in caplog.records if r.name == "frustra.meanfield"]
        # the oracle's full-space stack; the polish runs after it
        _, grad_norm, steps, _ = runs[0]
        (descent, endgame), (descent_total, endgame_total) = steps.max(axis=0), steps.sum(axis=0)
        assert record.startswith(f"exhaustive g={point.g!r} jbar=0.01 N=5: "
                                 f"{len(orbit_patterns(5))} orbit rows, ")
        assert (f"descent steps {descent} max and {descent_total} total, endgame steps "
                f"{endgame} max and {endgame_total} total") in record
        stationary = np.count_nonzero(grad_norm <= SOLUTION_GRAD_TOL)
        assert record.endswith(f", {stationary} stationary rows, global tier of 1, 10 members")
        assert len(members) == 10

    @pytest.mark.parametrize("jbar, reduced, candidate", [
        (-0.01, 0.05, "uniform"), (0.01, -0.05, "origin")])
    def test_debug_record_of_a_certified_oracle_call(self, caplog, jbar, reduced, candidate):
        point = params(jbar, critical_point(jbar, 5) * (1 + reduced), 5)
        with caplog.at_level(logging.DEBUG, logger="frustra.meanfield"):
            members = enumerate_degenerate_ground_states(
                point, SolverOptions(seed_mode="exhaustive"))
        (record,) = [r.getMessage() for r in caplog.records if r.name == "frustra.meanfield"]
        a, energy = members[0].alphas, members[0].energy
        terms = np.sum(a * a + 0.5 * np.sqrt(1.0 + 4.0 * point.g * point.g * a * a)
                       + np.abs(2.0 * jbar * a * np.roll(a, -1)))
        margin = abs(energy - _spectral_lower_bound(point.g, jbar, 5)) / (EPS * terms)
        assert margin <= meanfield._BOUND_SLACK
        assert record == (f"exhaustive g={point.g!r} jbar={jbar!r} N=5: the {candidate} "
                          f"candidate meets the spectral lower bound within {margin:.2f} eps "
                          f"of its terms, {len(members)} members")

    def test_debug_record_per_solved_point(self, caplog):
        gc = critical_point(0.01, 5)
        points = [params(0.01, g, 5) for g in (0.5, gc * 1.01, gc * 1.1)]
        with caplog.at_level(logging.DEBUG, logger="frustra.meanfield"):
            solve_ground_states(points)
        records = [r.getMessage() for r in caplog.records if r.name == "frustra.meanfield"]
        assert len(records) == 3
        assert "normal phase" in records[0]
        for point, message in zip(points[1:], records[1:]):
            assert f"g={point.g!r}" in message
            assert re.fullmatch(
                r"solved g=\S+ jbar=0\.01 N=5: \d+ descent and \d+ endgame steps, "
                r"grad_norm \d\.\d{3}e[+-]\d+", message)

    def test_overflowing_coupling_is_a_domain_error(self):
        # (g/g_c)^4 overflows from g of about 1e77, on either side of the
        # hopping; the check comes before any arithmetic, so no numpy
        # overflow warning escapes either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, g, jbar in itertools.product((3, 7), (1e78, 1e100, 1e200), (0.01, -0.01)):
                (outcome,) = solve_ground_states([params(jbar, g, n)])
                assert isinstance(outcome, DomainError)
                assert str(outcome).endswith("(g/g_c)^4 overflows double precision")
                with pytest.raises(DomainError):
                    solve_ground_state(params(jbar, g, n))
        assert solve_ground_state(params(0.01, 1e7, 3)).phase is Phase.FSP

    def test_mixed_stack_gives_each_point_its_one_point_outcome(self, monkeypatch):
        # every outcome the stacked bookkeeping can hand out, in one stack:
        # the three phases, also at couplings where the gradient's rounding
        # floor is far above SOLUTION_GRAD_TOL, jbar = 0 (no phase),
        # an overflowing coupling (seeding), a frustrated point seeded at the
        # origin (no stable stationary point), a uniform point handed its
        # closed form 1e-9 off (a residual above SOLUTION_GRAD_TOL), and a
        # frustrated row that Newton starts at its uniform state, a stable
        # minimum that fails the frame check
        n = 5
        origin_seeded, off_closed_form, uniform_seeded = (
            params(0.01, 1.3, n), params(-0.01, 1.3, n), params(0.3, 1.7, n))
        real_seeds, real_newton = meanfield._seed_alphas, meanfield._newton_minimize
        frustrated_seed = seed_alphas(uniform_seeded)[:(n + 1) // 2]

        def seeds(g, jbar, *critical):
            magnitude = real_seeds(g, jbar, *critical)
            magnitude = np.where((g == off_closed_form.g) & (jbar == off_closed_form.jbar),
                                 magnitude * (1 + 1e-9), magnitude)
            return np.where((g == origin_seeded.g) & (jbar == origin_seeded.jbar), 0.0, magnitude)

        def newton(fun, jac, hess_fn, x0, consts):
            x0 = x0.copy()
            x0[(x0 == frustrated_seed).all(axis=-1)] = meanfield._uniform_magnitude(
                uniform_seeded.g, uniform_seeded.jbar)
            return real_newton(fun, jac, hess_fn, x0, consts)

        monkeypatch.setattr(meanfield, "_seed_alphas", seeds)
        monkeypatch.setattr(meanfield, "_newton_minimize", newton)
        points = [params(0.01, 0.5, n), params(-0.01, 1.2, n), params(0.01, 1.2, n),
                  params(0.01, 1e10, n), params(-0.01, 1e12, n), params(0.0, 1.2, n),
                  params(0.01, 1e200, n), origin_seeded, off_closed_form, uniform_seeded]
        expected = [Phase.NORMAL, Phase.NFSP, Phase.FSP, Phase.FSP, Phase.NFSP, ValidationError,
                    DomainError, "no stable stationary point", "stationarity residual",
                    "expected exactly one aligned neighbour pair, found 5"]
        alone = [solve_ground_states([point])[0] for point in points]
        for point, outcome, want in zip(points, alone, expected):
            if isinstance(want, Phase):
                assert outcome.phase is want
            elif isinstance(want, str):
                assert isinstance(outcome, PhaseError if "pair" in want else ConvergenceError)
                assert str(outcome).startswith(want)
            else:
                assert isinstance(outcome, want)
        assert str(alone[8]).endswith(" above 1e-10")
        for order in (slice(None), slice(None, None, -1)):
            for stacked, one in zip(solve_ground_states(points[order]), alone[order]):
                assert type(stacked) is type(one)
                if isinstance(one, Exception):
                    assert str(stacked) == str(one)
                    assert getattr(stacked, "best_residual", None) == getattr(
                        one, "best_residual", None)
                else:
                    assert np.array_equal(stacked.config.alphas, one.config.alphas)
                    assert stacked.grad_norm == one.grad_norm

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("jbar", [0.01, 0.3])
    def test_one_newton_row_per_frustrated_point_none_per_uniform_point(
            self, n, jbar, monkeypatch):
        # a normal point, uniform ones at jbar < 0 and = 0, and frustrated
        # ones below and above sqrt(1 + 2 jbar): each frustrated point is one
        # Newton row, seeded by the canonical frustrated pattern at its
        # near-critical magnitude with the unpaired site doubled, and a
        # failing row fails its point alone, with the row's own error; a
        # uniform point is its closed form, bit for bit, and no Newton row
        gc = critical_point(jbar, n)
        points = [params(jbar, 0.5, n), params(-jbar, 1.2, n), params(0.0, 1.2, n),
                  params(jbar, gc * (1 + 1e-6), n), params(jbar, gc * 1.1, n),
                  params(jbar, 3.0, n)]
        alone = solve_ground_states(points)
        real_newton, stacks, failing = meanfield._newton_minimize, [], []

        def newton(fun, jac, hess_fn, x0, consts):
            stacks.append(x0 @ ring(n).incidence.T)
            x, norm, steps, failures = real_newton(fun, jac, hess_fn, x0, consts)
            failures.update((row, DomainError(f"row {row}")) for row in failing)
            return x, norm, steps, failures

        monkeypatch.setattr(meanfield, "_newton_minimize", newton)
        assert [type(outcome) for outcome in solve_ground_states(points)] == [
            type(outcome) for outcome in alone]
        (seeds,) = stacks
        assert len(seeds) == 3
        for point, seed in zip(points[3:], seeds):
            near_critical = _near_critical_magnitude(point.g, gc) * ring(n).pattern
            near_critical[0] *= 2.0
            assert np.array_equal(seed, near_critical)
        assert alone[1].config.alphas.tobytes() == np.full(
            n, nfsp_closed_form(1.2, -jbar)).tobytes()
        assert isinstance(alone[2], ValidationError)  # the uniform state at jbar = 0
        stacks.clear()
        assert solve_ground_states(points[:3])[1].config.alphas.tobytes() == (
            alone[1].config.alphas.tobytes())
        assert stacks == []
        for row in range(len(seeds)):
            failing[:] = [row]
            outcomes = solve_ground_states(points)
            assert len(stacks[-1]) == len(seeds)
            for index, (outcome, one) in enumerate(zip(outcomes, alone)):
                if index == row + 3:
                    assert isinstance(outcome, DomainError) and str(outcome) == f"row {row}"
                elif isinstance(one, Exception):
                    assert type(outcome) is type(one) and str(outcome) == str(one)
                else:
                    assert outcome.phase is one.phase
                    assert np.array_equal(outcome.config.alphas, one.config.alphas)


class TestRawGufuncs:
    """The solver calls the gufuncs behind numpy.linalg.eigh, eigvalsh and
    solve directly; a numpy upgrade that changes them fails here first."""

    def test_bitwise_equal_to_numpy_linalg(self):
        rng = np.random.default_rng(20)
        for m in (2, 3, 4, 8):
            a = rng.normal(size=(6, m, m))
            sym, b = a + np.swapaxes(a, -1, -2), rng.normal(size=(6, m, 1))
            (w, v), (w_np, v_np) = meanfield._eigh(sym), np.linalg.eigh(sym)
            assert np.array_equal(w, w_np) and np.array_equal(v, v_np)
            assert meanfield._eigvalsh(sym).tobytes() == np.linalg.eigvalsh(sym).tobytes()
            assert np.array_equal(meanfield._solve(a, b), np.linalg.solve(a, b))

    def test_failing_rows_are_nan_where_numpy_linalg_raises(self):
        # numpy.linalg raises for a whole stack that holds a failing row; the
        # wrappers return that row as NaN throughout, exactly where the
        # public function raises on the row alone, and every other row with
        # the bits of the public call
        rng = np.random.default_rng(24)
        a = rng.normal(size=(5, 3, 3))
        sym = a + np.swapaxes(a, -1, -2)
        sym[1], sym[3, 2, 0] = np.nan, np.inf
        square, b = a.copy(), rng.normal(size=(5, 3, 1))
        square[2], square[4, :, 0] = 0.0, 0.0  # singular
        for wrapper, public, args in ((meanfield._eigh, np.linalg.eigh, (sym,)),
                                      (meanfield._eigvalsh, np.linalg.eigvalsh, (sym,)),
                                      (meanfield._solve, np.linalg.solve, (square, b))):
            with pytest.raises(np.linalg.LinAlgError):
                public(*args)
            out = wrapper(*args)
            out = out if isinstance(out, tuple) else (out,)
            raised = []
            for row in range(len(a)):
                try:
                    expected = public(*(arg[row] for arg in args))
                except np.linalg.LinAlgError:
                    raised.append(row)
                    assert all(np.isnan(part[row]).all() for part in out)
                    continue
                expected = expected if isinstance(expected, tuple) else (expected,)
                assert [part[row].tobytes() for part in out] == [e.tobytes() for e in expected]
            assert raised == ([2, 4] if public is np.linalg.solve else [1, 3])


    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_svd_keeps_the_bits_and_failures_of_numpy_linalg(self, m):
        # the sector route's SVD: every row has the bits of numpy.linalg.svd,
        # and a row that does not converge (NaN input) is NaN throughout,
        # exactly where numpy.linalg.svd raises on that row alone, while the
        # public call raises for the whole stack
        rng = np.random.default_rng(38 + m)
        a = rng.normal(size=(6, m, m))
        assert ([part.tobytes() for part in fluctuations._svd(a)]
                == [part.tobytes() for part in np.linalg.svd(a)])
        a[1], a[4, m - 1, 0] = np.nan, np.nan  # (LAPACK's SVD does not return on an inf)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(a)
        out, raised = fluctuations._svd(a), []
        for row in range(len(a)):
            try:
                expected = np.linalg.svd(a[row])
            except np.linalg.LinAlgError:
                raised.append(row)
                assert all(np.isnan(part[row]).all() for part in out)
                continue
            assert [part[row].tobytes() for part in out] == [e.tobytes() for e in expected]
        assert raised == [1, 4]


class TestHessianCriticalModes:
    @pytest.mark.parametrize("sector", [0, 1])
    def test_failed_sector_eigensolve_raises_linalg_error(self, monkeypatch, sector):
        # one solution's modes raise numpy's error where either sector's
        # eigensolve fails, as the rowwise gufunc marks it with NaN
        solution = solve_ground_state(params(0.01, 1.1, 5))
        real = meanfield._mirror_eigh

        def failing(hess):
            sectors = [[array.copy() for array in pair] for pair in real(hess)]
            for array in sectors[sector]:
                array[:] = np.nan
            return sectors

        monkeypatch.setattr(meanfield, "_mirror_eigh", failing)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            hessian_critical_modes(solution)

    def test_trimer_frustrated_eigenvector(self):
        jbar = 0.01
        gc = critical_point(jbar, 3)
        modes = hessian_critical_modes(solve_ground_state(params(jbar, gc * 1.001)))
        expected = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
        assert_allclose(np.abs(modes.y_f), np.abs(expected), atol=1e-12)
        assert abs(modes.y_f @ modes.y_mf) < 1e-12
        assert modes.lambda_f < modes.lambda_mf

    def test_trimer_curvature_expansions(self):
        # leading curvatures in this Hessian normalization:
        # lambda_f -> 8 (2 + jbar) / (3 jbar) (g - gc)^2,
        # lambda_mf -> 8 sqrt(1 - jbar) (g - gc)
        jbar = 0.01
        gc = critical_point(jbar, 3)
        dg = 1e-6 * gc
        modes = hessian_critical_modes(solve_ground_state(params(jbar, gc + dg)))
        assert modes.lambda_f / dg ** 2 == pytest.approx(
            8 * (2 + jbar) / (3 * jbar), rel=2e-3)
        assert modes.lambda_mf / dg == pytest.approx(
            8 * np.sqrt(1 - jbar), rel=2e-3)

    @pytest.mark.parametrize("n", [5, 7])
    def test_lattice_scaling_exponent(self, n):
        # lambda_f ~ |g - gc|^(N-1): ratio test over one octave close enough
        # to the critical point for the asymptotic law to hold
        jbar = 0.01
        gc = critical_point(jbar, n)
        red = 1e-4
        lam1 = hessian_critical_modes(solve_ground_state(params(jbar, gc * (1 + red), n))).lambda_f
        lam2 = hessian_critical_modes(
            solve_ground_state(params(jbar, gc * (1 + 2 * red), n))).lambda_f
        measured = np.log2(lam2 / lam1)
        assert measured == pytest.approx(n - 1, abs=0.35)

    @pytest.mark.parametrize("n", [5, 7])
    def test_frustrated_mode_structure_general(self, n):
        sol = solve_ground_state(params(0.01, 1.004, n))
        modes = hessian_critical_modes(sol)
        assert abs(modes.y_f[0]) < 1e-14
        for j in range(1, (n - 1) // 2 + 1):
            assert modes.y_f[j] == pytest.approx(-modes.y_f[n - j], abs=1e-12)

    def test_stacked_spectra_match_one_point_routes(self):
        # normal, uniform and frustrated points of one size in one stack
        n = 5
        gc_f, gc_u = critical_point(0.01, n), critical_point(-0.01, n)
        points = [params(0.01, 0.5, n), params(-0.01, gc_u * (1 + 1e-3), n),
                  params(0.01, gc_f * (1 + 1e-3), n), params(0.01, gc_f * (1 + 1e-6), n)]
        solutions = solve_ground_states(points)
        assert [s.phase for s in solutions] == [Phase.NORMAL, Phase.NFSP, Phase.FSP, Phase.FSP]
        g, jbar = np.array([[p.g, p.jbar] for p in points]).T
        states = _solve_stack(n, g, jbar)
        assert states.soft_modes.shape == (len(points), 2)
        assert not states.soft_modes.flags.writeable
        for p, sol, point_soft, point_eigenvalues in zip(
                points, solutions, states.soft_modes, states.hessian_eigenvalues):
            assert point_eigenvalues.shape == (n,)
            hess = energy_hessian(sol.config.alphas, p.g, p.jbar)
            alone = np.linalg.eigvalsh(hess)
            if sol.phase is Phase.FSP:
                # the mirror sectors' union, within rounding of the dense solve
                assert np.array_equal(point_eigenvalues, sector_spectra(hess[None])[0])
                assert_allclose(point_eigenvalues, alone, rtol=0,
                                atol=16 * EPS * np.abs(point_eigenvalues).max())
                modes = hessian_critical_modes(sol)
                assert tuple(point_soft) == (modes.lambda_mf, modes.lambda_f)
                assert point_eigenvalues[0] == min(point_soft)
            else:
                # the circulant closed form, within rounding of the dense solve
                closed = np.sort(hess[0, 0] + 4.0 * p.jbar * ring(n).cosines)
                assert np.array_equal(point_eigenvalues, closed)
                assert_allclose(point_eigenvalues, alone, rtol=0,
                                atol=2 * n * EPS * np.abs(hess).max())
                assert np.isnan(point_soft).all()

    @pytest.mark.parametrize("route", [hessian_critical_modes,
                                       enumerate_degenerate_ground_states])
    def test_rejects_unconverged_solution(self, route):
        # a leftover gradient shifts the soft eigenvalues, so a residual
        # above SOLUTION_GRAD_TOL is refused when the solution is built, and
        # the routes read every solution they are given
        sol = solve_ground_state(params(0.01, 1.1, 5))
        route(sol)
        route(GroundStateSolution(sol.config, sol.phase, SOLUTION_GRAD_TOL, sol.params))
        with pytest.raises(ConvergenceError, match="stationarity residual"):
            GroundStateSolution(sol.config, sol.phase, np.nextafter(SOLUTION_GRAD_TOL, 1.0),
                                sol.params)

    def test_requires_frustrated_phase(self):
        with pytest.raises(PhaseError):
            hessian_critical_modes(solve_ground_state(params(-0.01, 1.05)))
        with pytest.raises(PhaseError):
            hessian_critical_modes(solve_ground_state(params(0.01, 0.5)))


class TestCarriedSpectrum:
    """The solver's record carries each point's Hessian spectrum: a solved
    point the one its minimum check computed, a normal point its closed
    form, with the same bits in any stack."""

    @staticmethod
    def points(n):
        points = []
        for jbar in (0.01, 0.3, -0.01, -0.3):
            gc = critical_point(jbar, n)
            points += [params(jbar, gc * (1 + r), n) for r in (-0.5, -1e-3, 1e-7, 1e-4, 1e-2, 0.3)]
        return points

    @pytest.mark.parametrize("n", range(3, 22, 2))
    def test_carried_spectrum_is_the_recomputed_one_bit_for_bit(self, n):
        points = self.points(n)
        g, jbar = np.array([[p.g, p.jbar] for p in points]).T
        states = _solve_stack(n, g, jbar)
        assert set(states.phases) == {Phase.NORMAL, Phase.NFSP, Phase.FSP}
        assert not states.hessian_eigenvalues.flags.writeable
        # a normal or uniform row the circulant closed form, a frustrated one its mirror sectors
        recomputed = circulant_spectra(states.alphas, g, jbar)
        fsp = states.phases == Phase.FSP
        recomputed[fsp] = sector_spectra(energy_hessian(states.alphas[fsp], g[fsp], jbar[fsp]))
        assert states.hessian_eigenvalues.tobytes() == recomputed.tobytes()
        # a point's spectrum has the same bits in a stack of one
        for point, spectrum in zip(points, states.hessian_eigenvalues):
            assert point_spectrum(point).tobytes() == spectrum.tobytes()

    def test_normal_points_take_one_closed_form_call(self, monkeypatch):
        # a stack's normal points share one stacked call of the origin's
        # closed form, with the bits of one call per point
        real, calls = meanfield.origin_hessian_eigenvalues, []

        def counted(g, *args):
            calls.append(len(g))
            return real(g, *args)

        monkeypatch.setattr(meanfield, "origin_hessian_eigenvalues", counted)
        gc = critical_point(-0.01, 21)
        points = [params(-0.01, gc * (1 - r), 21) for r in (0.3, 1e-2, 1e-5)]
        g, jbar = np.array([[p.g, p.jbar] for p in points]).T
        states = _solve_stack(21, g, jbar)
        assert calls == [3]
        for p, phase, spectrum in zip(points, states.phases, states.hessian_eigenvalues):
            assert phase is Phase.NORMAL
            assert spectrum.tobytes() == origin_hessian_eigenvalues(p.g, p.jbar, 21).tobytes()

    def test_minimum_check_reads_the_newton_kernel(self, monkeypatch):
        def unused(*args):
            raise AssertionError("energy_hessian called")

        points = self.points(7)
        expected = solve_ground_states(points)
        monkeypatch.setattr(meanfield, "energy_hessian", unused)
        for solution, alone in zip(solve_ground_states(points), expected):
            assert solution.config.alphas.tobytes() == alone.config.alphas.tobytes()

    def test_frustrated_rows_take_one_mirror_eigensolve(self, monkeypatch):
        # a stack's stationary frustrated rows go through one mirror-sector
        # eigensolve together, and the solver runs no dense eigensolve
        points = self.points(7)
        g, jbar = np.array([[p.g, p.jbar] for p in points]).T
        expected = _solve_stack(7, g, jbar)
        real, calls = meanfield._mirror_eigh, []

        def counted(hess):
            calls.append(len(hess))
            return real(hess)

        monkeypatch.setattr(meanfield, "_mirror_eigh", counted)
        monkeypatch.setattr(meanfield, "_eigvalsh", None)
        states = _solve_stack(7, g, jbar)
        assert calls == [np.count_nonzero(states.phases == Phase.FSP)]
        for field in ("hessian_eigenvalues", "soft_modes"):
            assert getattr(states, field).tobytes() == getattr(expected, field).tobytes()

    def test_building_a_solution_runs_no_eigensolver(self, monkeypatch):
        # a solution holds no spectrum, so a hand-built one needs no solve
        solutions = solve_ground_states(self.points(5))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        monkeypatch.setattr(meanfield, "_eigvalsh", None)
        for s in solutions:
            rebuilt = GroundStateSolution(s.config, s.phase, s.grad_norm, s.params)
            assert rebuilt == s


class TestSpectralLowerBound:
    """The hopping term jbar a^T A a is at least (g_c^2 - 1) |a|^2, with
    g_c^2 = min_k (1 + 2 jbar cos k), so the energy is at least N one-site
    double wells: E_lb = -N (g^2 / (4 g_c^2) + g_c^2 / (4 g^2)) above g_c
    and -N/2 at or below it.  Equality needs a vector of constant modulus
    in the softest hopping eigenspace: the origin below g_c, the uniform
    state for jbar < 0, and none on the frustrated ring."""

    #: rounding allowance of an energy, in units of eps |E|
    SLACK = 4.0

    @staticmethod
    def points(n):
        return [params(jbar, critical_point(jbar, n) * (1 + r), n)
                for jbar in (-0.3, -0.01, 0.01, 0.2)
                for r in (-0.5, 1e-6, 1e-4, 1e-2, 1.0, 10.0, 1e3)]

    @staticmethod
    def bound(point):
        g, gc, n = point.g, point.critical_coupling(), point.n_sites
        return -n / 2 if g <= gc else -n * (g * g / (4 * gc * gc) + gc * gc / (4 * g * g))

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 21])
    def test_model_states_the_bound_bit_for_bit(self, n):
        for point in self.points(n):
            assert _spectral_lower_bound(point.g, point.jbar, n).hex() == self.bound(point).hex()

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 21])
    def test_bound_certifies_the_unfrustrated_minima(self, n):
        points = self.points(n)
        for point, outcome in zip(points, solve_ground_states(points)):
            assert isinstance(outcome, GroundStateSolution), (point, outcome)
            bound = self.bound(point)
            energy = outcome.config.energy
            slack = self.SLACK * EPS * abs(energy)
            assert energy >= bound - slack, point
            if outcome.phase is Phase.FSP:
                assert energy - bound > slack, point
            else:
                assert abs(energy - bound) <= slack, point


    @pytest.mark.parametrize("n", [3, 5, 7, 9, 21])
    def test_frustration_energy_is_two_thirds_of_the_squared_reduced_coupling(self, n):
        # near g_c every frustrated minimum lies (2/3) reduced^2 |E| above
        # the bound, whatever N and jbar; a miss of this 1 % is a solver
        # fault, never a tolerance to widen
        for jbar in (0.01, 0.2):
            gc = critical_point(jbar, n)
            g = gc * (1 + 1e-6)
            solution = solve_ground_state(params(jbar, g, n))
            assert solution.phase is Phase.FSP
            energy, reduced = solution.config.energy, (g - gc) / gc
            bound = self.bound(solution.params)
            excess = (energy - bound) / abs(energy)
            assert excess == pytest.approx(2 / 3 * reduced ** 2, rel=0.01), (n, jbar)


class TestSolverRecord:
    """The stacked record of _solve_stack, which solve_ground_states turns
    into solutions."""

    def test_rows_are_the_solutions_and_failed_rows_are_nan(self):
        n = 5
        points = [params(0.01, 0.5, n), params(-0.01, 1.2, n), params(0.01, 1.2, n),
                  params(0.0, 1.2, n), params(0.01, 1e200, n)]
        g, jbar = np.array([[p.g, p.jbar] for p in points]).T
        states = _solve_stack(n, g, jbar)
        assert states.solved.tolist() == [True, True, True, False, False]
        for array in (states.alphas, states.phases, states.grad_norm,
                      states.hessian_eigenvalues):
            assert len(array) == len(points) and not array.flags.writeable
        assert states.hessian_eigenvalues.shape == states.alphas.shape == (len(points), n)
        for i, outcome in enumerate(solve_ground_states(points)):
            if states.solved[i]:
                assert states.errors[i] is None and states.phases[i] is outcome.phase
                assert states.alphas[i].tobytes() == outcome.config.alphas.tobytes()
                assert states.grad_norm[i] == outcome.grad_norm
                assert (states.hessian_eigenvalues[i].tobytes()
                        == point_spectrum(points[i]).tobytes())
            else:
                assert type(states.errors[i]) is type(outcome)
                assert str(states.errors[i]) == str(outcome)
                assert states.phases[i] is None and np.isnan(states.grad_norm[i])
                assert np.isnan(states.alphas[i]).all()
                assert np.isnan(states.hessian_eigenvalues[i]).all()
        assert isinstance(states.errors[3], ValidationError)
        assert isinstance(states.errors[4], DomainError)

    def test_empty_stack(self):
        states = _solve_stack(3, np.array([]), np.array([]))
        assert states.alphas.shape == (0, 3) and states.errors == ()
        assert solve_ground_states([]) == []


class TestMomentumSpectra:
    """The closed-form spectrum d + 4 jbar cos k of a row of equal
    coherences, against the origin formula and the dense eigensolver."""

    SIZES = range(3, 42, 2)
    HOPPINGS = (-0.45, -0.2, -0.01, 0.0, 0.01, 0.3)
    COUPLINGS = np.logspace(-3, 6, 28)

    @staticmethod
    def spectra(alphas, g, jbar):
        """The solver's closed form, with jbar broadcast to one per row."""
        return circulant_spectra(alphas, g, np.full(len(alphas), jbar))

    def test_origin_spectrum_is_the_origin_formula_bit_for_bit(self):
        for n, jbar in itertools.product(self.SIZES, self.HOPPINGS):
            closed = self.spectra(np.zeros((len(self.COUPLINGS), n)), self.COUPLINGS, jbar)
            expected = [origin_hessian_eigenvalues(g, jbar, n) for g in self.COUPLINGS]
            assert np.array_equal(closed, expected)

    def uniform_rows(self, n, jbar):
        """Rows of equal coherences (alphas, g): zero, small, order-one and
        large coherences over the couplings, and for jbar <= 0 the uniform
        minimizer from 1e-12 above its threshold to twice it."""
        g = np.repeat(self.COUPLINGS, 4)
        a = np.tile([0.0, 1e-4, 0.3, 10.0], len(self.COUPLINGS))
        if jbar <= 0:
            g_above = np.sqrt(1.0 + 2.0 * jbar) * (1.0 + np.logspace(-12, 0, 25))
            g = np.concatenate([g, g_above])
            a = np.concatenate([a, [meanfield._uniform_magnitude(x, jbar) for x in g_above]])
        return np.repeat(a[:, None], n, axis=1), g

    def test_uniform_spectrum_is_within_rounding_of_the_dense_solve(self):
        for n, jbar in itertools.product(self.SIZES, self.HOPPINGS):
            alphas, g = self.uniform_rows(n, jbar)
            hess = energy_hessian(alphas, g, jbar)
            bound = 2 * n * EPS * np.abs(hess).max(axis=(1, 2))
            defect = np.abs(self.spectra(alphas, g, jbar) - np.linalg.eigvalsh(hess)).max(axis=1)
            assert (defect <= bound).all()

    def test_minimum_check_decides_as_the_dense_check(self):
        # the uniform rows, and origin rows whose lowest eigenvalue
        # 2 (g_c^2 - g^2) straddles PSD_TOLERANCE
        for n, jbar in itertools.product(self.SIZES, self.HOPPINGS):
            gc_sq = origin_hessian_eigenvalues(0.0, jbar, n)[0] / 2.0
            g = np.sqrt(gc_sq + np.linspace(-3e-9, 3e-9, 61))
            origin = np.zeros((len(g), n))
            for alphas, couplings in ((origin, g), self.uniform_rows(n, jbar)):
                closed = self.spectra(alphas, couplings, jbar)[:, 0]
                dense = np.linalg.eigvalsh(energy_hessian(alphas, couplings, jbar))[:, 0]
                clear = np.abs(dense - PSD_TOLERANCE) > 1e-12
                assert ((closed < PSD_TOLERANCE) == (dense < PSD_TOLERANCE))[clear].all()
            dense = np.linalg.eigvalsh(energy_hessian(origin, g, jbar))[:, 0]
            assert (dense < PSD_TOLERANCE).any() and (dense >= PSD_TOLERANCE).any()

    def test_uniform_sweep_runs_no_dense_eigensolver(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(args)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        result = run_sweep(SweepSpec(jbar=-0.01, n_sites=21, points_per_decade=5))
        assert not result.missing and len(result.table["hessian_eigenvalues"][1]) == 22
        assert calls == []


class TestSignPattern:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_one_aligned_pair(self, n):
        s = ring(n).pattern
        aligned = sum(1 for i in range(n) if s[i] == s[(i + 1) % n])
        assert aligned == 1
        assert s[0] == -1


def test_fsp_series_within_one_percent_very_close():
    jbar = 0.01
    gc = critical_point(jbar, 3)
    g = gc + 5e-4
    sol = solve_ground_state(params(jbar, g))
    approx1, approx_pair = fsp_approximation(g, jbar)
    assert abs((sol.config.alphas[0] - approx1) / sol.config.alphas[0]) < 0.01
    assert abs((sol.config.alphas[1] - approx_pair) / sol.config.alphas[1]) < 0.01


def test_fsp_angle_and_energy_expansions():
    # near-critical series of the Bloch angles and the ground-state energy:
    # cos(theta_1) = -1 + 8 dg/(3 gc) - 44 dg^2/(9 gc^2) + O(dg^3),
    # cos(theta_2) = -1 + 2 dg/(3 gc) + (8 - jbar) dg^2/(9 jbar gc^2) + O(dg^3),
    # E = -3/2 - 2 dg^2/gc^2 + O(dg^3)
    jbar = 0.01
    gc = critical_point(jbar, 3)
    dg = 1e-4
    sol = solve_ground_state(params(jbar, gc + dg))
    cos1 = np.cos(sol.config.thetas[0])
    cos2 = np.cos(sol.config.thetas[1])
    assert cos1 == pytest.approx(-1 + 8 * dg / (3 * gc) - 44 * dg ** 2 / (9 * gc ** 2),
                                 abs=5e-9)
    assert cos2 == pytest.approx(
        -1 + 2 * dg / (3 * gc) + (8 - jbar) * dg ** 2 / (9 * jbar * gc ** 2), abs=5e-9)
    assert sol.config.energy == pytest.approx(-1.5 - 2 * dg ** 2 / gc ** 2, abs=5e-10)
