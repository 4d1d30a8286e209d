import itertools
import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frustra import meanfield
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
    _canonical_frames,
    _canonical_solutions,
    _hessian_eigenvalues,
    _mirror_reduced,
    _newton_minimize,
    _seed_alphas,
    enumerate_degenerate_ground_states,
    fsp_approximation,
    hessian_critical_modes,
    hessian_spectra,
    nfsp_closed_form,
    saddle_configuration,
    solve_ground_state,
    solve_ground_states,
)
from frustra.model import (
    MeanFieldConfiguration,
    ModelParams,
    _landscape,
    critical_point,
    energy_gradient,
    energy_hessian,
    group_images,
    orbit_patterns,
    origin_hessian_eigenvalues,
    rescaled_energy,
    ring,
)
from frustra.scaling import SweepSpec, run_sweep

EPS = np.finfo(float).eps


def params(jbar, g, n=3):
    return ModelParams(1.0, 1.0, jbar, g, n)


def seed_alphas(point):
    """The solver's seeds of a superradiant point as full configurations."""
    templates, incidence = meanfield._seed_templates(point.n_sites), ring(point.n_sites).incidence
    return [magnitude * templates[template] @ incidence.T
            for template, magnitude in _seed_alphas(point, point.critical_coupling())]


class TestClosedForms:
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
        # energies only: at dg = 3e-8 the oracle still returns 4 uniform
        # members for N = 5, jbar = -0.01, the extra two 40 % smaller yet
        # inside SOLUTION_GRAD_TOL (gradient 7.5e-11) and within 2e-15 of
        # the minimum energy; comparing states needs correctly rounded
        # minimizers
        members = enumerate_degenerate_ground_states(
            p, SolverOptions(seed_mode="exhaustive"))
        assert sol.config.energy <= min(m.energy for m in members) + 1e-10

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
        gc = critical_point(jbar, n)
        uniform_from = np.sqrt(1 + 2 * jbar)  # the uniform state exists above it
        for g in (gc * (1 + 1e-6), gc * 1.1, uniform_from * 1.1):
            seeds = seed_alphas(params(jbar, g, n))
            assert all(np.all(seed != 0) for seed in seeds)
            if jbar <= 0:
                assert len(seeds) == 1 and np.array_equal(
                    seeds[0], np.full(n, nfsp_closed_form(g, jbar)))
                continue
            assert len(seeds) == (2 if g > uniform_from else 1)
            for seed in seeds:  # the canonical frustrated pattern
                assert np.array_equal(np.sign(seed), ring(n).pattern)
            near_critical = np.abs(seeds[0])
            assert np.all(near_critical[1:] == near_critical[1])
            assert near_critical[0] == 2 * near_critical[1]
            if len(seeds) == 2:  # then at the uniform magnitude
                assert np.ptp(np.abs(seeds[1])) == 0

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
    def test_exhaustive_mode_runs_no_orbit_solve(self, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("exhaustive mode must not call solve_ground_state")

        # the one-point solve is the stacked entry on a stack of one, so
        # both entries are refused
        monkeypatch.setattr("frustra.meanfield.solve_ground_state", refuse)
        monkeypatch.setattr("frustra.meanfield.solve_ground_states", refuse)
        gc = critical_point(0.01, n)
        found = enumerate_degenerate_ground_states(
            params(0.01, 1.01 * gc, n), SolverOptions(seed_mode="exhaustive"))
        assert len(found) == 2 * n

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
        # members must meet the solver's own acceptance, SOLUTION_GRAD_TOL;
        # an absolute 1e-8 let ten stalled runs into this two-fold tier
        jbar, n = -0.01, 5
        g = critical_point(jbar, n) + 1e-7
        found = enumerate_degenerate_ground_states(
            params(jbar, g, n), SolverOptions(seed_mode="exhaustive"))
        assert len(found) == 2
        for member in found:
            assert np.max(np.abs(energy_gradient(member.alphas, g, jbar))) <= SOLUTION_GRAD_TOL

    def test_saddle_free_steps_bound_the_oracle_line_search(self, monkeypatch):
        # N = 7 cold points: the oracle's rows pass through the indefinite
        # region near the origin.  Stepping with |w| there takes 719 energy
        # evaluations in all; the minimal shift w + |w_min| took 1167.
        points = [(0.001, 1e-3), (0.003, 5e-2), (0.01, 2e-3), (0.02, 2e-2),
                  (0.05, 5e-3), (0.08, 3e-2), (0.12, 1e-3), (0.2, 1e-2)]
        evaluations = []
        newton = meanfield._newton_minimize

        def counted(fun, jac, hess_fn, x0):
            def fun_counted(a, rows):
                evaluations.append(len(rows))
                return fun(a, rows)
            return newton(fun_counted, jac, hess_fn, x0)

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

    def test_group_images_are_the_rotations_and_flips(self):
        alphas = np.array([-0.3, 0.1, 0.2, 0.1, 0.4])
        expected = [flip * np.roll(alphas, shift) for flip in (1.0, -1.0) for shift in range(5)]
        assert np.array_equal(group_images(alphas), expected)


def _origin_only_at(g_bad):
    """_seed_alphas with the one point at g_bad seeded from the origin
    alone: a saddle there, so no seed passes the PSD filter."""
    def seeds(params, gc):
        return [(meanfield.UNIFORM, 0.0)] if params.g == g_bad else _seed_alphas(params, gc)
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
        flipped = -solution.config.alphas
        assert flipped[0] > 0
        (canonical,) = _canonical_solutions(flipped[None], np.array([solution.grad_norm]),
                                            solution.hessian_eigenvalues[None], [p])
        assert canonical.phase is Phase.FSP
        a = canonical.config.alphas
        assert a[0] < 0 <= a[1]
        assert np.array_equal(a, solution.config.alphas)
        assert canonical.hessian_eigenvalues.tobytes() == solution.hessian_eigenvalues.tobytes()


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
        seeds = [seed_alphas(params(jbar, g, n))[-1][:m] for g, _ in rows[:3]]
        seeds += [solve_ground_state(params(jbar, g, n)).config.alphas[:m] + 1e-9
                  for g, _ in rows[3:5]]
        seeds += [seed_alphas(params(jbar, g, n))[-1][:m] for g, _ in rows[5:]]

        def run(picked):
            _, energy, grad, hess = _mirror_reduced(
                n, _landscape(n, [rows[i][0] for i in picked], [jbar] * len(picked)))

            def fun(y, ids):
                assert np.isfinite(y).all()  # a non-finite trial fails before it is read
                return energy(y, ids)

            def jac(y, ids):
                out = grad(y, ids)
                out[[picked[row] == huge_gradient for row in ids]] = 1e300
                return out

            def hess_fn(y, ids):
                out = hess(y, ids)
                for k, row in enumerate(ids):
                    scale = rows[picked[row]][1]
                    if scale is not None:
                        out[k] = scale * np.eye(m)
                return out
            with np.errstate(over="ignore", invalid="ignore"):  # the 1e309 step
                return _newton_minimize(fun, jac, hess_fn, np.array([seeds[i] for i in picked]))

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

    def test_failed_minimum_check_fails_only_its_point(self, monkeypatch):
        # the solve's PSD check: a row whose eigensolve fails, as NaN input
        # makes it, gives its point LinAlgError, and the other points of the
        # stack keep their bits; below sqrt(1 + 2 jbar) each point has one
        # seed, so the check's rows are the points
        n, jbar = 5, 0.01
        gc = critical_point(jbar, n)
        points = [params(jbar, gc * (1 + r), n) for r in (1e-4, 1e-3, 5e-3)]
        clean = solve_ground_states(points)
        assert all(solution.phase is Phase.FSP for solution in clean)
        real, checked = meanfield._eigvalsh, []

        def failing(hess):
            checked.append(len(hess))
            hess = hess.copy()
            hess[1] = np.nan
            return real(hess)

        monkeypatch.setattr(meanfield, "_eigvalsh", failing)
        outcomes = solve_ground_states(points)
        assert checked == [3]
        assert type(outcomes[1]) is np.linalg.LinAlgError
        assert str(outcomes[1]) == "Eigenvalues did not converge"
        for k in (0, 2):
            assert [outcomes[k].config.alphas.tobytes(), outcomes[k].grad_norm,
                    outcomes[k].hessian_eigenvalues.tobytes()] == [
                clean[k].config.alphas.tobytes(), clean[k].grad_norm,
                clean[k].hessian_eigenvalues.tobytes()]

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
        seeds = np.array([[-0.04, -0.04, 0.04], seed_alphas(point)[0]])
        trials = []

        def run(x0):
            def fun(a, rows):
                trials.append((rows.copy(), a.copy()))
                return rescaled_energy(a, g, jbar)
            return _newton_minimize(fun, lambda a, rows: energy_gradient(a, g, jbar),
                                    lambda a, rows: energy_hessian(a, g, jbar), x0)

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
        energy, gradient, hessian = _landscape(3, point.g, point.jbar)
        seeds = np.array([[-0.04, -0.04, 0.04], seed_alphas(point)[0], [0.3, -0.2, -0.25]])

        def run(x0):
            trials = [[] for _ in x0]  # per row, every point its energy was read at

            def fun(a, rows):
                for row, point in zip(rows.tolist(), a):
                    trials[row].append(point.tobytes())
                return energy(a, rows)
            return (*_newton_minimize(fun, gradient, hessian, x0), trials)

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
        energy, gradient, hessian = _landscape(3, point.g, point.jbar)
        reads = []

        def fun(a, rows):
            reads.append(rows.tolist())
            return energy(a, rows)

        _, _, steps, failures = _newton_minimize(
            fun, gradient, hessian, np.array([seed_alphas(point)[0], [0.3, -0.2, -0.25]]))
        assert not failures and steps[:, 0].min() >= 3
        # the seeds' energies, then one read per descent iteration
        assert len(reads) == 1 + steps[:, 0].max()
        assert reads[:1 + steps[:, 0].min()] == [[0, 1]] * (1 + steps[:, 0].min())

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
            assert f"{len(_seed_alphas(point, point.critical_coupling()))} seeds tried" in message
            for field in ("passed", "won after", "descent", "endgame", "grad_norm"):
                assert field in message

    def test_overflowing_coupling_is_a_domain_error(self):
        point = params(0.01, 1e200, 3)
        (outcome,) = solve_ground_states([point])
        assert isinstance(outcome, DomainError)
        with pytest.raises(DomainError):
            solve_ground_state(point)
        assert solve_ground_state(params(0.01, 1e7, 3)).phase is Phase.FSP

    def test_mixed_stack_gives_each_point_its_one_point_outcome(self, monkeypatch):
        # every outcome the stacked bookkeeping can hand out, in one stack:
        # the three phases, jbar = 0 (classification), an overflowing
        # coupling (seeding), no stable seed at g = 1e10, a residual above
        # SOLUTION_GRAD_TOL at g = 1e9, and a frustrated point seeded with
        # its uniform state, a stable minimum that fails the frame check
        n, uniform_seeded = 5, params(0.3, 1.7, 5)
        real_seeds = meanfield._seed_alphas
        monkeypatch.setattr(meanfield, "_seed_alphas", lambda p, gc: (
            [(meanfield.UNIFORM, meanfield._uniform_magnitude(p.g, p.jbar))]
            if p == uniform_seeded else real_seeds(p, gc)))
        points = [params(0.01, 0.5, n), params(-0.01, 1.2, n), params(0.01, 1.2, n),
                  params(0.0, 1.2, n), params(0.01, 1e200, n), params(0.01, 1e10, n),
                  params(0.01, 1e9, n), uniform_seeded]
        expected = [Phase.NORMAL, Phase.NFSP, Phase.FSP, ValidationError, DomainError,
                    "no seed converged", "stationarity residual",
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


    def test_first_failing_seed_fails_the_point(self, monkeypatch):
        # a uniform point (one seed) and a frustrated point with two seeds,
        # both of whose rows fail; the failures are stored last row first
        points = [params(-0.01, 1.2, 5), params(0.01, 1.2, 5)]
        real_newton = meanfield._newton_minimize

        def newton(*args):
            x, norm, steps, failures = real_newton(*args)
            assert len(x) == 3
            failures.update({2: ConvergenceError("second seed"), 1: DomainError("first seed")})
            return x, norm, steps, failures

        monkeypatch.setattr(meanfield, "_newton_minimize", newton)
        uniform, frustrated = solve_ground_states(points)
        assert uniform.phase is Phase.NFSP
        assert isinstance(frustrated, DomainError) and str(frustrated) == "first seed"


    def test_energy_tie_goes_to_the_first_seed(self, monkeypatch, caplog):
        # two copies of one seed reach bitwise the same minimum
        point = params(0.01, 1.2, 5)
        real_seeds = meanfield._seed_alphas
        monkeypatch.setattr(meanfield, "_seed_alphas", lambda p, gc: real_seeds(p, gc)[:1] * 2)
        with caplog.at_level(logging.DEBUG, logger="frustra.meanfield"):
            solution = solve_ground_state(point)
        (record,) = [r.getMessage() for r in caplog.records if r.name == "frustra.meanfield"]
        assert "2 seeds tried, 2 passed" in record and "seed 1 won" in record
        assert solution.phase is Phase.FSP


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


class TestHessianCriticalModes:
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
        solutions = [solve_ground_state(p) for p in points]
        assert [s.phase for s in solutions] == [Phase.NORMAL, Phase.NFSP, Phase.FSP, Phase.FSP]
        eigenvalues, soft = hessian_spectra(solutions)
        assert eigenvalues.shape == (len(points), n) and soft.shape == (len(points), 2)
        for p, sol, point_eigenvalues, point_soft in zip(points, solutions, eigenvalues, soft):
            hess = energy_hessian(sol.config.alphas, p.g, p.jbar)
            alone = np.linalg.eigvalsh(hess)
            if sol.phase is Phase.FSP:
                assert np.array_equal(point_eigenvalues, alone)
                modes = hessian_critical_modes(sol)
                assert tuple(point_soft) == (modes.lambda_mf, modes.lambda_f)
            else:
                # the circulant closed form, within rounding of the dense solve
                closed = np.sort(hess[0, 0] + 4.0 * p.jbar * ring(n).cosines)
                assert np.array_equal(point_eigenvalues, closed)
                assert_allclose(point_eigenvalues, alone, rtol=0,
                                atol=2 * n * EPS * np.abs(hess).max())
                assert np.isnan(point_soft).all()

    def test_frustrated_solution_with_equal_coherences_is_rejected(self):
        # a frustrated label on a translation-invariant state has no mirror
        # sectors of its own; the uniformity rule refuses it
        point = params(0.01, 1.1, 5)
        stale = GroundStateSolution(MeanFieldConfiguration(
            np.full(5, 0.2), point.g, point.jbar), Phase.FSP, 0.0, point)
        with pytest.raises(ValidationError, match="equal coherences"):
            hessian_spectra([solve_ground_state(point), stale])

    @pytest.mark.parametrize("route", [hessian_critical_modes,
                                       lambda sol: hessian_spectra([sol])])
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
    """Every solution carries its Hessian spectrum: a solved point the one
    its minimum check computed, a normal point its closed form, a
    hand-built one the spectrum it computes when built; hessian_spectra
    reads it."""

    @staticmethod
    def points(n):
        points = []
        for jbar in (0.01, 0.3, -0.01, -0.3):
            gc = critical_point(jbar, n)
            points += [params(jbar, gc * (1 + r), n) for r in (-0.5, -1e-3, 1e-7, 1e-4, 1e-2, 0.3)]
        return points

    @pytest.mark.parametrize("n", range(3, 22, 2))
    def test_carried_spectrum_is_the_recomputed_one_bit_for_bit(self, n):
        solutions = solve_ground_states(self.points(n))
        assert {s.phase for s in solutions} == {Phase.NORMAL, Phase.NFSP, Phase.FSP}
        alphas, g, jbar = (np.array([getattr(s.config, name) for s in solutions])
                           for name in ("alphas", "g", "jbar"))
        # the route hessian_spectra took before solutions carried spectra
        recomputed = _hessian_eigenvalues(alphas, g, jbar)
        dense = ~meanfield._uniform_rows(alphas)
        assert recomputed[dense].tobytes() == np.linalg.eigvalsh(
            energy_hessian(alphas[dense], g[dense], jbar[dense])).tobytes()
        # a hand-built solution computes its own, with the same bits
        hand_built = [GroundStateSolution(s.config, s.phase, s.grad_norm, s.params)
                      for s in solutions]
        for stack in (solutions, hand_built):
            for solution, spectrum in zip(stack, recomputed):
                assert solution.hessian_eigenvalues.tobytes() == spectrum.tobytes()
                assert not solution.hessian_eigenvalues.flags.writeable
        eigenvalues, soft = hessian_spectra(solutions)
        assert eigenvalues.tobytes() == recomputed.tobytes()
        assert [a.tobytes() for a in hessian_spectra(hand_built)] == [
            eigenvalues.tobytes(), soft.tobytes()]

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
        solutions = solve_ground_states(points)
        assert calls == [3]
        for p, solution in zip(points, solutions):
            assert solution.phase is Phase.NORMAL
            assert solution.hessian_eigenvalues.tobytes() == origin_hessian_eigenvalues(
                p.g, p.jbar, 21).tobytes()

    def test_failed_eigensolve_fails_the_hand_built_solution(self, monkeypatch):
        sol = solve_ground_state(params(0.01, 1.1, 5))
        monkeypatch.setattr(meanfield, "_eigvalsh", lambda hess: np.full(hess.shape[:-1], np.nan))
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            GroundStateSolution(sol.config, sol.phase, sol.grad_norm, sol.params)

    def test_a_given_spectrum_holds_one_value_per_site_and_is_stored_read_only(self):
        sol = solve_ground_state(params(0.01, 1.1, 5))
        for bad in (np.array([1.0, 2.0]), np.ones(6), sol.hessian_eigenvalues[None], 1.0):
            with pytest.raises(ValidationError, match="Hessian spectrum of shape"):
                GroundStateSolution(sol.config, sol.phase, sol.grad_norm, sol.params, bad)
        given = sol.hessian_eigenvalues.copy()
        for spectrum in (given, given.tolist()):
            built = GroundStateSolution(sol.config, sol.phase, sol.grad_norm, sol.params,
                                        spectrum)
            assert not built.hessian_eigenvalues.flags.writeable
            assert built.hessian_eigenvalues.tobytes() == sol.hessian_eigenvalues.tobytes()
        given[0] = 7.0  # the caller's array stays its own, and writeable
        assert built.hessian_eigenvalues[0] == sol.hessian_eigenvalues[0]
        assert [a.tobytes() for a in hessian_spectra([built, sol])] == [
            a.tobytes() for a in hessian_spectra([sol, sol])]

    def test_minimum_check_reads_the_newton_kernel(self, monkeypatch):
        def unused(*args):
            raise AssertionError("energy_hessian called")

        points = self.points(7)
        expected = solve_ground_states(points)
        monkeypatch.setattr(meanfield, "energy_hessian", unused)
        for solution, alone in zip(solve_ground_states(points), expected):
            assert solution.config.alphas.tobytes() == alone.config.alphas.tobytes()

    def test_solved_stack_runs_no_dense_eigensolver_for_its_spectra(self, monkeypatch):
        # frustrated points carry theirs, and normal ones take the closed form
        solutions = solve_ground_states(self.points(5))
        expected = hessian_spectra(solutions)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert [a.tobytes() for a in hessian_spectra(solutions)] == [
            a.tobytes() for a in expected]


class TestSpectralLowerBound:
    """The hopping term jbar a^T A a is at least (g_c^2 - 1) |a|^2, with
    g_c^2 = min_k (1 + 2 jbar cos k), so the energy is at least N one-site
    double wells: E_lb = -N (g^2 / (4 g_c^2) + g_c^2 / (4 g^2)) above g_c
    and -N/2 at or below it.  Equality needs a vector of constant modulus
    in the softest hopping eigenspace: the origin below g_c, the uniform
    state for jbar < 0, and none on the frustrated ring."""

    #: rounding allowance of an energy, in units of eps |E|
    SLACK = 4.0

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 21])
    def test_bound_certifies_the_unfrustrated_minima(self, n):
        points = [params(jbar, critical_point(jbar, n) * (1 + r), n)
                  for jbar in (-0.3, -0.01, 0.01, 0.2)
                  for r in (-0.5, 1e-6, 1e-4, 1e-2, 1.0, 10.0, 1e3)]
        for point, outcome in zip(points, solve_ground_states(points)):
            assert isinstance(outcome, GroundStateSolution), (point, outcome)
            g, gc = point.g, point.critical_coupling()
            bound = -n / 2 if g <= gc else -n * (g * g / (4 * gc * gc) + gc * gc / (4 * g * g))
            energy = outcome.config.energy
            slack = self.SLACK * EPS * abs(energy)
            assert energy >= bound - slack, point
            if outcome.phase is Phase.FSP:
                assert energy - bound > slack, point
            else:
                assert abs(energy - bound) <= slack, point


class TestMomentumSpectra:
    """The closed-form spectrum d + 4 jbar cos k of a row of equal
    coherences, against the origin formula and the dense eigensolver."""

    SIZES = range(3, 42, 2)
    HOPPINGS = (-0.45, -0.2, -0.01, 0.0, 0.01, 0.3)
    COUPLINGS = np.logspace(-3, 6, 28)

    @staticmethod
    def spectra(alphas, g, jbar):
        """The helper's eigenvalues, with jbar broadcast to one per row."""
        return _hessian_eigenvalues(alphas, g, np.full(len(alphas), jbar))

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
