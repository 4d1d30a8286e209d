"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass line on success (run with ``pytest -v -s``).

The expensive coupling sweeps are shared through session-scoped fixtures."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frustra.fluctuations import (
    analytic_nfsp_spectrum,
    analytic_np_spectrum,
    build_quadratic_hamiltonian,
    covariance,
    fsp_frustrated_mode_energy,
    mode_weights,
    williamson_diagonalize,
)
from frustra.meanfield import (
    SolverOptions,
    enumerate_degenerate_ground_states,
    fsp_approximation,
    solve_ground_state,
)
from frustra.meanfield import _canonical_frames  # test-side canonical rolling
from frustra.model import (
    ModelParams,
    critical_point,
    energy_gradient,
    energy_hessian,
    origin_hessian_eigenvalues,
    rescaled_energy,
)
from frustra.scaling import energy_derivative_diagnostics, extract_exponents
from williamson_reference import physicality_defect

JBAR = 0.01
SIZES = (3, 5, 7)

GAMMA_F_TOL = {3: 0.05, 5: 0.10, 7: 0.15}
GAMMA_MF_TOL = 0.03


def params(jbar, g, n=3):
    return ModelParams(1.0, 1.0, jbar, g, n)


@pytest.fixture(scope="session")
def stated_window_reports():
    """Exponent reports over the stated fit window [1e-4, 1e-2]."""
    return {n: extract_exponents(params(JBAR, 1.0, n), window=(1e-4, 1e-2))
            for n in SIZES}


@pytest.fixture(scope="session")
def deep_window_reports():
    """Exponent reports over the default deep window [1e-7, 1e-2]."""
    return {n: extract_exponents(params(JBAR, 1.0, n), window=(1e-7, 1e-2))
            for n in SIZES}


def report_pass(criterion, detail):
    print(f"criterion {criterion}: PASS  [{detail}]")


def bisect_min_eigenvalue_crossing(jbar, n, tol=1e-12):
    lo, hi = 0.1, 1.8

    def min_eig(g):
        return origin_hessian_eigenvalues(g, jbar, n)[0]

    assert min_eig(lo) > 0 > min_eig(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if min_eig(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_01_critical_points():
    details = []
    for n in SIZES:
        computed = critical_point(JBAR, n)
        closed_form = np.sqrt(1.0 + 2.0 * JBAR * np.cos((n - 1) * np.pi / n))
        assert abs(computed - closed_form) < 1e-12
        bisected = bisect_min_eigenvalue_crossing(JBAR, n)
        assert abs(computed - bisected) < 1e-10
        details.append(f"N={n}: g_c={computed:.12f}")
    report_pass(1, "; ".join(details))


@pytest.mark.parametrize("n,expected", [(3, 6), (5, 10)])
def test_criterion_02_exhaustive_degeneracy(n, expected):
    gc = critical_point(JBAR, n)
    p = params(JBAR, 1.01 * gc, n)
    members = enumerate_degenerate_ground_states(
        p, SolverOptions(seed_mode="exhaustive"))
    assert len(members) == expected
    energies = np.array([m.energy for m in members])
    assert np.ptp(energies) < 1e-10
    shifts, _, errors = _canonical_frames(np.array([m.alphas for m in members]))
    assert not errors
    for member, shift in zip(members, shifts):
        rolled = np.roll(member.alphas, -shift)
        for j in range(1, (n - 1) // 2 + 1):
            assert abs(rolled[j] - rolled[n - j]) < 1e-10
    report_pass(2, f"N={n}: {len(members)} global minima, "
                   f"energy spread {np.ptp(energies):.1e}")


def test_criterion_03_meanfield_series_agreement():
    gc = critical_point(JBAR, 3)
    worst = 0.0
    for reduced in (1e-4, 3e-4, 1e-3):
        g = gc * (1.0 + reduced)
        solution = solve_ground_state(params(JBAR, g))
        approx1, approx_pair = fsp_approximation(g, JBAR)
        a = solution.config.alphas
        err1 = abs((a[0] - approx1) / a[0])
        err2 = abs((a[1] - approx_pair) / a[1])
        worst = max(worst, err1, err2)
        assert err1 < 0.02 and err2 < 0.02
    report_pass(3, f"max relative deviation {worst:.2e} over reduced <= 1e-3")


def test_criterion_04_spectrum_oracle():
    checked = 0
    worst = 0.0

    def compare(p, analytic):
        nonlocal checked, worst
        solution = solve_ground_state(p)
        decomp = williamson_diagonalize(build_quadratic_hamiltonian(solution))
        numeric = decomp.symplectic_eigenvalues
        assert_allclose(numeric, analytic, rtol=1e-10)
        worst = max(worst, float(np.max(np.abs(numeric / analytic - 1.0))))
        checked += 1

    # normal phase, both hopping signs
    for jbar in (JBAR, -JBAR):
        gc = critical_point(jbar, 3)
        for g in np.linspace(0.1, 0.97 * gc, 13):
            spectrum = analytic_np_spectrum(g, jbar, 1.0)
            # finite-momentum branches arrive as exactly degenerate pairs
            assert spectrum[0] == spectrum[1] or len(set(np.round(spectrum, 12))) <= 4
            compare(params(jbar, float(g)), spectrum)
    # uniform superradiant phase
    gc = critical_point(-JBAR, 3)
    for g in np.linspace(1.002 * gc, 1.6 * gc, 24):
        compare(params(-JBAR, float(g)), analytic_nfsp_spectrum(g, -JBAR, 1.0))
    assert checked == 50
    report_pass(4, f"{checked} grid points, worst relative defect {worst:.1e}")


def test_criterion_05_fsp_gap_exponents(stated_window_reports):
    details = []
    for n in SIZES:
        report = stated_window_reports[n]
        gamma_f = abs(report.gamma_f.exponent)
        target = (n - 1) / 2.0
        assert abs(gamma_f - target) <= GAMMA_F_TOL[n], (n, gamma_f)
        details.append(f"N={n}: gamma_f={gamma_f:.3f}")
        if n == 3:
            gamma_mf = abs(report.gamma_mf.exponent)
            assert abs(gamma_mf - 0.5) <= GAMMA_MF_TOL
            details.append(f"gamma_mf={gamma_mf:.3f}")
    # closed-form cross-check of the frustrated gap at a plain coupling
    gc = critical_point(JBAR, 3)
    g = 1.01 * gc
    solution = solve_ground_state(params(JBAR, g))
    decomp = williamson_diagonalize(build_quadratic_hamiltonian(solution))
    closed = fsp_frustrated_mode_energy(g, JBAR, 1.0, solution.config.alphas[1])
    assert abs(decomp.symplectic_eigenvalues[0] - closed) < 1e-8
    details.append(f"eps_f closed-form defect "
                   f"{abs(decomp.symplectic_eigenvalues[0] - closed):.1e}")
    report_pass(5, "; ".join(details))


def test_criterion_06_site_dependent_photon_exponents(deep_window_reports):
    details = []
    for n in SIZES:
        report = deep_window_reports[n]
        target = (n - 1) / 2.0
        unpaired = abs(report.photon_exponents[1].exponent)
        assert abs(unpaired - 0.5) <= 0.03, (n, unpaired)
        paired = abs(report.photon_exponents[2].exponent)
        assert abs(paired - target) <= GAMMA_F_TOL[n], (n, paired)
        sq_unpaired = abs(report.squeezing_exponents[1].exponent)
        sq_paired = abs(report.squeezing_exponents[2].exponent)
        assert abs(sq_unpaired - 0.5) <= 0.03, (n, sq_unpaired)
        assert abs(sq_paired - target) <= GAMMA_F_TOL[n], (n, sq_paired)
        details.append(f"N={n}: n1~{unpaired:.3f}, n2~{paired:.3f}")
    report_pass(6, "; ".join(details))


def test_criterion_07_frustrated_mode_structure():
    details = []
    for n in SIZES:
        gc = critical_point(JBAR, n)
        p = params(JBAR, gc * (1 + 1e-3), n)
        solution = solve_ground_state(p)
        decomp = williamson_diagonalize(build_quadratic_hamiltonian(solution))
        frustrated = mode_weights(decomp, 1)
        assert abs(frustrated.cavity[0]) < 1e-8
        assert abs(frustrated.atom[0]) < 1e-8
        if n == 3:
            assert abs(frustrated.cavity[1] + frustrated.cavity[2]) < 1e-8
            assert abs(frustrated.atom[1] + frustrated.atom[2]) < 1e-8
        details.append(f"N={n}: |v1|={abs(frustrated.cavity[0]):.1e}")
    report_pass(7, "; ".join(details))


def test_criterion_08_hessian_scaling(stated_window_reports):
    details = []
    for n in SIZES:
        report = stated_window_reports[n]
        lam_mf = abs(report.hessian_exponents["mf"].exponent)
        lam_f = abs(report.hessian_exponents["f"].exponent)
        tol_f = 0.1 * (n - 1) / 2.0
        assert abs(lam_mf - 1.0) <= 0.05, (n, lam_mf)
        assert abs(lam_f - (n - 1)) <= tol_f, (n, lam_f)
        # sqrt(lambda) scaling must agree with the gap fits
        gap_f = abs(report.gamma_f.exponent)
        gap_mf = abs(report.gamma_mf.exponent)
        assert abs(lam_f / 2.0 - gap_f) <= tol_f / 2.0 + GAMMA_F_TOL[n]
        assert abs(lam_mf / 2.0 - gap_mf) <= 0.05 / 2.0 + GAMMA_MF_TOL
        details.append(f"N={n}: lam_f={lam_f:.3f}, lam_mf={lam_mf:.3f}")
    report_pass(8, "; ".join(details))


def test_criterion_09_transition_order():
    n = 3
    gc = critical_point(JBAR, n)
    diag_g = energy_derivative_diagnostics(params(JBAR, 1.0, n), axis="g")
    assert diag_g.discontinuity_order == 2
    assert diag_g.detected_location == pytest.approx(gc, abs=2e-4)
    assert abs(diag_g.d1_jump) < 1e-3
    # d2E/dg2(g_c+) = -(4N/3)/g_c^2 on the frustrated side, -4/g_c^2 at N = 3
    expected = -(4.0 * n / 3.0) / gc ** 2
    assert diag_g.d2_right == pytest.approx(expected, rel=0.02)
    assert abs(diag_g.d2_left) < 0.02 * abs(expected)

    diag_j = energy_derivative_diagnostics(params(JBAR, 1.2), axis="jbar")
    assert diag_j.discontinuity_order == 1
    assert diag_j.center == 0.0
    assert diag_j.detected_location == pytest.approx(0.0, abs=2e-4)
    assert abs(diag_j.d1_jump) > 0.5
    report_pass(9, f"d2E/dg2(g_c+)={diag_g.d2_right:.4f} vs {expected:.4f}; "
                   f"dE/djbar jump {diag_j.d1_jump:.3f} at 0")


def test_criterion_10_structural_property_suite():
    from frustra.model import stability_window

    rng = np.random.default_rng(2024)
    drawn = 0
    worst_symplectic = 0.0
    while drawn < 100:
        n = int(rng.choice(SIZES))
        lo, hi = stability_window(n)
        jbar = float(rng.uniform(0.9 * lo, min(0.9, 0.9 * hi)))
        gc = critical_point(jbar, n)
        if rng.random() < 0.5:
            g = float(rng.uniform(0.05, 0.95)) * gc
        else:
            g = gc * (1.0 + float(rng.uniform(0.01, 0.3)))
        if jbar == 0.0 and g > 1.0:
            continue
        p = params(jbar, g, n)

        solution = solve_ground_state(p)
        alphas = solution.config.alphas
        assert np.max(np.abs(energy_gradient(alphas, g, jbar))) < 1e-10
        assert np.linalg.eigvalsh(energy_hessian(alphas, g, jbar)).min() > -1e-9
        assert abs(solution.config.energy - rescaled_energy(alphas, g, jbar)) < 1e-12

        # fluctuation sector: symplectic identity, diagonalization, physicality
        form = build_quadratic_hamiltonian(solution)
        assert np.max(np.abs(form.matrix - form.matrix.T)) < 1e-12
        decomp = williamson_diagonalize(form)
        omega = form.symplectic_form
        s_mat = decomp.symplectic_matrix
        residual = float(np.max(np.abs(s_mat @ omega @ s_mat.T - omega)))
        worst_symplectic = max(worst_symplectic, residual)
        assert residual < 1e-10
        target = np.diag(np.repeat(decomp.symplectic_eigenvalues, 2))
        assert np.max(np.abs(s_mat @ form.matrix @ s_mat.T - target)) < 1e-9
        cov = covariance(decomp)
        scale = max(1.0, float(np.max(np.abs(cov))))
        assert physicality_defect(cov) > -1e-10 * scale

        # derivative oracles at a random configuration nearby
        probe = alphas + rng.normal(scale=0.1, size=n)
        grad = energy_gradient(probe, g, jbar)
        hess = energy_hessian(probe, g, jbar)
        h_step = 1e-6
        for i in range(n):
            up, dn = probe.copy(), probe.copy()
            up[i] += h_step
            dn[i] -= h_step
            fd = (rescaled_energy(up, g, jbar) - rescaled_energy(dn, g, jbar)) / (2 * h_step)
            assert abs(grad[i] - fd) < 1e-6
        h2 = 1e-4
        for i in range(n):
            for j in range(n):
                pp, pm, mp, mm = (probe.copy() for _ in range(4))
                pp[i] += h2; pp[j] += h2
                pm[i] += h2; pm[j] -= h2
                mp[i] -= h2; mp[j] += h2
                mm[i] -= h2; mm[j] -= h2
                fd = (rescaled_energy(pp, g, jbar) - rescaled_energy(pm, g, jbar)
                      - rescaled_energy(mp, g, jbar) + rescaled_energy(mm, g, jbar)
                      ) / (4 * h2 * h2)
                assert abs(hess[i, j] - fd) < 1e-5
        drawn += 1
    report_pass(10, f"100 stable draws, worst symplectic residual "
                    f"{worst_symplectic:.1e}")
