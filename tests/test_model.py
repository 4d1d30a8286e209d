import itertools
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from frustra.errors import DomainError, ValidationError
from frustra.model import (
    MeanFieldConfiguration,
    ModelParams,
    _hessian_diagonal,
    atomic_angles,
    critical_point,
    energy_gradient,
    energy_hessian,
    group_images,
    origin_hessian_eigenvalues,
    rescaled_energy,
    ring,
    stability_window,
    validate_n_sites,
)


def fd_gradient(alphas, g, jbar, h=1e-6):
    alphas = np.asarray(alphas, dtype=float)
    out = np.empty_like(alphas)
    for i in range(len(alphas)):
        up, dn = alphas.copy(), alphas.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (rescaled_energy(up, g, jbar) - rescaled_energy(dn, g, jbar)) / (2 * h)
    return out


def fd_hessian(alphas, g, jbar, h=1e-4):
    alphas = np.asarray(alphas, dtype=float)
    n = len(alphas)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            pp, pm, mp, mm = (alphas.copy() for _ in range(4))
            pp[i] += h; pp[j] += h
            pm[i] += h; pm[j] -= h
            mp[i] -= h; mp[j] += h
            mm[i] -= h; mm[j] -= h
            out[i, j] = (rescaled_energy(pp, g, jbar) - rescaled_energy(pm, g, jbar)
                         - rescaled_energy(mp, g, jbar) + rescaled_energy(mm, g, jbar)
                         ) / (4 * h * h)
    return out


class TestModelParams:
    def test_omegabar_is_exact_ratio(self):
        p = ModelParams(2.0, 3.0, 0.1, 0.5, 5)
        assert p.omegabar == 1.5

    @pytest.mark.parametrize("kwargs", [
        dict(omega0=-1.0), dict(Omega=0.0), dict(g=-0.1),
        dict(jbar=-0.5), dict(jbar=1.0), dict(jbar=2.0),
        dict(n_sites=4), dict(n_sites=1),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(omega0=1.0, Omega=1.0, jbar=0.01, g=0.5, n_sites=3)
        base.update(kwargs)
        with pytest.raises(ValidationError):
            ModelParams(**base)

    @pytest.mark.parametrize("field", ["omega0", "Omega", "g"])
    def test_finiteness_accepts_and_rejects_as_numpy_does(self, field):
        # each value meets the check np.isfinite(value) and value > 0 (g:
        # >= 0) of the field, or raises the exception that check raises
        values = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, 2, True, 10 ** 400,
                  np.float64(np.nan), np.float64(-np.inf), np.float32(np.inf), np.float16(np.nan),
                  np.float64(0.25), np.float32(0.5), np.int64(3), np.bool_(True), None, "1.0"]
        for value in values:
            try:
                positive = value >= 0 if field == "g" else value > 0
                expected = bool(np.isfinite(value) and positive)
            except TypeError:
                expected = TypeError
            base = {**dict(omega0=1.0, Omega=1.0, jbar=0.01, g=0.5, n_sites=3), field: value}
            if expected is TypeError:
                with pytest.raises(TypeError):
                    ModelParams(**base)
            elif expected:
                assert getattr(ModelParams(**base), field) is value
            else:
                with pytest.raises(ValidationError, match=re.escape(f"got {value}")):
                    ModelParams(**base)

    def test_configuration_energy_consistency(self):
        rng = np.random.default_rng(7)
        alphas = rng.normal(scale=0.3, size=5)
        config = MeanFieldConfiguration(alphas, g=1.1, jbar=0.05)
        assert abs(config.energy - rescaled_energy(alphas, 1.1, 0.05)) < 1e-12
        with pytest.raises(ValueError):
            config.alphas[0] = 1.0  # stored arrays are read-only

    def test_configuration_derives_angles_and_energy_bitwise(self):
        rng = np.random.default_rng(11)
        alphas = rng.normal(scale=0.3, size=7)
        alphas[2] = 0.0
        config = MeanFieldConfiguration(list(alphas), g=1.3, jbar=0.02)
        thetas, phis = atomic_angles(alphas, 1.3)
        assert np.array_equal(config.thetas, thetas)
        assert np.array_equal(config.phis, phis)
        assert config.energy == rescaled_energy(alphas, 1.3, 0.02)
        assert np.array_equal(config.jx_expectation(), np.sin(thetas) * np.cos(phis))


class TestRescaledEnergy:
    def test_origin_trimer(self):
        assert rescaled_energy([0.0, 0.0, 0.0], g=0.9, jbar=0.01) == pytest.approx(-1.5)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_origin_general(self, n):
        assert rescaled_energy(np.zeros(n), g=1.3, jbar=-0.2) == pytest.approx(-n / 2)

    def test_uniform_superradiant_energy(self):
        # uniform closed-form minimizer against the lattice-summed value
        g, jbar = 1.05, -0.01
        gc = np.sqrt(1.0 + 2.0 * jbar)
        mag = np.sqrt((g / gc) ** 4 - 1.0) / (2.0 * g)
        expected = -0.75 * (gc ** 2 / g ** 2 + g ** 2 / gc ** 2)
        assert rescaled_energy(np.full(3, mag), g, jbar) == pytest.approx(expected, abs=1e-13)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            rescaled_energy([0.1, np.nan, 0.2], 1.0, 0.01)
        with pytest.raises(DomainError):
            rescaled_energy([np.inf, 0.0, 0.0], 1.0, 0.01)

    def test_symmetries(self):
        rng = np.random.default_rng(11)
        for n in (3, 5, 7):
            a = rng.normal(scale=0.4, size=n)
            e = rescaled_energy(a, 1.1, 0.07)
            assert rescaled_energy(-a, 1.1, 0.07) == pytest.approx(e, rel=1e-14)
            for shift in range(1, n):
                assert rescaled_energy(np.roll(a, shift), 1.1, 0.07) == pytest.approx(e, rel=1e-14)
            assert rescaled_energy(a[::-1], 1.1, 0.07) == pytest.approx(e, rel=1e-14)


class TestGradient:
    def test_zero_at_origin(self):
        assert_allclose(energy_gradient(np.zeros(5), 1.2, 0.3), 0.0, atol=1e-15)

    def test_zero_at_uniform_superradiant_point(self):
        g, jbar = 1.08, -0.02
        gc = np.sqrt(1.0 + 2.0 * jbar)
        mag = np.sqrt((g / gc) ** 4 - 1.0) / (2.0 * g)
        assert_allclose(energy_gradient(np.full(3, mag), g, jbar), 0.0, atol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for n in (3, 5, 7):
            for _ in range(5):
                a = rng.normal(scale=0.5, size=n)
                g = rng.uniform(0.2, 1.4)
                jbar = rng.uniform(-0.4, 0.9)
                assert_allclose(energy_gradient(a, g, jbar), fd_gradient(a, g, jbar),
                                atol=1e-6)


class TestHessian:
    def test_trimer_origin_eigenvalues(self):
        g, jbar = 0.7, 0.04
        eig = np.linalg.eigvalsh(energy_hessian(np.zeros(3), g, jbar))
        expected = np.sort([2 * (1 - jbar - g * g), 2 * (1 - jbar - g * g),
                            2 * (1 + 2 * jbar - g * g)])
        assert_allclose(eig, expected, atol=1e-13)

    def test_five_site_origin_circulant(self):
        g, jbar = 0.8, 0.01
        eig = np.linalg.eigvalsh(energy_hessian(np.zeros(5), g, jbar))
        t = np.arange(5)
        expected = np.sort(2 * (1 - g * g + 2 * jbar * np.cos(2 * np.pi * t / 5)))
        assert_allclose(eig, expected, atol=1e-13)

    def test_circulant_closed_form_matches_dense_solver(self):
        for n in (3, 5, 7, 9):
            g, jbar = 0.93, -0.07
            dense = np.linalg.eigvalsh(energy_hessian(np.zeros(n), g, jbar))
            assert_allclose(origin_hessian_eigenvalues(g, jbar, n), dense, atol=1e-12)

    def test_origin_spectrum_keeps_the_bits_of_the_scaled_form(self):
        # 2 - 2 g^2 + 4 jbar cos k is 2 (1 - g^2 + 2 jbar cos k), sorted, to
        # the bit at every finite coupling: doubling is exact, and where
        # 2 g^2 overflows (g of about 1.3e154 and up) both read -inf
        largest = np.finfo(float).max
        couplings = [0.0, 1.0, *np.logspace(-3, 308, 80), 1.3e154, 1.34e154,
                     np.nextafter(np.sqrt(largest / 2.0), 0.0), np.sqrt(largest / 2.0),
                     np.sqrt(largest), largest]
        for n, jbar in itertools.product((3, 5, 7, 21), (-0.45, -0.01, -0.0, 0.0, 0.01, 0.3)):
            for g in couplings:
                for coupling in (float(g), np.float64(g)):
                    with np.errstate(over="ignore"):
                        scaled = np.sort(2.0 * (1.0 - coupling * coupling
                                                + 2.0 * jbar * ring(n).cosines))
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        spectrum = origin_hessian_eigenvalues(coupling, jbar, n)
                    assert spectrum.tobytes() == scaled.tobytes(), (n, jbar, g)
        assert (origin_hessian_eigenvalues(1e200, 0.01, 3) == -np.inf).all()

    def test_huge_couplings_reach_the_diagonals_limit_without_a_warning(self):
        # 4 g^2 a^2 or its power overflows to inf, silently, and the diagonal
        # reads its exact limit 2; 4 g^2 itself overflows above 6.7e153
        alphas = np.array([[0.5, -1.0, 2.0, 1e-30, 3e7]])
        for g in (1e110, 1e150, 7e153, 9.4e153):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                diagonal = _hessian_diagonal(alphas, np.array([[g]]))
                hessian = energy_hessian(alphas[0], g, 0.01)
            assert (diagonal == 2.0).all() and (np.diag(hessian) == 2.0).all()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for n in (3, 5):
            for _ in range(4):
                a = rng.normal(scale=0.5, size=n)
                g = rng.uniform(0.2, 1.4)
                jbar = rng.uniform(-0.4, 0.9)
                assert_allclose(energy_hessian(a, g, jbar), fd_hessian(a, g, jbar),
                                atol=1e-5)

    @pytest.mark.parametrize("g", [1e120, 1e150, 9e153])
    def test_diagonal_reaches_its_limit_silently_at_huge_couplings(self, g):
        # (1 + 4 g^2 a^2)^(3/2) overflows to inf (at 9e153 already 4 g^2
        # does), and the diagonal takes its exact limit 2
        a = np.array([0.3, -1.0, 1e-10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hess = energy_hessian(a, g, 0.01)
        assert np.array_equal(np.diag(hess), np.full(3, 2.0))


@pytest.mark.parametrize("function", [rescaled_energy, energy_gradient, energy_hessian])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_public_landscape_rejects_nonfinite_coherences(function, bad):
    with pytest.raises(DomainError, match="finite"):
        function(np.array([[0.1, 0.2, 0.3], [0.1, bad, 0.3]]), 1.2, 0.01)


class TestAtomicAngles:
    def test_normal_phase_angles(self):
        theta, phi = atomic_angles(0.0, 1.3)
        assert theta == pytest.approx(np.pi)
        assert phi == 0.0

    def test_negative_coherence(self):
        theta, phi = atomic_angles(-0.3, 1.0)
        assert phi == 0.0
        assert np.cos(theta) == pytest.approx(-1.0 / np.sqrt(1.36), rel=1e-14)

    def test_mirror_symmetry(self):
        theta_m, phi_m = atomic_angles(-0.3, 1.0)
        theta_p, phi_p = atomic_angles(+0.3, 1.0)
        assert theta_p == pytest.approx(theta_m)
        assert phi_p == pytest.approx(np.pi)

    def test_rejects_negative_coupling(self):
        with pytest.raises(DomainError):
            atomic_angles(0.1, -1.0)


def bisect_origin_instability(jbar, n_sites, lo=0.01, hi=2.0, tol=1e-12):
    """Independent oracle: bisect the zero crossing of the smallest
    origin-Hessian eigenvalue."""
    def min_eig(g):
        return origin_hessian_eigenvalues(g, jbar, n_sites)[0]
    assert min_eig(lo) > 0 > min_eig(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if min_eig(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_sign_critical_point(jbar, n):
    """The critical coupling as the per-sign closed forms gave it before
    the spectral minimum: sqrt(1 + 2 jbar) below jbar = 0, else
    sqrt(1 + 2 jbar cos((N-1) pi / N)) with the unfolded table's cosine."""
    if jbar < 0:
        return math.sqrt(1.0 + 2.0 * jbar)
    cosine = np.cos(2.0 * np.pi * np.arange(n) / n)[(n - 1) // 2]
    return math.sqrt(1.0 + 2.0 * jbar * cosine)


class TestCriticalPoint:
    def test_trimer_positive(self):
        assert critical_point(0.01, 3) == pytest.approx(np.sqrt(0.99), abs=1e-15)

    def test_zero_hopping_decouples(self):
        for n in (3, 5, 7):
            assert critical_point(0.0, n) == critical_point(-0.0, n) == 1.0

    def test_five_sites_positive(self):
        expected = np.sqrt(1 + 0.02 * np.cos(4 * np.pi / 5))
        assert critical_point(0.01, 5) == pytest.approx(expected, abs=1e-15)

    def test_negative_hopping_is_size_independent(self):
        values = {critical_point(-0.03, n) for n in (3, 5, 7, 9)}
        assert len(values) == 1
        assert values.pop() == pytest.approx(np.sqrt(0.94), abs=1e-15)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_matches_bisected_hessian_crossing(self, n):
        for jbar in (0.01, 0.3, -0.05):
            gc = critical_point(jbar, n)
            assert abs(gc - bisect_origin_instability(jbar, n)) < 1e-10

    def test_sign_consistency_enforced(self):
        # the optional sign the benchmark harness passes must agree with jbar
        with pytest.raises(ValidationError):
            critical_point(0.6, 3, "negative")
        with pytest.raises(ValidationError):
            critical_point(-0.1, 3, "positive")
        with pytest.raises(ValidationError):
            critical_point(0.1, 3, "sideways")
        for jbar, signs in ((-0.1, ["negative"]), (0.0, ["negative", "positive"]),
                            (0.1, ["positive"])):
            for sign in signs:
                assert critical_point(jbar, 5, sign) == critical_point(jbar, 5)

    def test_keeps_the_bits_of_the_per_sign_formulas(self):
        rng = np.random.default_rng(12)
        for n in range(3, 60, 2):
            lo, hi = stability_window(n)
            edges = [float(np.nextafter(lo, 0.0)), float(np.nextafter(hi, 0.0))]
            draws = np.concatenate([rng.uniform(lo, 0.0, 40), rng.uniform(0.0, hi, 40)])
            for jbar in [0.0, -0.0, 1e-12, -1e-12, *edges, *draws.tolist()]:
                gc = critical_point(jbar, n)
                assert gc.hex() == per_sign_critical_point(jbar, n).hex(), (n, jbar)
                assert ModelParams(1.0, 1.0, jbar, 0.5, n).critical_coupling() == gc

    def test_softest_mode_is_stable_at_the_last_floats_of_the_window(self):
        for n in range(3, 200, 2):
            for jbar in (np.nextafter(end, 0.0) for end in stability_window(n)):
                assert np.min(1.0 + 2.0 * jbar * ring(n).cosines) > 0, (n, jbar)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_lattice_size_checked_alike_everywhere(self, n):
        message = f"n_sites must be odd and >= 3, got {n}"
        for check in (lambda: validate_n_sites(n),
                      lambda: critical_point(0.01, n),
                      lambda: ModelParams(1.0, 1.0, 0.01, 0.5, n)):
            with pytest.raises(ValidationError, match=message):
                check()


def test_critical_coupling_is_one_number_everywhere():
    from frustra.scaling import SweepSpec

    for n, jbar in itertools.product((3, 5, 21), (-0.3, -0.01, -0.0, 0.0, 0.01, 0.2)):
        gc = critical_point(jbar, n)
        assert ModelParams(1.0, 1.0, jbar, 0.5, n).critical_coupling() == gc
        assert SweepSpec(jbar=jbar, n_sites=n).g_critical == gc


def test_stability_window_matches_three_site_bounds():
    lo, hi = stability_window(3)
    assert lo == -0.5
    assert hi == pytest.approx(1.0)
    _, hi5 = stability_window(5)
    assert hi5 < 1.0  # larger rings destabilize earlier on the positive side


@pytest.mark.parametrize("n", [3, 5, 7, 21])
def test_hopping_window_is_that_of_the_lattice_size(n):
    # ModelParams and critical_point accept the open window of their own
    # N, up to its last float on either side; at N = 3 its upper end is
    # 0.9999999999999998, one ulp below 1
    lo, hi = stability_window(n)
    for jbar in (float(np.nextafter(lo, 0.0)), float(np.nextafter(hi, 0.0))):
        assert ModelParams(1.0, 1.0, jbar, 0.5, n).critical_coupling() > 0
    for jbar in (lo, hi, 1.0, -0.6):
        with pytest.raises(ValidationError, match="outside the stability window"):
            ModelParams(1.0, 1.0, jbar, 0.5, n)
        with pytest.raises(ValidationError, match="outside the stability window"):
            critical_point(jbar, n)
    if n == 3:
        assert hi == 0.9999999999999998
    else:
        with pytest.raises(ValidationError):  # inside the three-site window
            ModelParams(1.0, 1.0, 0.7, 0.5, n)


@pytest.mark.parametrize("n", range(3, 16, 2))
class TestRingTable:
    def test_hopping_eigenvalues_match_the_dense_circulant(self, n):
        tables = ring(n)
        assert_allclose(tables.momenta, 2 * np.pi * np.arange(n) / n, rtol=0, atol=1e-15)
        pi = np.arccos(np.longdouble(-1.0))
        exact = np.cos(2 * pi * np.arange(n, dtype=np.longdouble) / n)
        assert_allclose(tables.cosines, exact.astype(float), rtol=0, atol=1e-15)
        assert np.array_equal(tables.left, [(i - 1) % n for i in range(n)])
        assert np.array_equal(tables.right, [(i + 1) % n for i in range(n)])
        assert sorted(tables.ascending.tolist()) == list(range(n))
        assert np.array_equal(tables.cosines[tables.ascending], np.sort(tables.cosines))
        for jbar in (-0.45, -0.01, 0.3, 0.9):
            hopping = np.eye(n)
            for i in range(n):
                hopping[i, (i + 1) % n] = hopping[(i + 1) % n, i] = jbar
            assert_allclose(np.sort(1 + 2 * jbar * tables.cosines),
                            np.linalg.eigvalsh(hopping), rtol=0, atol=1e-13)

    def test_incidence_maps_the_pair_groups_onto_sites(self, n):
        groups = [[0]] + [[j, n - j] for j in range(1, (n - 1) // 2 + 1)]
        expected = np.zeros((n, len(groups)))
        for column, group in enumerate(groups):
            expected[group, column] = 1.0
        assert np.array_equal(ring(n).incidence, expected)

    def test_mirror_bases_are_orthonormal_and_complete(self, n):
        tables = ring(n)
        even, odd = tables.even, tables.odd
        assert even.shape == ((n + 1) // 2, n) and odd.shape == ((n - 1) // 2, n)
        norms = np.sqrt(tables.incidence.sum(axis=0))[:, None]
        assert np.array_equal(even, tables.incidence.T / norms)  # the columns, normalised
        assert_allclose(even @ even.T, np.eye(len(even)), rtol=0, atol=1e-15)
        assert_allclose(odd @ odd.T, np.eye(len(odd)), rtol=0, atol=1e-15)
        assert_allclose(even @ odd.T, 0.0, rtol=0, atol=1e-15)
        assert_allclose(even.T @ even + odd.T @ odd, np.eye(n), rtol=0, atol=1e-15)
        mirror = (-np.arange(n)) % n  # site 1+j <-> site N+1-j
        assert np.array_equal(even[:, mirror], even)
        assert np.array_equal(odd[:, mirror], -odd)
        assert not np.signbit(odd[odd == 0]).any()  # no -0.0 entries

    def test_pattern_has_one_aligned_pair_opposite_site_one(self, n):
        pattern = ring(n).pattern
        aligned = [i for i in range(n) if pattern[i] == pattern[(i + 1) % n]]
        assert aligned == [(n - 1) // 2]  # sites (N+1)/2 and (N+3)/2, 1-based
        assert pattern[0] == -1 and set(np.abs(pattern)) == {1.0}
        assert np.array_equal(pattern[(-np.arange(n)) % n], pattern)
        assert len(set(map(tuple, group_images(pattern)))) == 2 * n

    def test_tables_are_read_only_and_built_once(self, n):
        tables = ring(n)
        assert ring(n) is tables
        for table in tables:
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 7
        with pytest.raises(AttributeError):
            tables.right = None


@pytest.mark.parametrize("n", range(3, 60, 2))
def test_cosines_of_each_momentum_pair_are_bitwise_equal(n):
    cosines = ring(n).cosines
    assert cosines.tobytes() == cosines[(-np.arange(n)) % n].tobytes()


@pytest.mark.parametrize("n", [1, 4, 5.0, 7.0, "5"])
def test_ring_rejects_sizes_that_are_not_odd_integers_from_three(n):
    with pytest.raises(ValidationError, match="n_sites must be odd and >= 3"):
        ring(n)
