"""Tests for proximity-force baselines and zero-force classification."""

import math

import numpy as np
import pytest

from casphere.energy import Geometry, casimir_energy
from casphere.pfa_sign import (
    RatioCurve,
    SignProfile,
    amplitude_case,
    find_zero_force,
    pfa_energy,
    pfa_energy_em,
    pfa_force_sign,
    series_force_sign,
)
from casphere.tmatrix import (
    Dirichlet,
    Neumann,
    PerfectConductor,
    Robin,
    SphereSpec,
)

D, N = Dirichlet(), Neumann()


# ---------------------------------------------------------------------------
# PFA baselines
# ---------------------------------------------------------------------------

def test_pfa_energy_values():
    like = pfa_energy(1.0, 3.0, "like")
    unlike = pfa_energy(1.0, 3.0, "unlike")
    em = pfa_energy_em(1.0, 3.0)
    assert like == pytest.approx(-math.pi ** 3 / 2880.0, rel=1e-15)
    assert unlike == pytest.approx(7.0 * math.pi ** 3 / 23040.0, rel=1e-15)
    assert unlike / like == pytest.approx(-7.0 / 8.0, rel=1e-15)
    assert em == pytest.approx(-math.pi ** 3 / 1440.0, rel=1e-15)
    assert em / like == pytest.approx(2.0, rel=1e-15)


def test_pfa_energy_divergence_and_scaling():
    # E (d-2R)^2 is constant in d and linear in R
    for gap in (1e-1, 1e-2, 1e-3):
        prod = pfa_energy(1.0, 2.0 + gap, "like") * gap ** 2
        assert prod == pytest.approx(-math.pi ** 3 / 2880.0, rel=1e-12)
    assert (pfa_energy_em(3.0, 7.0)
            == pytest.approx(3.0 * pfa_energy_em(1.0, 7.0 - 4.0), rel=1e-15))


def test_pfa_energy_validation():
    with pytest.raises(ValueError):
        pfa_energy(1.0, 2.0, "like")
    with pytest.raises(ValueError):
        pfa_energy(1.0, 1.5, "like")
    with pytest.raises(ValueError):
        pfa_energy(-1.0, 3.0, "like")
    # refused for the radius, not as an overlap with 2R = inf
    for radius in (math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            pfa_energy(radius, 3.0, "like")
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            pfa_energy_em(radius, 3.0)
    with pytest.raises(ValueError):
        pfa_energy(1.0, 3.0, "mixed")
    with pytest.raises(ValueError):
        pfa_energy_em(1.0, 2.0)


def test_pfa_energy_refuses_a_non_finite_d():
    # inf > 2R would pass the overlap check and give an energy of 0
    for d in (math.inf, math.nan):
        with pytest.raises(ValueError, match="d must be finite"):
            pfa_energy(1.0, d, "like")
        with pytest.raises(ValueError, match="d must be finite"):
            pfa_energy_em(1.0, d)


def test_pfa_energy_scales_past_the_float_range_of_the_squared_gap():
    # E(R, d) = E(1, d/R) / R, also where (d - 2R)**2 overflows or
    # underflows to 0; those raised OverflowError or ZeroDivisionError
    for energy in (lambda r, d: pfa_energy(r, d, "unlike"), pfa_energy_em):
        assert energy(1.0, 1e300) == 0.0
        for radius in (1e200, 1e-300):
            assert energy(radius, 3.0 * radius) * radius == pytest.approx(
                energy(1.0, 3.0), rel=1e-14)


def test_amplitude_case_selection():
    # "unlike" iff exactly one boundary pins the field (zeta = 0)
    assert amplitude_case(D, D) == "like"
    assert amplitude_case(N, N) == "like"
    assert amplitude_case(D, N) == "unlike"
    assert amplitude_case(Robin(2.0), D) == "unlike"
    assert amplitude_case(Robin(2.0), Robin(3.0)) == "like"
    assert amplitude_case(Robin(0.0), N) == "unlike"
    assert amplitude_case(Robin(0.0), D) == "like"
    with pytest.raises(TypeError):
        amplitude_case(D, PerfectConductor())


def test_force_sign_table_rows():
    # six (zeta_1, zeta_2) rows: short-distance sign from the PFA case,
    # large-distance sign from the leading series coefficient
    rows = [
        (D, D, "-", "-"),
        (D, N, "+", "+"),
        (N, N, "-", "-"),
        (D, Robin(10.0), "+", "-"),
        (N, Robin(20.0), "-", "+"),
        (Robin(20.0), Robin(1.0), "-", "-"),
    ]
    for law1, law2, small, large in rows:
        assert pfa_force_sign(law1, law2) == small
        s1, s2 = SphereSpec(1.0, law1), SphereSpec(1.0, law2)
        assert series_force_sign(s1, s2) == large


# ---------------------------------------------------------------------------
# profile containers
# ---------------------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ValueError):
        RatioCurve(d=(3.0, 4.0), ratio=(1.0,))
    with pytest.raises(ValueError):
        RatioCurve(d=(3.0, 4.0), ratio=(1.0, 2.0), pfa_sign=0)
    with pytest.raises(ValueError):
        SignProfile(parameters=None,
                    regimes=(((3.0, 5.0), "attractive"),
                             ((5.0, 8.0), "attractive")),
                    zeros=((5.0, "-=>+"),), resolution=0.05)
    with pytest.raises(ValueError):
        SignProfile(parameters=None,
                    regimes=(((3.0, 8.0), "attractive"),),
                    zeros=((5.0, "-=>+"),), resolution=0.05)


# ---------------------------------------------------------------------------
# synthetic curves: Ehat = (d-2R)^2 h(d) makes the tangency residual
# proportional to h'(d), so force zeros sit exactly at critical points of h
# ---------------------------------------------------------------------------

def _synthetic_curve(d, h, pfa_sign=-1):
    d = np.asarray(d, dtype=float)
    return RatioCurve(d=tuple(d), ratio=tuple((d - 2.0) ** 2 * h(d)),
                      pfa_sign=pfa_sign)


def test_single_tangency_synthetic():
    d = np.arange(3.0, 8.01, 0.5)
    curve = _synthetic_curve(d, lambda x: ((x - 5.0) ** 2 + 1.0) / 25.0)
    prof = find_zero_force(curve, 1.0)
    assert prof.resolution == pytest.approx(0.05)
    assert prof.unresolved == ()
    assert len(prof.zeros) == 1
    d0, direction = prof.zeros[0]
    assert abs(d0 - 5.0) < prof.resolution
    assert direction == "-=>+"
    assert [s for _, s in prof.regimes] == ["attractive", "repulsive"]
    assert prof.regimes[0][0] == (3.0, d0)
    assert prof.regimes[1][0] == (d0, 8.0)


def test_single_tangency_refinement():
    # doubling the sampling density moves d0 by less than the coarse
    # resolution, and the fine profile localizes the exact critical point
    h = lambda x: ((x - 5.0) ** 2 + 1.0) / 25.0
    coarse = find_zero_force(
        _synthetic_curve(np.arange(3.0, 8.01, 0.5), h), 1.0)
    fine = find_zero_force(
        _synthetic_curve(np.arange(3.0, 8.01, 0.25), h), 1.0)
    assert abs(fine.zeros[0][0] - coarse.zeros[0][0]) < coarse.resolution
    assert abs(fine.zeros[0][0] - 5.0) < fine.resolution


def test_two_tangencies_synthetic():
    # h' = 3 (d-5)^2 - 3 vanishes at d = 4 and d = 6
    d = np.arange(3.0, 8.01, 0.25)
    curve = _synthetic_curve(
        d, lambda x: (x - 5.0) ** 3 - 3.0 * (x - 5.0) + 10.0)
    prof = find_zero_force(curve, 1.0)
    assert len(prof.zeros) == 2
    (z1, dir1), (z2, dir2) = prof.zeros
    assert abs(z1 - 4.0) < prof.resolution
    assert abs(z2 - 6.0) < prof.resolution
    assert (dir1, dir2) == ("+=>-", "-=>+")
    assert [s for _, s in prof.regimes] == [
        "repulsive", "attractive", "repulsive"]


def test_boundary_tangency_unresolved():
    # critical point inside the first grid interval is not trusted
    d = np.arange(3.0, 8.01, 0.5)
    curve = _synthetic_curve(d, lambda x: (x - 3.2) ** 2 + 1.0)
    prof = find_zero_force(curve, 1.0)
    assert prof.zeros == ()
    assert len(prof.regimes) == 1
    assert prof.regimes[0][1] == "repulsive"
    assert len(prof.unresolved) >= 1
    assert min(abs(u - 3.2) for u in prof.unresolved) < 0.2


def test_monotone_curve_has_no_zeros():
    # h' = -50/x^2 keeps the residual far from zero across the window
    d = np.arange(3.0, 8.01, 0.5)
    curve = _synthetic_curve(d, lambda x: 1.0 + 50.0 / x)
    prof = find_zero_force(curve, 1.0)
    assert prof.zeros == ()
    assert prof.regimes == (((3.0, 8.0), "attractive"),)


def test_find_zero_force_validation():
    good = np.arange(3.0, 8.01, 0.5)
    h = lambda x: np.ones_like(x)
    with pytest.raises(ValueError, match="at least 8 distances"):
        find_zero_force(_synthetic_curve(good[:7], h), 1.0)
    bad = good.copy()
    bad[3], bad[4] = bad[4], bad[3]
    with pytest.raises(ValueError, match="strictly increasing"):
        find_zero_force(_synthetic_curve(bad, h), 1.0)
    with pytest.raises(ValueError):
        find_zero_force(_synthetic_curve(good, h), 1.6)
    nans = _synthetic_curve(good, lambda x: np.where(x > 5.0, np.nan, 1.0))
    with pytest.raises(ValueError):
        find_zero_force(nans, 1.0)


# ---------------------------------------------------------------------------
# quadrature-driven curves: the three mixed-Robin pairs with sign changes
# ---------------------------------------------------------------------------

def _ehat_curve(law1, law2, d_grid):
    s1, s2 = SphereSpec(1.0, law1), SphereSpec(1.0, law2)
    case = amplitude_case(law1, law2)
    ratios = []
    for d in d_grid:
        l_max = max(8, min(28, int(math.ceil(14.0 / (d - 2.0)))))
        est = casimir_energy(Geometry.pair(s1, s2, d), "scalar-real", l_max)
        ratios.append(est.value / pfa_energy(1.0, d, case))
    sign = 1 if case == "unlike" else -1
    return RatioCurve(d=tuple(d_grid), ratio=tuple(ratios), pfa_sign=sign,
                      parameters=(law1, law2))


def _assert_raw_slope_flip(curve, d0, radius):
    # central differences of the raw energies must change sign near d0
    d = np.asarray(curve.d)
    case = "unlike" if curve.pfa_sign > 0 else "like"
    e = np.array([r * pfa_energy(radius, x, case)
                  for x, r in zip(d, curve.ratio)])
    slopes = (e[2:] - e[:-2]) / (d[2:] - d[:-2])
    mids = d[1:-1]
    flips = [0.5 * (mids[i] + mids[i + 1])
             for i in range(len(slopes) - 1)
             if slopes[i] * slopes[i + 1] < 0.0]
    spacing = float(np.max(np.diff(d)))
    assert any(abs(f - d0) <= 1.5 * spacing for f in flips)


def test_zero_crossing_dirichlet_robin():
    # pinned + finite-impedance pair: repulsive near contact, attractive
    # far out, with a single crossing
    curve = _ehat_curve(D, Robin(10.0), np.arange(4.0, 8.51, 0.5))
    prof = find_zero_force(curve, 1.0)
    assert len(prof.zeros) == 1
    d0, direction = prof.zeros[0]
    assert direction == "+=>-"
    assert 5.5 < d0 < 6.8
    assert prof.regimes[0][1] == "repulsive"
    assert prof.regimes[-1][1] == "attractive"
    _assert_raw_slope_flip(curve, d0, 1.0)
    # extra samples around d0 move it by less than the reported resolution
    refined = _ehat_curve(D, Robin(10.0), np.arange(5.0, 7.26, 0.25))
    prof2 = find_zero_force(refined, 1.0)
    assert len(prof2.zeros) == 1
    assert abs(prof2.zeros[0][0] - d0) < prof.resolution


def test_zero_crossing_neumann_robin():
    # free + finite-impedance pair: attractive near contact, repulsive far
    curve = _ehat_curve(N, Robin(10.0), np.arange(6.0, 12.01, 0.75))
    prof = find_zero_force(curve, 1.0)
    assert len(prof.zeros) == 1
    d0, direction = prof.zeros[0]
    assert direction == "-=>+"
    assert 7.8 < d0 < 9.3
    assert prof.regimes[0][1] == "attractive"
    assert prof.regimes[-1][1] == "repulsive"
    _assert_raw_slope_flip(curve, d0, 1.0)


def test_two_zero_crossings_robin_pair():
    # both impedances finite and well separated: attractive at both ends
    # with a repulsive window in between
    curve = _ehat_curve(Robin(20.0), Robin(1.0), np.arange(2.5, 9.01, 0.5))
    prof = find_zero_force(curve, 1.0)
    assert len(prof.zeros) == 2
    (z1, dir1), (z2, dir2) = prof.zeros
    assert (dir1, dir2) == ("-=>+", "+=>-")
    assert 3.0 < z1 < 4.0
    assert 7.0 < z2 < 8.3
    assert [s for _, s in prof.regimes] == [
        "attractive", "repulsive", "attractive"]
    _assert_raw_slope_flip(curve, z2, 1.0)
