"""Acceptance gate: nine end-to-end checks, one test (line) each.

Each test states its tolerance inline; together they tie the multipole
quadrature, the large-distance series, the PFA comparators, and the
force-sign classification to each other and to independent oracles.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import sph_harm_y

from casphere.asymptotics import (
    eval_series,
    expand_em_dielectric,
    expand_em_metal,
    expand_scalar,
)
from casphere.cli import _signmap_lmax
from casphere.energy import (
    Geometry,
    QuadSpec,
    REAL_SCALAR,
    casimir_energy,
    casimir_energy_nbody,
    integrand,
    suggest_l_max,
)
from casphere.pfa_sign import (
    RatioCurve,
    amplitude_case,
    find_zero_force,
    pfa_energy,
    pfa_energy_em,
    pfa_force_sign,
    series_force_sign,
)
from casphere.tmatrix import (
    Dielectric,
    Dirichlet,
    Neumann,
    PerfectConductor,
    Robin,
    SphereSpec,
)
from casphere.translation import u_log_block

from _oracles import (
    bessel_ik_half,
    chain_row,
    dipole_dipole_coefficient,
    t_scalar_imag,
    threej_family,
)

R = 1.0
DIR = SphereSpec(R, Dirichlet())
NEU = SphereSpec(R, Neumann())
PEC = SphereSpec(R, PerfectConductor())


def pair(s1, s2, d):
    return Geometry.pair(s1, s2, d)


def ehat(s1, s2, field, d, l_max, case=None):
    est = casimir_energy(pair(s1, s2, d), field, l_max)
    if field == "em":
        baseline = pfa_energy_em(R, d)
    else:
        baseline = pfa_energy(R, d, case or amplitude_case(s1.law, s2.law))
    return est.value / baseline


# ---------------------------------------------------------------------------

def test_printed_coefficient_tables_to_1e6_under_a_minute():
    t0 = time.monotonic()
    dd = expand_scalar(DIR, DIR)
    nn = expand_scalar(NEU, NEU, p_max=4, l_cut=3)
    dn = expand_scalar(DIR, NEU)
    tables = [
        (dd, {3: Fraction(-1, 4), 4: Fraction(-1, 4), 5: Fraction(-77, 48),
              6: Fraction(-25, 16), 7: Fraction(-29837, 2880),
              8: Fraction(-6491, 1152)}),
        (nn, {3: 0, 4: 0, 5: 0, 6: 0, 7: Fraction(-161, 96), 8: 0,
              9: Fraction(-3011, 192), 10: Fraction(-175, 128)}),
        (dn, {3: 0, 4: 0, 5: Fraction(17, 48), 6: Fraction(11, 32),
              7: Fraction(663, 160), 8: Fraction(235, 144)}),
    ]
    for series, printed in tables:
        for j, ref in printed.items():
            got = float(series.coeffs[j])
            if ref == 0:
                assert got == 0.0
            else:
                assert abs(got - float(ref)) <= 1e-6 * abs(float(ref))
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------

def test_series_matches_quadrature_at_one_twentieth():
    # R/d = 0.05: extrapolated energy within 0.1% of the series for the
    # three scalar pairs (each evaluated with its full printed set)
    cases = [
        (DIR, DIR, expand_scalar(DIR, DIR)),
        (NEU, NEU, expand_scalar(NEU, NEU, p_max=4, l_cut=3)),
        (DIR, NEU, expand_scalar(DIR, NEU)),
    ]
    for s1, s2, series in cases:
        geo = pair(s1, s2, 20.0)
        est = casimir_energy(geo, "scalar-real",
                             suggest_l_max(geo, "scalar-real"))
        val = eval_series(series, R, 20.0).value
        assert abs(val - est.value) / abs(est.value) < 1e-3


# ---------------------------------------------------------------------------

def test_em_metal_leading_term_and_ten_term_series():
    t0 = time.monotonic()
    geo = pair(PEC, PEC, 100.0)
    est = casimir_energy(geo, "em", suggest_l_max(geo, "em"))
    lead = -(143.0 / 16.0) / math.pi / 100.0 ** 7
    assert abs(est.value - lead) / abs(lead) < 1e-2
    geo = pair(PEC, PEC, 10.0)
    est = casimir_energy(geo, "em", suggest_l_max(geo, "em"))
    ten = eval_series(expand_em_metal(), R, 10.0, n_terms=10)
    assert ten.first_growing == 6  # divergence flag raised at this d
    assert abs(est.value - ten.value) / abs(ten.value) < 2e-2
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------

def test_dielectric_quadrature_vs_series_and_bracket_algebra():
    sd = SphereSpec(R, Dielectric(2.0, 1.0))
    geo = pair(sd, sd, 60.0)
    est = casimir_energy(geo, "em", suggest_l_max(geo, "em"))
    val = eval_series(expand_em_dielectric(sd, sd), R, 60.0).value
    assert abs(est.value - val) / abs(val) < 1e-2
    # perfect-reflector limit of the dipole bracket, exactly:
    # like terms 23/4 (1 + 1/4) = 115/16, cross term +7/4, total 143/16
    a_e, a_m = Fraction(1), Fraction(-1, 2)
    like = Fraction(23, 4) * (a_e ** 2 + a_m ** 2)
    cross = -Fraction(7, 2) * a_e * a_m
    assert like == Fraction(115, 16)
    assert cross == Fraction(7, 4)
    assert dipole_dipole_coefficient(a_e, a_m) == Fraction(143, 16)
    assert dipole_dipole_coefficient(a_e, a_m) == like + cross


# ---------------------------------------------------------------------------

def test_pfa_ratio_anchor_points():
    # Neumann at R/d = 0.2 overestimated by ~100x
    assert 0.005 < ehat(NEU, NEU, "scalar-real", 5.0, 16) < 0.015
    # EM perfect reflectors at R/d = 0.3 overestimated by ~10x
    assert 0.07 < ehat(PEC, PEC, "em", 10.0 / 3.0, 18) < 0.13
    # Dirichlet ratio crosses 1 inside R/d in (0.25, 0.45)
    lo = ehat(DIR, DIR, "scalar-real", 1.0 / 0.25, 16)
    hi = ehat(DIR, DIR, "scalar-real", 1.0 / 0.45, 28)
    assert lo < 1.0 < hi


# ---------------------------------------------------------------------------

def test_ratio_approaches_pfa_near_contact():
    cases = [(DIR, DIR, "scalar-real", 32), (NEU, NEU, "scalar-real", 32),
             (DIR, NEU, "scalar-real", 32), (PEC, PEC, "em", 28)]
    for s1, s2, field, l_max in cases:
        at40 = ehat(s1, s2, field, 2.5, l_max)
        at48 = ehat(s1, s2, field, 1.0 / 0.48, l_max)
        assert 0.5 < at48 < 1.3
        assert abs(at48 - 1.0) < abs(at40 - 1.0)


# ---------------------------------------------------------------------------

def _ratio_curve(law1, law2, grid):
    s1, s2 = SphereSpec(R, law1), SphereSpec(R, law2)
    case = amplitude_case(law1, law2)
    ratios = []
    for d in grid:
        # the sign map's own rule, so the test sees the orders the CLI uses
        l_max = _signmap_lmax(R, float(d), None)
        est = casimir_energy(pair(s1, s2, float(d)), "scalar-real", l_max)
        ratios.append(est.value / pfa_energy(R, float(d), case))
    return RatioCurve(d=tuple(grid), ratio=tuple(ratios),
                      pfa_sign=1 if case == "unlike" else -1)


def test_force_sign_table_and_zero_force_counts():
    rows = [
        (Dirichlet(), Dirichlet(), "-", "-"),
        (Dirichlet(), Neumann(), "+", "+"),
        (Neumann(), Neumann(), "-", "-"),
        (Dirichlet(), Robin(10.0), "+", "-"),
        (Neumann(), Robin(10.0), "-", "+"),
        (Robin(20.0), Robin(1.0), "-", "-"),
    ]
    for law1, law2, small, large in rows:
        assert pfa_force_sign(law1, law2) == small
        assert series_force_sign(SphereSpec(R, law1),
                                 SphereSpec(R, law2)) == large
    # zero-force counts for the mixed-impedance rows
    prof = find_zero_force(
        _ratio_curve(Dirichlet(), Robin(10.0), np.arange(4.0, 8.51, 0.5)), R)
    assert len(prof.zeros) == 1 and prof.zeros[0][1] == "+=>-"
    prof = find_zero_force(
        _ratio_curve(Neumann(), Robin(10.0), np.arange(6.0, 12.01, 0.75)), R)
    assert len(prof.zeros) == 1 and prof.zeros[0][1] == "-=>+"
    prof = find_zero_force(
        _ratio_curve(Robin(20.0), Robin(1.0), np.arange(2.5, 9.01, 0.5)), R)
    assert len(prof.zeros) == 2
    assert [z[1] for z in prof.zeros] == ["-=>+", "+=>-"]


# ---------------------------------------------------------------------------

def test_truncation_error_rate_scales_with_gap():
    # fit log|E^(l) - E| over the first multipoles (l = 0..5); the slope
    # is -delta (d/R - 2) with one delta across separations within 25%
    deltas = []
    for d in (5.0, 10.0 / 3.0, 2.5):
        est = casimir_energy(pair(DIR, DIR, d), "scalar-real", 14,
                             QuadSpec(rel_tol=1e-10))
        ls = np.arange(0, 6)
        logr = np.array([math.log(abs(est.history[l][1] - est.value)
                                  / abs(est.value)) for l in ls])
        slope, icpt = np.polyfit(ls, logr, 1)
        assert np.max(np.abs(logr - (slope * ls + icpt))) < 0.35  # linear
        deltas.append(-slope / (d - 2.0))
    mid = math.sqrt(max(deltas) * min(deltas))
    assert max(deltas) / mid <= 1.25 and min(deltas) / mid >= 0.75
    for delta in deltas:
        assert 0.3 < delta < 3.0


# ---------------------------------------------------------------------------

def _sph_i(l_arr, z):
    ch = chain_row(int(np.max(l_arr)), z)
    return np.sqrt(np.pi / (2 * z)) * np.exp(ch.log_i[l_arr] + z)


def _sph_k(l, z):
    ch = chain_row(l, z)
    return math.sqrt(2 / (math.pi * z)) * math.exp(ch.log_k[l] - z)


def test_structural_property_battery():
    # addition theorem: residual < 1e-8
    kappa, d = 1.3, 2.1
    r, th, ph = 0.6, 1.1, 0.7
    x = r * np.array([math.sin(th) * math.cos(ph),
                      math.sin(th) * math.sin(ph), math.cos(th)])
    for l, m in ((2, 1), (4, 0)):
        rel = x - np.array([0.0, 0.0, d])
        rr = float(np.linalg.norm(rel))
        lhs = _sph_k(l, kappa * rr) * sph_harm_y(
            l, m, math.acos(rel[2] / rr), math.atan2(rel[1], rel[0]))
        sign, logmag = u_log_block(40, m, kappa * d, "12")
        u = sign * np.exp(logmag - kappa * d)
        lp = np.arange(m, 41)
        ylm = np.array([sph_harm_y(int(a), m, th, ph) for a in lp])
        rhs = -np.sum(u[lp, l] * _sph_i(lp, kappa * r) * ylm)
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)
    # 3j orthogonality: < 1e-10
    for l1, l2, m1, m2 in ((30, 30, 5, -5), (45, 20, 11, -3), (12, 9, 0, 4)):
        jmin, fam = threej_family(l1, l2, m1, m2)
        j = np.arange(jmin, l1 + l2 + 1)
        assert abs(float(np.sum((2 * j + 1) * fam * fam)) - 1.0) < 1e-10
    jmin_a, fa = threej_family(20, 14, 3, -5)
    jmin_b, fb = threej_family(20, 14, 6, -8)  # same m3, different split
    lo = max(jmin_a, jmin_b)
    s = float(np.sum((2 * np.arange(lo, 35) + 1)
                     * fa[lo - jmin_a:] * fb[lo - jmin_b:]))
    assert abs(s) < 1e-10
    # Bessel Wronskians: < 1e-12
    for l in (0, 5, 40):
        for z in (0.01, 1.0, 50.0):
            p = bessel_ik_half(l, z)
            w = p.i_scaled * p.dk_scaled - p.di_scaled * p.k_scaled
            assert abs(w + 1.0 / z) <= 1e-12 / z
    # swap symmetry at quadrature tolerance
    s1, s2 = SphereSpec(1.0, Robin(0.7)), SphereSpec(0.6, Dirichlet())
    e12 = casimir_energy(pair(s1, s2, 3.0), "scalar-real", 8)
    e21 = casimir_energy(pair(s2, s1, 3.0), "scalar-real", 8)
    assert e12.value / s1.radius == pytest.approx(e21.value / s2.radius,
                                                  rel=1e-8)
    # scale invariance of the dimensionless energy
    ra, rb = SphereSpec(1.0, Robin(0.4)), SphereSpec(2.0, Robin(0.4))
    ea = casimir_energy(pair(ra, ra, 3.0), "scalar-real", 5)
    eb = casimir_energy(pair(rb, rb, 6.0), "scalar-real", 5)
    assert eb.value == pytest.approx(ea.value, rel=1e-9)
    # m-block factorization against a joint-basis determinant
    l_max, kappa, dd = 4, 0.7, 4.0
    tt = np.array([-(-1.0) ** l * t_scalar_imag(DIR, l, kappa * R)
                   for l in range(l_max + 1)])
    dim = (l_max + 1) ** 2
    full = np.zeros((dim, dim))
    pos = 0
    for m in range(-l_max, l_max + 1):
        sgn, glog = u_log_block(l_max, abs(m), kappa * dd, "12")
        u12 = sgn * np.exp(glog - kappa * dd)
        lo = abs(m)
        n_m = ((tt[:, None] * u12)[lo:, lo:]
               @ (tt[:, None] * u12.T)[lo:, lo:])
        k = n_m.shape[0]
        full[pos:pos + k, pos:pos + k] = n_m
        pos += k
    _, ln_full = np.linalg.slogdet(np.eye(dim) - full)
    assert integrand(pair(DIR, DIR, dd), REAL_SCALAR, kappa,
                     l_max) == pytest.approx(ln_full, rel=1e-12)
    # N = 2 n-body reduction at quadrature tolerance
    g = pair(DIR, SphereSpec(0.8, Neumann()), 3.5)
    assert casimir_energy_nbody(g, "scalar-real", 6).value == pytest.approx(
        casimir_energy(g, "scalar-real", 6).value, rel=1e-8)
    g = pair(PEC, SphereSpec(1.0, Dielectric(3.0, 1.0)), 3.5)
    assert casimir_energy_nbody(g, "em", 4).value == pytest.approx(
        casimir_energy(g, "em", 4).value, rel=1e-8)
