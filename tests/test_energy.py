"""Tests for the energy module: assembly, quadrature, extrapolation."""

import math

import numpy as np
import pytest

from casphere.energy import (
    COMPLEX_SCALAR,
    DomainError,
    ELECTROMAGNETIC,
    EnergyEstimate,
    FieldKind,
    Geometry,
    QuadSpec,
    REAL_SCALAR,
    _accumulate_block,
    _history_nbody,
    _leading_lndets,
    casimir_energy,
    casimir_energy_nbody,
    extrapolate,
    integrand,
    suggest_l_max,
)
from casphere.tmatrix import (
    Dielectric,
    Dirichlet,
    Neumann,
    PerfectConductor,
    Robin,
    SphereSpec,
    t_scalar_imag,
)
import casphere.translation as translation
from casphere.translation import u_log_block

R = 1.0
DIR = SphereSpec(R, Dirichlet())
NEU = SphereSpec(R, Neumann())
PEC = SphereSpec(R, PerfectConductor())


def pair(s1, s2, d):
    return Geometry.pair(s1, s2, d)


# ---------------------------------------------------------------------------
# geometry and field validation
# ---------------------------------------------------------------------------

def test_geometry_validation():
    with pytest.raises(ValueError, match="overlap"):
        pair(DIR, DIR, 1.9)
    with pytest.raises(ValueError, match="overlap"):
        pair(DIR, DIR, 2.0)  # touching is not allowed either
    with pytest.raises(ValueError, match="increasing"):
        Geometry((DIR, DIR), (3.0, 0.0))
    with pytest.raises(ValueError, match="mismatch"):
        Geometry((DIR, DIR), (0.0, 3.0, 6.0))
    with pytest.raises(ValueError):
        Geometry((DIR,), (0.0,))
    with pytest.raises(ValueError, match="SphereSpec"):
        Geometry((DIR, "ball"), (0.0, 3.0))


def test_geometry_accessors():
    g = pair(DIR, SphereSpec(0.5, Neumann()), 4.0)
    assert g.n_spheres == 2
    assert g.d == 4.0
    assert g.surface_gap == 4.0 - 1.0 - 0.5
    g3 = Geometry((DIR, DIR, DIR), (0.0, 3.0, 6.0))
    assert g3.surface_gap == 1.0
    with pytest.raises(ValueError):
        g3.d


def test_quad_spec_validation():
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(t_max=-1.0)


def test_field_kinds():
    assert FieldKind("em") == ELECTROMAGNETIC
    with pytest.raises(ValueError):
        FieldKind("spinor")
    # the real scalar carries half the complex-scalar prefactor
    assert COMPLEX_SCALAR.prefactor == 2.0 * REAL_SCALAR.prefactor
    assert ELECTROMAGNETIC.prefactor == REAL_SCALAR.prefactor


def test_field_law_mismatch():
    g_scalar = pair(DIR, DIR, 4.0)
    g_em = pair(PEC, PEC, 4.0)
    with pytest.raises(TypeError):
        casimir_energy(g_scalar, "em", 4)
    with pytest.raises(TypeError):
        casimir_energy(g_em, "scalar-real", 4)
    with pytest.raises(TypeError):
        integrand(g_em, REAL_SCALAR, 1.0, 4)


def test_preconditions():
    g = pair(DIR, DIR, 4.0)
    with pytest.raises(ValueError):
        integrand(g, REAL_SCALAR, 0.0, 4)
    with pytest.raises(ValueError):
        integrand(g, REAL_SCALAR, -1.0, 4)
    with pytest.raises(ValueError):
        integrand(g, REAL_SCALAR, 1.0, -1)
    with pytest.raises(ValueError):
        integrand(pair(PEC, PEC, 4.0), ELECTROMAGNETIC, 1.0, 0)
    g3 = Geometry((DIR, DIR, DIR), (0.0, 4.0, 8.0))
    with pytest.raises(ValueError):
        integrand(g3, REAL_SCALAR, 1.0, 4)
    with pytest.raises(ValueError):
        casimir_energy(g3, REAL_SCALAR, 4)


# ---------------------------------------------------------------------------
# integrand: closed forms and decay
# ---------------------------------------------------------------------------

def test_swave_closed_form():
    # l_max = 0 round trip: N00 = (e^{2kR1}-1)(e^{2kR2}-1) e^{-2kd}/(2kd)^2
    r1, r2, d = 1.0, 0.7, 3.1
    g = pair(SphereSpec(r1, Dirichlet()), SphereSpec(r2, Dirichlet()), d)
    for kappa in (0.05, 0.3, 1.0, 2.7):
        n00 = ((math.exp(2 * kappa * r1) - 1.0)
               * (math.exp(2 * kappa * r2) - 1.0)
               * math.exp(-2.0 * kappa * d) / (2.0 * kappa * d) ** 2)
        want = math.log1p(-n00)
        got = integrand(g, REAL_SCALAR, kappa, 0)
        assert got == pytest.approx(want, rel=1e-13)


def test_swave_small_kappa_limit():
    r1, r2, d = 1.0, 0.7, 3.1
    g = pair(SphereSpec(r1, Dirichlet()), SphereSpec(r2, Dirichlet()), d)
    kappa = 1e-5
    approx = math.log1p(-(r1 * r2 / d**2)
                        * math.exp(-2.0 * kappa * (d - r1 - r2)))
    got = integrand(g, REAL_SCALAR, kappa, 0)
    # the neglected factor is 1 + O(kappa R)
    assert abs(got / approx - 1.0) < 3.0 * kappa * (r1 + r2)


def test_integrand_exponential_decay():
    g = pair(DIR, DIR, 4.0)
    gap = g.surface_gap
    i10 = integrand(g, REAL_SCALAR, 10.0 / gap, 6)
    i12 = integrand(g, REAL_SCALAR, 12.0 / gap, 6)
    assert abs(i12) < abs(i10) * math.exp(-2.0) * 1.1


def test_vacuum_sphere_integrand_zero():
    g = pair(SphereSpec(1.0, Dielectric(1.0, 1.0)), PEC, 4.0)
    assert integrand(g, ELECTROMAGNETIC, 0.8, 3) == 0.0
    est = casimir_energy(g, "em", 2)
    assert est.value == 0.0


# ---------------------------------------------------------------------------
# m-block decomposition against a plain-float full-matrix determinant
# ---------------------------------------------------------------------------

def test_block_decomposition_full_det():
    l_max, kappa, d = 4, 0.7, 4.0
    g = pair(DIR, DIR, d)
    x = kappa * d
    # internal-convention diagonal: T~_l = -(-1)^l T_l
    tt = np.array([-(-1.0) ** l * t_scalar_imag(DIR, l, kappa * R)
                   for l in range(l_max + 1)])
    dim = (l_max + 1) ** 2
    full = np.zeros((dim, dim))
    offsets = {}
    pos = 0
    for m in range(-l_max, l_max + 1):
        offsets[m] = pos
        pos += l_max + 1 - abs(m)
    per_m_lndet = {}
    for m in range(-l_max, l_max + 1):
        s, glog = u_log_block(l_max, abs(m), x, "12")
        u12 = s * np.exp(glog - x)
        lo = abs(m)
        p = (tt[:, None] * u12)[lo:, lo:]
        q = (tt[:, None] * u12.T)[lo:, lo:]
        n_m = p @ q
        per_m_lndet[m] = np.linalg.slogdet(np.eye(n_m.shape[0]) - n_m)[1]
        o = offsets[m]
        k = n_m.shape[0]
        full[o:o + k, o:o + k] = n_m
    sgn, ln_full = np.linalg.slogdet(np.eye(dim) - full)
    assert sgn > 0
    assert ln_full == pytest.approx(sum(per_m_lndet.values()), rel=1e-12)
    # the module computes m >= 0 and doubles m > 0
    assert integrand(g, REAL_SCALAR, kappa, l_max) == pytest.approx(
        ln_full, rel=1e-12)


# ---------------------------------------------------------------------------
# leading-minor determinants
# ---------------------------------------------------------------------------

def test_leading_lndets_matches_slogdet():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8))
    a *= 0.9 / max(abs(np.linalg.eigvals(a)))
    signs, lndets = _leading_lndets(a)
    for k in range(8):
        sgn, ld = np.linalg.slogdet(np.eye(k + 1) - a[:k + 1, :k + 1])
        assert signs[k] == sgn
        assert lndets[k] == pytest.approx(ld, rel=1e-10, abs=1e-12)


def test_leading_lndets_tiny_matrix_precision():
    # lndet(1 - eps A) ~ -eps tr A must keep full relative accuracy
    rng = np.random.default_rng(11)
    a = 1e-12 * rng.standard_normal((6, 6))
    _, lndets = _leading_lndets(a)
    assert lndets[-1] == pytest.approx(-np.trace(a), rel=1e-9)


def test_domain_error_on_lost_positivity():
    hist = np.zeros(1)
    with pytest.raises(DomainError):
        _accumulate_block(hist, np.array([[2.0]]), 0, 1.0)


# ---------------------------------------------------------------------------
# energies: truncation behavior, symmetry, units
# ---------------------------------------------------------------------------

def test_monotone_truncation_and_geometric_decay():
    est = casimir_energy(pair(DIR, DIR, 3.0), "scalar-real", 10)
    es = [e for _, e in est.history]
    # attractive channels add: estimates decrease (more negative) with l
    assert all(e2 < e1 for e1, e2 in zip(es, es[1:]))
    gaps = [abs(es[l + 2] - es[l]) for l in range(len(es) - 2)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_truncation_error_decreasing_towards_value():
    est = casimir_energy(pair(DIR, DIR, 3.0), "scalar-real", 9)
    errs = [abs(e - est.value) for _, e in est.history[-4:]]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert est.extrap_error >= 0.0
    assert est.quad_error >= 0.0


def test_energy_signs():
    for d in (3.0, 5.0):
        assert casimir_energy(pair(DIR, DIR, d), "scalar-real", 6).value < 0
        assert casimir_energy(pair(NEU, NEU, d), "scalar-real", 6).value < 0
        assert casimir_energy(pair(DIR, NEU, d), "scalar-real", 6).value > 0


def test_swap_symmetry():
    s1 = SphereSpec(1.0, Robin(0.7))
    s2 = SphereSpec(0.6, Dirichlet())
    e12 = casimir_energy(pair(s1, s2, 3.0), "scalar-real", 8)
    e21 = casimir_energy(pair(s2, s1, 3.0), "scalar-real", 8)
    # values are reported in hbar c / R_first: convert to physical
    assert e12.value / s1.radius == pytest.approx(e21.value / s2.radius,
                                                  rel=1e-8)


def test_scale_invariance():
    spec = SphereSpec(1.0, Robin(0.4))
    e1 = casimir_energy(pair(spec, spec, 3.0), "scalar-real", 5)
    spec2 = SphereSpec(2.0, Robin(0.4))
    e2 = casimir_energy(pair(spec2, spec2, 6.0), "scalar-real", 5)
    # in units of hbar c / R_1 the value is a function of ratios only
    assert e2.value == pytest.approx(e1.value, rel=1e-12)


def test_complex_scalar_doubles_real():
    g = pair(DIR, DIR, 4.0)
    er = casimir_energy(g, "scalar-real", 4)
    ec = casimir_energy(g, "scalar-complex", 4)
    assert ec.value == pytest.approx(2.0 * er.value, rel=1e-14)


def test_far_separation_series_check():
    # leading inverse-separation coefficients for Dirichlet spheres
    est = casimir_energy(pair(DIR, DIR, 20.0), "scalar-real", 6)
    bs = {3: -0.25, 4: -0.25, 5: -77.0 / 48, 6: -25.0 / 16,
          7: -29837.0 / 2880, 8: -6491.0 / 1152}
    x = R / 20.0
    series = sum(b * x ** (j - 1) for j, b in bs.items()) / (math.pi * 20.0)
    assert est.value == pytest.approx(series, rel=5e-3)


def test_em_far_matches_dipole_asymptote():
    est = casimir_energy(pair(PEC, PEC, 40.0), "em", 6)
    e_cp = -(143.0 / 16.0) / math.pi / 40.0 ** 7
    assert est.value == pytest.approx(e_cp, rel=1e-2)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_extrapolate_geometric_synthetic():
    g = pair(DIR, DIR, 4.0)
    history = [(l, 1.0 + 2.0 ** (-l)) for l in range(8)]
    e_inf, delta = extrapolate(history, g)
    assert abs(e_inf - 1.0) < 1e-14
    assert delta == pytest.approx(math.log(2.0) / 2.0, rel=1e-10)


def test_extrapolate_rejects_non_monotone():
    g = pair(DIR, DIR, 4.0)
    history = [(0, 1.0), (1, 0.5), (2, 0.75), (3, 0.7)]
    e_inf, delta = extrapolate(history, g)
    assert e_inf == 0.7
    assert math.isnan(delta)
    with pytest.raises(ValueError):
        extrapolate(history[:3], g)


def test_extrapolate_close_separation_l20():
    # R/d = 0.48: the first l <= 20 truncations suffice once
    # extrapolated; the stated uncertainty covers the remaining drift
    d = R / 0.48
    qs = QuadSpec(rel_tol=1e-7)
    est20 = casimir_energy(pair(DIR, DIR, d), "scalar-real", 20, qs)
    est24 = casimir_energy(pair(DIR, DIR, d), "scalar-real", 24, qs)
    assert est20.delta_fit == est20.delta_fit  # fit accepted
    drift = abs(est20.value - est24.value)
    assert drift < 0.5 * est20.extrap_error
    assert drift < 0.01 * abs(est24.value)
    # the fit supplies a genuinely large tail beyond the raw l = 20 value
    assert abs(est20.value - est20.history[-1][1]) > 0.05 * abs(est20.value)


def test_delta_of_order_unity():
    est = casimir_energy(pair(DIR, DIR, R / 0.3), "scalar-real", 10)
    assert 0.3 < est.delta_fit < 3.0


# ---------------------------------------------------------------------------
# N-body
# ---------------------------------------------------------------------------

def test_nbody_two_sphere_equivalence():
    g = pair(DIR, SphereSpec(0.8, Neumann()), 3.5)
    e2 = casimir_energy(g, "scalar-real", 6)
    en = casimir_energy_nbody(g, "scalar-real", 6)
    assert en.value == pytest.approx(e2.value, rel=1e-8)


def test_nbody_em_two_sphere_equivalence():
    g = pair(PEC, SphereSpec(1.0, Dielectric(3.0, 1.0)), 3.5)
    e2 = casimir_energy(g, "em", 4)
    en = casimir_energy_nbody(g, "em", 4)
    assert en.value == pytest.approx(e2.value, rel=1e-8)


def test_nbody_pairwise_additivity_far():
    # the three-body term decays like R/d relative to the pairwise sum
    g3 = Geometry((DIR, DIR, DIR), (0.0, 30.0, 60.0))
    e3 = casimir_energy_nbody(g3, "scalar-real", 4)
    e_near = casimir_energy(pair(DIR, DIR, 30.0), "scalar-real", 4).value
    e_far = casimir_energy(pair(DIR, DIR, 60.0), "scalar-real", 4).value
    assert e3.value == pytest.approx(2.0 * e_near + e_far, rel=1e-2)


def test_nbody_vacuum_sphere_drops_out():
    vac = SphereSpec(0.5, Dielectric(1.0, 1.0))
    g3 = Geometry((PEC, vac, PEC), (0.0, 2.5, 5.0))
    e3 = casimir_energy_nbody(g3, "em", 3)
    e2 = casimir_energy(pair(PEC, PEC, 5.0), "em", 3)
    assert e3.value == pytest.approx(e2.value, rel=1e-7)


# ---------------------------------------------------------------------------
# truncation-order suggestion
# ---------------------------------------------------------------------------

def test_suggest_l_max_bounds_and_ordering():
    near = suggest_l_max(pair(DIR, DIR, 3.0), "scalar-real")
    far = suggest_l_max(pair(DIR, DIR, 10.0), "scalar-real")
    assert 6 <= far <= near <= 40


# ---------------------------------------------------------------------------
# translation work per quadrature node
# ---------------------------------------------------------------------------

def _count_translation_chains(monkeypatch):
    calls = []
    chain = translation.bessel_ik_half_chain

    def counted(l_max, z):
        calls.append((l_max, z))
        return chain(l_max, z)
    monkeypatch.setattr(translation, "bessel_ik_half_chain", counted)
    return calls


@pytest.mark.parametrize("field,sphere", [("scalar-real", DIR), ("em", PEC)])
def test_one_translation_chain_per_node(monkeypatch, field, sphere):
    calls = _count_translation_chains(monkeypatch)
    integrand(pair(sphere, sphere, 3.0), field, 0.8, 8)
    assert len(calls) == 1


@pytest.mark.parametrize("field,law", [("scalar-real", Dirichlet()),
                                       ("em", PerfectConductor())])
def test_nbody_node_builds_one_chain_per_distance(monkeypatch, field, law):
    sph = SphereSpec(R, law)
    calls = _count_translation_chains(monkeypatch)
    _history_nbody(Geometry((sph, sph, sph), (0.0, 3.0, 6.0)),
                   FieldKind(field), 0.8, 4)
    assert sorted(z for _, z in calls) == [0.8 * 3.0, 0.8 * 6.0]


def test_w_kernel_is_one_array_for_the_largest_order(monkeypatch):
    monkeypatch.setattr(translation, "_W_KERNEL", np.zeros((0, 0, 0, 0)))
    g = pair(DIR, DIR, 3.0)
    for l_max in (5, 33, 9):
        integrand(g, REAL_SCALAR, 0.8, l_max)
    caches = [k for k, v in vars(translation).items()
              if not k.startswith("__") and isinstance(v, (np.ndarray, dict))]
    assert caches == ["_W_KERNEL"]
    assert translation._W_KERNEL.shape == (34, 34, 34, 34)
