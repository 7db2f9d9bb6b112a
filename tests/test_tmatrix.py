"""Tests for single-sphere T-matrices: anchors, oracles, limits, series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casphere.energy import Geometry, integrand
from casphere.specfun import _ARG_CEILING, _chain_rows
from casphere.tmatrix import (
    Dielectric,
    Dirichlet,
    Dispersive,
    Neumann,
    PerfectConductor,
    Robin,
    SphereSpec,
    _checked_kappas,
    _robin_bracket,
    _t_em_rows,
    _t_scalar_rows,
    mie_series_fractions,
)

from _oracles import (
    pec_log_ref,
    pec_series_ref,
    phase_shift,
    t_em_imag,
    t_em_ref,
    t_log_row,
    t_low_kappa_series,
    t_scalar_imag,
    t_scalar_ref,
)

R = 1.0
DIR = SphereSpec(R, Dirichlet())
NEU = SphereSpec(R, Neumann())
PEC = SphereSpec(R, PerfectConductor())


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        SphereSpec(0.0, Dirichlet())
    with pytest.raises(ValueError):
        SphereSpec(-1.0, Neumann())
    # infinity passes "> 0" alone, NaN no comparison at all
    for radius in (math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            SphereSpec(radius, Dirichlet())
    with pytest.raises(ValueError, match="bound-state"):
        SphereSpec(1.0, Robin(-0.5))
    with pytest.raises(ValueError):
        SphereSpec(1.0, Robin(-2.0))
    with pytest.raises(ValueError):
        SphereSpec(1.0, Dielectric(-1.0, 1.0))
    with pytest.raises(ValueError):
        SphereSpec(1.0, Dielectric(2.0, 0.0))
    with pytest.raises(ValueError):
        SphereSpec(1.0, "free")
    SphereSpec(1.0, Robin(0.0))
    SphereSpec(1.0, Robin(math.inf))


def test_spec_rejects_nan_robin():
    # NaN passes no comparison: the range check must not read it as valid
    with pytest.raises(ValueError, match="bound-state"):
        SphereSpec(1.0, Robin(math.nan))


def test_spec_rejects_non_finite_dielectric():
    # an infinite eps or mu would pass "> 0" and overflow every energy
    for eps, mu in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            SphereSpec(1.0, Dielectric(eps, mu))


def test_t_log_rejects_non_finite_kappa():
    # every T-matrix row passes the kappa check: through the energy's
    # integrand, scalar and EM, and on a batch with one bad kappa
    pairs = ((Geometry.pair(DIR, DIR, 3.0), "scalar-real"),
             (Geometry.pair(PEC, PEC, 3.0), "em"))
    for kappa in (math.inf, math.nan, 0.0):
        for geometry, field in pairs:
            with pytest.raises(ValueError, match="finite and positive"):
                integrand(geometry, field, kappa, 4)
        with pytest.raises(ValueError, match="finite and positive"):
            _checked_kappas(np.array([0.5, kappa, 2.0]))


def test_robin_inf_is_neumann():
    spec = SphereSpec(R, Robin(math.inf))
    for l in range(4):
        assert t_scalar_imag(spec, l, 0.8) == t_scalar_imag(NEU, l, 0.8)


def test_law_kind_errors():
    with pytest.raises(TypeError):
        t_scalar_imag(PEC, 0, 1.0)
    with pytest.raises(TypeError):
        t_em_imag(DIR, 1, 1.0)
    with pytest.raises(TypeError):
        phase_shift(SphereSpec(R, Dielectric(2.0, 1.0)), 0, 1.0)
    with pytest.raises(ValueError):
        t_scalar_imag(DIR, 0, 0.0)
    with pytest.raises(ValueError):
        t_em_imag(PEC, 0, 1.0)


# ---------------------------------------------------------------------------
# phase shifts (real frequency)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("xi", [1e-3, 0.3, 1.7, 4.0, 9.2])
def test_phase_shift_dirichlet_s_wave(xi):
    # delta_0 = -xi modulo pi, folded into (-pi/2, pi/2]
    ref = -xi
    while ref <= -math.pi / 2:
        ref += math.pi
    while ref > math.pi / 2:
        ref -= math.pi
    assert phase_shift(DIR, 0, xi) == pytest.approx(ref, abs=1e-12)


def test_phase_shift_neumann_s_wave_cubic():
    # vanishing s-wave amplitude: delta_0 = O(xi^3)
    for xi in (1e-2, 1e-3):
        d = phase_shift(NEU, 0, xi)
        assert abs(d) < xi ** 2
        assert abs(d / xi ** 3 + 1.0 / 3.0) < 0.1


def test_phase_shift_bracket_zeros_are_finite():
    # j_0(pi) = 0: cot diverges, delta = 0 mod pi -- a value, not a crash
    assert abs(phase_shift(DIR, 0, math.pi)) < 1e-12
    # n_0(pi/2) = 0: cot vanishes, delta = +-pi/2 (resonance indicator)
    assert abs(phase_shift(DIR, 0, math.pi / 2)) == pytest.approx(math.pi / 2)


@given(st.floats(0.0, 50.0), st.integers(0, 8), st.floats(0.05, 12.0))
@settings(max_examples=80, deadline=None)
def test_phase_shift_unitarity(zeta, l, k):
    spec = SphereSpec(R, Robin(zeta))
    t = (np.exp(2j * phase_shift(spec, l, k)) - 1.0) / 2.0
    assert abs(abs(1.0 + 2.0 * t) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# scalar entries on the imaginary axis
# ---------------------------------------------------------------------------

def test_dirichlet_s_wave_closed_form():
    assert t_scalar_imag(DIR, 0, 1.0) == pytest.approx(
        math.sinh(1.0) * math.e, rel=1e-14)


def test_dirichlet_low_kappa_linear():
    assert t_scalar_imag(DIR, 0, 1e-6) / 1e-6 == pytest.approx(1.0, rel=1e-5)


def test_neumann_low_kappa_cubic():
    z = 1e-4
    t = t_scalar_imag(NEU, 0, z)
    assert t / z ** 3 == pytest.approx(-1.0 / 3.0, rel=1e-6)
    assert abs(t / z) < 1e-7


@pytest.mark.parametrize("zeta", [0.0, None, 0.3, 1.0, 7.5])
@pytest.mark.parametrize("l", [0, 1, 2, 5, 10])
@pytest.mark.parametrize("z", [0.01, 0.4, 2.0, 10.0])
def test_scalar_matches_bracket_reference(zeta, l, z):
    law = {0.0: Dirichlet(), None: Neumann()}.get(zeta, Robin(zeta or 0.0))
    spec = SphereSpec(R, law)
    ref = t_scalar_ref(zeta, l, z)
    val = t_scalar_imag(spec, l, z)
    assert val == pytest.approx(ref, rel=1e-11, abs=1e-300)


@pytest.mark.parametrize("l", [0, 1, 2, 3, 7, 10])
def test_dirichlet_sign_pattern(l):
    # (-1)^l T_l > 0 throughout z in (0, 10]
    for z in np.linspace(0.05, 10.0, 40):
        assert (-1) ** l * t_scalar_imag(DIR, l, z) > 0.0


@pytest.mark.parametrize("l", [0, 1, 4, 10])
@pytest.mark.parametrize("z", [0.01, 0.1, 1.0, 10.0])
def test_robin_limits(l, z):
    d = t_scalar_imag(DIR, l, z)
    n = t_scalar_imag(NEU, l, z)
    assert abs(t_scalar_imag(SphereSpec(R, Robin(1e-8)), l, z) - d) \
        <= 1e-6 * abs(d)
    # the s-wave Neumann limit is slow: deviation ~ 3/(zeta z^2) exactly
    tol = 1e-6 if l > 0 else 1e-6 + 4.0 / (1e8 * z * z)
    assert abs(t_scalar_imag(SphereSpec(R, Robin(1e8)), l, z) - n) \
        <= tol * abs(n)


def test_scalar_depends_on_z_only():
    # radius enters only through z = kappa R
    a = t_scalar_imag(SphereSpec(2.0, Robin(0.7)), 3, 0.45)
    b = t_scalar_imag(SphereSpec(1.0, Robin(0.7)), 3, 0.9)
    assert a == pytest.approx(b, rel=1e-15)


def test_scalar_log_consistency():
    spec = SphereSpec(R, Robin(0.4))
    sign, logmag = t_log_row(spec, 12, 0.9)
    for l in range(13):
        val = -(-1) ** l * sign[l] * math.exp(logmag[l] + 2 * 0.9)
        assert val == pytest.approx(t_scalar_imag(spec, l, 0.9), rel=1e-13)


def test_scalar_finite_over_wide_kappa():
    for spec in (DIR, NEU, SphereSpec(R, Robin(2.0))):
        sign, logmag = t_log_row(spec, 30, 1e-6)
        assert np.all(np.isfinite(logmag))
        sign, logmag = t_log_row(spec, 30, 300.0)
        assert np.all(np.isfinite(logmag))


# ---------------------------------------------------------------------------
# electromagnetic entries
# ---------------------------------------------------------------------------

def test_vacuum_sphere_scatters_nothing():
    vac = SphereSpec(R, Dielectric(1.0, 1.0))
    for l in (1, 2, 5):
        for kap in (0.1, 1.0, 7.0):
            assert t_em_imag(vac, l, kap) == (0.0, 0.0)


@pytest.mark.parametrize("eps,mu", [(2.0, 1.0), (4.0, 1.0), (2.0, 3.0),
                                    (1.0, 2.0), (16.0, 0.25), (80.0, 1.0),
                                    (1.0, 3.0), (1.0 + 1e-4, 1.0),
                                    (1.0 + 1e-8, 1.0), (1.0 + 1e-12, 1.0),
                                    (1.0, 1.0 + 1e-10)])
@pytest.mark.parametrize("l", [1, 2, 4])
@pytest.mark.parametrize("z", [1e-9, 1e-6, 1e-3, 0.05, 0.6, 3.0, 40.0])
def test_em_matches_reference(eps, mu, l, z):
    # at small kappa R the bracket of a channel with x = 1 (mu for M, eps
    # for E) is O(z^2), and a nearly vacuum sphere's brackets are
    # O(n^2 - 1): its entries must keep full relative precision there
    spec = SphereSpec(R, Dielectric(eps, mu))
    ref_m, ref_e = t_em_ref(eps, mu, l, z)
    val_m, val_e = t_em_imag(spec, l, z)
    assert val_m == pytest.approx(ref_m, rel=1e-13, abs=1e-300)
    assert val_e == pytest.approx(ref_e, rel=1e-13, abs=1e-300)


def test_pec_static_polarizabilities():
    # T_E kappa^-3 -> (2/3) alpha_E with alpha_E = R^3; magnetic has -R^3/2
    k = 1e-5
    for rad in (1.0, 2.5):
        tm, te = t_em_imag(SphereSpec(rad, PerfectConductor()), 1, k)
        assert te / k ** 3 == pytest.approx(2.0 / 3.0 * rad ** 3, rel=1e-6)
        assert tm / k ** 3 == pytest.approx(-rad ** 3 / 3.0, rel=1e-6)


def test_pec_logs_are_robin_logs_at_zeta_0_and_minus_1():
    # M is the Dirichlet entry bit for bit.  E sums 1 + (l + z rho) where
    # the channel bracket summed (1 + l) + z rho: its log moves by at most
    # 4 ulp of max(|log|, 1) (2 ulp seen)
    for z in np.geomspace(1e-6, 1e3, 91):
        sign, logmag = t_log_row(PEC, 40, z, em=True)
        ref = pec_log_ref(40, z)
        assert np.array_equal(sign[0:2], [0.0, 0.0])
        assert np.array_equal(logmag[0:2], [-np.inf, -np.inf])
        assert np.array_equal(sign[2::2], ref["M"][0][1:])
        assert logmag[2::2].tobytes() == ref["M"][1][1:].tobytes()
        assert np.array_equal(sign[3::2], ref["E"][0][1:])
        ref_e = ref["E"][1][1:]
        err = np.abs(logmag[3::2] - ref_e)
        assert np.all(err <= 4 * np.spacing(np.maximum(np.abs(ref_e), 1.0)))


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("z", [0.1, 0.5, 1.5, 5.0])
def test_dielectric_pec_limit(l, z):
    near = SphereSpec(R, Dielectric(1e8, 1e-8))
    for a, b in zip(t_em_imag(near, l, z), t_em_imag(PEC, l, z)):
        assert a == pytest.approx(b, rel=1e-3)


def test_em_depends_on_z_only():
    a = t_em_imag(SphereSpec(2.0, Dielectric(3.0, 2.0)), 2, 0.35)
    b = t_em_imag(SphereSpec(1.0, Dielectric(3.0, 2.0)), 2, 0.7)
    assert a[0] == pytest.approx(b[0], rel=1e-13)
    assert a[1] == pytest.approx(b[1], rel=1e-13)


def test_em_log_deep_multipole_no_underflow():
    # log-domain assembly keeps l ~ 60 entries representable at small z
    blocks = t_log_row(SphereSpec(R, Dielectric(2.0, 1.0)), 60, 1e-2, em=True)
    sign, logmag = blocks[0][1::2], blocks[1][1::2]
    assert sign[60] != 0.0
    assert np.isfinite(logmag[60])


def test_dispersive_extension_point():
    disp = SphereSpec(R, Dispersive(lambda kap: (2.0, 3.0)))
    const = SphereSpec(R, Dielectric(2.0, 3.0))
    assert t_em_imag(disp, 2, 0.8) == t_em_imag(const, 2, 0.8)
    with pytest.raises(ValueError):
        SphereSpec(R, Dispersive(4.2))
    bad = SphereSpec(R, Dispersive(lambda kap: (-1.0, 1.0)))
    with pytest.raises(ValueError):
        t_em_imag(bad, 1, 1.0)
    with pytest.raises(ValueError):
        t_low_kappa_series(disp, 1, 0)


@pytest.mark.parametrize("eps_mu", [(math.inf, 1.0), (2.0, math.inf),
                                    (math.nan, 1.0), (2.0, math.nan),
                                    (-1.0, 1.0), (2.0, 0.0)])
def test_dispersive_rejects_non_finite_or_non_positive(eps_mu):
    bad = SphereSpec(R, Dispersive(lambda kap: eps_mu))
    with pytest.raises(ValueError,
                       match=r"eps_mu\(kappa\) must return finite positive "
                             r"values"):
        t_log_row(bad, 3, 0.8, em=True)


# ---------------------------------------------------------------------------
# batched rows over kappa
# ---------------------------------------------------------------------------

def _eps_drude(kappa):
    # a permittivity that varies with kappa, with mu = 1
    return 1.0 + 3.0 / (1.0 + kappa * (kappa + 0.2)), 1.0


BATCH_LAWS = [(Dirichlet(), False), (Neumann(), False), (Robin(0.7), False),
              (Robin(math.inf), False), (PerfectConductor(), True),
              (Dielectric(4.0, 1.0), True), (Dielectric(1.0 + 1e-12, 1.0), True),
              (Dispersive(_eps_drude), True)]

# kappa R from 1e-6 to 1e3 at R = 0.8, unsorted and with repeats
BATCH_KAPPAS = [2.5, 1e-6 / 0.8, 0.37, 1e3 / 0.8, 12.0, 0.37, 4e-4, 2.5,
                61.0, 1e-6 / 0.8, 1.0]


def _rows(spec, l_max, kv, em):
    # the path of energy: every kappa checked, then the chain at kappa R
    kappas = _checked_kappas(kv)
    ch = _chain_rows(l_max, kv * spec.radius)
    return (_t_em_rows if em else _t_scalar_rows)(spec, ch, kappas)


@pytest.mark.parametrize("law,em", BATCH_LAWS)
@pytest.mark.parametrize("l_max", [0, 1, 8, 40])
def test_batched_rows_equal_one_kappa_calls(law, em, l_max):
    spec = SphereSpec(0.8, law)
    sign, logmag = _rows(spec, l_max, np.array(BATCH_KAPPAS), em)
    width = (2 if em else 1) * (l_max + 1)
    assert sign.shape == logmag.shape == (len(BATCH_KAPPAS), width)
    for i, kappa in enumerate(BATCH_KAPPAS):
        s1, g1 = t_log_row(spec, l_max, kappa, em)
        for row, one in ((sign[i], s1), (logmag[i], g1)):
            assert np.array_equal(row, one)
            assert row.tobytes() == one.tobytes()


@pytest.mark.parametrize("law,em", BATCH_LAWS)
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan,
                                 2.0 * _ARG_CEILING])
def test_batch_raises_as_the_one_kappa_call(law, em, bad):
    spec = SphereSpec(1.0, law)
    with pytest.raises(ValueError) as one:
        t_log_row(spec, 3, bad, em)
    with pytest.raises(ValueError) as rows:
        _rows(spec, 3, np.array([0.5, bad, 2.0]), em)
    assert str(rows.value) == str(one.value)


def test_batch_raises_on_one_bad_eps_mu():
    def eps_mu(kappa):
        return (-1.0, 1.0) if kappa == 0.7 else (2.0, 1.0)
    spec = SphereSpec(1.0, Dispersive(eps_mu))
    with pytest.raises(ValueError) as one:
        t_log_row(spec, 3, 0.7, em=True)
    with pytest.raises(ValueError) as rows:
        _rows(spec, 3, np.array([0.5, 0.7, 2.0]), True)
    assert str(rows.value) == str(one.value)
    assert "eps_mu(kappa) must return finite positive" in str(rows.value)


# ---------------------------------------------------------------------------
# low-frequency series
# ---------------------------------------------------------------------------

def test_series_leading_alpha_examples():
    # l=1 leading M coefficient is (2/3) alpha_M; eps=2 gives alpha_E = R^3/4
    s = t_low_kappa_series(SphereSpec(R, Dielectric(2.0, 1.0)), 1, 0)
    assert s["E"][3] == pytest.approx(2.0 / 3.0 * 0.25)
    assert s["M"][3] == 0.0
    s = t_low_kappa_series(PEC, 1, 0)
    assert s["E"][3] == pytest.approx(2.0 / 3.0)
    assert s["M"][3] == pytest.approx(-1.0 / 3.0)


def test_series_gamma_values():
    s = t_low_kappa_series(SphereSpec(R, Dielectric(2.0, 1.0)), 1, 3)
    assert s["M"][4] == 0.0  # no kappa^{2l+2} term
    assert s["M"][5] == pytest.approx(-1.0 / 45.0)
    assert s["M"][6] == 0.0  # (mu-1)^2 factor with mu=1
    assert s["E"][5] == pytest.approx(-(4.0 + 2.0 * (2.0 - 4.0)) / 80.0)
    assert s["E"][6] == pytest.approx((4.0 / 9.0) * (1.0 / 16.0))


def test_series_radius_powers():
    s1 = t_low_kappa_series(SphereSpec(1.0, Dielectric(3.0, 2.0)), 1, 3)
    s2 = t_low_kappa_series(SphereSpec(2.0, Dielectric(3.0, 2.0)), 1, 3)
    for pol in ("M", "E"):
        for p, c in s1[pol].items():
            assert s2[pol][p] == pytest.approx(c * 2.0 ** p, rel=1e-14)


def test_series_unsupported_orders():
    with pytest.raises(ValueError):
        t_low_kappa_series(DIR, 0, 5)
    with pytest.raises(ValueError):
        t_low_kappa_series(SphereSpec(R, Dielectric(2.0, 1.0)), 2, 2)
    with pytest.raises(ValueError):
        t_low_kappa_series(SphereSpec(R, Dielectric(2.0, 1.0)), 1, 4)
    with pytest.raises(ValueError):
        t_low_kappa_series(PEC, 0, 0)


@pytest.mark.parametrize("law", [Dirichlet(), Neumann(), Robin(0.5),
                                 Robin(3.0)])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_series_consistency_scalar(law, l):
    # reproduce the direct entries to 1e-4 relative at kappa R = 1e-3
    spec = SphereSpec(R, law)
    k = 1e-3
    coeffs = t_low_kappa_series(spec, l, 4)["scalar"]
    approx = sum(c * k ** p for p, c in coeffs.items())
    assert approx == pytest.approx(t_scalar_imag(spec, l, k), rel=1e-4)


@pytest.mark.parametrize("l", [1, 2])
def test_series_consistency_pec(l):
    k = 1e-3
    coeffs = t_low_kappa_series(PEC, l, 4)
    tm, te = t_em_imag(PEC, l, k)
    for pol, direct in (("M", tm), ("E", te)):
        approx = sum(c * k ** p for p, c in coeffs[pol].items())
        assert approx == pytest.approx(direct, rel=1e-4)


@pytest.mark.parametrize("eps,mu", [(2.0, 1.0), (2.0, 3.0)])
@pytest.mark.parametrize("l", [1, 2])
def test_series_consistency_dielectric(eps, mu, l):
    spec = SphereSpec(R, Dielectric(eps, mu))
    k = 1e-3
    coeffs = t_low_kappa_series(spec, l, 3 if l == 1 else 1)
    ref_m, ref_e = t_em_ref(eps, mu, l, k)
    for pol, direct in (("M", ref_m), ("E", ref_e)):
        if mu == 1.0 and l > 1 and pol == "M":
            continue  # leading polarizability vanishes; gamma not available
        approx = sum(c * k ** p for p, c in coeffs[pol].items())
        assert approx == pytest.approx(direct, rel=1e-4)


def test_pec_series_are_robin_series_at_zeta_0_and_minus_1():
    # EM multipoles start at l = 1 ((z k_0)' has no constant term)
    for l in range(1, 9):
        for n_terms in range(11):
            assert mie_series_fractions(*_robin_bracket(0), l, n_terms) \
                == pec_series_ref(l, n_terms, "M")
            assert mie_series_fractions(*_robin_bracket(-1), l, n_terms) \
                == pec_series_ref(l, n_terms, "E")


def test_series_fractions_dirichlet_closed_form():
    # T for Dirichlet l=0 is -(sinh z) e^z = -(e^{2z}-1)/2 internally
    fr = mie_series_fractions(*_robin_bracket(0), 0, 6)
    from fractions import Fraction
    ref = [-Fraction(2 ** (k + 1), math.factorial(k + 1)) / 2
           for k in range(6)]
    assert fr == ref
