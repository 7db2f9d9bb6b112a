"""Tests for scaled Bessel chains and the 3j symbols of the test oracles."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from casphere import specfun
from casphere.specfun import (
    _CHAIN_CEILING,
    _chain_rows,
    _i_gap_rows,
    _i_ratio_rows,
    _k_chains,
)

import _oracles as orc
from _oracles import (
    L_CEILING,
    ThreeJArgs,
    _threej_rows,
    bessel_ik_half,
    threej_000,
    threej_family,
    wigner3j,
)


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

BESSEL_Z = [1e-6, 1e-4, 1e-2, 0.1, 1.0, 3.7, 12.0, 60.0, 3e2, 1e4]
BESSEL_L = [0, 1, 2, 5, 10, 40, 100]


@pytest.mark.parametrize("z", BESSEL_Z)
@pytest.mark.parametrize("l", BESSEL_L)
def test_bessel_against_mpmath(l, z):
    p = bessel_ik_half(l, z)
    assert p.order_half == l + 0.5
    assert math.isfinite(p.log_i) and math.isfinite(p.log_k)
    assert abs(p.log_i - orc.bessel_log_i_ref(l, z)) <= 1e-12 * max(
        1.0, abs(p.log_i))
    assert abs(p.log_k - orc.bessel_log_k_ref(l, z)) <= 1e-12 * max(
        1.0, abs(p.log_k))
    # value-level checks wherever the scaled quantities are representable
    if abs(p.log_i) < 600.0:
        ri = orc.bessel_i_scaled_ref(l, z)
        rdi = orc.bessel_di_scaled_ref(l, z)
        assert p.i_scaled == pytest.approx(ri, rel=1e-12)
        assert p.di_scaled == pytest.approx(rdi, rel=1e-12)
        assert p.i_scaled > 0.0 and p.di_scaled > 0.0
    if abs(p.log_k) < 600.0:
        rk = orc.bessel_k_scaled_ref(l, z)
        rdk = orc.bessel_dk_scaled_ref(l, z)
        assert p.k_scaled == pytest.approx(rk, rel=1e-12)
        assert p.dk_scaled == pytest.approx(rdk, rel=1e-12)
        assert p.k_scaled > 0.0 and p.dk_scaled < 0.0


def test_chain_matches_scalar_entries():
    z = 2.625
    chain = orc.chain_row(30, z)
    i_s, k_s, _, _ = orc.chain_scaled_values(chain)
    for l in (0, 1, 7, 30):
        p = bessel_ik_half(l, z)
        assert i_s[l] == pytest.approx(p.i_scaled, rel=1e-14)
        assert k_s[l] == pytest.approx(p.k_scaled, rel=1e-14)
        assert chain.log_i[l] == pytest.approx(p.log_i, rel=1e-14)
    # ratio chains are consistent with the values they generated
    assert np.all(chain.rho > 0.0)
    assert np.all(chain.sigma > 0.0)
    ratios = i_s[1:] / i_s[:-1]
    assert ratios == pytest.approx(chain.rho[:-1], rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 16, 66, 300])
def test_batched_k_chains_equal_one_argument_chains(n):
    # every row of the batched K chain is the one-argument chain's sigma
    # and log_k, byte for byte; the dense random z meet the arguments
    # where numpy's vector log and math.log differ in the last ulp
    rng = np.random.default_rng(20)
    z = np.concatenate([BESSEL_Z, [0.8 * 3.0, 0.8 * 6.0],
                        10.0 ** rng.uniform(-3.0, 2.5, 4000)])
    sigma, log_k = _k_chains(n, z)
    assert sigma.shape == log_k.shape == (len(z), n + 1)
    for i, zi in enumerate(z.tolist()):
        ref_sigma, ref_log_k = orc.k_chain_ref(n, zi)
        assert sigma[i].tobytes() == ref_sigma.tobytes()
        assert log_k[i].tobytes() == ref_log_k.tobytes()


@pytest.mark.parametrize("n", [0, 1, 40, _CHAIN_CEILING])
def test_chain_rows_equal_one_argument_chains(n):
    # every row of the batched chain, and the one-row chain, is the
    # reference chain built one argument at a time, byte for byte, for
    # unsorted and repeated arguments
    z = np.array(BESSEL_Z[::-1] + BESSEL_Z[3:6])
    ch = _chain_rows(n, z)
    assert ch.z.shape == (len(z), 1)
    for i, zi in enumerate(z.tolist()):
        ref = orc.bessel_chain_ref(n, zi)
        one = _chain_rows(n, np.array([zi]))
        assert one.z.shape == (1, 1) and one.z[0, 0] == zi
        for field in ("log_i", "log_k", "rho", "sigma"):
            want = getattr(ref, field)
            for got in (getattr(ch, field)[i], getattr(one, field)[0]):
                assert got.shape == want.shape == (n + 1,)
                assert got.tobytes() == want.tobytes()


# Bessel arguments of the sweep properties, log-uniform in [1e-3, 5e3]
SWEEP_Z = st.floats(min_value=-3.0, max_value=math.log10(5e3)).map(
    lambda e: 10.0 ** e)
# rows that step alone on floats before the sweep turns vector: none
# but the top row, two, and the production count
FLOAT_ROWS = st.sampled_from([1, 2, specfun._SWEEP_ROWS])
# a row starting far above the rest, among more rows than step alone
FAR_TOP = [0.5, 3.0, 4.0e3, 1e-3] + [0.1 * i for i in range(1, 40)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=_CHAIN_CEILING),
       z=st.lists(SWEEP_Z, min_size=1, max_size=40),
       repeats=st.integers(min_value=0, max_value=3),
       float_rows=FLOAT_ROWS)
@example(n=17, z=[0.7], repeats=0, float_rows=specfun._SWEEP_ROWS)
@example(n=40, z=FAR_TOP, repeats=2, float_rows=specfun._SWEEP_ROWS)
@example(n=40, z=FAR_TOP[:5], repeats=2, float_rows=1)
def test_chain_rows_sweep_equals_one_argument_chains(n, z, repeats,
                                                     float_rows):
    # every row of the one continued-fraction sweep, unsorted, repeated,
    # alone or far below a top row that steps alone, is the chain built
    # one argument at a time, byte for byte
    z = np.array(z + z[:repeats])
    with mock.patch.object(specfun, "_SWEEP_ROWS", float_rows):
        ch = _chain_rows(n, z)
    for i, zi in enumerate(z.tolist()):
        ref = orc.bessel_chain_ref(n, zi)
        for field in ("log_i", "log_k", "rho", "sigma"):
            assert getattr(ch, field)[i].tobytes() == \
                getattr(ref, field).tobytes(), (field, i, zi)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=_CHAIN_CEILING),
       rows=st.lists(st.tuples(
           SWEEP_Z, st.floats(min_value=-12.0, max_value=3.0).map(
               lambda e: 10.0 ** e)), min_size=1, max_size=40),
       repeats=st.integers(min_value=0, max_value=3),
       float_rows=FLOAT_ROWS)
@example(n=8, rows=[(0.7, 3.0)], repeats=0, float_rows=specfun._SWEEP_ROWS)
@example(n=8, rows=[(z, 10.0 ** (i % 16 - 12))
                    for i, z in enumerate(FAR_TOP)],
         repeats=1, float_rows=specfun._SWEEP_ROWS)
@example(n=8, rows=[(0.5, 1e-12), (4.0e3, 3.0), (2.0, 1e3)], repeats=1,
         float_rows=1)
def test_gap_rows_sweep_equals_one_argument_gaps(n, rows, repeats,
                                                 float_rows):
    # the dielectric gap rows, at n^2 - 1 = d from 1e-12 to 1e3, are the
    # one-argument gap chains byte for byte
    rows = rows + rows[:repeats]
    z = [zi for zi, _ in rows]
    d = [di for _, di in rows]
    w = [math.sqrt(1.0 + di) * zi for zi, di in rows]
    with mock.patch.object(specfun, "_SWEEP_ROWS", float_rows):
        g, wrho = _i_gap_rows(n, z, w, d)
    assert g.shape == wrho.shape == (len(rows), n + 1)
    for i, args in enumerate(zip(z, w, d)):
        ref_g, ref_wrho = orc.i_ratio_gap_ref(n, *args)
        assert g[i].tobytes() == ref_g.tobytes(), (i, args)
        assert wrho[i].tobytes() == ref_wrho.tobytes(), (i, args)


def test_gap_rows_refuse_a_huge_inner_argument():
    with pytest.raises(ValueError, match=re.escape("z=%r" % (2e7,))):
        _i_gap_rows(2, [1.0, 2.0], [1.0, 2e7], [0.0, 1e14 - 1.0])


# arguments at and above z = 8, where the I ratio chain is the downward
# continued fraction at every order up to the chain ceiling
LARGE_Z = [8.0, 8.5, 11.0, 40.0, 97.3, 400.0, 2.5e3, 1e4]


@pytest.mark.parametrize("z", LARGE_Z)
def test_i_ratio_chain_large_argument_against_mpmath(z):
    rho = _i_ratio_rows(_CHAIN_CEILING, [z])[0]
    assert rho.shape == (_CHAIN_CEILING + 1,)
    for l in list(range(0, _CHAIN_CEILING, 7)) + [_CHAIN_CEILING]:
        ref = orc.bessel_i_ratio_ref(l, z)
        assert abs(rho[l] - ref) <= 2e-15 * ref, (l, rho[l], ref)


@pytest.mark.parametrize("z", LARGE_Z[::2] + [1e4])
def test_chain_fields_large_argument_against_mpmath(z):
    chain = orc.chain_row(_CHAIN_CEILING, z)
    i_s, k_s, di_s, dk_s = orc.chain_scaled_values(chain)
    for l in (0, 1, 5, 17, 60, 150, _CHAIN_CEILING):
        # the logs are cumulative sums of ratio logs: a few ulp of |log|
        ref = orc.bessel_log_i_ref(l, z)
        assert abs(chain.log_i[l] - ref) <= 4e-15 * max(1.0, abs(ref))
        ref = orc.bessel_log_k_ref(l, z)
        assert abs(chain.log_k[l] - ref) <= 4e-15 * max(1.0, abs(ref))
        # value-level checks wherever the scaled quantities are representable
        if abs(chain.log_i[l]) < 600.0:
            assert i_s[l] == pytest.approx(
                orc.bessel_i_scaled_ref(l, z), rel=1e-12)
            assert di_s[l] == pytest.approx(
                orc.bessel_di_scaled_ref(l, z), rel=1e-12)
        if abs(chain.log_k[l]) < 600.0:
            assert k_s[l] == pytest.approx(
                orc.bessel_k_scaled_ref(l, z), rel=1e-12)
            assert dk_s[l] == pytest.approx(
                orc.bessel_dk_scaled_ref(l, z), rel=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=L_CEILING),
    logz=st.floats(min_value=-13.8, max_value=9.2),
)
def test_wronskian_property(l, logz):
    # I_nu(z) K'_nu(z) - I'_nu(z) K_nu(z) = -1/z holds verbatim for the
    # scaled values because the e^{-z} e^{+z} factors cancel.
    z = math.exp(logz)
    p = bessel_ik_half(l, z)
    if abs(p.log_i) > 600.0 or abs(p.log_k) > 600.0:
        return  # outside the double-precision window; logs already tested
    w = p.i_scaled * p.dk_scaled - p.di_scaled * p.k_scaled
    assert w == pytest.approx(-1.0 / z, rel=1e-12)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_ik_half(0, 0.0)
    with pytest.raises(ValueError):
        bessel_ik_half(0, -1.0)
    with pytest.raises(ValueError):
        bessel_ik_half(L_CEILING + 1, 1.0)
    for n in (-1, _CHAIN_CEILING + 1):
        with pytest.raises(ValueError, match="order l_max=%d outside" % n):
            _chain_rows(n, np.array([1.0]))


def test_bessel_chain_refuses_a_huge_argument():
    # the I continued fraction would run about z pure-Python steps; a
    # batch is refused at its one bad argument
    for z in (1.0001e7, 1e150, math.inf):
        for batch in ([z], [0.5, z, 2.0]):
            with pytest.raises(ValueError, match=re.escape("z=%r" % (z,))):
                _chain_rows(2, np.array(batch))


def test_explicit_low_orders():
    # l = 0: i0 = sinh(z)/z * sqrt(...) etc.; compare against closed forms
    z = 0.8125
    p0 = bessel_ik_half(0, z)
    i_half = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
    k_half = math.sqrt(math.pi / (2.0 * z)) * math.exp(-z)
    assert p0.i_scaled == pytest.approx(i_half * math.exp(-z), rel=1e-14)
    assert p0.k_scaled == pytest.approx(k_half * math.exp(z), rel=1e-14)
    p1 = bessel_ik_half(1, z)
    i_3half = math.sqrt(2.0 / (math.pi * z)) * (math.cosh(z) - math.sinh(z) / z)
    k_3half = k_half * (1.0 + 1.0 / z)
    assert p1.i_scaled == pytest.approx(i_3half * math.exp(-z), rel=1e-13)
    assert p1.k_scaled == pytest.approx(k_3half * math.exp(z), rel=1e-14)


# ---------------------------------------------------------------------------
# Wigner 3j
# ---------------------------------------------------------------------------

def test_threej_000_exact_cases():
    cases = [(0, 0, 0), (1, 1, 2), (2, 2, 2), (10, 7, 9), (40, 40, 60),
             (100, 100, 150), (100, 30, 96)]
    for l1, l2, l3 in cases:
        ref = orc.threej_exact(l1, l2, l3, 0, 0, 0)
        assert threej_000(l1, l2, l3) == pytest.approx(ref, rel=1e-13, abs=0)
    assert threej_000(1, 1, 1) == 0.0  # odd sum
    assert threej_000(1, 1, 3) == 0.0  # triangle


def test_threej_000_integer_quotient_equals_fraction_form():
    # int/int true division and Fraction.__float__ are both correctly
    # rounded, so the square root sees the same double: equal bits
    for l1 in range(41):
        for l2 in range(41):
            for l3 in range(abs(l1 - l2), min(l1 + l2, 40) + 1):
                assert threej_000(l1, l2, l3) \
                    == orc.threej_000_fraction(l1, l2, l3), (l1, l2, l3)
    rng = np.random.default_rng(8)
    for _ in range(3000):
        l1, l2 = (int(v) for v in rng.integers(0, 201, 2))
        l3 = int(rng.integers(abs(l1 - l2), l1 + l2 + 1))
        assert threej_000(l1, l2, l3) == orc.threej_000_fraction(l1, l2, l3), \
            (l1, l2, l3)


def test_closed_form_rows_equal_one_symbol_closed_form():
    # the m1 = m2 = 0 rows of a batch take the exact closed form in one
    # vectorized step, bit for bit the one-symbol integer form
    l1, l2 = np.array([(a, b) for a in range(1, 41) for b in range(1, 41)]).T
    jmin, f = _threej_rows(l1, l2, 0, 0)
    for r, (a, b) in enumerate(zip(l1.tolist(), l2.tolist())):
        ref = np.array([threej_000(a, b, j)
                        for j in range(a + b, abs(a - b) - 1, -1)])
        assert jmin[r] == abs(a - b)
        assert f[:len(ref), r].tobytes() == ref.tobytes(), (a, b)
        assert not f[len(ref):, r].any()


def test_wigner3j_selection_rules():
    assert wigner3j(ThreeJArgs(2, 2, 5, 0, 0, 0)) == 0.0
    assert wigner3j(ThreeJArgs(2, 2, 2, 1, 1, 1)) == 0.0
    assert wigner3j(ThreeJArgs(2, 2, 2, 3, -3, 0)) == 0.0
    assert wigner3j(ThreeJArgs(1, 1, 1, 0, 0, 0)) == 0.0
    with pytest.raises(ValueError):
        wigner3j(ThreeJArgs(1.5, 1, 1, 0, 0, 0))


def test_wigner3j_random_against_exact():
    rng = np.random.default_rng(42)
    for _ in range(60):
        l1 = int(rng.integers(0, 32))
        l2 = int(rng.integers(0, 32))
        m1 = int(rng.integers(-l1, l1 + 1)) if l1 else 0
        m2 = int(rng.integers(-l2, l2 + 1)) if l2 else 0
        lo = max(abs(l1 - l2), abs(m1 + m2))
        if lo > l1 + l2:
            continue
        l3 = int(rng.integers(lo, l1 + l2 + 1))
        ref = orc.threej_exact(l1, l2, l3, m1, m2, -(m1 + m2))
        mine = wigner3j(ThreeJArgs(l1, l2, l3, m1, m2, -(m1 + m2)))
        assert abs(mine - ref) <= 1e-13 + 1e-12 * abs(ref)


def test_wigner3j_large_l_families():
    rng = np.random.default_rng(3)
    for l1, l2, m in [(100, 100, 3), (100, 100, 77), (80, 20, 20),
                      (60, 35, 10)]:
        jmin, fam = threej_family(l1, l2, m, -m)
        assert jmin == max(abs(l1 - l2), 0)
        idx = rng.choice(len(fam), size=8, replace=False)
        for i in idx:
            j = jmin + int(i)
            ref = orc.threej_exact(l1, l2, j, m, -m, 0)
            assert abs(fam[int(i)] - ref) <= 1e-13 * max(
                1e-200, abs(ref)) + 1e-280


def test_family_unit_norm():
    for l1, l2, m1, m2 in [(30, 30, 5, -5), (45, 20, 11, -3), (12, 9, 0, 4)]:
        jmin, fam = threej_family(l1, l2, m1, m2)
        j = np.arange(jmin, l1 + l2 + 1)
        s = float(np.sum((2 * j + 1) * fam * fam))
        assert s == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_threej_cross_orthogonality(data):
    # sum_j (2j+1) f_j(m1,m2) f_j(m1',m2') = 0 for distinct projection pairs
    # sharing m3; exercises global phase coherence of the recursion.
    l1 = data.draw(st.integers(min_value=1, max_value=60))
    l2 = data.draw(st.integers(min_value=1, max_value=60))
    m3 = data.draw(st.integers(min_value=-min(l1 + l2, 8),
                               max_value=min(l1 + l2, 8)))
    lo = max(-l1, -l2 - m3)
    hi = min(l1, l2 - m3)
    if hi <= lo:
        return
    m1a = data.draw(st.integers(min_value=lo, max_value=hi))
    m1b = data.draw(st.integers(min_value=lo, max_value=hi))
    if m1a == m1b:
        return
    jmin_a, fa = threej_family(l1, l2, m1a, -m3 - m1a)
    jmin_b, fb = threej_family(l1, l2, m1b, -m3 - m1b)
    jmin = max(jmin_a, jmin_b)
    ja = jmin - jmin_a
    jb = jmin - jmin_b
    j = np.arange(jmin, l1 + l2 + 1)
    dot = float(np.sum((2 * j + 1) * fa[ja:] * fb[jb:]))
    assert abs(dot) < 1e-10


def test_column_swap_symmetry():
    # (l2 l1 l3 / m2 m1 m3) = (-1)^{l1+l2+l3} (l1 l2 l3 / m1 m2 m3)
    rng = np.random.default_rng(11)
    for _ in range(25):
        l1 = int(rng.integers(0, 25))
        l2 = int(rng.integers(0, 25))
        m1 = int(rng.integers(-l1, l1 + 1)) if l1 else 0
        m2 = int(rng.integers(-l2, l2 + 1)) if l2 else 0
        lo = max(abs(l1 - l2), abs(m1 + m2))
        if lo > l1 + l2:
            continue
        l3 = int(rng.integers(lo, l1 + l2 + 1))
        a = wigner3j(ThreeJArgs(l1, l2, l3, m1, m2, -(m1 + m2)))
        b = wigner3j(ThreeJArgs(l2, l1, l3, m2, m1, -(m1 + m2)))
        sign = -1.0 if (l1 + l2 + l3) % 2 else 1.0
        assert b == pytest.approx(sign * a, abs=1e-14, rel=1e-11)


# ---------------------------------------------------------------------------
# row-batched 3j recursion against the one-family scalar oracle
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _assert_rows_match_oracle(l1, l2, m1, m2):
    """Every row of one `_threej_rows` batch against the scalar oracle:
    within 4 ulp relative on nonzero entries, with identical zeros."""
    jmin, f = _threej_rows(l1, l2, m1, m2)
    rows = np.broadcast_arrays(l1, l2, m1, m2)
    for r, (a, b, c, d) in enumerate(zip(*(np.atleast_1d(v) for v in rows))):
        jref, ref = orc.threej_family_ref(int(a), int(b), int(c), int(d))
        assert jmin[r] == jref
        npts = len(ref)
        assert np.all(f[npts:, r] == 0.0)
        mine = f[npts - 1::-1, r]
        assert np.array_equal(mine == 0.0, ref == 0.0)
        assert np.all(np.abs(mine - ref) <= 4 * EPS * np.abs(ref))


def test_batched_m3_zero_families_match_scalar_oracle():
    # every (l1, l2; m, -m) family with l1, l2 <= 40, m = 0..min(l1, l2),
    # one batch per l1 as the translation kernel builds them
    for l1 in range(41):
        l2, m = np.array([(l2, m) for l2 in range(41)
                          for m in range(min(l1, l2) + 1)]).T
        _assert_rows_match_oracle(l1, l2, m, -m)


def test_batched_general_m3_families_match_scalar_oracle():
    rng = np.random.default_rng(2024)
    l1 = rng.integers(0, 101, size=300)
    l2 = rng.integers(0, 101, size=300)
    m1 = np.array([rng.integers(-a, a + 1) for a in l1])
    m2 = np.array([rng.integers(-b, b + 1) for b in l2])
    _assert_rows_match_oracle(l1, l2, m1, m2)


def test_batched_edge_rows():
    # jmin = 0 (l1 == l2, m3 = 0), npts = 1 (l2 = 0 and |m3| = l1 + l2),
    # m1 = m2 = 0 (closed form), next to ordinary rows in one batch
    l1 = np.array([7, 1, 30, 5, 0, 4, 6, 3, 12, 9])
    l2 = np.array([7, 1, 30, 0, 0, 3, 6, 2, 8, 9])
    m1 = np.array([3, 1, -12, 2, 0, 4, 0, 0, 5, 0])
    m2 = np.array([-3, -1, 12, 0, 0, 3, 0, 0, -2, 1])
    _assert_rows_match_oracle(l1, l2, m1, m2)
    jmin, f = _threej_rows(l1, l2, m1, m2)
    assert jmin[0] == 0 and jmin[5] == 7 and np.all(f[1:, 5] == 0.0)


def test_family_is_one_row_of_a_batch():
    # a row's values do not depend on the batch it is computed in
    l2 = np.arange(20, 41)
    jmin, f = _threej_rows(25, l2, 4, -4)
    for r, b in enumerate(l2):
        j1, fam = threej_family(25, int(b), 4, -4)
        assert j1 == jmin[r] and not fam.flags.writeable
        assert np.array_equal(fam, f[len(fam) - 1::-1, r])


def test_batched_rescaled_rows_match_scalar_oracle():
    # deep families whose forward (first row) or backward (second row)
    # pass crosses the 1e250 rescale, batched with a row that does not
    _assert_rows_match_oracle(np.array([400, 500, 60]),
                              np.array([380, 500, 50]),
                              np.array([-380, 499, 7]),
                              np.array([395, -499, -3]))
