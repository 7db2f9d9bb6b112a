"""Tests for scalar and electromagnetic translation matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

from casphere.specfun import bessel_ik_half_chain
from casphere.translation import (
    TranslationBlock,
    em_log_blocks,
    node_kernel,
    translation_block,
    translation_block_em,
    u_em,
    u_log_block,
    u_scalar,
)

import _oracles as orc


def _sph_i(l_arr, z):
    ch = bessel_ik_half_chain(int(np.max(l_arr)), z)
    return np.sqrt(np.pi / (2 * z)) * np.exp(ch.log_i[l_arr] + z)


def _sph_k(l, z):
    ch = bessel_ik_half_chain(l, z)
    return math.sqrt(2 / (math.pi * z)) * math.exp(ch.log_k[l] - z)


# ---------------------------------------------------------------------------
# scalar block
# ---------------------------------------------------------------------------

def test_monopole_anchor():
    # U_{00,00} = -e^{-kappa d}/(kappa d), both directions
    for x in (0.37, 1.0, 6.5):
        for direction in ("12", "21"):
            assert u_scalar(0, 0, 0, x, direction) == pytest.approx(
                -math.exp(-x) / x, rel=1e-13)


@pytest.mark.parametrize("direction,src_sign", [("12", +1.0), ("21", -1.0)])
@pytest.mark.parametrize("l,m", [(0, 0), (1, 0), (1, 1), (2, -1), (3, 2),
                                 (5, -4), (4, 0)])
def test_scalar_addition_theorem(direction, src_sign, l, m):
    # k_l(kappa r_2) Y_lm(2) = -sum U_{l'l} i_{l'}(kappa r_1) Y_{l'm}(1)
    rng = np.random.default_rng(abs(hash((direction, l, m))) % 2 ** 31)
    kappa, d = 1.3, 2.1
    r = rng.uniform(0.1, 0.35) * d
    th = rng.uniform(0.1, math.pi - 0.1)
    ph = rng.uniform(0.0, 2 * math.pi)
    x = r * np.array([math.sin(th) * math.cos(ph),
                      math.sin(th) * math.sin(ph), math.cos(th)])
    rel = x - np.array([0.0, 0.0, src_sign * d])
    rr = float(np.linalg.norm(rel))
    th2 = math.acos(rel[2] / rr)
    ph2 = math.atan2(rel[1], rel[0])
    lhs = _sph_k(l, kappa * rr) * sph_harm_y(l, m, th2, ph2)
    lmax = 40
    sign, logmag = u_log_block(lmax, abs(m), kappa * d, direction)
    U = sign * np.exp(logmag - kappa * d)
    lp = np.arange(abs(m), lmax + 1)
    ivals = _sph_i(lp, kappa * r)
    ylm = np.array([sph_harm_y(int(a), m, th, ph) for a in lp])
    rhs = -np.sum(U[lp, l] * ivals * ylm)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_direction_transpose_and_parity():
    x = 2.75
    for m in (0, 1, 3):
        s12, l12 = u_log_block(8, m, x, "12")
        s21, l21 = u_log_block(8, m, x, "21")
        U12 = s12 * np.exp(l12)
        U21 = s21 * np.exp(l21)
        assert np.allclose(U21, U12.T, rtol=1e-14, atol=0)
        lv = np.arange(9)
        par = np.where((lv[:, None] + lv[None, :]) % 2 == 0, 1.0, -1.0)
        assert np.allclose(U21, par * U12, rtol=1e-12, atol=1e-300)


def test_m_parity_and_selection_rules():
    assert u_scalar(3, 2, -2, 1.7) == pytest.approx(
        u_scalar(3, 2, 2, 1.7), rel=1e-14)
    assert u_scalar(1, 3, 2, 1.7) == 0.0  # |m| > l_out
    with pytest.raises(ValueError):
        u_scalar(1, 1, 0, -1.0)
    with pytest.raises(ValueError):
        u_scalar(1, 1, 0, 1.0, "13")


def test_translation_block_layout():
    blk = translation_block(6, 2, 3.1, "12")
    assert isinstance(blk, TranslationBlock)
    assert blk.entries.shape == (5, 5)
    assert blk.direction == "12"
    assert blk.entries[1, 0] == pytest.approx(u_scalar(3, 2, 2, 3.1), rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    l_out=st.integers(min_value=0, max_value=25),
    l_in=st.integers(min_value=0, max_value=25),
    m=st.integers(min_value=-6, max_value=6),
    x=st.floats(min_value=0.05, max_value=50.0),
)
def test_scalar_finite_and_decay(l_out, l_in, m, x):
    v = u_scalar(l_out, l_in, m, x)
    assert math.isfinite(v)
    if abs(m) > min(l_out, l_in):
        assert v == 0.0


# ---------------------------------------------------------------------------
# node kernel against the direct signed-log evaluation
# ---------------------------------------------------------------------------
#
# Compared in scaled form, S = U e^x / (k_{l'+l}(x) e^x) (EM: divided by
# k_{J'+J+1}), with an absolute tolerance: at large x the high-m entries
# cancel to ~1e-16 of their terms in both evaluations, so their relative
# difference is rounding noise.  An EM entry is a sum of scalar entries
# with O(1) weights and ratios <= 1, so its scale is the largest scalar
# entry feeding the block.

KERNEL_X = (1e-6, 1e-3, 0.1, 1.0, 30.0, 800.0)


@pytest.fixture
def oracle_cache():
    yield
    orc.translation_oracle_reset()


def _scaled(sign, logmag, log_scale):
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        return np.where(sign != 0.0, sign * np.exp(logmag - log_scale), 0.0)


def _assert_close(new, ref, scale):
    tol = max(1e-12 * scale, 1e-14)
    assert np.max(np.abs(new - ref)) <= tol


@pytest.mark.parametrize("l_max", [1, 8, 33, 40])
def test_scalar_kernel_matches_signed_log_oracle(l_max, oracle_cache):
    for x in KERNEL_X:
        kern = node_kernel(l_max, x)
        assert kern.blocks.shape == (l_max + 1,) * 3
        for direction in ("12", "21"):
            blocks = kern.oriented(direction)
            for m in range(l_max + 1):
                ref = _scaled(*orc.u_log_block_ref(l_max, m, x, direction),
                              kern.log_scale)
                _assert_close(blocks[m], ref, np.max(np.abs(blocks[m])))


@pytest.mark.parametrize("l_max", [1, 8, 33, 40])
def test_em_kernel_matches_signed_log_oracle(l_max, oracle_cache):
    for x in KERNEL_X:
        kern = node_kernel(l_max, x, em=True)
        feed = np.max(np.abs(node_kernel(l_max + 1, x).blocks), axis=(1, 2))
        for direction in ("12", "21"):
            blocks = kern.oriented(direction)
            for m in range(l_max + 1):
                # the oracle's np.where also evaluates (and discards) exp
                # of entries with a zero sign, which may overflow
                with np.errstate(over="ignore"):
                    ref = orc.em_log_blocks_ref(l_max, m, x, direction)
                scale = np.max(feed[abs(m - 1):m + 2])
                for i, prow in enumerate("MN"):
                    for j, pcol in enumerate("MN"):
                        _assert_close(
                            blocks[m][i::2, j::2],
                            _scaled(*ref[prow + pcol],
                                    kern.log_scale[i::2, j::2]), scale)


def test_kernel_views_and_bounded_scale():
    # the public signed-log views are the kernel's entries, and the 3j
    # orthogonality bounds |S_{l'l}| by sqrt((2l+1)(2l'+1)) at every x
    lv = np.arange(13)
    bound = np.sqrt(np.outer(2 * lv + 1, 2 * lv + 1)) * (1 + 1e-12)
    for x in KERNEL_X:
        kern = node_kernel(12, x)
        assert np.all(np.abs(kern.blocks) <= bound)
        s, lg = u_log_block(12, 3, x, "21")
        assert np.allclose(_scaled(s, lg, kern.log_scale),
                           kern.oriented("21")[3], rtol=1e-13, atol=0)
        kem = node_kernel(12, x, em=True)
        assert np.all(np.isfinite(kem.blocks))
        s, lg = em_log_blocks(12, -2, x, "12")["NM"]
        assert np.allclose(_scaled(s, lg, kem.log_scale[1::2, 0::2]),
                           -kem.blocks[2][1::2, 0::2], rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# electromagnetic block
# ---------------------------------------------------------------------------

def test_em_wave_decomposition_against_curl():
    # the electric wave used by the translation blocks equals
    # (1/(i kappa)) curl M to finite-difference accuracy
    rng = np.random.default_rng(14)
    kappa = 0.9
    for kind in ("i", "k"):
        for J, m in [(1, 0), (2, -1), (3, 2)]:
            x = rng.uniform(-1, 1, 3)
            x *= rng.uniform(1.0, 2.0) / np.linalg.norm(x)
            direct = orc.vector_wave(kind, "N", J, m, kappa, x)
            fd = orc.vector_wave_curl_fd(kind, J, m, kappa, x)
            assert np.max(np.abs(direct - fd)) <= 1e-7 * np.max(np.abs(direct))


@pytest.mark.parametrize("direction,src_sign", [("12", +1.0), ("21", -1.0)])
@pytest.mark.parametrize("J,m,pol", [(1, 0, "M"), (1, 0, "N"), (1, 1, "M"),
                                     (2, 1, "N"), (2, 2, "M"), (3, -2, "N")])
def test_em_addition_theorem(direction, src_sign, J, m, pol):
    rng = np.random.default_rng(abs(hash((direction, J, m, pol))) % 2 ** 31)
    kappa, d = 1.1, 2.4
    lmax = 30
    blocks = em_log_blocks(lmax, m, kappa * d, direction)
    x = rng.uniform(-1, 1, 3)
    x *= rng.uniform(0.15, 0.3) * d / np.linalg.norm(x)
    rel = x - np.array([0.0, 0.0, src_sign * d])
    lhs = orc.vector_wave("k", pol, J, m, kappa, rel)
    rhs = np.zeros(3, dtype=complex)
    jlo = max(1, abs(m))
    keyrow = ("MM", "NM") if pol == "M" else ("MN", "NN")
    for Jp in range(jlo, lmax + 1):
        for rowpol, key in zip("MN", keyrow):
            s, lg = blocks[key]
            g = s[Jp, J] * math.exp(lg[Jp, J] - kappa * d)
            if g != 0.0:
                rhs = rhs - g * orc.vector_wave("i", rowpol, Jp, m, kappa, x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))


def test_em_mixing_vanishes_at_m0():
    blocks = em_log_blocks(8, 0, 2.0, "12")
    for key in ("MN", "NM"):
        s, lg = blocks[key]
        assert np.all(s == 0.0)
    out = u_em(2, 3, 0, 2.0)
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0
    assert out[0, 0] != 0.0 and out[1, 1] != 0.0


def test_em_electric_extraction_route_consistency():
    # the electric target amplitude can be read off either the J'-1 or the
    # J'+1 orbital channel; both must give the same block
    import casphere.translation as tr
    l_max, m, x = 7, 1, 2.3
    blocks = em_log_blocks(l_max, m, x, "12")
    w0, wm, wp, a_r, b_r = tr._em_weights(l_max, m)
    n = l_max + 1
    # rebuild NM via the J'+1 route
    s_ref, lg_ref = blocks["NM"]
    alt = np.zeros((n, n))
    for jp in range(max(1, m), n):
        for j in range(max(1, m), n):
            tot = 0.0
            for iq, q in enumerate((-1, 0, 1)):
                mu = m - q
                if abs(mu) > jp + 1 or abs(mu) > j:
                    continue
                u = u_scalar(jp + 1, j, mu, x)
                tot += wp[iq, jp] * w0[iq, j] * u / b_r[jp]
            alt[jp, j] = tot
    ref = s_ref * np.exp(lg_ref - x)
    assert np.allclose(alt[1:, 1:], ref[1:, 1:], rtol=1e-10, atol=1e-240)


def test_em_block_layout_and_m_parity():
    blk = translation_block_em(5, 2, 2.9, "12")
    assert blk.entries.shape == (4, 4, 2, 2)
    assert blk.entries[1, 2, 0, 0] == pytest.approx(
        u_em(3, 4, 2, 2.9)[0, 0], rel=1e-12)
    a = u_em(2, 3, 1, 1.9)
    b = u_em(2, 3, -1, 1.9)
    # same-polarization entries even in m; mixing entries odd
    assert a[0, 0] == pytest.approx(b[0, 0], rel=1e-13)
    assert a[1, 1] == pytest.approx(b[1, 1], rel=1e-13)
    assert a[0, 1] == pytest.approx(-b[0, 1], rel=1e-13)
    assert a[1, 0] == pytest.approx(-b[1, 0], rel=1e-13)


def test_em_validation_errors():
    with pytest.raises(ValueError):
        u_em(0, 1, 0, 1.0)
    with pytest.raises(ValueError):
        u_em(1, 1, 2, 1.0)
    with pytest.raises(ValueError):
        u_em(1, 1, 0, 0.0)
