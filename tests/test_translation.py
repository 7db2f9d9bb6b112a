"""Tests for scalar and electromagnetic translation matrices."""

import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

import casphere.translation as tr
from casphere.translation import node_kernel, u_log_block

import _oracles as orc
from _oracles import (
    chain_row,
    em_log_blocks,
    u_em_element,
    u_scalar_element,
)


EPS = np.finfo(float).eps


def _sph_i(l_arr, z):
    ch = chain_row(int(np.max(l_arr)), z)
    return np.sqrt(np.pi / (2 * z)) * np.exp(ch.log_i[l_arr] + z)


def _sph_k(l, z):
    ch = chain_row(l, z)
    return math.sqrt(2 / (math.pi * z)) * math.exp(ch.log_k[l] - z)


# ---------------------------------------------------------------------------
# scalar block
# ---------------------------------------------------------------------------

def test_monopole_anchor():
    # U_{00,00} = -e^{-kappa d}/(kappa d), both directions
    for x in (0.37, 1.0, 6.5):
        for direction in ("12", "21"):
            assert u_scalar_element(0, 0, 0, x, direction) == pytest.approx(
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
    # the series converges like (r/d)^l' times a power of l' that grows
    # with |m|: at r = 0.35 d and |m| = 4, cutting it at 40 leaves up to
    # 3e-8 of a near-polar lhs, at 50 it is below 1e-11
    lmax = 60
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
    # the "21" blocks are the parity-masked "12" blocks, and for a scalar
    # block that mask is a transpose: S^T = D S D with D = diag((-1)^l),
    # at every order, m and x (log_scale is symmetric, k_{l'+l})
    for l_max in (8, 33, 64):
        for x in KERNEL_X:
            kern = node_kernel(l_max, x)
            assert np.array_equal(kern.log_scale, kern.log_scale.T)
            s21 = _in_direction(kern.blocks, "21", 1)
            for m in range(l_max + 1):
                _assert_close(s21[m], kern.blocks[m].T,
                              np.max(np.abs(kern.blocks[m])))


def test_m_parity_and_selection_rules():
    assert u_scalar_element(3, 2, -2, 1.7) == pytest.approx(
        u_scalar_element(3, 2, 2, 1.7), rel=1e-14)
    assert u_scalar_element(1, 3, 2, 1.7) == 0.0  # |m| > l_out
    with pytest.raises(ValueError):
        u_log_block(1, 0, -1.0)
    with pytest.raises(ValueError):
        u_log_block(1, 0, 1.0, "13")


@settings(max_examples=40, deadline=None)
@given(
    l_out=st.integers(min_value=0, max_value=25),
    l_in=st.integers(min_value=0, max_value=25),
    m=st.integers(min_value=-6, max_value=6),
    x=st.floats(min_value=0.05, max_value=50.0),
)
def test_scalar_finite_and_decay(l_out, l_in, m, x):
    v = u_scalar_element(l_out, l_in, m, x)
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


def _in_direction(blocks, direction, pol):
    """The kernel's blocks with the given center as the source."""
    if direction == "12":
        return blocks
    return blocks * tr._reversal(blocks.shape[-1] // pol, pol)


def _assert_close(new, ref, scale):
    tol = max(1e-12 * scale, 1e-14)
    assert np.max(np.abs(new - ref)) <= tol


@pytest.mark.parametrize("l_max", [1, 8, 33, 40])
def test_scalar_kernel_matches_signed_log_oracle(l_max, oracle_cache):
    for x in KERNEL_X:
        kern = node_kernel(l_max, x)
        assert kern.blocks.shape == (l_max + 1,) * 3
        for direction in ("12", "21"):
            blocks = _in_direction(kern.blocks, direction, 1)
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
            blocks = _in_direction(kern.blocks, direction, 2)
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


@settings(max_examples=40, deadline=None)
@given(l_max=st.integers(0, 12), em=st.booleans(),
       xs=st.lists(st.floats(1e-3, 300.0), min_size=1, max_size=6))
def test_kernel_batch_rows_equal_one_x_kernels(l_max, em, xs):
    # the batched K chain, ratio table, W contraction and EM recoupling
    # give every row the bytes of the kernel built at that x alone, both
    # by node_kernel and by the one-x construction of the oracle
    batch = tr._node_kernels(l_max, np.array(xs), em)
    for i, x in enumerate(xs):
        one = node_kernel(l_max, x, em)
        ref_blocks, ref_log_scale = orc.node_kernel_ref(l_max, x, em)
        assert (batch.log_scale[i].tobytes() == one.log_scale.tobytes()
                == ref_log_scale.tobytes())
        assert one.blocks.tobytes() == ref_blocks.tobytes()
        pol = 2 if em else 1
        for direction in ("12", "21"):
            assert (_in_direction(batch.blocks, direction, pol)[i].tobytes()
                    == _in_direction(one.blocks, direction, pol).tobytes())


@pytest.mark.parametrize("l_max", [16, 17, 33])
def test_em_kernel_bytes_equal_oracle_at_high_orders(l_max):
    # beyond the property test's orders, both parities of l_max + 1: the
    # recoupling splits the orders at (l_max + 1)//2, and its m = 0 term
    # of q = +1 reads the S order |m - 1| = 1.  The one-x kernels and
    # the rows of one batch carry the oracle's bytes, with exact zeros
    # below max(1, m)
    xs = (1e-3, 3.7, 800.0)
    batch = tr._node_kernels(l_max, np.array(xs), em=True)
    for i, x in enumerate(xs):
        ref_blocks, ref_log_scale = orc.node_kernel_ref(l_max, x, em=True)
        one = node_kernel(l_max, x, em=True)
        for kern in (one, tr.NodeKernel(batch.blocks[i],
                                        batch.log_scale[i])):
            assert kern.blocks.tobytes() == ref_blocks.tobytes()
            assert kern.log_scale.tobytes() == ref_log_scale.tobytes()
        for m in range(l_max + 1):
            dead = 2 * max(1, m)
            assert np.all(one.blocks[m][:dead] == 0.0)
            assert np.all(one.blocks[m][:, :dead] == 0.0)
            assert np.any(one.blocks[m][dead:, dead:] != 0.0)


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
                           _in_direction(kern.blocks, "21", 1)[3],
                           rtol=1e-13, atol=0)
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
    out = u_em_element(2, 3, 0, 2.0)
    assert out[0, 1] == 0.0 and out[1, 0] == 0.0
    assert out[0, 0] != 0.0 and out[1, 1] != 0.0


def test_em_electric_extraction_route_consistency():
    # the electric target amplitude can be read off either the J'-1 or the
    # J'+1 orbital channel; both must give the same block
    l_max, m, x = 7, 1, 2.3
    blocks = em_log_blocks(l_max, m, x, "12")
    w0, wm, wp, a_r, b_r = orc.em_weights_3j(l_max, m)
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
                u = u_scalar_element(jp + 1, j, mu, x)
                tot += wp[iq, jp] * w0[iq, j] * u / b_r[jp]
            alt[jp, j] = tot
    ref = s_ref * np.exp(lg_ref - x)
    assert np.allclose(alt[1:, 1:], ref[1:, 1:], rtol=1e-10, atol=1e-240)


def test_em_block_layout_and_m_parity():
    # every block is indexed [J_out, J_in] from J = 0, zero below max(1, |m|)
    for key, (s, lg) in em_log_blocks(5, 2, 2.9, "12").items():
        assert s.shape == lg.shape == (6, 6)
        assert np.all(s[:2] == 0.0) and np.all(s[:, :2] == 0.0)
        assert np.all(s[2:, 2:] != 0.0), key
    a = u_em_element(2, 3, 1, 1.9)
    b = u_em_element(2, 3, -1, 1.9)
    # same-polarization entries even in m; mixing entries odd
    assert a[0, 0] == pytest.approx(b[0, 0], rel=1e-13)
    assert a[1, 1] == pytest.approx(b[1, 1], rel=1e-13)
    assert a[0, 1] == pytest.approx(-b[0, 1], rel=1e-13)
    assert a[1, 0] == pytest.approx(-b[1, 0], rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(l_max=st.integers(1, 12),
       x=st.lists(st.floats(1e-2, 200.0), min_size=1, max_size=3))
def test_em_recouple_bytes_do_not_depend_on_the_split(l_max, x):
    # the recoupling runs its orders in parts, each from its own first
    # live row; every split, from one part per order through two halves
    # to the whole cube, gives the bytes of the kernel's own split
    calls = []
    recouple = tr._em_recouple

    def recorded(*args):
        calls.append(args)
        return recouple(*args)
    tr._em_recouple = recorded
    try:
        kern = tr._node_kernels(l_max, np.array(x), em=True)
    finally:
        tr._em_recouple = recouple
    (args,) = calls
    n = l_max + 1
    for parts in range(1, n + 1):
        assert recouple(*args, parts=parts).reshape(kern.blocks.shape) \
            .tobytes() == kern.blocks.tobytes(), parts


def test_em_validation_errors():
    with pytest.raises(ValueError):
        em_log_blocks(1, 0, 0.0)
    with pytest.raises(ValueError):
        em_log_blocks(1, 0, 1.0, "13")
    with pytest.raises(ValueError):
        node_kernel(1, -1.0, em=True)


# ---------------------------------------------------------------------------
# closed-form recoupling weights
# ---------------------------------------------------------------------------

def test_em_weights_match_exact_clebsch_gordan():
    # the exact signed squares of the four weights (t_m, t_e, c_lo, c_hi)
    # on Python ints are the Racah oracle's, with aR^2 and bR^2 folded
    # in, for every m, q and 1 <= J <= 40
    for jj in range(1, 41):
        for m in range(-jj, jj + 1):
            for q in (-1, 0, 1):
                got = tuple(Fraction(*w)
                            for w in tr._em_weight_squares(jj, m, q))
                assert got == orc.em_weight_squares_ref(jj, m, q), \
                    (jj, m, q)


def test_em_weight_stack_within_one_ulp_of_exact_roots():
    # each float weight is one correctly rounded division of exact
    # integers and one correctly rounded root: within 1 ulp of the
    # correctly rounded root of the oracle's exact square at every order
    # up to 64 (at most 0.84 ulp from the exact root measured), and zero
    # exactly where that square is
    ref = np.zeros((4, 65, 3, 65))
    with mp.workdps(40):
        for jj in range(1, 65):
            for m in range(jj + 1):
                for iq, q in enumerate((-1, 0, 1)):
                    for iw, sq in enumerate(
                            orc.em_weight_squares_ref(jj, m, q)):
                        root = mp.sqrt(mp.mpf(abs(sq.numerator))
                                       / sq.denominator)
                        ref[iw, m, iq, jj] = math.copysign(float(root), sq)
    for l_max in (1, 8, 32, 64):
        n = l_max + 1
        got = np.stack(tr._em_weight_stack(l_max))
        want = ref[:, :n, :, :n]
        assert got.shape == want.shape
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_em_weights_match_threej_route():
    # the weights from one batch of 3j families, as the translation kernel
    # took them before the closed forms, folded with aR and bR: within
    # 2 ulp of 1
    for l_max in (1, 8, 32):
        n = l_max + 1
        w0, wm, wp, a_r, b_r = (w[..., :n] for w in
                                orc.em_weights_3j(l_max, np.arange(n)))
        for got, ref in zip(tr._em_weight_stack(l_max),
                            (w0, wm / a_r, -a_r * wm, -b_r * wp)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 2 * EPS


# ---------------------------------------------------------------------------
# the oracle's 3j kernel W and its worst entries
# ---------------------------------------------------------------------------

def _w_reference(l_max):
    """W[m, l', l, k] from the scalar one-family 3j oracle."""
    n = l_max + 1
    w = np.zeros((n, n, n, n))
    for l_in in range(n):
        for l_out in range(n):
            lo = min(l_in, l_out)
            _, f000 = orc.threej_family_ref(l_in, l_out, 0, 0)
            lpp = l_in + l_out - 2 * np.arange(lo + 1)
            base = f000[::-2] * (2.0 * lpp + 1.0) * math.sqrt(
                (2.0 * l_in + 1.0) * (2.0 * l_out + 1.0))
            if l_in % 2 == 0:
                base = -base
            for m in range(lo + 1):
                _, fm = orc.threej_family_ref(l_in, l_out, m, -m)
                w[m, l_out, l_in, :lo + 1] = \
                    (base if m % 2 == 0 else -base) * fm[::-2]
    return w


def test_w_kernel_matches_scalar_oracle_at_forty():
    # the oracle's W from batched 3j rows, one batch per top order
    w = orc.w_kernel(40)
    assert not w.flags.writeable
    ref = _w_reference(40)
    assert np.array_equal(w == 0.0, ref == 0.0)
    nz = ref != 0.0
    assert np.all(np.abs(w[nz] - ref[nz]) <= 4 * EPS * np.abs(ref[nz]))


def test_w_kernel_mirror_parity():
    # 3j(l l' L; m -m 0) is symmetric in l and l', so swapping the orders
    # only moves the prefactor sign: W[m, l', l] = (-1)^{l+l'} W[m, l, l']
    w = orc.w_kernel(40)
    lv = np.arange(41)
    par = np.where((lv[:, None] + lv[None, :]) % 2 == 0, 1.0, -1.0)
    assert np.array_equal(w.swapaxes(1, 2), par[None, :, :, None] * w)


def _s_mpmath(l_out, l_in, m, x, dps=40):
    """S_{l_out, l_in}(m) at x from exact 3j squares and mpmath K."""
    with mp.workdps(dps):
        big_x = mp.mpf(x)
        k_top = mp.besselk(l_out + l_in + mp.mpf(1) / 2, big_x)
        tot = mp.mpf(0)
        for lpp in range(abs(l_out - l_in), l_out + l_in + 1, 2):
            s0, q0 = orc.threej_exact_sq(l_in, l_out, lpp, 0, 0, 0)
            s1, q1 = orc.threej_exact_sq(l_in, l_out, lpp, m, -m, 0)
            if s0 * s1 == 0:
                continue
            q = q0 * q1
            w = s0 * s1 * mp.sqrt(mp.mpf(q.numerator) / q.denominator)
            tot += (2 * lpp + 1) * w * mp.besselk(lpp + mp.mpf(1) / 2,
                                                  big_x) / k_top
        return float(-(-1) ** (l_in + m)
                     * mp.sqrt((2 * l_in + 1) * (2 * l_out + 1)) * tot)


def test_worst_oracle_entries_match_mpmath(oracle_cache):
    # at l_max 40 and x = 800 the m = 7..9 blocks cancel to ~1e-3, so the
    # oracle test compares them at its 1e-14 floor; the entries where the
    # kernel and the oracle differ most (and (34, 9), where the sum of
    # exponentiated logs was off by 1.06e-14) are each within half the
    # floor of a 40-digit evaluation, so the floor tests the kernel
    l_max, x = 40, 800.0
    kern = node_kernel(l_max, x)
    for m in (7, 8, 9):
        ref = _scaled(*orc.u_log_block_ref(l_max, m, x), kern.log_scale)
        diff = np.abs(kern.blocks[m] - ref)
        worst = np.unravel_index(np.argmax(diff), diff.shape)
        for a, b in {tuple(int(i) for i in worst), (34, 9)}:
            exact = _s_mpmath(a, b, m, x)
            assert abs(ref[a, b] - exact) <= 5e-15, (m, a, b)
            assert abs(kern.blocks[m][a, b] - exact) <= 5e-15, (m, a, b)


# ---------------------------------------------------------------------------
# cost of the recurrence
# ---------------------------------------------------------------------------

def test_cold_node_kernel_memory_peak():
    # the recurrence keeps a few columns of (l_max+1)(2 l_max+2) entries
    # next to the (l_max+1)^3 blocks it returns (8.8 MB traced at order
    # 96, of which 7.3 MB are the blocks); the 3j route built a 0.71 GB
    # table of (l_max+1)^4 weights first
    tr._recurrence_coeffs.cache_clear()
    tracemalloc.start()
    try:
        kern = node_kernel(96, 3.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kern.blocks.nbytes + 4e6


def test_cold_em_node_kernel_memory_peak():
    # the EM recoupling reads and scales only the live region of each
    # part of consecutive orders (about eight orders a part at l 64) next
    # to the zeroed (l_max+1)(2 l_max+2)^2 blocks it fills (8.8 MB at
    # order 64; the whole-cube recoupling peaked at 3.3 times that, the
    # parts at a measured 1.58)
    tr._recurrence_coeffs.cache_clear()
    tr._em_weight_stack.cache_clear()
    tracemalloc.start()
    try:
        kern = node_kernel(64, 3.7, em=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * kern.blocks.nbytes
