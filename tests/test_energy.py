"""Tests for the energy module: assembly, quadrature, extrapolation."""

import math
import re
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad_vec

import _oracles as orc
import casphere.energy as energy
from casphere.energy import (
    COMPLEX_SCALAR,
    DomainError,
    ELECTROMAGNETIC,
    EnergyEstimate,
    FieldKind,
    Geometry,
    LMaxClampWarning,
    PivotFallbackWarning,
    QuadSpec,
    QuadratureWarning,
    REAL_SCALAR,
    _histories,
    _m_history,
    _shrinking_lndets,
    casimir_energy,
    casimir_energy_nbody,
    extrapolate,
    integrand,
    suggest_l_max,
)
from casphere.tmatrix import (
    Dielectric,
    Dirichlet,
    Dispersive,
    Neumann,
    PerfectConductor,
    Robin,
    SphereSpec,
)
import casphere.translation as translation
from casphere.translation import u_log_block

R = 1.0
DIR = SphereSpec(R, Dirichlet())
NEU = SphereSpec(R, Neumann())
PEC = SphereSpec(R, PerfectConductor())


def pair(s1, s2, d):
    return Geometry.pair(s1, s2, d)


def _history(geometry, fld, kappa, l_max):
    """History vector of the single node kappa."""
    return _histories(geometry, fld, [kappa], l_max)[0]


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


@pytest.mark.parametrize("center", [math.inf, -math.inf, math.nan])
def test_geometry_rejects_non_finite_center(center):
    # an infinite distance would pass the overlap test and reach the
    # T-matrix as kappa = t / (2 inf) = 0; it is refused at construction
    with pytest.raises(ValueError, match=r"center 1 must be finite, got "
                                         + re.escape(repr(center))):
        pair(DIR, DIR, center)
    with pytest.raises(ValueError, match=r"center 0 must be finite"):
        Geometry((DIR, DIR, DIR), (center, 3.0, 6.0))


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
    for rel_tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="quad tolerance"):
            QuadSpec(rel_tol=rel_tol)


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


@pytest.mark.parametrize("l_max", [4.0, "4", None, True, 4.5])
@pytest.mark.parametrize("call", [
    lambda g, l_max: casimir_energy(g, "scalar-real", l_max),
    lambda g, l_max: casimir_energy_nbody(g, "scalar-real", l_max),
    lambda g, l_max: integrand(g, "scalar-real", 1.0, l_max)],
    ids=["casimir_energy", "casimir_energy_nbody", "integrand"])
def test_non_integer_l_max_is_refused(call, l_max):
    # every energy entry point refuses a non-integer order at entry,
    # naming it, rather than failing deep in numpy or on a comparison;
    # a bool is not an order
    with pytest.raises(TypeError, match="l_max must be an integer"):
        call(pair(DIR, DIR, 4.0), l_max)


def test_integer_types_give_the_int_l_max():
    # integer types other than int are taken, and the estimate carries
    # the plain int
    g = pair(DIR, DIR, 4.0)
    est = casimir_energy(g, "scalar-real", np.int64(4))
    assert type(est.l_max) is int
    assert est == casimir_energy(g, "scalar-real", 4)
    assert integrand(g, "scalar-real", 1.0, np.int32(4)) \
        == integrand(g, "scalar-real", 1.0, 4)


def test_integrand_rejects_infinite_kappa():
    with pytest.raises(ValueError, match="finite and positive"):
        integrand(pair(DIR, DIR, 4.0), REAL_SCALAR, math.inf, 4)


def test_integrand_refuses_a_huge_refractive_index_quickly():
    # n = 1e150 puts the inner Bessel chain at n kappa R, far past what
    # its continued fraction can reach in reasonable time
    huge = SphereSpec(R, Dielectric(1e300, 1.0))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="bessel argument z="):
        integrand(pair(huge, huge, 3.0), ELECTROMAGNETIC, 1.0, 2)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("field,sphere", [("scalar-real", DIR), ("em", PEC)],
                         ids=["scalar", "em"])
def test_integrand_kappa_check_is_the_t_matrix_check(field, sphere, kappa):
    # the T-matrix rows check every kappa before any log of it is taken
    with pytest.raises(ValueError, match="finite and positive"):
        integrand(pair(sphere, sphere, 4.0), field, kappa, 4)


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
    tt = np.array([-(-1.0) ** l * orc.t_scalar_imag(DIR, l, kappa * R)
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

# The blocked elimination rounds differently from the rank-1 oracle;
# both are backward stable, so their leading-minor log-determinants
# agree to C_LNDET * n * eps * (sum of |log pivot|) for an n-row block.
C_LNDET = 4.0


def _stack_lndets(stack, sizes, stride, comps=1):
    """`_shrinking_lndets` of the blocks in the trailing corners of a
    padded stack, read window by window as the elimination reaches them
    (and by the pivoted fallback from a block's first row).  With comps 2
    the stack holds the (S, D) of each split-complex block in turn."""
    def write(out, k, lo):
        out[...] = stack[comps * lo:comps * lo + len(out), k:, k:]
    return _shrinking_lndets(sizes, stride, write, comps)


def _one_block(a, stride=1):
    """_stack_lndets of a stack holding the single block a, eliminated
    in panels of `stride` rows."""
    signs, lndets = _stack_lndets(a[None].copy(), [a.shape[0]], stride)
    return signs[0], lndets[0]


def _lndet_bound(lndets):
    """C_LNDET * n * eps * sum |log pivot| at every row of an n-row
    block, from the block's cumulative pivot logs lndets."""
    return (C_LNDET * len(lndets) * np.finfo(float).eps
            * np.cumsum(np.abs(np.diff(lndets, prepend=0.0))))


def _padded_stack(blocks):
    """Blocks of non-increasing size in the trailing corners of a stack;
    the padding, which must never be read, is NaN."""
    n = blocks[0].shape[0]
    stack = np.full((len(blocks), n, n), np.nan)
    for slot, b in zip(stack, blocks):
        slot[n - len(b):, n - len(b):] = b
    return stack


def _assert_equals_oracle(signs, lndets, block, stride):
    first = len(signs) - len(block)
    # batching: the block's rows are those of its one-block call
    one_signs, one_lndets = _one_block(block, stride)
    assert signs[first:].tobytes() == one_signs.tobytes()
    assert lndets[first:].tobytes() == one_lndets.tobytes()
    ref_signs, ref_lndets = orc.leading_lndets_ref(block)
    assert np.all(signs[first:] == ref_signs)
    assert np.all(np.abs(lndets[first:] - ref_lndets)
                  <= _lndet_bound(ref_lndets))
    # the padding rows are identity rows of 1 - B
    assert np.all(signs[:first] == 1.0) and np.all(lndets[:first] == 0.0)


def test_leading_lndets_matches_slogdet():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8))
    a *= 0.9 / max(abs(np.linalg.eigvals(a)))
    signs, lndets = _one_block(a)
    for k in range(8):
        sgn, ld = np.linalg.slogdet(np.eye(k + 1) - a[:k + 1, :k + 1])
        assert signs[k] == sgn
        assert lndets[k] == pytest.approx(ld, rel=1e-10, abs=1e-12)


def test_leading_lndets_tiny_matrix_precision():
    # lndet(1 - eps A) ~ -eps tr A must keep full relative accuracy
    rng = np.random.default_rng(11)
    a = 1e-12 * rng.standard_normal((6, 6))
    _, lndets = _one_block(a)
    assert lndets[-1] == pytest.approx(-np.trace(a), rel=1e-9)


@pytest.mark.parametrize("stride", [1, 2, 4, 6])
def test_stack_lndets_equals_per_matrix_oracle(stride):
    rng = np.random.default_rng(stride)
    orders = (6, 6, 5, 3, 3, 1)
    scales = (0.3, 1e-12, 0.3, 2.0, 1e-12, 0.3)
    blocks = [scale / math.sqrt(stride * k)
              * rng.standard_normal((stride * k, stride * k))
              for k, scale in zip(orders, scales)]
    # a negative first pivot takes the log(-piv) branch
    blocks[2][0, 0] = 1.5
    signs, lndets = _stack_lndets(_padded_stack(blocks),
                                  [len(b) for b in blocks], stride)
    assert np.any(signs < 0.0)
    for i, b in enumerate(blocks):
        _assert_equals_oracle(signs[i], lndets[i], b, stride)


@pytest.mark.parametrize("stride", [1, 2, 4, 6])
def test_stack_lndets_against_mpmath(stride):
    # 50-digit leading minors: the blocked elimination is within twice
    # the rank-1 oracle's own error, or within the stated bound, for
    # entries of order one, ~1e-12 and spectral radius 0.99
    rng = np.random.default_rng(100 + stride)
    blocks = []
    for k, scale in zip((6, 6, 5, 5, 4, 4), (0.3, 1e-12, None) * 2):
        b = rng.standard_normal((stride * k, stride * k))
        if scale is None:
            b *= 0.99 / max(abs(np.linalg.eigvals(b)))
        else:
            b *= scale / math.sqrt(stride * k)
        blocks.append(b)
    _, lndets = _stack_lndets(_padded_stack(blocks),
                              [len(b) for b in blocks], stride)
    for i, b in enumerate(blocks):
        exact = orc.leading_lndets_mp(b)
        err = np.abs(lndets[i, len(lndets[i]) - len(b):] - exact)
        oracle_err = np.abs(orc.leading_lndets_ref(b)[1] - exact)
        assert np.all(err <= np.maximum(2.0 * oracle_err,
                                        _lndet_bound(exact))), i


def test_pivot_fallback_is_per_block_and_loud():
    rng = np.random.default_rng(5)
    blocks = [0.1 * rng.standard_normal((k, k)) for k in (6, 4, 2)]
    # 1 - B with an exactly zero first pivot and positive minors at the
    # stride-2 cuts (block lower triangular: det = 1 * det of the rest)
    a = np.eye(4)
    a[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    a[2:, :] += 0.1 * rng.standard_normal((2, 4))
    blocks[1] = np.eye(4) - a
    padded = _padded_stack(blocks)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="warn"):
            signs, lndets = _stack_lndets(padded.copy(), [6, 4, 2], 2)
    assert [w.category for w in caught] == [PivotFallbackWarning]
    for k in range(4):
        sgn, ld = np.linalg.slogdet(a[:k + 1, :k + 1])
        assert signs[1, 2 + k] == sgn and lndets[1, 2 + k] == ld
    assert signs[1, 3] > 0.0 and signs[1, 5] > 0.0
    for i in (0, 2):
        _assert_equals_oracle(signs[i], lndets[i], blocks[i], 2)


def test_pivot_fallback_is_confined_under_errstate_raise():
    # the pivots are checked once, after the elimination: the zero pivot
    # of block 1 raises no FloatingPointError, warns once, and no other
    # block reads its infinities
    rng = np.random.default_rng(9)
    blocks = [0.1 * rng.standard_normal((k, k)) for k in (8, 8, 6, 4)]
    blocks[1][0, 0] = 1.0
    padded = _padded_stack(blocks)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="raise"):
            signs, lndets = _stack_lndets(padded.copy(), [8, 8, 6, 4], 2)
    assert [w.category for w in caught] == [PivotFallbackWarning]
    assert "block 1 of 4 " in str(caught[0].message)
    for i in (0, 2, 3):
        first = 8 - len(blocks[i])
        one_signs, one_lndets = _one_block(blocks[i], 2)
        assert signs[i, first:].tobytes() == one_signs.tobytes()
        assert lndets[i, first:].tobytes() == one_lndets.tobytes()


@pytest.mark.parametrize("s_scale", [0.0, 0.1])
def test_mirror_pivot_fallback_gives_split_complex_minors_at_every_row(
        s_scale):
    # an EM mirror block of 3 orders (panels of pol = 2 rows) whose first
    # sector pivot (1 - s)^2 - d^2 = 5e-14 fails the check inside its
    # panel: every row, cut or not, is a split-complex minor of S + j D,
    # the 2k-row leading minor of kron(S, I) + kron(D, [[0, 1], [1, 0]])
    rng = np.random.default_rng(21)
    s = s_scale * rng.standard_normal((6, 6))
    d = 0.1 * rng.standard_normal((6, 6))
    d[0, 0] = math.sqrt((1.0 - s[0, 0]) ** 2 - 5e-14)
    with pytest.warns(PivotFallbackWarning):
        signs, lndets = _stack_lndets(np.stack([s, d]), [6], 2, 2)
    real = np.kron(s, np.eye(2)) + np.kron(d, [[0.0, 1.0], [1.0, 0.0]])
    ref_signs, ref_lndets = np.array(
        [np.linalg.slogdet(np.eye(k) - real[:k, :k]) for k in range(1, 13)]).T
    assert np.all(signs[0] == ref_signs[1::2])
    assert np.all(np.abs(lndets[0] - ref_lndets[1::2])
                  <= _lndet_bound(ref_lndets)[1::2])
    assert lndets[0, 0] == pytest.approx(math.log(5e-14), rel=1e-3)


def test_pivot_fallback_rewrites_the_blocks_joining_at_its_first_row():
    # block 1 joins with block 0 at row 0: the fallback writes that group
    # again, as the elimination wrote it, and reads block 1 from it
    rng = np.random.default_rng(9)
    blocks = [0.1 * rng.standard_normal((k, k)) for k in (8, 8, 6, 4)]
    blocks[1][0, 0] = 1.0
    stack = _padded_stack(blocks)
    calls = []

    def write(out, k, lo):
        calls.append((k, lo, out.shape))
        out[...] = stack[lo:lo + len(out), k:, k:]
    with pytest.warns(PivotFallbackWarning):
        signs, lndets = _shrinking_lndets([8, 8, 6, 4], 2, write)
    assert calls == [(0, 0, (2, 8, 8)), (2, 2, (1, 6, 6)), (4, 3, (1, 4, 4)),
                     (0, 0, (2, 8, 8))]
    ref = [np.linalg.slogdet(np.eye(k) - blocks[1][:k, :k])
           for k in range(1, 9)]
    assert signs[1].tolist() == [r[0] for r in ref]
    assert lndets[1].tolist() == [r[1] for r in ref]


def test_domain_error_on_lost_positivity():
    with pytest.raises(DomainError):
        _m_history(*_stack_lndets(np.array([[[2.0]]]), [1], 1), 1, 0)


def test_domain_error_when_only_the_last_block_loses_positivity():
    rng = np.random.default_rng(3)
    blocks = [0.1 * rng.standard_normal((k, k)) for k in (6, 4, 2)]
    # cut minor (1 - 0.1) * (1 - 3) < 0 in the smallest block only
    blocks[2] = np.diag([0.1, 3.0])
    signs, lndets = _stack_lndets(_padded_stack(blocks), [6, 4, 2], 2)
    _m_history(signs[:2], lndets[:2], 2, 0)
    with pytest.raises(DomainError):
        _m_history(signs, lndets, 2, 0)


NODE_CASES = [
    ("scalar-real", pair(DIR, NEU, 3.0), 6),
    ("em", pair(PEC, SphereSpec(0.6, Dielectric(4.0, 1.0)), 2.5), 5),
    ("scalar-real", Geometry((DIR, NEU, DIR), (0.0, 3.0, 6.5)), 4),
    ("em", Geometry((PEC, PEC, PEC), (0.0, 3.0, 6.0)), 2),
]


def _node(pairs, j):
    """The (a, b, scale, u) of node j alone, in the one-node layout of
    `tests/_oracles.py::node_stack_ref`."""
    return [(a, b, scale[j], u[j]) for a, b, scale, u in pairs]


def _node_block(pairs, nsph, pol, l_min, m, j):
    """The m-block N_m of node j alone, the orders l >= max(m, l_min), cut
    from `tests/_oracles.py::node_stack_ref`.  Of the mirror form (one
    pair (0, 0)) it is the interleaved two-sphere block [[0, D], [D, 0]],
    which has the cuts of N_m."""
    if pairs[0][0] == pairs[0][1]:
        (_, _, scale, u), = pairs
        pairs, nsph = [(0, 1, scale, u), (1, 0, scale, u)], 2
    first = nsph * pol * (max(m, l_min) - l_min)
    return orc.node_stack_ref(_node(pairs, j), nsph, pol, l_min)[
        m, first:, first:]


def _one_mirror_block(block, pol):
    """_stack_lndets of the mirror form (S = 0, D) of an interleaved
    two-sphere block [[0, D], [D, 0]], in panels of pol rows."""
    nl = len(block) // (2 * pol)
    d = block.reshape(nl, 2, pol, nl, 2, pol)[:, 0, :, :, 1].reshape(
        nl * pol, nl * pol)
    signs, lndets = _stack_lndets(np.stack([np.zeros_like(d), d]), [len(d)],
                                  pol, 2)
    return signs[0], lndets[0]


def _per_block_history(pairs, nsph, pol, l_max, l_min, j=0):
    """History of node j from its m-blocks one at a time, summed in m
    order as the weighted cuts: (from one-block `_stack_lndets` calls,
    from the rank-1 oracle, the bound on their difference).  The mirror
    form (one pair (0, 0), nsph 1) is eliminated split-complex; its
    oracle is the rank-1 elimination of the interleaved real block."""
    mirror = pairs[0][0] == pairs[0][1]
    stride = (2 if mirror else nsph) * pol
    one, ref, bound = np.zeros((3, l_max + 1))
    for m in range(l_max + 1):
        lo = max(m, l_min)
        block = _node_block(pairs, nsph, pol, l_min, m, j)
        weight = 1.0 if m == 0 else 2.0
        cut = slice(stride - 1, None, stride)
        if mirror:
            one[lo:] += weight * _one_mirror_block(block, pol)[1][pol - 1::pol]
        else:
            one[lo:] += weight * _one_block(block, stride)[1][cut]
        _, lndets = orc.leading_lndets_ref(block)
        ref[lo:] += weight * lndets[cut]
        bound[lo:] += weight * _lndet_bound(lndets)[cut]
    return one, ref, bound


def _assert_equals_per_block(hist, per_block):
    one, ref, bound = per_block
    assert hist.tobytes() == one.tobytes()
    assert np.all(np.abs(hist - ref) <= bound)


# equal spheres: the mirror form, eliminated split-complex
MIRROR_CASES = [("scalar-real", pair(DIR, DIR, 3.0), 6),
                ("em", pair(PEC, PEC, 2.5), 5)]


@pytest.mark.parametrize("field,geometry,l_max", NODE_CASES + MIRROR_CASES)
def test_node_history_equals_per_block_oracle(monkeypatch, field, geometry,
                                              l_max):
    calls = []
    stack_history = energy._stack_history
    monkeypatch.setattr(energy, "_stack_history",
                        lambda *args: calls.append(args)
                        or stack_history(*args))
    hist = _history(geometry, FieldKind(field), 0.8, l_max)
    (pairs, nsph, pol, l_max, l_min), = calls
    _assert_equals_per_block(
        hist, _per_block_history(pairs, nsph, pol, l_max, l_min))


@pytest.mark.parametrize("field,geometry,l_max", NODE_CASES)
def test_batched_stack_equals_per_node_stack(monkeypatch, field, geometry,
                                             l_max):
    # the strided per-polarization writes of a chunk build the bytes of
    # one multiply per sphere pair, node by node, m-major and node-minor;
    # each block's window, as written when it joins the elimination, is
    # put back in the trailing corner of a zero-padded slot
    recorded = []
    node_pairs = energy._node_pairs
    monkeypatch.setattr(energy, "_node_pairs",
                        lambda *args: recorded.append(node_pairs(*args))
                        or recorded[-1])
    stacks = []
    shrinking_lndets = energy._shrinking_lndets

    def padded(sizes, stride, write, comps):
        # unequal spheres and triples keep the real, interleaved form
        assert comps == 1
        stack = np.zeros((len(sizes), sizes[0], sizes[0]))
        stacks.append(stack)

        def record(out, k, lo):
            write(out, k, lo)
            stack[lo:lo + len(out), k:, k:] = out
        return shrinking_lndets(sizes, stride, record, comps)
    monkeypatch.setattr(energy, "_shrinking_lndets", padded)
    fld = FieldKind(field)
    kappas = [0.05, 0.8, 3.0]
    _histories(geometry, fld, kappas, l_max)
    (stack,) = stacks
    pol, l_min = (2, 1) if fld.is_em else (1, 0)
    # one assembly for the chunk, one row per node
    (pairs,) = recorded
    assert all(len(scale) == len(u) == len(kappas)
               for _, _, scale, u in pairs)
    # block m's own rows and columns are the orders l >= max(m, l_min);
    # in front of them the oracle's slot holds padding (signed zeros of
    # scale * 0) that the elimination neither writes nor reads
    first = pol * geometry.n_spheres * (
        np.maximum(np.arange(l_max + 1), l_min) - l_min)
    rows = np.arange(stack.shape[1])
    own = ((rows[None, :, None] >= first[:, None, None])
           & (rows[None, None, :] >= first[:, None, None]))
    for j in range(len(kappas)):
        ref = orc.node_stack_ref(_node(pairs, j), geometry.n_spheres, pol,
                                 l_min)
        assert stack[j::len(kappas)].tobytes() == \
            np.where(own, ref, 0.0).tobytes()


@pytest.mark.parametrize("field,geometry,l_max", MIRROR_CASES)
def test_mirror_stack_equals_per_node_stack(monkeypatch, field, geometry,
                                            l_max):
    # the mirror form's one multiply per write builds, node by node, S = 0
    # and the D of one multiply per node (one row group per order); every
    # window is filled with NaN before its write, so an entry the write
    # skips shows
    recorded = []
    node_pairs = energy._node_pairs
    monkeypatch.setattr(energy, "_node_pairs",
                        lambda *args: recorded.append(node_pairs(*args))
                        or recorded[-1])
    stacks = []
    shrinking_lndets = energy._shrinking_lndets

    def padded(sizes, stride, write, comps):
        assert comps == 2
        stack = np.zeros((len(sizes), comps, sizes[0], sizes[0]))
        stacks.append(stack)

        def record(out, k, lo):
            out[...] = np.nan
            write(out, k, lo)
            w = out.shape[-1]
            stack[lo:lo + len(out) // comps, :, k:, k:] = out.reshape(
                -1, comps, w, w)
        return shrinking_lndets(sizes, stride, record, comps)
    monkeypatch.setattr(energy, "_shrinking_lndets", padded)
    fld = FieldKind(field)
    kappas = [0.05, 0.8, 3.0]
    _histories(geometry, fld, kappas, l_max)
    (stack,) = stacks
    pol, l_min = (2, 1) if fld.is_em else (1, 0)
    (pairs,) = recorded
    assert [(a, b) for a, b, _, _ in pairs] == [(0, 0)]
    assert stack[:, 0].tobytes() == np.zeros_like(stack[:, 0]).tobytes()
    first = pol * (np.maximum(np.arange(l_max + 1), l_min) - l_min)
    rows = np.arange(stack.shape[2])
    own = ((rows[None, :, None] >= first[:, None, None])
           & (rows[None, None, :] >= first[:, None, None]))
    for j in range(len(kappas)):
        ref = orc.node_stack_ref(_node(pairs, j), 1, pol, l_min)
        assert stack[j::len(kappas), 1].tobytes() == \
            np.where(own, ref, 0.0).tobytes()


def _node_window_bytes(geometry, pol, l_max, l_min):
    """Peak bytes of one node's live windows, counted from the block
    layout: at the p-th order from l_min the blocks m <= l_min + p are
    live, each with (l_max + 1 - l_min - p) orders left, and the two
    buffers hold the even and the odd orders.  Two equal spheres take
    the mirror form: pol rows per order, each entry two doubles."""
    spheres = geometry.spheres
    comps = 2 if len(spheres) == 2 and spheres[0] == spheres[1] else 1
    stride = len(spheres) // comps * pol
    nl = l_max + 1 - l_min
    live = [(l_min + p + 1) * (stride * (nl - p)) ** 2 for p in range(nl)]
    return 8 * comps * (max(live[0::2]) + max(live[1::2], default=0))


# a scalar pair, an EM pair, a Dirichlet triple, and the triples of
# NODE_CASES, and an equal EM pair in the mirror form
CHUNK_CASES = NODE_CASES + [
    ("scalar-real", Geometry((DIR, DIR, DIR), (0.0, 3.0, 6.5)), 5),
    ("em", pair(PEC, PEC, 2.5), 5)]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CHUNK_CASES),
       kappas=st.lists(st.floats(1e-3, 40.0), min_size=1, max_size=7),
       eighths=st.integers(0, 31))
def test_histories_equal_one_node_calls(case, kappas, eighths):
    # a byte budget of eighths/8 node windows: below one node (a chunk
    # still takes one), whole chunks of one to three nodes, and ragged
    # last chunks
    field, geometry, l_max = case
    fld = FieldKind(field)
    pol, l_min = (2, 1) if fld.is_em else (1, 0)
    node = _node_window_bytes(geometry, pol, l_max, l_min)
    per_chunk = max(1, eighths // 8)
    chunks = []
    stack_history = energy._stack_history
    with mock.patch.object(energy, "_STACK_BYTES",
                           max(1, node * eighths // 8)), \
            mock.patch.object(energy, "_stack_history",
                              lambda pairs, *args:
                              chunks.append(len(pairs[0][2]))
                              or stack_history(pairs, *args)):
        batched = _histories(geometry, fld, kappas, l_max)
    assert chunks == [min(per_chunk, len(kappas) - start)
                      for start in range(0, len(kappas), per_chunk)]
    for row, kappa in zip(batched, kappas):
        assert row.tobytes() == _history(geometry, fld, kappa, l_max).tobytes()


DIEL = SphereSpec(R, Dielectric(4.0, 1.0))


def _chunks(monkeypatch, spheres, field, l_max, nodes):
    """Chunk sizes of `_histories` over `nodes` nodes of a pair."""
    chunks = []
    monkeypatch.setattr(energy, "_node_pairs",
                        lambda geometry, fld, part, l_max: len(part))
    monkeypatch.setattr(energy, "_stack_history",
                        lambda nn, nsph, pol, l_max, l_min:
                        chunks.append(nn) or np.zeros((nn, l_max + 1)))
    _histories(pair(*spheres, 3.0), FieldKind(field), [1.0] * nodes, l_max)
    assert energy._STACK_BYTES == 1 << 20
    return chunks


@pytest.mark.parametrize("field,l_max,per_chunk", [
    ("scalar-real", 10, 65), ("scalar-real", 17, 16), ("scalar-real", 36, 2),
    ("scalar-real", 37, 1), ("em", 8, 28), ("em", 22, 2), ("em", 23, 1)])
def test_chunks_hold_the_live_windows_of_one_mib(monkeypatch, field, l_max,
                                                 per_chunk):
    # the 1 MiB budget counts only the live windows of the elimination,
    # so chunks of unequal pairs (the interleaved layout) fall to one
    # node only from scalar l_max 37 and EM 23
    spheres = (PEC, DIEL) if field == "em" else (DIR, NEU)
    assert _chunks(monkeypatch, spheres, field, l_max, per_chunk + 1) == \
        [per_chunk, 1]


@pytest.mark.parametrize("field,l_max,per_chunk", [
    ("scalar-real", 10, 130), ("scalar-real", 17, 32), ("scalar-real", 46, 2),
    ("scalar-real", 47, 1), ("em", 8, 56), ("em", 28, 2), ("em", 29, 1)])
def test_mirror_chunks_hold_twice_the_nodes(monkeypatch, field, l_max,
                                            per_chunk):
    # equal spheres: mirror-form windows take half the bytes, so chunks
    # fall to one node only from scalar l_max 47 and EM 29
    spheres = (PEC, PEC) if field == "em" else (DIR, DIR)
    assert _chunks(monkeypatch, spheres, field, l_max, per_chunk + 1) == \
        [per_chunk, 1]


def test_pivot_fallback_hits_one_node_of_a_batch(monkeypatch):
    # the l = 0 couplings of the middle node are set to x01 = x10 = x02 = 1,
    # x20 = -1, x12 = x21 = 0: its m = 0 block meets an exactly zero pivot
    # at row 1 (no cut) while the cut at l = 0 has det(1 - N) = 1
    coupling = {(0, 1): 1.0, (1, 0): 1.0, (0, 2): 1.0, (2, 0): -1.0,
                (1, 2): 0.0, (2, 1): 0.0}
    kappas = [0.3, 0.8, 2.0]
    node_pairs = energy._node_pairs

    def degenerate(geometry, fld, chunk, l_max):
        pairs = node_pairs(geometry, fld, chunk, l_max)
        if kappas[1] not in chunk:
            return pairs
        j = list(chunk).index(kappas[1])
        out = []
        for a, b, scale, u in pairs:
            scale, u = scale.copy(), u.copy()
            scale[j, 0, 0] = 1.0
            u[j, 0, 0, 0] = coupling[a, b]
            out.append((a, b, scale, u))
        return out
    monkeypatch.setattr(energy, "_node_pairs", degenerate)
    g = Geometry((DIR, DIR, DIR), (0.0, 3.0, 6.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="warn"):
            hist = _histories(g, REAL_SCALAR, kappas, 4)
    # stack row 1 is (m = 0, node 1) of 5 m-blocks of 3 nodes
    assert [w.category for w in caught] == [PivotFallbackWarning]
    assert "block 1 of 15 " in str(caught[0].message)
    pairs = degenerate(g, REAL_SCALAR, kappas, 4)
    with pytest.warns(PivotFallbackWarning):
        per_block = [_per_block_history(pairs, 3, 1, 4, 0, j)
                     for j in range(len(kappas))]
    for j in range(len(kappas)):
        _assert_equals_per_block(hist[j], per_block[j])


def test_pivot_fallback_hits_one_node_of_a_mirror_batch(monkeypatch):
    # every scalar sector row is a cut, so no pivot can vanish while det(1
    # - N) stays positive: the middle node's D gets d = sqrt(1 - 5e-14) at
    # l = l' = 0 of its m = 0 block, decoupled from the other orders, which
    # leaves the sector pivot (1 - d)(1 + d) = 5e-14 below the 1e-13 check
    kappas = [0.3, 0.8, 2.0]
    node_pairs = energy._node_pairs

    def degenerate(geometry, fld, chunk, l_max):
        (a, b, scale, u), = node_pairs(geometry, fld, chunk, l_max)
        if kappas[1] not in chunk:
            return [(a, b, scale, u)]
        j = list(chunk).index(kappas[1])
        scale, u = scale.copy(), u.copy()
        scale[j, 0, 0] = 1.0
        u[j, 0, 0, :] = u[j, 0, :, 0] = 0.0
        u[j, 0, 0, 0] = math.sqrt(1.0 - 5e-14)
        return [(a, b, scale, u)]
    monkeypatch.setattr(energy, "_node_pairs", degenerate)
    g = pair(DIR, DIR, 3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(all="warn"):
            hist = _histories(g, REAL_SCALAR, kappas, 4)
    # stack row 1 is (m = 0, node 1) of 5 m-blocks of 3 nodes
    assert [w.category for w in caught] == [PivotFallbackWarning]
    assert "block 1 of 15 " in str(caught[0].message)
    pairs = degenerate(g, REAL_SCALAR, kappas, 4)
    with pytest.warns(PivotFallbackWarning):
        per_block = _per_block_history(pairs, 1, 1, 4, 0, 1)
    _assert_equals_per_block(hist[1], per_block)
    assert hist[1, 0] == pytest.approx(math.log(5e-14), rel=1e-3)
    for j in (0, 2):
        assert hist[j].tobytes() == \
            _history(g, REAL_SCALAR, kappas[j], 4).tobytes()


PAIR_LAWS = [("scalar-real", Dirichlet()), ("scalar-real", Neumann()),
             ("scalar-real", Robin(10.0)), ("em", PerfectConductor()),
             ("em", Dielectric(4.0, 1.0))]

QUAD_CASES = [(field, pair(SphereSpec(R, law), SphereSpec(r2, law), d), tol)
              for field, law in PAIR_LAWS
              for r2, d, tol in ((1.0, 2.1, 1e-9), (0.05, 3.0, 1e-9),
                                 (1.0, 100.0, 1e-7))] + [
    ("scalar-real", Geometry((DIR, NEU, DIR), (0.0, 3.0, 6.5)), 1e-9),
    ("em", Geometry((PEC, PEC, PEC), (0.0, 3.0, 6.0)), 1e-9)]

# whether `_adaptive_gk15` runs a refinement round on each of QUAD_CASES;
# it stops the others on their initial dyadic partition
QUAD_REFINES = [True, False, False] + [True, True, False] * 3 + [
    True, False, False, True, False]
# whether it evaluates the last interval [32, 80] of each; it skips the
# others on their tail estimate
QUAD_KEEPS_TAIL = [False] * 3 + [False, True, False] + [False] * 3 + [
    False, True, False] * 2 + [False, False]


# the dyadic breakpoints of [0, 80]: every power of two p with 2p <= 80
DYADIC_80 = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


def test_quad_cases_cover_both_branches():
    # the oracle below checks a refined result against quad_vec and an
    # early stop against the summed one-interval rule, each with the tail
    # interval skipped and kept: all four must be seen
    assert len(QUAD_REFINES) == len(QUAD_KEEPS_TAIL) == len(QUAD_CASES)
    assert set(zip(QUAD_REFINES, QUAD_KEEPS_TAIL)) == {
        (True, True), (True, False), (False, True), (False, False)}


def _quad_integrand(geometry, fld, l_max):
    """The history vectors at a list of t = 2 kappa L, memoized by node.

    Rows do not depend on how nodes are batched, so a row computed for
    one rule serves every other rule that evaluates the same node."""
    gap = geometry.surface_gap
    rows = {}

    def f(ts):
        new = list(dict.fromkeys(t for t in ts if t not in rows))
        if new:
            rows.update(zip(new, _histories(
                geometry, fld, [t / (2.0 * gap) for t in new], l_max)))
        return np.array([rows[t] for t in ts])
    return f


def _gk15_sum_ref(f, edges):
    """(integral, error) of one `orc.gk15_ref` on each interval of the
    partition `edges`, summed in interval order."""
    ref = 0.0
    ref_err = round_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        ig, e, r = orc.gk15_ref(lo, hi, f(energy._gk15_nodes(lo, hi)))
        ref = ref + ig
        ref_err += e
        round_err += r
    return ref, ref_err + round_err


def _tail_estimate_ref(f, lo, hi):
    """f0/beta from the max-norms f0, f1 at the two GK15 nodes t0 > t1 of
    [lo, hi] nearest hi, beta = ln(f1/f0)/(t0 - t1): the integral over
    [t0, inf) of the exponential through them; inf where it does not
    decay."""
    t0, t1 = energy._gk15_nodes(lo, hi)[:2]
    f0, f1 = (float(np.amax(np.abs(row))) for row in f([t0, t1]))
    if not (f0 > 0.0 and f1 > f0 and math.isfinite(f1)):
        return math.inf
    return f0 / (math.log(f1 / f0) / (t0 - t1))


def _tail_ref(f, rel_tol, edges):
    """The oracle's own tail rule: (tail estimate, kept).  A partition of
    two or more intervals skips its last one where the estimate from the
    interval before is at most 1e-3 tol, tol from the integral over the
    other intervals; the estimate then joins the error."""
    if len(edges) < 3:
        return 0.0, True
    head = _gk15_sum_ref(f, edges[:-1])[0]
    est = _tail_estimate_ref(f, *edges[-3:-1])
    if est <= 1e-3 * max(1e-280, rel_tol * np.amax(np.abs(head))):
        return est, False
    return 0.0, True


def _full_partition_ref(f, rel_tol, edges, refines):
    """(integral, error) of the rule on every interval of `edges`: where
    it runs a round, quad_vec at epsrel = 8 rel_tol (its tests use
    tol/8), with its evaluation count; where it stops on the initial
    partition, the summed `orc.gk15_ref` of that partition's
    intervals."""
    if not refines:
        return _gk15_sum_ref(f, edges) + (None,)
    ref, ref_err, info = quad_vec(
        lambda t: f([t])[0], edges[0], edges[-1], epsabs=1e-280,
        epsrel=8 * rel_tol, norm="max", quadrature="gk15", full_output=True,
        points=edges[1:-1])
    return ref, ref_err, info.neval


def _assert_gk15_equals_quad_vec(field, geometry, rel_tol, t_max, points,
                                 refines, keeps_tail):
    """`_adaptive_gk15` against an independent rule, byte for byte.

    The rule keeps or skips the last interval as `_tail_ref` does.  The
    oracle is `_full_partition_ref` on the partition 0, points, t_max
    where the tail is kept, and on 0, points where it is skipped, with
    the oracle's tail estimate added to its error."""
    fld = FieldKind(field)
    l_max = (2 if geometry.n_spheres > 2 else 4) if fld.is_em else 6
    rule_f = _quad_integrand(geometry, fld, l_max)
    rounds = []

    def batched(ts):
        rounds.append(len(ts))
        return rule_f(ts)
    res, err = energy._adaptive_gk15(batched, t_max, rel_tol)
    # the oracle's rows are its own, not the rule's batches
    f = _quad_integrand(geometry, fld, l_max)
    edges = [0.0] + points + [t_max]
    est, kept = _tail_ref(f, rel_tol, edges)
    assert kept == keeps_tail
    # every node of a round in one call: the initial intervals but the
    # last, then the last where it is kept, then both halves of every
    # split interval
    initial = [15 * max(len(edges) - 2, 1)]
    if len(edges) > 2 and kept:
        initial.append(15)
    if not kept:
        edges = edges[:-1]
    assert rounds[:len(initial)] == initial
    assert all(k % 30 == 0 for k in rounds[len(initial):])
    assert (len(rounds) > len(initial)) == refines, rounds
    ref, ref_err, neval = _full_partition_ref(f, rel_tol, edges, refines)
    if refines:
        assert sum(rounds) == neval
    assert res.tobytes() == ref.tobytes() and err == ref_err + est


@pytest.mark.parametrize("field,geometry,rel_tol", QUAD_CASES)
def test_adaptive_gk15_equals_quad_vec(field, geometry, rel_tol):
    i = QUAD_CASES.index((field, geometry, rel_tol))
    _assert_gk15_equals_quad_vec(field, geometry, rel_tol, 80.0, DYADIC_80,
                                 QUAD_REFINES[i], QUAD_KEEPS_TAIL[i])


# whether the rule refines each partition of the test below, by field,
# and whether it keeps the last interval
PARTITION_REFINES = {("scalar-real", 0.5): True, ("scalar-real", 3.0): False,
                     ("scalar-real", 80.0): False, ("em", 0.5): True,
                     ("em", 3.0): False, ("em", 80.0): True}
PARTITION_KEEPS_TAIL = {("scalar-real", 80.0): False}


@pytest.mark.parametrize("t_max,points",
                         [(0.5, []), (3.0, [1.0]), (80.0, DYADIC_80)])
@pytest.mark.parametrize("field,geometry", [
    ("scalar-real", pair(DIR, DIR, 3.0)),
    ("em", pair(PEC, SphereSpec(0.05, PerfectConductor()), 3.0))])
def test_adaptive_gk15_partition_equals_quad_vec(field, geometry, t_max,
                                                 points):
    # no breakpoint, one, six: parity holds on every partition; one
    # interval is always split once, whatever its error, and is never
    # skipped
    _assert_gk15_equals_quad_vec(
        field, geometry, 1e-9, t_max, points,
        PARTITION_REFINES[(field, t_max)],
        PARTITION_KEEPS_TAIL.get((field, t_max), True))


# every pair law at six separations, with equal radii and R2/R1 = 0.05,
# and the two triples of QUAD_CASES
TAIL_CASES = [(field, pair(SphereSpec(R, law), SphereSpec(r2, law), d))
              for field, law in PAIR_LAWS
              for d in (2.05, 2.1, 3.0, 6.0, 20.0, 100.0)
              for r2 in (1.0, 0.05)] + [case[:2] for case in QUAD_CASES[-2:]]


@pytest.mark.parametrize("field,geometry", TAIL_CASES)
def test_tail_estimate_bounds_the_tail(field, geometry):
    # the exponential through the two nodes of [16, 32] nearest 32
    # overstates the integral over [32, 80], by at most half, against a
    # composite of six K15 rules of width 8
    fld = FieldKind(field)
    l_max = (2 if geometry.n_spheres > 2 else 4) if fld.is_em else 6
    f = _quad_integrand(geometry, fld, l_max)
    t0, t1 = energy._gk15_nodes(16.0, 32.0)[:2]
    est = energy._tail_estimate(
        t0, t1, *(float(np.amax(np.abs(row))) for row in f([t0, t1])))
    tail = np.amax(np.abs(_gk15_sum_ref(f, [32.0 + 8.0 * i
                                            for i in range(7)])[0]))
    assert tail <= est <= 1.5 * tail


@pytest.mark.parametrize("field,geometry", TAIL_CASES)
def test_skipped_tail_stays_within_the_error(field, geometry, monkeypatch):
    # a skipped tail moves the integral by less than the returned error
    # and than 1e-3 tol; a kept one leaves the full partition's result,
    # byte for byte.  The full-range rule is the one that keeps every tail
    fld = FieldKind(field)
    l_max = (2 if geometry.n_spheres > 2 else 4) if fld.is_em else 6
    f = _quad_integrand(geometry, fld, l_max)
    edges = [0.0] + DYADIC_80 + [80.0]
    for rel_tol in (1e-9, 1e-7):
        rounds = []

        def counted(ts):
            rounds.append(len(ts))
            return f(ts)
        res, err = energy._adaptive_gk15(counted, 80.0, rel_tol)
        kept = _tail_ref(f, rel_tol, edges)[1]
        assert (rounds[1:2] == [15]) == kept, rel_tol
        if kept:
            ref, ref_err, _ = _full_partition_ref(f, rel_tol, edges,
                                                  len(rounds) > 2)
            assert (res.tobytes(), err) == (ref.tobytes(), ref_err)
        else:
            with monkeypatch.context() as m:
                m.setattr(energy, "_TAIL_SHARE", 0.0)
                full = energy._adaptive_gk15(f, 80.0, rel_tol)[0]
            moved = np.amax(np.abs(res - full))
            assert moved <= err, rel_tol
            assert moved <= 1e-3 * rel_tol * np.amax(np.abs(full)), rel_tol


@settings(max_examples=60, deadline=None)
@given(ends=st.lists(st.tuples(st.floats(min_value=0.0, max_value=80.0),
                               st.floats(min_value=1e-9, max_value=80.0)),
                     min_size=1, max_size=12),
       width=st.integers(min_value=1, max_value=9),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       zero=st.integers(min_value=0, max_value=12))
def test_gk15_batch_equals_one_interval_rule(ends, width, seed, zero):
    # each interval of the batched rule gives the (integral, error,
    # rounding error) of the rule on that interval alone, byte for byte;
    # a zero integrand takes the error rule's zero branches
    rng = np.random.default_rng(seed)
    a = [lo for lo, _ in ends]
    b = [lo + length for lo, length in ends]
    fv = rng.standard_normal((len(ends), 15, width)) * 10.0 ** rng.uniform(
        -30.0, 30.0, (len(ends), 1, width))
    if zero < len(ends):
        fv[zero] = 0.0
    igs, errs, round_errs = energy._gk15_batch(a, b, fv)
    assert igs.shape == (len(ends), width)
    for i, args in enumerate(zip(a, b, fv)):
        ig, err, round_err = orc.gk15_ref(*args)
        assert igs[i].tobytes() == ig.tobytes()
        assert (repr(errs[i]), repr(round_errs[i])) == (repr(err),
                                                        repr(round_err))


def test_default_pair_stops_on_its_initial_partition():
    # D-D at d/R 3: the dyadic start meets the tolerance at once and its
    # tail estimate is far below it, so the energy is the 90 nodes of
    # [0, 32] in one call
    calls = []

    def counted(geometry, fld, kappas, l_max):
        calls.append(len(kappas))
        return _histories(geometry, fld, kappas, l_max)
    with mock.patch.object(energy, "_histories", counted):
        casimir_energy(pair(DIR, DIR, 3.0), "scalar-real", 8)
    assert calls == [90]


@pytest.mark.parametrize("field,geometry", [
    ("scalar-real", pair(DIR, DIR, 2.1)),
    ("scalar-real", pair(DIR, DIR, 3.0)),
    ("scalar-real", pair(DIR, DIR, 20.0)),
    ("em", pair(PEC, PEC, 3.0)),
    ("em", pair(SphereSpec(R, Dielectric(4.0, 1.0)),
                SphereSpec(0.05, Dielectric(4.0, 1.0)), 3.0)),
    ("scalar-real", Geometry((DIR, DIR, DIR), (0.0, 3.0, 6.0))),
    ("scalar-real", pair(DIR, DIR, 2.05)),
    ("scalar-real", pair(DIR, NEU, 2.1)),
    ("scalar-real", pair(DIR, SphereSpec(R, Robin(10.0)), 20.0)),
    ("scalar-real", pair(NEU, NEU, 100.0)),
    ("scalar-real", pair(DIR, SphereSpec(0.05, Dirichlet()), 3.0)),
    ("em", pair(PEC, SphereSpec(R, Dielectric(4.0, 1.0)), 3.0))])
def test_adaptive_gk15_error_bounds_the_error(field, geometry):
    # the reported error covers the distance to a 1e-13 reference, at
    # the default tolerance and at the suggest_l_max probe's, where most
    # of these stop on the initial partition
    fld = FieldKind(field)
    l_max = (2 if geometry.n_spheres > 2 else 4) if fld.is_em else 6
    gap = geometry.surface_gap

    def f(ts):
        return _histories(geometry, fld, [t / (2.0 * gap) for t in ts],
                          l_max)
    ref, _ = energy._adaptive_gk15(f, 80.0, 1e-13)
    for rel_tol in (QuadSpec().rel_tol, energy._PROBE_QUAD.rel_tol):
        res, err = energy._adaptive_gk15(f, 80.0, rel_tol)
        assert np.amax(np.abs(res - ref)) <= err, rel_tol


def test_quadrature_warns_when_it_gives_up(monkeypatch):
    # at the interval limit, or on a non-finite error, the rule returns
    # its last estimate with a QuadratureWarning.  D-D at d/R 2.1 skips
    # its tail, splits one of its six intervals in its first round and
    # needs a second
    g = pair(DIR, DIR, 2.1)

    def f(ts):
        return _histories(g, REAL_SCALAR, [t / 0.2 for t in ts], 6)
    monkeypatch.setattr(energy, "_GK_LIMIT", 7)
    with pytest.warns(QuadratureWarning, match="gave up at 7 intervals"):
        res, err = energy._adaptive_gk15(f, 80.0, 1e-9)
    assert np.all(np.isfinite(res)) and err > 1e-9 * np.amax(np.abs(res))
    with pytest.warns(QuadratureWarning, match="at 7 intervals"):
        casimir_energy(g, "scalar-real", 6)
    monkeypatch.undo()

    def nan_at_one(ts):
        values = f(ts)
        values[ts.index(max(ts))] = math.nan
        return values
    with pytest.warns(QuadratureWarning, match="error nan"):
        energy._adaptive_gk15(nan_at_one, 80.0, 1e-9)


def test_rounding_limited_stop_is_silent():
    # at rel_tol 1e-15 the D-D d/R 3 tail is kept, and the estimate falls
    # below the rounding error after one round, above the tolerance: no
    # warning
    g = pair(DIR, DIR, 3.0)
    rounds = []

    def f(ts):
        rounds.append(len(ts))
        return _histories(g, REAL_SCALAR, [t / 2.0 for t in ts], 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        res, err = energy._adaptive_gk15(f, 80.0, 1e-15)
    assert rounds[:2] == [90, 15] and len(rounds) == 3
    assert err > 1e-15 * np.amax(np.abs(res))


@pytest.mark.parametrize("field,geometry", [
    ("scalar-real", pair(DIR, DIR, 2.05)),
    ("scalar-real", pair(DIR, SphereSpec(R, Robin(10.0)), 4.0)),
    ("em", pair(PEC, PEC, 3.0)),
    ("em", pair(PEC, SphereSpec(0.05, Dielectric(4.0, 1.0)), 2.1)),
    ("scalar-real", Geometry((DIR, NEU, DIR), (0.0, 3.0, 6.5)))])
def test_default_energies_do_not_warn(field, geometry):
    # the default tolerance is met, or limited by rounding, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error", QuadratureWarning)
        casimir_energy_nbody(geometry, field, 8)


@pytest.mark.parametrize("field,law", PAIR_LAWS)
def test_mirror_form_equals_interleaved_elimination(field, law):
    # equal spheres eliminate split-complex; the interleaved real blocks
    # they stand for, rebuilt from the same pair with the parity undone,
    # give the same histories to 1e-14
    fld = FieldKind(field)
    pol, l_min = (2, 1) if fld.is_em else (1, 0)
    l_max = 6 if fld.is_em else 8
    mask = translation._reversal(l_max + 1, pol)
    sph = SphereSpec(1.0, law)
    for d in (2.1, 3.0, 100.0, 1000.0):
        g = pair(sph, sph, d)
        kappas = [1e-6, 1e-3, 1.0, 1e3]
        (_, _, scale, u), = energy._node_pairs(g, fld, kappas, l_max)
        k12 = scale * mask[0]
        real = energy._stack_history([(0, 1, k12, u), (1, 0, k12 * mask, u)],
                                     2, pol, l_max, l_min)
        np.testing.assert_allclose(_histories(g, fld, kappas, l_max), real,
                                   rtol=1e-14, atol=0.0, err_msg=str(d))


@pytest.mark.parametrize("field,law", PAIR_LAWS)
def test_history_equals_pair_oracle(field, law):
    # two spheres through the N-sphere assembly against the dedicated
    # pair assembly it replaced: equal and 20:1 radii, near contact to
    # d/R = 1000, kappa from the static limit to deep damping
    fld = FieldKind(field)
    l_max = 6 if fld.is_em else 8
    for r2 in (1.0, 0.05):
        for d in (2.1, 3.0, 100.0, 1000.0):
            g = pair(SphereSpec(1.0, law), SphereSpec(r2, law), d)
            for kappa in (1e-6, 1e-3, 1.0, 1e3):
                hist = _history(g, fld, kappa, l_max)
                ref = orc.history_pair_ref(g, fld, kappa, l_max)
                assert np.all(np.abs(hist - ref) <= 1e-12 * np.abs(ref)), \
                    (r2, d, kappa)


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
    # node by node, with T-matrices that differ in law and radius.  Any
    # reversal mask outer(r, r) is a diagonal similarity that keeps this
    # symmetry whatever its signs; those are pinned against the pair
    # oracle (test_history_equals_pair_oracle)
    kappas = [1e-3, 0.03, 1.0, 10.0]
    for field, laws in (
            (REAL_SCALAR, (Robin(0.7), Dirichlet(), Neumann())),
            (ELECTROMAGNETIC, (PerfectConductor(), Dielectric(4.0, 1.0),
                               Dielectric(1.5, 2.0)))):
        l_min = energy._l_min(field)
        for i, law1 in enumerate(laws):
            for law2 in laws[i:]:
                for ratio in (1.0, 0.05):
                    if law1 == law2 and ratio == 1.0:
                        continue
                    a, b = SphereSpec(1.0, law1), SphereSpec(ratio, law2)
                    for d in (1.02 * (1.0 + ratio), 1.5 * (1.0 + ratio),
                              100.0):
                        h_ab = _histories(pair(a, b, d), field, kappas, 10)
                        h_ba = _histories(pair(b, a, d), field, kappas, 10)
                        np.testing.assert_allclose(
                            h_ba[:, l_min:], h_ab[:, l_min:], rtol=1e-12,
                            atol=0)
    # a collinear chain and its mirror image: every pair runs the other
    # way, with the same histories node by node
    for field, laws in (
            (REAL_SCALAR, (Dirichlet(), Neumann(), Robin(0.7))),
            (ELECTROMAGNETIC, (PerfectConductor(), Dielectric(4.0, 1.0),
                               PerfectConductor()))):
        spheres = tuple(SphereSpec(r, law)
                        for r, law in zip((1.0, 0.5, 0.8), laws))
        chain = Geometry(spheres, (0.0, 1.6, 3.0))
        mirror = Geometry(spheres[::-1], (0.0, 1.4, 3.0))
        l_min = energy._l_min(field)
        np.testing.assert_allclose(
            _histories(mirror, field, kappas, 10)[:, l_min:],
            _histories(chain, field, kappas, 10)[:, l_min:], rtol=1e-12,
            atol=0)


def test_scale_invariance():
    spec = SphereSpec(1.0, Robin(0.4))
    e1 = casimir_energy(pair(spec, spec, 3.0), "scalar-real", 5)
    spec2 = SphereSpec(2.0, Robin(0.4))
    e2 = casimir_energy(pair(spec2, spec2, 6.0), "scalar-real", 5)
    # in units of hbar c / R_1 the value is a function of ratios only
    assert e2.value == pytest.approx(e1.value, rel=1e-12)


SCALE_LAWS = ((REAL_SCALAR, (Dirichlet(), Neumann(), Robin(0.4))),
              (ELECTROMAGNETIC, (PerfectConductor(), Dielectric(4.0, 1.0))))
SCALE_CASES = [(field, law1, law2) for field, laws in SCALE_LAWS
               for law1 in laws for law2 in laws]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SCALE_CASES), ratio=st.floats(0.05, 1.0),
       gap=st.floats(0.0, 1.0), log_s=st.floats(-3.0, 3.0),
       kappas=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=4))
def test_histories_scale_invariant(case, ratio, gap, log_s, kappas):
    # scaling every length by s and every kappa by 1/s keeps kappa R and
    # kappa d, so each history is unchanged to rounding; d/R1 runs from
    # near contact, 1.02 (1 + R2/R1), up to 200
    field, law1, law2 = case
    d = 1.02 * (1.0 + ratio) + gap * (200.0 - 1.02 * (1.0 + ratio))
    s = 10.0 ** log_s
    kappas = np.array(kappas)

    def geometry(scale):
        return pair(SphereSpec(scale, law1), SphereSpec(scale * ratio, law2),
                    scale * d)

    l_min = energy._l_min(field)
    np.testing.assert_allclose(
        _histories(geometry(s), field, kappas / s, 6)[:, l_min:],
        _histories(geometry(1.0), field, kappas, 6)[:, l_min:],
        rtol=1e-12, atol=0)


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        near = suggest_l_max(pair(DIR, DIR, 3.0), "scalar-real")
        far = suggest_l_max(pair(DIR, DIR, 10.0), "scalar-real")
    assert 6 <= far <= near <= 40
    assert not [w for w in caught if w.category is LMaxClampWarning]


@pytest.mark.parametrize("centers", [(0.0, 3.0, 6.5), (0.0, 3.5, 6.5),
                                     (0.0, 3.0, 6.0)],
                         ids=["first", "second", "tie"])
def test_suggest_l_max_probes_the_tightest_adjacent_pair(monkeypatch,
                                                         centers):
    # the smallest surface gap is d = 3 between spheres 0 and 1, between
    # spheres 1 and 2, and on a tie the first pair
    probed = []
    energy_of = energy.casimir_energy
    monkeypatch.setattr(energy, "casimir_energy",
                        lambda geometry, *args: probed.append(geometry)
                        or energy_of(geometry, *args))
    got = suggest_l_max(Geometry((DIR,) * 3, centers), "scalar-real")
    assert probed == [pair(DIR, DIR, 3.0)]
    assert got == suggest_l_max(pair(DIR, DIR, 3.0), "scalar-real")


def _fake_probe(monkeypatch, diffs, delta_fit):
    """Make suggest_l_max's probe return these history differences."""
    es = np.cumsum([-1.0] + list(diffs))
    est = EnergyEstimate(value=float(es[-1]), l_max=len(es) - 1,
                         history=[(l, float(e)) for l, e in enumerate(es)],
                         delta_fit=delta_fit, quad_error=0.0)
    monkeypatch.setattr(energy, "casimir_energy", lambda *args: est)


@pytest.mark.parametrize("diffs,delta_fit,expect,loud", [
    # need = 13 + 14/rate: rate 0.1 asks for 153
    (1e-3 * np.exp(-0.1 * np.arange(13)), 0.2, 40, True),
    # rejected fit, or differences that do not decay: no usable rate
    (1e-3 * np.exp(-1.0 * np.arange(13)), math.nan, 40, True),
    (1e-3 * np.ones(13), 0.2, 40, True),
    # rate 0.8 asks for 31; a vanishing tail returns lo
    (1e-3 * np.exp(-0.8 * np.arange(13)), 0.2, 31, False),
    (np.r_[1e-3 * np.ones(12), 0.0], 0.2, 6, False),
])
def test_suggest_l_max_warns_once_when_clamped_to_hi(monkeypatch, diffs,
                                                     delta_fit, expect, loud):
    _fake_probe(monkeypatch, diffs, delta_fit)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = suggest_l_max(pair(DIR, DIR, 3.0), "scalar-real")
    assert got == expect
    assert [w.category for w in caught] == [LMaxClampWarning] * loud


# ---------------------------------------------------------------------------
# translation work per quadrature node
# ---------------------------------------------------------------------------

def _count_translation_chains(monkeypatch):
    # the kernels of a chunk take their K chains from one batched call
    # (the T-matrix rows take theirs through specfun, uncounted here)
    calls = []
    chains = translation._k_chains

    def counted(n, z):
        calls.append(z.tolist())
        return chains(n, z)
    monkeypatch.setattr(translation, "_k_chains", counted)
    return calls


@pytest.mark.parametrize("field,sphere", [("scalar-real", DIR), ("em", PEC)])
def test_one_translation_chain_per_node(monkeypatch, field, sphere):
    calls = _count_translation_chains(monkeypatch)
    integrand(pair(sphere, sphere, 3.0), field, 0.8, 8)
    assert len(calls) == 1
    # the nodes of one chunk share that one chain call
    del calls[:]
    _histories(pair(sphere, sphere, 3.0), FieldKind(field), [0.8, 2.0], 8)
    assert calls == [[0.8 * 3.0, 2.0 * 3.0]]


@pytest.mark.parametrize("field,law", [("scalar-real", Dirichlet()),
                                       ("em", PerfectConductor())])
def test_nbody_node_builds_one_chain_per_distance(monkeypatch, field, law):
    sph = SphereSpec(R, law)
    calls = _count_translation_chains(monkeypatch)
    _histories(Geometry((sph, sph, sph), (0.0, 3.0, 6.0)),
               FieldKind(field), [0.8, 1.5], 4)
    assert sorted(calls) == [[0.8 * 3.0, 1.5 * 3.0], [0.8 * 6.0, 1.5 * 6.0]]


class _Unshared(SphereSpec):
    """A sphere equal only to itself: it never shares a T-matrix log."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _count_t_logs(monkeypatch, kappas=None):
    # the T-matrix logs of a chunk come from one batched call per sphere;
    # kappas, when given, collects the kappa vector of each call
    calls = []
    for name in ("_t_scalar_rows", "_t_em_rows"):
        def counted(spec, ch, kv, _fn=getattr(energy, name)):
            calls.append(spec)
            if kappas is not None:
                kappas.append(list(kv))
            return _fn(spec, ch, kv)
        monkeypatch.setattr(energy, name, counted)
    return calls


class _UnhashableEps:
    """A dielectric law eps_mu(kappa) that cannot be hashed."""

    __hash__ = None

    def __call__(self, kappa):
        return 4.0, 1.0


@pytest.mark.parametrize("field,law", [("scalar-real", Dirichlet()),
                                       ("em", PerfectConductor()),
                                       ("em", Dispersive(_UnhashableEps()))])
@pytest.mark.parametrize("nsph", [2, 3])
def test_equal_spheres_share_one_t_log_per_node(monkeypatch, field, law,
                                                nsph):
    calls = _count_t_logs(monkeypatch)
    centers = tuple(3.0 * i for i in range(nsph))
    fld = FieldKind(field)
    shared = _history(Geometry([SphereSpec(R, law) for _ in range(nsph)],
                               centers), fld, 0.8, 6)
    assert len(calls) == 1
    del calls[:]
    own = _history(Geometry([_Unshared(R, law) for _ in range(nsph)],
                            centers), fld, 0.8, 6)
    assert len(calls) == nsph
    if nsph == 2:
        # the equal pair takes the mirror form, the unshared one the
        # interleaved blocks it stands for
        np.testing.assert_allclose(shared, own, rtol=1e-14, atol=0.0)
    else:
        assert np.array_equal(shared, own)


def test_unequal_spheres_keep_their_own_t_logs(monkeypatch):
    calls = _count_t_logs(monkeypatch)
    small = SphereSpec(0.5, Dirichlet())
    _history(Geometry((DIR, small, DIR), (0.0, 3.0, 6.0)), REAL_SCALAR,
             0.8, 4)
    assert calls == [DIR, small]


@pytest.mark.parametrize("field,law", [("scalar-real", Dirichlet()),
                                       ("em", PerfectConductor())])
def test_one_t_log_call_per_sphere_per_chunk(monkeypatch, field, law):
    kappas = []
    calls = _count_t_logs(monkeypatch, kappas)
    sph = SphereSpec(R, law)
    _histories(pair(sph, sph, 3.0), FieldKind(field), [0.8, 2.0], 8)
    assert calls == [sph]
    assert kappas == [[0.8, 2.0]]
    # spheres that differ take one call each, every one over both nodes
    del calls[:], kappas[:]
    small = SphereSpec(0.5, law)
    _histories(Geometry((sph, small, sph), (0.0, 3.0, 6.0)),
               FieldKind(field), [0.8, 2.0], 4)
    assert calls == [sph, small]
    assert kappas == [[0.8, 2.0]] * 2


def _count_chains(monkeypatch):
    # the z vector of every Bessel chain the assembly builds
    calls = []
    chains = energy._chain_rows

    def counted(l_max, z):
        calls.append(z.tolist())
        return chains(l_max, z)
    monkeypatch.setattr(energy, "_chain_rows", counted)
    return calls


@pytest.mark.parametrize("field,laws", [
    ("scalar-real", (Dirichlet(), Robin(10.0))),
    ("em", (PerfectConductor(), Dielectric(4.0, 1.0)))])
@pytest.mark.parametrize("ratio", [1.0, 0.5])
def test_one_chain_per_radius_per_chunk(monkeypatch, field, laws, ratio):
    # spheres of one radius read one chain whatever their laws, each with
    # its own bracket; R2/R1 = 0.5 takes a chain per radius
    calls = _count_chains(monkeypatch)
    radii = (R, ratio * R)
    centers = (0.0, 3.0)
    kappas = [0.8, 2.0]
    fld = FieldKind(field)
    shared = _histories(Geometry([SphereSpec(r, law) for r, law in
                                  zip(radii, laws)], centers), fld, kappas, 8)
    want = [[kappa * r for kappa in kappas] for r in dict.fromkeys(radii)]
    assert calls == want
    del calls[:]
    own = _histories(Geometry([_Unshared(r, law) for r, law in
                               zip(radii, laws)], centers), fld, kappas, 8)
    assert calls == want
    assert shared.tobytes() == own.tobytes()


def test_translation_holds_no_module_level_array():
    # the translation kernel runs recurrences on per-call arrays: after
    # integrands at three orders the module keeps no table of any order
    g = pair(DIR, DIR, 3.0)
    for l_max in (5, 33, 9):
        integrand(g, REAL_SCALAR, 0.8, l_max)
    caches = [k for k, v in vars(translation).items()
              if not k.startswith("__") and isinstance(v, (np.ndarray, dict))]
    assert caches == []


# ---------------------------------------------------------------------------
# memory of one near-contact node
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,law,l_max,budget_mb", [
    ("em", PerfectConductor(), 64, 40.0),
    ("scalar-real", Dirichlet(), 96, 25.0)])
def test_near_contact_node_memory_peak(field, law, l_max, budget_mb):
    # one integrand node at d/R 2.05 holds its translation blocks and the
    # live windows of the elimination only: 30 MB (PEC-PEC, l_max 64) and
    # 18 MB (D-D, l_max 96) traced
    sphere = SphereSpec(R, law)
    tracemalloc.start()
    try:
        integrand(pair(sphere, sphere, 2.05), field, 1.0, l_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget_mb * 1e6
