"""Translation matrices re-expanding multipoles between sphere centers.

For two centers separated by d along the z axis, an outgoing scalar
multipole about one center is a convergent sum of regular multipoles about
the other.  With modified spherical Bessel functions i_l, k_l (all real
and positive on the imaginary frequency axis) the re-expansion reads

    k_l(kappa r_2) Y_lm(2) = -sum_{l'} U_{l'l}(m) i_{l'}(kappa r_1) Y_{l'm}(1)

valid for r_1 < d.  U depends only on |m| and on which center is the
source; the two directions are related by U^{21} = (U^{12})^T.

Electromagnetic (vector) multipoles translate through the same scalar
matrices after recoupling orbital and spin angular momentum, giving a
2x2 polarization structure per (l', l) pair in which the magnetic/electric
mixing terms vanish for m = 0.

Ratio-scaled form.  With x = kappa d,

    U_{l'l}(m) e^{x} = S_{l'l}(m) k_{l'+l}(x) e^{x},
    S_{l'l}(m) = sum_{l''} W(m, l', l, l'') k_{l''}(x) / k_{l'+l}(x),

where W holds the 3j products, the (2l''+1) weight and the prefactor
-(-1)^{l+m} sqrt((2l+1)(2l'+1)).  Only l'' = l'+l, l'+l-2, ... contribute
and k_l(x) increases with l, so every ratio lies in (0, 1]; with the 3j
orthogonality sum_{l''} (2l''+1) 3j^2 = 1 this bounds |S_{l'l}| by
sqrt((2l+1)(2l'+1)) at every x.  Plain floats therefore hold S without
overflow, and the huge or tiny factor k_{l'+l}(x) e^{x} stays a log until
it meets the T-matrices.  `node_kernel` builds one Bessel chain and S for
every m at once; the EM blocks recouple the same S stack with
k_{J'+J+1} factored out, so their ratios are again <= 1.  The accuracy of
S is absolute, ~1e-12 of the largest entry of a block: at large x the
high-m entries cancel to far below their terms, and only their absolute
error is meaningful.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import ThreeJArgs, bessel_ik_half_chain, threej_family, wigner3j

__all__ = [
    "NodeKernel",
    "TranslationBlock",
    "node_kernel",
    "u_scalar",
    "u_em",
    "translation_block",
    "translation_block_em",
]


@dataclass(frozen=True)
class TranslationBlock:
    """Dense translation matrix at fixed azimuthal index m.

    Attributes
    ----------
    m : int
        Azimuthal index (entries depend on |m| only).
    entries : ndarray
        U[l_out - l_lo, l_in - l_lo] with l_lo = |m| for scalar blocks and
        l_lo = max(1, |m|) for electromagnetic ones; for the latter the
        array has shape (n, n, 2, 2) with polarization order (M, E).
    direction : str
        "12" or "21"; which center plays the source role.
    """

    m: int
    entries: np.ndarray
    direction: str


def _check_direction(direction):
    if direction not in ("12", "21"):
        raise ValueError("direction must be '12' or '21', got %r" % (direction,))


def _mixing_sign(n):
    """+1 on same-polarization entries, -1 on M-E mixing entries.

    Rows and columns are l-major with polarizations (M, E) interleaved.
    """
    v = np.tile([1.0, -1.0], n)
    return v[:, None] * v[None, :]


@dataclass(frozen=True)
class NodeKernel:
    """Ratio-scaled translation blocks of every m at one x = kappa d.

    Attributes
    ----------
    pol : int
        Polarizations per orbital order: 1 (scalar) or 2 (EM, order M, E).
    blocks : ndarray, shape (l_max+1, pol*(l_max+1), pol*(l_max+1))
        blocks[m] in direction "12", rows and columns l-major with the
        polarizations interleaved; EM entries below max(1, m) are zero.
    log_scale : ndarray, shape (pol*(l_max+1), pol*(l_max+1))
        blocks[m] * exp(log_scale) is the block times e^{+x}: log of
        k_{l'+l}(x) e^{x} for scalar and of k_{J'+J+1}(x) e^{x} for EM.
    """

    pol: int
    blocks: np.ndarray
    log_scale: np.ndarray

    def oriented(self, direction):
        """The blocks with the given center as the source.

        Reversing the direction transposes a scalar block.  An EM block
        picks up (-1)^{J'+J} entrywise (each scalar element of composite
        order L+L' gains (-1)^{L+L'}) and the mixing blocks flip sign.
        """
        _check_direction(direction)
        if direction == "12":
            return self.blocks
        if self.pol == 1:
            return self.blocks.swapaxes(1, 2)
        n = self.blocks.shape[1] // 2
        jv = np.repeat(np.arange(n), 2)
        par = np.where((jv[:, None] + jv[None, :]) % 2 == 0, 1.0, -1.0)
        return self.blocks * (par * _mixing_sign(n))


# W[m, l', l, k] at l'' = l' + l - 2k for the largest order built so far;
# entries do not depend on the order, so smaller orders read leading slices
_W_KERNEL = np.zeros((0, 0, 0, 0))


def _w_kernel(l_max):
    """3j kernel W[m, l', l, k] for orders up to l_max (a read-only view).

    W = -(-1)^{l+m} sqrt((2l+1)(2l'+1)) (2l''+1) 3j(l l' l''; 0 0 0)
    3j(l l' l''; m -m 0) at l'' = l' + l - 2k; zero for m or k above
    min(l', l).  The l'' of the other parity have 3j(l l' l''; 0 0 0) = 0
    and are not stored.
    """
    global _W_KERNEL
    n = l_max + 1
    old = _W_KERNEL.shape[0]
    if n > old:
        w = np.zeros((n, n, n, n))
        w[:old, :old, :old, :old] = _W_KERNEL
        for l_in in range(n):
            for l_out in range(old if l_in < old else 0, n):
                lo = min(l_in, l_out)
                # families run over l'' = |l_in - l_out| .. l_in + l_out;
                # every other entry, reversed, is k = 0 .. lo
                _, f000 = threej_family(l_in, l_out, 0, 0)
                lpp = l_in + l_out - 2 * np.arange(lo + 1)
                base = f000[::-2] * (2.0 * lpp + 1.0) * math.sqrt(
                    (2.0 * l_in + 1.0) * (2.0 * l_out + 1.0))
                if l_in % 2 == 0:
                    base = -base
                w[0, l_out, l_in, :lo + 1] = base * f000[::-2]
                for m in range(1, lo + 1):
                    _, fm = threej_family(l_in, l_out, m, -m)
                    w[m, l_out, l_in, :lo + 1] = \
                        (base if m % 2 == 0 else -base) * fm[::-2]
        w.setflags(write=False)
        _W_KERNEL = w
    return _W_KERNEL[:n, :n, :n, :n]


def _s_blocks(l_max, sigma):
    """S[m, l', l] for m, l', l = 0..l_max.

    sigma[l] = k_{l+1}(x)/k_l(x) for l = 0..2*l_max - 1 at least.
    """
    n = l_max + 1
    # ratio table R[L, k] = k_{L-2k}/k_L for L = 0..2 l_max, 0 for 2k > L,
    # built by products of ratios <= 1 (relative error ~ k ulp)
    step = 1.0 / (sigma[:2 * n - 3] * sigma[1:2 * n - 2])
    r = np.zeros((2 * n - 1, n))
    r[:, 0] = 1.0
    with np.errstate(under="ignore"):
        for k in range(1, n):
            r[2 * k:, k] = r[2 * k:, k - 1] * step[:2 * n - 1 - 2 * k]
    lv = np.arange(n)
    ratios = r[lv[:, None] + lv[None, :]]
    return np.einsum("mabk,abk->mab", _w_kernel(l_max), ratios)


def _log_k(chain, x):
    """log of k_l(x) e^{x} for the orders of the chain."""
    return chain.log_k + 0.5 * math.log(2.0 / (math.pi * x))


def node_kernel(l_max, x, em=False):
    """Translation blocks of every m = 0..l_max at separation x = kappa d.

    Builds one Bessel-K chain and one 3j contraction; see the module
    notes for the ratio-scaled form.  Scalar blocks cover l = 0..l_max;
    EM blocks cover J = 0..l_max with the rows and columns below
    max(1, m) zero and the m = 0 mixing blocks exactly zero.

    Returns
    -------
    NodeKernel
    """
    if not x > 0.0:
        raise ValueError("x = kappa*d must be positive, got %r" % (x,))
    n = l_max + 1
    lv = np.arange(n)
    lsum = lv[:, None] + lv[None, :]
    if not em:
        chain = bessel_ik_half_chain(2 * l_max, x)
        return NodeKernel(pol=1, blocks=_s_blocks(l_max, chain.sigma),
                          log_scale=_log_k(chain, x)[lsum])
    chain = bessel_ik_half_chain(2 * l_max + 2, x)
    s = _s_blocks(l_max + 1, chain.sigma)
    # k_{J'+J+d}/k_{J'+J+1} for d = 1, 0, -1, -2 (entries with J'+J < 2
    # lie in the zeroed J = 0 rows and columns)
    inv = np.concatenate([[0.0, 0.0], 1.0 / chain.sigma])
    ratio = {1: 1.0, 0: inv[lsum + 2]}
    ratio[-1] = ratio[0] * inv[lsum + 1]
    ratio[-2] = ratio[-1] * inv[lsum]
    blocks = _em_recouple(s, l_max, ratio)
    log_scale = np.repeat(np.repeat(_log_k(chain, x)[lsum + 1], 2, 0), 2, 1)
    return NodeKernel(pol=2, blocks=blocks, log_scale=log_scale)


def _signed_log_view(block, log_scale):
    """(sign, logmag) of block * exp(log_scale); -inf where block is 0."""
    with np.errstate(divide="ignore"):
        return np.sign(block), np.log(np.abs(block)) + log_scale


def u_log_block(l_max, m, x, direction="12"):
    """Scaled scalar translation block in signed-log form.

    Returns (sign, logmag) arrays of shape (l_max+1, l_max+1), indexed
    [l_out, l_in], with sign * exp(logmag) = U^{direction}_{l_out,l_in}(m)
    * e^{+x}.  The e^{+x} factor removes the overall decay of the k_{l''}
    kernel so the block stays representable at large x; callers reattach
    it against the rest of their exponentials.
    """
    _check_direction(direction)
    m = abs(m)
    n = l_max + 1
    if m > l_max:
        return np.zeros((n, n)), np.full((n, n), -np.inf)
    kern = node_kernel(l_max, x)
    return _signed_log_view(kern.oriented(direction)[m], kern.log_scale)


def u_scalar(l_out, l_in, m, kappa_d, direction="12"):
    """Scalar translation matrix element U^{direction}_{l_out,l_in}(m).

    Parameters
    ----------
    l_out, l_in : int
        Target (regular-wave) and source (outgoing-wave) orbital indices.
    m : int
        Common azimuthal index; the element depends on |m| only.
    kappa_d : float
        Dimensionless center separation kappa*d > 0.
    direction : str
        "12" or "21".  The two are transposes of each other.

    Returns
    -------
    float
        Real matrix element; exactly 0.0 when |m| exceeds either order.

    Notes
    -----
    The element decays like e^{-kappa_d} at large separation; for the
    scaled form used in determinant assembly see `node_kernel`.
    """
    _check_direction(direction)
    if l_out < 0 or l_in < 0:
        raise ValueError("orbital indices must be non-negative")
    if not kappa_d > 0.0:
        raise ValueError("kappa_d must be positive, got %r" % (kappa_d,))
    if abs(m) > min(l_out, l_in):
        return 0.0
    lm = max(l_out, l_in)
    sign, logmag = u_log_block(lm, abs(m), kappa_d, direction)
    return float(sign[l_out, l_in] * np.exp(logmag[l_out, l_in] - kappa_d))


def translation_block(l_max, m, kappa_d, direction="12"):
    """Dense scalar translation block over l = |m| .. l_max.

    Returns a TranslationBlock whose entries are the unscaled matrix
    elements; intended for moderate kappa_d where e^{-kappa_d} is
    representable.
    """
    _check_direction(direction)
    m_abs = abs(m)
    if l_max < m_abs:
        raise ValueError("l_max=%r below |m|=%r" % (l_max, m_abs))
    sign, logmag = u_log_block(l_max, m_abs, kappa_d, direction)
    with np.errstate(under="ignore"):
        full = sign * np.exp(logmag - kappa_d)
    return TranslationBlock(m=m, entries=full[m_abs:, m_abs:], direction=direction)


# ---------------------------------------------------------------------------
# Electromagnetic (vector multipole) translation
# ---------------------------------------------------------------------------
#
# Conventions: magnetic multipoles M_Jm = f_J(kappa r) Y_JJm with the vector
# spherical harmonics Y_JLm = sum_q <L,m-q;1,q|Jm> Y_{L,m-q} e_q, and electric
# multipoles N_Jm = (1/(i kappa)) curl M_Jm.  On the imaginary frequency axis
# the electric waves decompose with real constants,
#
#   N^reg_Jm  = +aR(J) i_{J-1} Y_{J,J-1,m} + bR(J) i_{J+1} Y_{J,J+1,m}
#   N^out_Jm  = -aR(J) k_{J-1} Y_{J,J-1,m} - bR(J) k_{J+1} Y_{J,J+1,m}
#
# with aR = sqrt((J+1)/(2J+1)), bR = sqrt(J/(2J+1)).  Translating the scalar
# components with U and recoupling gives the 2x2 polarization blocks below;
# the longitudinal (gradient-type) content cancels identically, which lets
# the electric target amplitude be read off the orbital J'-1 channel alone.


def _cg(j1, m1, j2, m2, jj, mm):
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | jj mm>."""
    if m1 + m2 != mm:
        return 0.0
    w = wigner3j(ThreeJArgs(j1, j2, jj, m1, m2, -mm))
    s = -1.0 if (j1 - j2 + mm) % 2 else 1.0
    return s * math.sqrt(2.0 * jj + 1.0) * w


def _em_weights(l_max, m):
    """Recoupling weight vectors for the four polarization blocks.

    For q in (-1, 0, +1) and J = 0..l_max+1 returns
    w0[q][J] = <J,   m-q; 1, q | J m>,
    wm[q][J] = <J-1, m-q; 1, q | J m>,
    wp[q][J] = <J+1, m-q; 1, q | J m>,
    plus the electric decomposition constants aR, bR.
    """
    n = l_max + 2
    w0 = np.zeros((3, n))
    wm = np.zeros((3, n))
    wp = np.zeros((3, n))
    for iq, q in enumerate((-1, 0, 1)):
        mu = m - q
        for jj in range(max(1, abs(m)), n):
            if abs(mu) <= jj:
                w0[iq, jj] = _cg(jj, mu, 1, q, jj, m)
            if abs(mu) <= jj - 1:
                wm[iq, jj] = _cg(jj - 1, mu, 1, q, jj, m)
            if abs(mu) <= jj + 1:
                wp[iq, jj] = _cg(jj + 1, mu, 1, q, jj, m)
    jv = np.arange(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_r = np.sqrt((jv + 1.0) / (2.0 * jv + 1.0))
        b_r = np.sqrt(jv / (2.0 * jv + 1.0))
    return w0, wm, wp, a_r, b_r


@lru_cache(maxsize=8)
def _em_weight_stack(l_max):
    """`_em_weights` of m = 0..l_max stacked as (m, q, J) arrays, J <= l_max.

    Returns (t_m, t_e, c_lo, c_hi): target weights of the magnetic and
    electric rows and source weights of the electric columns' J-1 and J+1
    channels (the magnetic columns share t_m).
    """
    n = l_max + 1
    parts = [_em_weights(l_max, m) for m in range(n)]
    w0 = np.stack([p[0][:, :n] for p in parts])
    wm = np.stack([p[1][:, :n] for p in parts])
    wp = np.stack([p[2][:, :n] for p in parts])
    a_r, b_r = parts[0][3][:n], parts[0][4][:n]
    out = (w0, wm / a_r, -a_r * wm, -b_r * wp)
    for arr in out:
        arr.setflags(write=False)
    return out


def _em_recouple(s, l_max, ratio):
    """Interleaved EM blocks G[m] / k_{J'+J+1} for m = 0..l_max.

    s is the scalar S stack at order l_max+1.  A scalar block U(mu)[a, b]
    carries the factor k_{a+b}, so the channel read at rows J'+dr and
    columns J+dc takes ratio[dr + dc][J', J] = k_{J'+J+dr+dc}/k_{J'+J+1}.
    """
    n = l_max + 1
    t_m, t_e, c_lo, c_hi = _em_weight_stack(l_max)
    # front-pad one zero row/column so that J-1 = -1 slices read as zero
    sp = np.zeros((n + 1, n + 2, n + 2))
    sp[:, 1:, 1:] = s
    ms = np.arange(n)
    g = np.zeros((n, n, 2, n, 2))
    for iq, q in enumerate((-1, 0, 1)):
        u = sp[np.abs(ms - q)]

        def part(dr, dc):
            return u[:, 1 + dr:1 + dr + n, 1 + dc:1 + dc + n] * ratio[dr + dc]

        tm, te = t_m[:, iq, :, None], t_e[:, iq, :, None]
        cm, clo, chi = (w[:, iq, None, :] for w in (t_m, c_lo, c_hi))
        # electric rows read the orbital J'-1 channel, electric columns
        # the J-1 and J+1 channels
        g[:, :, 0, :, 0] += tm * cm * part(0, 0)
        g[:, :, 1, :, 0] += te * cm * part(-1, 0)
        g[:, :, 0, :, 1] += tm * (clo * part(0, -1) + chi * part(0, 1))
        g[:, :, 1, :, 1] += te * (clo * part(-1, -1) + chi * part(-1, 1))
    # exact selection rule: the q and -q contributions cancel identically
    # at m = 0, so suppress the rounding residue
    g[0, :, 0, :, 1] = 0.0
    g[0, :, 1, :, 0] = 0.0
    live = np.arange(n)[None, :] >= np.maximum(1, ms)[:, None]
    g *= (live[:, :, None, None, None] & live[:, None, None, :, None])
    return g.reshape(n, 2 * n, 2 * n)


def em_log_blocks(l_max, m, x, direction="12"):
    """Scaled EM translation blocks in signed-log form.

    Returns a dict with keys "MM", "MN", "NM", "NN"; each value is a pair
    (sign, logmag) of (l_max+1, l_max+1) arrays indexed [J_out, J_in] with
    sign*exp(logmag) = G^{PP'} e^{+x}.  Rows/columns below max(1, |m|) are
    zero.  "MN" and "NM" vanish identically for m = 0.
    """
    _check_direction(direction)
    n = l_max + 1
    if abs(m) > l_max:
        zero = (np.zeros((n, n)), np.full((n, n), -np.inf))
        return {key: zero for key in ("MM", "MN", "NM", "NN")}
    kern = node_kernel(l_max, x, em=True)
    g = kern.oriented(direction)[abs(m)]
    if m < 0:
        # same-polarization blocks are even in m, mixing blocks odd
        g = g * _mixing_sign(n)
    return {prow + pcol: _signed_log_view(g[i::2, j::2],
                                          kern.log_scale[i::2, j::2])
            for i, prow in enumerate("MN") for j, pcol in enumerate("MN")}


def u_em(l_out, l_in, m, kappa_d, direction="12"):
    """Electromagnetic translation matrix element as a 2x2 block.

    Parameters
    ----------
    l_out, l_in : int
        Target and source total angular momenta, both >= max(1, |m|).
    m : int
        Azimuthal index.
    kappa_d : float
        Dimensionless separation kappa*d > 0.
    direction : str
        "12" or "21".

    Returns
    -------
    ndarray, shape (2, 2)
        [[MM, MN], [NM, NN]] coupling source polarization (columns, order
        magnetic/electric) to target polarization (rows).  The magnetic-
        electric mixing entries are exactly zero for m = 0.
    """
    _check_direction(direction)
    jlo = max(1, abs(m))
    if l_out < jlo or l_in < jlo:
        raise ValueError("l_out and l_in must be >= max(1, |m|)")
    if not kappa_d > 0.0:
        raise ValueError("kappa_d must be positive, got %r" % (kappa_d,))
    lm = max(l_out, l_in)
    blocks = em_log_blocks(lm, m, kappa_d, direction)
    out = np.empty((2, 2))
    with np.errstate(under="ignore"):
        for i, prow in enumerate("MN"):
            for j, pcol in enumerate("MN"):
                s, lg = blocks[prow + pcol]
                out[i, j] = s[l_out, l_in] * np.exp(lg[l_out, l_in] - kappa_d)
    return out


def translation_block_em(l_max, m, kappa_d, direction="12"):
    """Dense EM translation block over J = max(1,|m|) .. l_max.

    Entries have shape (n, n, 2, 2) with the same polarization layout as
    `u_em`; unscaled, so intended for moderate kappa_d.
    """
    _check_direction(direction)
    jlo = max(1, abs(m))
    if l_max < jlo:
        raise ValueError("l_max=%r below max(1, |m|)=%r" % (l_max, jlo))
    blocks = em_log_blocks(l_max, m, kappa_d, direction)
    n = l_max + 1 - jlo
    ent = np.zeros((n, n, 2, 2))
    with np.errstate(under="ignore"):
        for i, prow in enumerate("MN"):
            for j, pcol in enumerate("MN"):
                s, lg = blocks[prow + pcol]
                ent[:, :, i, j] = (s * np.exp(lg - kappa_d))[jlo:, jlo:]
    return TranslationBlock(m=m, entries=ent, direction=direction)
