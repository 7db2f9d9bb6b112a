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
every m at once, and `_node_kernels` does so for every x of an array in
one batch (every quadrature node of a chunk, at one distance), each row
byte-equal to its one-x kernel; the EM blocks recouple the same S stack
with k_{J'+J+1} factored out, so their ratios are again <= 1.  The
accuracy of S is absolute, ~1e-12 of the largest entry of a block: at
large x the high-m entries cancel to far below their terms, and only
their absolute error is meaningful.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun

__all__ = [
    "NodeKernel",
    "node_kernel",
]


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

    A kernel built for an array of x (`_node_kernels`) carries one
    leading node axis on both arrays.

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
            return self.blocks.swapaxes(-1, -2)
        return self.blocks * _em_reversal(self.blocks.shape[-1] // 2)


@lru_cache(maxsize=8)
def _em_reversal(n):
    """Entrywise sign (-1)^{J'+J} times the mixing sign: the EM "21"
    blocks are the "12" blocks times this mask (read-only)."""
    jv = np.repeat(np.arange(n), 2)
    par = np.where((jv[:, None] + jv[None, :]) % 2 == 0, 1.0, -1.0)
    mask = par * _mixing_sign(n)
    mask.setflags(write=False)
    return mask


# W[m, l', l, k] at l'' = l' + l - 2k for the largest order built so far;
# entries do not depend on the order, so smaller orders read leading slices
_W_KERNEL = np.zeros((0, 0, 0, 0))
# bytes of one (width, rows) float array of a W batch; building a batch
# holds about eight of them at once, next to W itself
_W_BATCH_BYTES = 1 << 19


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
        _fill_w(w, old)
        w.setflags(write=False)
        _W_KERNEL = w
    return _W_KERNEL[:n, :n, :n, :n]


def _fill_w(w, old):
    """Write W[m, l', l] for every max(l', l) = top >= old.

    3j(l l' l''; m -m 0) is symmetric in l and l', so the families
    (top, lo; m, -m) with lo <= top serve both halves:
    W[m, lo, top] = (-1)^{top+lo} W[m, top, lo].  The m = 0 families come
    first, in one batch, for the 3j(l l' l''; 0 0 0) factor; the others
    follow in batches of rows of similar length (about 2 lo + 1) whose
    (width, rows) arrays fit _W_BATCH_BYTES.
    """
    n = w.shape[0]
    t, b, mb = np.ogrid[:n, :n, :n]
    top, lo, m = np.nonzero((t >= old) & (b <= t) & (mb <= b))
    pair = (top * (top + 1) // 2 + lo) - old * (old + 1) // 2
    first = m == 0
    t0, l0 = top[first], lo[first]
    # families run over l'' = top + lo .. |top - lo|; every other entry
    # from the top is k = 0 .. lo
    _, f = specfun._threej_rows(t0, l0, 0, 0)
    f = f[::2]
    k = np.arange(len(f))[:, None]
    base = f * (2.0 * (t0 + l0 - 2 * k) + 1.0) * np.sqrt(
        (2.0 * t0 + 1.0) * (2.0 * l0 + 1.0))
    base[:, t0 % 2 == 0] *= -1.0
    _put_w(w, t0, l0, m[first], base, f)

    rest = np.flatnonzero(~first)
    rest = rest[np.argsort(lo[rest], kind="stable")]
    start = 0
    while start < len(rest):
        # sorted by lo, so a batch's longest family has 2 lo + 1 entries
        size = np.arange(1, len(rest) - start + 1) \
            * (2 * lo[rest[start:]] + 1) * 8
        stop = start + max(1, int(np.sum(size <= _W_BATCH_BYTES)))
        r = rest[start:stop]
        _, f = specfun._threej_rows(top[r], lo[r], m[r], -m[r])
        f = f[::2]
        _put_w(w, top[r], lo[r], m[r], base[:len(f), pair[r]], f)
        start = stop


def _put_w(w, top, lo, m, base, f):
    """W[m, lo, top, k] = (-1)^m base * f and its mirror, zero for k > lo."""
    n = w.shape[0]
    rows = w.reshape(n ** 3, n)
    keep = np.arange(len(f))[:, None] <= lo
    val = base * f * np.where(m % 2 == 1, -1.0, 1.0)
    rows[(m * n + lo) * n + top, :len(f)] = np.where(keep, val, 0.0).T
    val *= np.where((top + lo) % 2 == 1, -1.0, 1.0)
    rows[(m * n + top) * n + lo, :len(f)] = np.where(keep, val, 0.0).T


def _s_blocks(l_max, sigma):
    """S[x, m, l', l] for m, l', l = 0..l_max, one row x per chain.

    sigma[x, l] = k_{l+1}(x)/k_l(x) for l = 0..2*l_max - 1 at least.
    """
    n = l_max + 1
    # ratio table R[x, L, k] = k_{L-2k}/k_L for L = 0..2 l_max, 0 for
    # 2k > L, built by products of ratios <= 1 (relative error ~ k ulp)
    step = 1.0 / (sigma[:, :2 * n - 3] * sigma[:, 1:2 * n - 2])
    r = np.zeros((len(sigma), 2 * n - 1, n))
    r[:, :, 0] = 1.0
    with np.errstate(under="ignore"):
        for k in range(1, n):
            r[:, 2 * k:, k] = r[:, 2 * k:, k - 1] * step[:, :2 * n - 1 - 2 * k]
    lv = np.arange(n)
    ratios = r[:, lv[:, None] + lv[None, :]]
    return np.einsum("mabk,xabk->xmab", _w_kernel(l_max), ratios)


def _node_kernels(l_max, x, em=False):
    """`node_kernel` at every x of a 1-D array, as one NodeKernel whose
    blocks and log_scale carry a leading node axis.

    One batched K chain and one 3j contraction serve every x; row i is
    byte-equal to `node_kernel(l_max, x[i], em)`.
    """
    if not np.all(x > 0.0):
        raise ValueError("x = kappa*d must be positive, got %r"
                         % (x[~(x > 0.0)].tolist(),))
    n = l_max + 1
    lv = np.arange(n)
    lsum = lv[:, None] + lv[None, :]
    sigma, log_k = specfun._k_chains(2 * l_max + (2 if em else 0), x)
    # log of k_l(x) e^{x}: the spherical prefactor of the half-order K
    log_k += np.array([0.5 * math.log(2.0 / (math.pi * xi))
                       for xi in x.tolist()])[:, None]
    if not em:
        return NodeKernel(pol=1, blocks=_s_blocks(l_max, sigma),
                          log_scale=log_k[:, lsum])
    s = _s_blocks(l_max + 1, sigma)
    # k_{J'+J+d}/k_{J'+J+1} for d = 1, 0, -1, -2, broadcast over m
    # (entries with J'+J < 2 lie in the zeroed J = 0 rows and columns)
    inv = np.concatenate([np.zeros((len(x), 1, 2)), 1.0 / sigma[:, None]],
                         axis=2)
    ratio = {1: 1.0, 0: inv[..., lsum + 2]}
    ratio[-1] = ratio[0] * inv[..., lsum + 1]
    ratio[-2] = ratio[-1] * inv[..., lsum]
    blocks = _em_recouple(s, l_max, ratio)
    log_scale = np.repeat(np.repeat(log_k[:, lsum + 1], 2, 1), 2, 2)
    return NodeKernel(pol=2, blocks=blocks, log_scale=log_scale)


def node_kernel(l_max, x, em=False):
    """Translation blocks of every m = 0..l_max at separation x = kappa d.

    Builds one Bessel-K chain and one 3j contraction; see the module
    notes for the ratio-scaled form.  Scalar blocks cover l = 0..l_max;
    EM blocks cover J = 0..l_max with the rows and columns below
    max(1, m) zero and the m = 0 mixing blocks exactly zero.  The
    one-x case of `_node_kernels`.

    Returns
    -------
    NodeKernel
    """
    kern = _node_kernels(l_max, np.array([x], dtype=float), em)
    return NodeKernel(pol=kern.pol, blocks=kern.blocks[0],
                      log_scale=kern.log_scale[0])


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


def _em_weights(l_max, m):
    """Recoupling weight vectors for the four polarization blocks.

    For q in (-1, 0, +1) and J = 0..l_max+1 returns
    w0[q][J] = <J,   m-q; 1, q | J m>,
    wm[q][J] = <J-1, m-q; 1, q | J m>,
    wp[q][J] = <J+1, m-q; 1, q | J m>,
    zero for J below max(1, |m|), plus the electric decomposition
    constants aR, bR.  m is one order or an array of orders, whose shape
    leads those of w0, wm and wp; one batch of 3j families serves them all.
    """
    n = l_max + 2
    m = np.asarray(m)
    # one 3j family (J' 1 J; m-q, q, -m) per (m, q, J'): from the top it
    # holds J = J'+1, J', J'-1, i.e. wm[J'+1], w0[J'] and wp[J'-1]
    mq, q, jp = np.broadcast_arrays(m[..., None, None],
                                    np.arange(-1, 2)[:, None], np.arange(n + 1))
    ok = np.abs(mq - q) <= jp
    at = np.nonzero(ok)[:-2]
    mq, q, jp = mq[ok], q[ok], jp[ok]
    _, f = specfun._threej_rows(jp, 1, mq - q, q)
    # <j1 m1; 1 q | J m> = (-1)^{j1-1+m} sqrt(2J+1) 3j(j1 1 J; m1 q -m)
    sign = np.where((jp - 1 + mq) % 2 == 1, -1.0, 1.0)
    w = np.zeros((3,) + m.shape + (3, n))
    for t in range(f.shape[0]):
        jj = jp + 1 - t
        r = (jj >= np.maximum(1, np.abs(mq))) & (jj < n)
        w[(t,) + tuple(i[r] for i in at) + (q[r] + 1, jj[r])] = \
            sign[r] * np.sqrt(2.0 * jj[r] + 1.0) * f[t, r]
    wm, w0, wp = w
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
    w0, wm, wp, a_r, b_r = _em_weights(l_max, np.arange(n))
    w0, wm, wp = (np.ascontiguousarray(w[..., :n]) for w in (w0, wm, wp))
    a_r, b_r = a_r[:n], b_r[:n]
    out = (w0, wm / a_r, -a_r * wm, -b_r * wp)
    for arr in out:
        arr.setflags(write=False)
    return out


def _em_recouple(s, l_max, ratio):
    """Interleaved EM blocks G[x, m] / k_{J'+J+1} for m = 0..l_max.

    s is the scalar S stack at order l_max+1, one row per node x.  A
    scalar block U(mu)[a, b] carries the factor k_{a+b}, so the channel
    read at rows J'+dr and columns J+dc takes ratio[dr + dc][x, 0, J', J]
    = k_{J'+J+dr+dc}/k_{J'+J+1}.
    """
    nx = len(s)
    n = l_max + 1
    t_m, t_e, c_lo, c_hi = _em_weight_stack(l_max)
    # front-pad one zero row/column so that J-1 = -1 slices read as zero
    sp = np.zeros((nx, n + 1, n + 2, n + 2))
    sp[:, :, 1:, 1:] = s
    ms = np.arange(n)
    g = np.zeros((nx, n, n, 2, n, 2))
    for iq, q in enumerate((-1, 0, 1)):
        u = sp[:, np.abs(ms - q)]

        def part(dr, dc):
            return (u[:, :, 1 + dr:1 + dr + n, 1 + dc:1 + dc + n]
                    * ratio[dr + dc])

        tm, te = t_m[:, iq, :, None], t_e[:, iq, :, None]
        cm, clo, chi = (w[:, iq, None, :] for w in (t_m, c_lo, c_hi))
        # electric rows read the orbital J'-1 channel, electric columns
        # the J-1 and J+1 channels
        g[:, :, :, 0, :, 0] += tm * cm * part(0, 0)
        g[:, :, :, 1, :, 0] += te * cm * part(-1, 0)
        g[:, :, :, 0, :, 1] += tm * (clo * part(0, -1) + chi * part(0, 1))
        g[:, :, :, 1, :, 1] += te * (clo * part(-1, -1) + chi * part(-1, 1))
    # exact selection rule: the q and -q contributions cancel identically
    # at m = 0, so suppress the rounding residue
    g[:, 0, :, 0, :, 1] = 0.0
    g[:, 0, :, 1, :, 0] = 0.0
    live = np.arange(n)[None, :] >= np.maximum(1, ms)[:, None]
    g *= (live[:, :, None, None, None] & live[:, None, None, :, None])
    return g.reshape(nx, n, 2 * n, 2 * n)
