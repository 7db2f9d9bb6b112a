"""Translation matrices re-expanding multipoles between sphere centers.

For two centers separated by d along the z axis, an outgoing scalar
multipole about one center is a convergent sum of regular multipoles about
the other.  With modified spherical Bessel functions i_l, k_l (all real
and positive on the imaginary frequency axis) the re-expansion reads

    k_l(kappa r_2) Y_lm(2) = -sum_{l'} U_{l'l}(m) i_{l'}(kappa r_1) Y_{l'm}(1)

valid for r_1 < d.  U depends only on |m| and on which center is the
source.  Reversing the direction is a parity mask (`_reversal`):
U^{21}_{l'l}(m) = (-1)^{l'+l} U^{12}_{l'l}(m), which for a scalar block
is also its transpose, and an EM block further negates its
magnetic/electric mixing entries.

Electromagnetic (vector) multipoles translate through the same scalar
matrices after recoupling orbital and spin angular momentum, giving a
2x2 polarization structure per (l', l) pair in which the magnetic/electric
mixing terms vanish for m = 0.

Ratio-scaled form.  With x = kappa d,

    U_{l'l}(m) e^{x} = S_{l'l}(m) k_{l'+l}(x) e^{x},
    S_{l'l}(m) = -(-1)^{l+m} sqrt((2l+1)(2l'+1)) sum_{l''} (2l''+1)
                 3j(l l' l''; 0 0 0) 3j(l l' l''; m -m 0)
                 k_{l''}(x)/k_{l'+l}(x).

Only l'' = l'+l, l'+l-2, ... contribute and k_l(x) increases with l, so
every ratio lies in (0, 1]; with the 3j orthogonality
sum_{l''} (2l''+1) 3j^2 = 1 this bounds |S_{l'l}| by sqrt((2l+1)(2l'+1))
at every x.  Plain floats therefore hold S without overflow, and the huge
or tiny factor k_{l'+l}(x) e^{x} stays a log until it meets the
T-matrices.

No 3j symbol is formed: S comes from the coaxial recurrences of Gumerov
& Duraiswami (SIAM J. Sci. Comput. 25 (2003) 1344) written for S, where
with L = l' + l and a_n^m = sqrt((n+1+m)(n+1-m)/((2n+1)(2n+3))):

    S_{l'0}(0) = -sqrt(2l'+1),
    S_{l'm}(m) = alpha S_{l'-1,m-1}(m-1) k_{L-2}/k_L
                 + beta S_{l'+1,m-1}(m-1),
    a_l^m S_{l',l+1} = -a_{l'}^m S_{l'+1,l}
                       - (a_{l'-1}^m S_{l'-1,l} + a_{l-1}^m S_{l',l-1})
                       k_{L-1}/k_{L+1},

with the sectorial weights (L = l' + m there)
alpha = -sqrt((2m+1)/(2m) (L-1) L/((2l'-1)(2l'+1))) and
beta = +sqrt((2m+1)/(2m) (l'-m+1)(l'-m+2)/((2l'+1)(2l'+3))).  Every
Bessel factor is a ratio k_j/k_{j+2} <= 1 of the K chain, so no step
overflows, and the work is O(l_max^3) per x with O(l_max^2) coefficients.
The accuracy of S is absolute, ~1e-14 of sqrt((2l+1)(2l'+1)): at large x
the high-m entries cancel to far below that bound, and only their
absolute error is meaningful.

`node_kernel` builds one Bessel chain and S for every m at once, and
`_node_kernels` does so for every x of an array in one batch (every
quadrature node of a chunk, at one distance); every step is elementwise
in x, so each row is byte-equal to its one-x kernel.  The EM blocks
recouple the same S stack, with Clebsch-Gordan weights rooted from
their exact squares (`_em_weight_squares`) and k_{J'+J+1} factored
out, so their ratios are again <= 1.  Order m of an EM block reads only
the S orders m-1..m+1 and is zero in the rows and columns below
max(1, m), so the recoupling fills only that live region: in parts of
consecutive orders (two halves up to l_max 15, about eight orders each
above), each with its own S orders and its own first live row.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import _k_chains

__all__ = [
    "NodeKernel",
    "node_kernel",
]


def _check_direction(direction):
    if direction not in ("12", "21"):
        raise ValueError("direction must be '12' or '21', got %r" % (direction,))


@dataclass(frozen=True)
class NodeKernel:
    """Ratio-scaled translation blocks of every m at one x = kappa d.

    A kernel built for an array of x (`_node_kernels`) carries one
    leading node axis on both arrays.

    Attributes
    ----------
    blocks : ndarray, shape (l_max+1, pol*(l_max+1), pol*(l_max+1))
        blocks[m] in direction "12", rows and columns l-major with the
        pol polarizations (1 scalar, 2 EM in the order M, E) interleaved;
        EM entries below max(1, m) are zero.  The "21" blocks are these
        times `_reversal`.  The EM magnetic/electric mixing entries are
        accurate relative to their 2x2 polarization block, not entrywise:
        at small x they are smaller than the block by about x, and their
        relative error grows like 1/x^2 (8.1e-11 at x = 0.05).
    log_scale : ndarray, shape (pol*(l_max+1), pol*(l_max+1))
        blocks[m] * exp(log_scale) is the block times e^{+x}: log of
        k_{l'+l}(x) e^{x} for scalar and of k_{J'+J+1}(x) e^{x} for EM.
    """

    blocks: np.ndarray
    log_scale: np.ndarray


@lru_cache(maxsize=8)
def _reversal(n, pol):
    """The +-1 mask that turns "12" blocks of n orders into "21" blocks
    (read-only).

    outer(r, r) with r = (-1)^l repeated over the pol polarizations and
    negated on the electric ones: (-1)^{l'+l} entrywise, times -1 on
    the EM magnetic/electric mixing entries.
    """
    r = np.outer((-1.0) ** np.arange(n), (1.0, -1.0)[:pol]).ravel()
    mask = np.outer(r, r)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=8)
def _recurrence_coeffs(l_max):
    """Coefficients of the coaxial recurrences up to order l_max (read-only).

    Returns (a, alpha, beta).  a[m, 1 + j] = a_j^m =
    sqrt((j+1+m)(j+1-m)/((2j+1)(2j+3))) for j = -1..2 l_max, zero for
    j < m.  alpha[m, l'] and beta[m, l'] are the sectorial weights of
    S_{l'-1, m-1}(m-1) and S_{l'+1, m-1}(m-1) in S_{l'm}(m), zero for
    l' < m and at m = 0.
    """
    m = np.arange(l_max + 1)[:, None]
    j = np.arange(-1, 2 * l_max + 1)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(j >= m, np.sqrt((j + 1 + m) * (j + 1 - m)
                                     / ((2 * j + 1) * (2 * j + 3))), 0.0)
        lp = j[:, 1:]
        live = (lp >= m) & (m > 0)
        alpha = np.where(live, -np.sqrt(
            (2 * m + 1) * (lp + m - 1) * (lp + m)
            / (2 * m * (2 * lp - 1) * (2 * lp + 1))), 0.0)
        beta = np.where(live, np.sqrt(
            (2 * m + 1) * (lp - m + 1) * (lp - m + 2)
            / (2 * m * (2 * lp + 1) * (2 * lp + 3))), 0.0)
    for arr in (a, alpha, beta):
        arr.setflags(write=False)
    return a, alpha, beta


def _s_blocks(l_max, sigma):
    """S[x, m, l', l] for m, l', l = 0..l_max, one row x per chain.

    sigma[x, l] = k_{l+1}(x)/k_l(x) for l = 0..2*l_max - 1 at least.
    Column l of every order comes from columns l - 1 and l - 2 by the
    l step, and the column l = m of order m from that of order m - 1 by
    the sectorial step; each column keeps the rows l' <= 2 l_max - l
    that later columns read, and holds only the orders m <= l (the
    others are zero).  Every operation is elementwise in x.
    """
    n = l_max + 1
    nx = len(sigma)
    # the node axis x runs last while the recurrences run, so every step
    # is a few array operations over contiguous runs of nodes
    a, alpha, beta = (t[..., None] for t in _recurrence_coeffs(l_max))
    na = -a
    # k2[L, x] = k_{L-1}/k_{L+1} for L = 1..2 l_max - 1, and 0 at L = 0
    k2 = np.zeros((2 * l_max, nx))
    # columns S[m, 1 + l', x] behind one zero row (l' = -1)
    cur = np.zeros((n, 2 * l_max + 2, nx))
    cur[0, 1:] = -np.sqrt(2.0 * np.arange(2 * l_max + 1) + 1.0)[:, None]
    prev = np.zeros_like(cur)
    out = np.zeros((nx, n, n, n))
    out[:, 0, :, 0] = cur[0, 1:n + 1].T
    with np.errstate(under="ignore"):
        k2[1:] = (1.0 / (sigma[:, :2 * l_max - 1]
                         * sigma[:, 1:2 * l_max])).T
        for l in range(l_max):
            # column m = l + 1 from column l (and l - 1), rows l' < hi
            m, hi = l + 1, 2 * l_max - l
            c, p, am = cur[:m], prev[:m], na[:m]
            nxt = np.zeros_like(cur)
            # orders below m: the l step
            np.divide(am[:, 1:hi + 1] * c[:, 2:hi + 2]
                      + (am[:, :hi] * c[:, :hi]
                         + am[:, l, None] * p[:, 1:hi + 1])
                      * k2[l:l + hi],
                      a[:m, m, None], out=nxt[:m, 1:hi + 1])
            # order m: the sectorial step, rows m..2 l_max - m
            np.add(alpha[m, m:hi] * cur[l, m:hi] * k2[2 * l + 1:2 * l_max],
                   beta[m, m:hi] * cur[l, m + 2:hi + 2],
                   out=nxt[m, m + 1:hi + 1])
            prev, cur = cur, nxt
            out[:, :m + 1, :, m] = cur[:m + 1, 1:n + 1].transpose(2, 0, 1)
    return out


def _node_kernels(l_max, x, em=False):
    """`node_kernel` at every x of a 1-D array, as one NodeKernel whose
    blocks and log_scale carry a leading node axis.

    One batched K chain and one run of the recurrences serve every x;
    row i is byte-equal to `node_kernel(l_max, x[i], em)`.
    """
    if not np.all(x > 0.0):
        raise ValueError("x = kappa*d must be positive, got %r"
                         % (x[~(x > 0.0)].tolist(),))
    n = l_max + 1
    lv = np.arange(n)
    lsum = lv[:, None] + lv[None, :]
    sigma, log_k = _k_chains(2 * l_max + (2 if em else 0), x)
    # log of k_l(x) e^{x}: the spherical prefactor of the half-order K
    log_k += np.array([0.5 * math.log(2.0 / (math.pi * xi))
                       for xi in x.tolist()])[:, None]
    if not em:
        return NodeKernel(blocks=_s_blocks(l_max, sigma),
                          log_scale=log_k[:, lsum])
    s = _s_blocks(l_max + 1, sigma)
    # k_{J'+J+d}/k_{J'+J+1} for d = 0, -1, -2, broadcast over m (d = 1
    # needs none; entries with J'+J < 2 lie in the zeroed J = 0 rows and
    # columns)
    inv = np.concatenate([np.zeros((len(x), 1, 2)), 1.0 / sigma[:, None]],
                         axis=2)
    ratio = {0: inv[..., lsum + 2]}
    ratio[-1] = ratio[0] * inv[..., lsum + 1]
    ratio[-2] = ratio[-1] * inv[..., lsum]
    blocks = _em_recouple(s, l_max, ratio)
    log_scale = np.repeat(np.repeat(log_k[:, lsum + 1], 2, 1), 2, 2)
    return NodeKernel(blocks=blocks, log_scale=log_scale)


def node_kernel(l_max, x, em=False):
    """Translation blocks of every m = 0..l_max at separation x = kappa d.

    Builds one Bessel-K chain and runs the recurrences once; see the
    module notes for the ratio-scaled form.  Scalar blocks cover
    l = 0..l_max; EM blocks cover J = 0..l_max with the rows and columns
    below max(1, m) zero and the m = 0 mixing blocks exactly zero.  The
    one-x case of `_node_kernels`.  EM mixing entries are accurate
    relative to their 2x2 polarization block, not entrywise: their
    relative error grows like 1/x^2 at small x (8.1e-11 at x = 0.05).

    Returns
    -------
    NodeKernel
    """
    kern = _node_kernels(l_max, np.array([x], dtype=float), em)
    return NodeKernel(blocks=kern.blocks[0], log_scale=kern.log_scale[0])


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
    block = kern.blocks[m]
    if direction == "21":
        block = block * _reversal(n, 1)
    return _signed_log_view(block, kern.log_scale)


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


def _em_weight_squares(j, m, q):
    """Signed squares c|c|, as (numerator, denominator), of the four
    recoupling weights at J = j, order m and q in (-1, 0, +1):

    t_m  = <J, m-q; 1, q | J m>,
    t_e  = <J-1, m-q; 1, q | J m> / aR(J),
    c_lo = -aR(J) <J-1, m-q; 1, q | J m>,
    c_hi = -bR(J) <J+1, m-q; 1, q | J m>,

    the target weights of the magnetic and electric rows and the source
    weights of the electric columns' J-1 and J+1 channels (the magnetic
    columns share t_m).  The Clebsch-Gordan coefficients are the closed
    forms of Edmonds, Angular Momentum in Quantum Mechanics, Table 2,
    with aR^2 = (J+1)/(2J+1) and bR^2 = J/(2J+1) folded in.  Integer
    arithmetic only, so j, m, q may be Python ints or broadcastable
    numpy integer arrays; q selects between the q = 0 and q = +-1 forms
    through q^2.  Valid for J >= max(1, |m|).
    """
    p = q * q
    t_m = ((1 - p) * m * abs(m) - q * (j + q * m) * (j - q * m + 1),
           (1 + p) * j * (j + 1))
    # c|c| of <J-1, ...> is lo/den_lo, that of <J+1, ...> hi/den_hi
    lo = 2 * (1 - p) * (j - m) * (j + m) + p * (j + q * m - 1) * (j + q * m)
    hi = (p * (j - q * m + 1) * (j - q * m + 2)
          - 2 * (1 - p) * (j - m + 1) * (j + m + 1))
    den_lo, den_hi = 2 * j * (2 * j - 1), 2 * (j + 1) * (2 * j + 3)
    return (t_m,
            (lo * (2 * j + 1), den_lo * (j + 1)),
            (-lo * (j + 1), den_lo * (2 * j + 1)),
            (-hi * j, den_hi * (2 * j + 1)))


@lru_cache(maxsize=8)
def _em_weight_stack(l_max):
    """The weights of `_em_weight_squares` for m = 0..l_max as (m, q, J)
    arrays, J <= l_max, zero below max(1, m) (read-only).

    Returns (t_m, t_e, c_lo, c_hi), each sign(num) sqrt(|num|/den) of
    its exact square: one correctly rounded division of exact integers
    and one correctly rounded square root.
    """
    n = l_max + 1
    m, q, j = np.ogrid[:n, -1:2, :n]
    live = j >= np.maximum(1, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = tuple(np.where(live, np.sign(num) * np.sqrt(np.abs(num) / den),
                             0.0)
                    for num, den in _em_weight_squares(j, m, q))
    for arr in out:
        arr.setflags(write=False)
    return out


def _em_recouple(s, l_max, ratio, parts=None):
    """Interleaved EM blocks G[x, m] / k_{J'+J+1} for m = 0..l_max.

    s is the scalar S stack at order l_max+1, one row per node x.  A
    scalar block U(mu)[a, b] carries the factor k_{a+b}, so the channel
    read at rows J'+dr and columns J+dc takes ratio[dr + dc][x, 0, J', J]
    = k_{J'+J+dr+dc}/k_{J'+J+1} (1 at dr + dc = 1).  The q-th term of
    order m reads mu = |m - q|.

    Rows and columns below max(1, m) are zero, so only the live region
    is computed, into a zeroed G.  The n = l_max + 1 orders run in
    `parts` runs of consecutive orders, by default max(2, n // 8): two
    halves up to l_max 15, then parts of about eight orders, which skip
    most of the dead rows at a few dozen numpy calls each.  The part
    from m0 to m1 reads the orders mu = m0-1..m1 of S, and its rows and
    columns J', J >= max(1, m0), each read scaled once (J-1 >= 0 there,
    so S needs no padding).  Every entry keeps the products and the q
    order of the whole-cube sum, so its bytes do not depend on the
    split.
    """
    nx = len(s)
    n = l_max + 1
    parts = max(2, n // 8) if parts is None else parts
    g = np.zeros((nx, n, n, 2, n, 2))
    edges = [n * i // parts for i in range(parts + 1)]
    for m0, m1 in zip(edges[:-1], edges[1:]):
        r0, b = max(1, m0), max(0, m0 - 1)
        t_m, t_e, c_lo, c_hi = (w[m0:m1, :, r0:]
                                for w in _em_weight_stack(l_max))
        # mu - b for q = -1, 0, +1: views, but the m = 0 read of mu = 1
        shifts = (slice(m0 + 1 - b, m1 + 1 - b), slice(m0 - b, m1 - b),
                  slice(0, m1 - m0) if m0 else np.abs(np.arange(m1) - 1))

        def read(dr, dc):
            u = s[:, b:m1 + 1, r0 + dr:n + dr, r0 + dc:n + dc]
            return u if dr + dc == 1 else u * ratio[dr + dc][..., r0:, r0:]

        live = (nx, m1 - m0, n - r0, n - r0)
        # electric rows read the orbital J'-1 channel, electric columns the
        # J-1 and J+1 channels; each channel sums its q terms in a
        # contiguous (x, m, J', J) array before it is interleaved
        for row, (tw, dr) in enumerate(((t_m, 0), (t_e, -1))):
            mag = read(dr, 0)
            acc = np.zeros(live)
            for iq, mu in enumerate(shifts):
                acc += tw[:, iq, :, None] * t_m[:, iq, None, :] * mag[:, mu]
            g[:, m0:m1, r0:, row, r0:, 0] = acc
            lo, hi = read(dr, -1), read(dr, 1)
            acc = np.zeros(live)
            for iq, mu in enumerate(shifts):
                acc += tw[:, iq, :, None] * (
                    c_lo[:, iq, None, :] * lo[:, mu]
                    + c_hi[:, iq, None, :] * hi[:, mu])
            g[:, m0:m1, r0:, row, r0:, 1] = acc
    # exact selection rule: the q and -q contributions cancel identically
    # at m = 0, so suppress the rounding residue
    g[:, 0, :, 0, :, 1] = 0.0
    g[:, 0, :, 1, :, 0] = 0.0
    return g.reshape(nx, n, 2 * n, 2 * n)
