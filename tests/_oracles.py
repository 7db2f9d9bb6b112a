"""Independent high-precision references used only by the test suite.

Everything here is deliberately slow and obvious: exact rational Racah
sums and the one-family scalar recursion for 3j symbols, and mpmath
evaluations for Bessel functions.  The production code must agree with
these, never the other way around.  The unscaled T-matrix values,
low-frequency series and real-frequency phase shifts at the end are
readers of the production T-matrices that only the tests call; the
one-order Bessel wrapper in the middle reads the production chain,
likewise.  Both read one row of the batched production calls
(`chain_row`, `t_log_row`).  The printed dielectric series at the very
end, typed in from the paper's static response data, is the
independent check of the derived one.  The exact translation factors
and electromagnetic blocks of the large-distance series (`g_series_ref`,
`em_block_ref`) come from the exact 3j squares, not from the production
recurrences, and the slot-by-slot chain enumeration multiplies them.
The row-batched 3j recursion, which production no longer uses, serves
the one-symbol 3j wrappers and the W kernel of the 3j-sum translation
oracle, and is itself checked against the one-family one.  The
one-argument Bessel-I continued fractions and the one-interval
Gauss-Kronrod rule, which production runs over many rows at once, are
the arithmetic whose bytes each of those rows must reproduce.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import mpmath as mp
import numpy as np
from scipy.special import spherical_jn, spherical_yn

from casphere.asymptotics import SeriesExpansion, _mono_mul
from casphere.specfun import BesselChain, _chain_rows, _log_i_half_scaled
from casphere.tmatrix import (
    Dispersive,
    PerfectConductor,
    _PEC_ZETAS,
    _checked_kappas,
    _dfact,
    _effective_zeta,
    _robin_bracket,
    _series_mul,
    _t_em_rows,
    _t_scalar_rows,
    is_scalar_law,
    mie_series_fractions,
)


@lru_cache(maxsize=None)
def _fact(n):
    return math.factorial(n)


def threej_exact_sq(l1, l2, l3, m1, m2, m3):
    """(sign, value^2) of a Wigner 3j symbol as an exact Fraction.

    Racah's single-sum formula evaluated in integer arithmetic; `sign`
    is the sign of the symbol itself (0 for an exact zero).
    """
    if m1 + m2 + m3 != 0:
        return 0, Fraction(0)
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0, Fraction(0)
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0, Fraction(0)
    tmin = max(0, l2 - l3 - m1, l1 - l3 + m2)
    tmax = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    s = 0
    for t in range(tmin, tmax + 1):
        term = Fraction(
            (-1) ** t,
            _fact(t) * _fact(l3 - l2 + t + m1) * _fact(l3 - l1 + t - m2)
            * _fact(l1 + l2 - l3 - t) * _fact(l1 - t - m1) * _fact(l2 - t + m2),
        )
        s += term
    if s == 0:
        return 0, Fraction(0)
    delta = Fraction(
        _fact(l1 + l2 - l3) * _fact(l1 - l2 + l3) * _fact(-l1 + l2 + l3),
        _fact(l1 + l2 + l3 + 1),
    )
    w = (_fact(l1 + m1) * _fact(l1 - m1) * _fact(l2 + m2) * _fact(l2 - m2)
         * _fact(l3 + m3) * _fact(l3 - m3))
    sq = delta * w * s * s
    sign = 1 if s > 0 else -1
    if (l1 - l2 - m3) % 2:
        sign = -sign
    return sign, sq


def threej_exact(l1, l2, l3, m1, m2, m3, prec=60):
    """Float value of the 3j symbol from the exact rational square."""
    sign, sq = threej_exact_sq(l1, l2, l3, m1, m2, m3)
    if sign == 0:
        return 0.0
    with mp.workdps(prec):
        return float(sign * mp.sqrt(mp.mpf(sq.numerator) / sq.denominator))


def threej_000_fraction(l1, l2, l3):
    """The all-zero-projection closed form through an exact Fraction.

    (-1)^g sqrt(Delta) g!/Pi(g-l_i)! with the square formed as a reduced
    Fraction and rounded by Fraction.__float__, as `math.sqrt` does when
    handed one; the production form divides the two integers instead.
    """
    if l3 < abs(l1 - l2) or l3 > l1 + l2 or (l1 + l2 + l3) % 2:
        return 0.0
    big_j = l1 + l2 + l3
    g = big_j // 2
    num = _fact(big_j - 2 * l1) * _fact(big_j - 2 * l2) \
        * _fact(big_j - 2 * l3) * _fact(g) ** 2
    den = _fact(big_j + 1) \
        * (_fact(g - l1) * _fact(g - l2) * _fact(g - l3)) ** 2
    val = math.sqrt(Fraction(num, den))
    return -val if g % 2 else val


# ---------------------------------------------------------------------------
# Row-batched 3j recursion: many families at once, each row the bits of a
# lone family; the one-family wrappers below and the W kernel read it
# ---------------------------------------------------------------------------

def _threej_000_rows(l1, l2, npts, width):
    """3j(l1 l2 j; 0 0 0) from the top, f[t] at j = l1+l2-t, per row.

    The exact closed form 3j^2 = c(g-l1) c(g-l2) c(g-j) / ((2g+1) c(g)),
    c(k) = binomial(2k, k), g = (l1+l2+j)/2, sign (-1)^g, zero for odd
    l1+l2+j.  Each square is an int/int true division of Python integers,
    one object-array step for every entry, so its only roundings are the
    quotient (correctly rounded) and the square root (< 2 ulp).
    """
    h = np.arange((width + 1) // 2)[:, None]
    live = 2 * h < npts
    h, a, b = (np.broadcast_to(v, live.shape)[live] for v in (h, l1, l2))
    g = a + b - h
    c = [1]
    for k in range(1, int(g.max(initial=0)) + 1):
        c.append(c[-1] * (4 * k - 2) // k)
    den = np.array([(2 * k + 1) * ck for k, ck in enumerate(c)], dtype=object)
    c = np.array(c, dtype=object)
    sq = (c[g - a] * c[g - b] * c[h] / den[g]).astype(float)
    out = np.zeros((width, len(l1)))
    out[::2][live] = np.where(g % 2 == 1, -1.0, 1.0) * np.sqrt(sq)
    return out


def _sg_tables(jmin, width, l1, l2, m1, m2):
    """Coefficients of the j-recursion on the grid j = jmin + i, i < width.

    Returns (b, p, q), each (width, rows), with b = B(j), p = (j+1) A(j)
    and q = j A(j+1); A is evaluated once, on the width + 1 points of the
    grid, and serves both passes.  A zero p or q lies outside its row's
    family and reads 1.0, so padded lanes divide cleanly.
    """
    m3 = -(m1 + m2)
    jj = jmin + np.arange(width + 1.0)[:, None]
    j2 = jj * jj
    # a float product of exact integer factors: exact below 2^53 (l1 + l2
    # up to ~460), and unlike int64 it cannot wrap at deeper orders
    a = j2 - (l1 - l2) ** 2
    tmp = (l1 + l2 + 1) ** 2 - j2
    a *= tmp
    a *= np.subtract(j2, m3 * m3, out=tmp)
    np.sqrt(np.maximum(a, 0.0, out=a), out=a)
    j, j1 = jj[:-1], jj[1:]
    # pinned against exact rational 3j values (see tests): the middle
    # coefficient of the j-recursion is -(2j+1)[m3 X + (m1-m2) j(j+1)],
    # exact integers in floats, and +0.0 where it vanishes; b and p reuse
    # the buffers of tmp and j2
    b = np.multiply(j, j1, out=tmp[:-1])
    b *= m1 - m2
    np.subtract(-m3 * (l1 * (l1 + 1) - l2 * (l2 + 1)), b, out=b)
    b *= np.add(j, j1, out=j2[:-1])
    # A >= 1 wherever it is nonzero
    p = np.maximum(np.multiply(j1, a[:-1], out=j2[:-1]), 1.0, out=j2[:-1])
    q = np.maximum(j * a[1:], 1.0, out=a[:-1])
    return b, p, q


_RESCALE = 1e250


def _sg_recursion(l1, l2, m1, m2, jmin, npts, sign_top, width):
    """Families of rows with npts >= 2 and (m1, m2) != (0, 0), top-aligned.

    The rows come sorted by npts.  Every row runs the same steps as a lone
    family: lanes that have stopped or ended are masked, never mixed with
    live ones.
    """
    rows = len(l1)
    lanes = np.arange(rows)
    jmax = jmin + npts - 1
    col = np.arange(width)[:, None]
    b, p, q = _sg_tables(jmin, width, l1, l2, m1, m2)

    # forward pass from jmin: f[i] at j = jmin + i
    f = np.zeros((width, rows))
    f[0] = 1.0
    # A(jmin) = 0, so the three-term relation at j = jmin is two-term
    f[1] = -b[0] * f[0] / q[0]
    zero = np.flatnonzero(jmin == 0)
    if len(zero):
        # only possible for l1 == l2, m3 == 0; seed f(1) from the closed form
        l, m = l1[zero], m1[zero]
        s = np.where((l - m) % 2 == 0, 1.0, -1.0)
        f[0, zero] = s / np.sqrt(2.0 * l + 1.0)
        f[1, zero] = s * 2.0 * m \
            / np.sqrt((2.0 * l + 2.0) * (2.0 * l + 1.0) * 2.0 * l)
    i_stop = npts - 1
    # the loop works on all lanes of f, then, once fewer than one in eight
    # still runs, on a copy of those lanes, written back at the end
    work, fw, bw, pw, qw, nw = None, f, b, p, q, npts
    running = np.ones(rows, dtype=bool)
    size = np.abs(f[1])
    fell = np.zeros(rows, dtype=bool)
    for i in range(1, width - 1):
        running &= nw > i + 1
        if not running.any():
            break
        np.copyto(fw[i + 1], -(bw[i] * fw[i] + pw[i] * fw[i - 1]) / qw[i],
                  where=running)
        nxt = np.abs(fw[i + 1])
        if nxt.max() > _RESCALE:
            fw[:i + 2, nxt > _RESCALE] /= _RESCALE
            nxt, size = np.abs(fw[i + 1]), np.abs(fw[i])
        falls = nxt < size
        # two drops in a row: safely inside the oscillatory region
        done = running & falls & fell
        size, fell = nxt, falls
        if done.any():
            i_stop[done if work is None else work[done]] = i + 1
            running &= ~done
            if work is None and 8 * np.count_nonzero(running) < rows:
                keep = np.flatnonzero(running)
                work, fw, bw, pw, qw = keep, f[:, keep], b[:, keep], \
                    p[:, keep], q[:, keep]
                nw, size, fell, running = npts[keep], size[keep], \
                    fell[keep], running[keep]
    if work is not None:
        f[:, work] = fw
    # f is still zero past each lane's stop, so the argmax sees only the
    # forward pass
    i_match = np.argmax(np.abs(f), axis=0)
    t_match = npts - 1 - i_match

    # backward pass from jmax down to the match: g[t] at j = jmax - t,
    # whose coefficients sit at grid index npts - t (wrapping, and masked,
    # in lanes already done)
    at = npts * rows + lanes
    b, p, q = b.ravel(), p.ravel(), q.ravel()
    g = np.zeros((width, rows))
    g[0] = 1.0
    g[1] = -b[at - rows] * g[0] / p[at - rows]
    for t in range(2, width):
        act = t_match >= t
        if not act.any():
            break
        k = at - t * rows
        np.copyto(g[t], -(q[k] * g[t - 2] + b[k] * g[t - 1]) / p[k],
                  where=act)
        nxt = np.abs(g[t])
        if nxt.max() > _RESCALE:
            g[:t + 1, nxt > _RESCALE] /= _RESCALE
    del b, p, q

    # the family from the top: g * scale down to the match, f below it;
    # then the norm, the sign and the zero padding, one family length
    # (one contiguous run of lanes) at a time
    res = g
    res *= f[i_match, lanes] / g[t_match, lanes]
    cut = np.flatnonzero(np.diff(npts)) + 1
    for s, e in zip([0] + cut.tolist(), cut.tolist() + [rows]):
        n = int(npts[s])
        top = res[:n, s:e]
        np.copyto(top, f[n - 1::-1, s:e], where=col[:n] > t_match[s:e])
        # np.sum over j ascending, one contiguous row per family, so a
        # row's norm is the lone family's pairwise sum whatever its batch
        terms = (2.0 * (jmax[s:e] - col[:n]) + 1.0) * top * top
        top /= np.sqrt(np.sum(np.ascontiguousarray(terms[::-1].T), axis=1))
        top *= np.where(top[0] * sign_top[s:e] < 0.0, -1.0, 1.0)
        res[n:, s:e] = 0.0
    return res


def _threej_rows(l1, l2, m1, m2):
    """3j(l1 l2 j; m1 m2 m3), m3 = -(m1+m2), for rows of integer arrays.

    Each row (broadcast from the arguments) is the family j = jmin..l1+l2
    with jmin = max(|l1-l2|, |m3|): a two-sided three-term recursion in
    j (Schulten & Gordon, J. Math. Phys. 16, 1961 (1975), in the form of
    Luscombe & Luban, Phys. Rev. E 57, 7274 (1998)), matched at the
    forward maximum and normalized with sum (2j+1) f^2 = 1, sign
    (-1)^{l1-l2-m3} at j = l1+l2; the m1 = m2 = 0 rows, where the
    recursion degenerates, take the exact closed form.  Both passes run
    in their direction of growth, so every entry keeps full relative
    accuracy including the exponentially small edge tails.  The
    recursion runs on all rows at once; rows never mix, so a row's values
    do not depend on the batch it is computed in.

    Returns
    -------
    (jmin, f) : int ndarray (rows,), ndarray (width, rows)
        f[t, r] is row r at j = l1+l2-t for t below its npts, zero
        beyond; width is the largest npts.
    """
    l1, l2, m1, m2 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=np.int64))
          for v in (l1, l2, m1, m2)))
    m3 = -(m1 + m2)
    jmin = np.maximum(np.abs(l1 - l2), np.abs(m3))
    npts = l1 + l2 - jmin + 1
    sign_top = np.where((l1 - l2 - m3) % 2 == 1, -1.0, 1.0)
    width = int(npts.max())
    out = np.zeros((width, len(l1)))
    one = npts == 1
    out[0, one] = sign_top[one] / np.sqrt(2.0 * jmin[one] + 1.0)
    closed = (m1 == 0) & (m2 == 0) & ~one
    r = np.flatnonzero(closed)
    if len(r):
        n = int(npts[r].max())
        out[:n, r] = _threej_000_rows(l1[r], l2[r], npts[r], n)
    r = np.flatnonzero(~(one | closed))
    if len(r):
        r = r[np.argsort(npts[r], kind="stable")]
        n = int(npts[r[-1]])
        out[:n, r] = _sg_recursion(l1[r], l2[r], m1[r], m2[r], jmin[r],
                                   npts[r], sign_top[r], n)
    return jmin, out


# ---------------------------------------------------------------------------
# One-symbol and one-order wrappers that only the tests call: the exact
# (l1 l2 l3; 0 0 0) closed form, one 3j family or symbol as one row of the
# batched recursion, and one scaled Bessel order from the production chain
# ---------------------------------------------------------------------------

@lru_cache(maxsize=200000)
def threej_000(l1, l2, l3):
    """3j symbol with all projections zero, from the exact closed form.

    Zero for odd l1+l2+l3; otherwise (-1)^g sqrt(Delta) g!/Pi(g-l_i)! with
    g = (l1+l2+l3)/2, evaluated in exact integer arithmetic so the only
    roundings are the quotient (int/int true division is correctly
    rounded) and the final square root (< 2 ulp).
    """
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    big_j = l1 + l2 + l3
    if big_j % 2:
        return 0.0
    g = big_j // 2
    num = _fact(big_j - 2 * l1) * _fact(big_j - 2 * l2) \
        * _fact(big_j - 2 * l3) * _fact(g) ** 2
    den = _fact(big_j + 1) \
        * (_fact(g - l1) * _fact(g - l2) * _fact(g - l3)) ** 2
    val = math.sqrt(num / den)
    return -val if g % 2 else val


@dataclass(frozen=True)
class ThreeJArgs:
    """Arguments of a Wigner 3j symbol (l1 l2 l3 / m1 m2 m3)."""

    l1: int
    l2: int
    l3: int
    m1: int
    m2: int
    m3: int


@lru_cache(maxsize=65536)
def _family_cached(l1, l2, m1, m2):
    jmin, f = _threej_rows(l1, l2, m1, m2)
    f = f[::-1, 0].copy()
    f.setflags(write=False)
    return int(jmin[0]), f


def threej_family(l1, l2, m1, m2):
    """All 3j(l1 l2 j; m1 m2, -(m1+m2)) over the allowed j range.

    Returns
    -------
    (jmin, f) : int, read-only ndarray
        f[i] is the symbol at j = jmin + i; the range ends at j = l1+l2.
    """
    if min(l1, l2) < 0 or abs(m1) > l1 or abs(m2) > l2:
        raise ValueError("invalid 3j family (l1=%r l2=%r m1=%r m2=%r)"
                         % (l1, l2, m1, m2))
    return _family_cached(int(l1), int(l2), int(m1), int(m2))


def wigner3j(args):
    """Wigner 3j symbol.

    Parameters
    ----------
    args : ThreeJArgs

    Returns
    -------
    float
        Exactly 0.0 for any selection-rule violation.
    """
    l1, l2, l3 = args.l1, args.l2, args.l3
    m1, m2, m3 = args.m1, args.m2, args.m3
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        if l != int(l) or m != int(m):
            raise ValueError("3j arguments must be integers")
        if l < 0 or abs(m) > l:
            return 0.0
    if m1 + m2 + m3 != 0:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    if m1 == 0 and m2 == 0 and m3 == 0:
        return threej_000(l1, l2, l3)
    jmin, fam = threej_family(l1, l2, m1, m2)
    return float(fam[l3 - jmin])


# Hard cap on the Bessel order of the one-order interface
L_CEILING = 100


@dataclass(frozen=True)
class ScaledBesselPair:
    """Scaled modified Bessel functions of half-integer order nu = l + 1/2.

    Attributes
    ----------
    order_half : float
        Order nu = l + 1/2.
    i_scaled, k_scaled : float
        I_nu(z)*e^{-z} and K_nu(z)*e^{+z}.
    di_scaled, dk_scaled : float
        I'_nu(z)*e^{-z} and K'_nu(z)*e^{+z}.
    z : float
        Argument, z > 0.
    log_i, log_k : float
        log I_nu(z) - z and log K_nu(z) + z.  Finite for all supported
        (l, z) even when the scaled values under/overflow doubles (deep
        small-z, large-l corner), so high-l consumers can work in logs.
    """

    order_half: float
    i_scaled: float
    k_scaled: float
    di_scaled: float
    dk_scaled: float
    z: float
    log_i: float
    log_k: float


def chain_scaled_values(chain):
    """(i, k, di, dk) scaled value vectors of a production Bessel chain.

    I e^{-z} and K e^{+z} from the chain's logs, and the derivatives from
    I'_nu = I_{nu+1} + (nu/z) I_nu and K'_nu = -K_{nu+1} + (nu/z) K_nu;
    entries outside the double range under/overflow to 0 or inf.
    """
    z = chain.z
    nu = np.arange(len(chain.rho)) + 0.5
    with np.errstate(over="ignore", under="ignore"):
        i_s = np.exp(chain.log_i)
        k_s = np.exp(chain.log_k)
        return (i_s, k_s, i_s * (chain.rho + nu / z),
                k_s * (nu / z - chain.sigma))


def k_chain_ref(n, z):
    """(sigma, log_k) of the half-order K chain at one z, l = 0..n.

    sigma[l] = K_{l+3/2}(z)/K_{l+1/2}(z) by the upward recurrence from the
    exact seed 1 + 1/z, one order at a time in Python floats, and log_k
    the seed log(K_{1/2}(z) e^z) = log(pi/(2z))/2 by math.log plus the
    running sum of log sigma: the one-argument arithmetic whose bytes
    every row of the batched chains must reproduce.
    """
    sigma = np.empty(n + 1)
    s = 1.0 + 1.0 / z  # K_{3/2}/K_{1/2}
    sigma[0] = s
    for l in range(1, n + 1):
        s = (2.0 * l + 1.0) / z + 1.0 / s
        sigma[l] = s
    log_k = np.empty(n + 1)
    log_k[0] = 0.5 * math.log(math.pi / (2.0 * z))
    log_k[1:] = log_k[0] + np.cumsum(np.log(sigma[:-1]))
    return sigma, log_k


def i_ratio_chain_ref(n, z):
    """rho[l] = I_{l+3/2}(z)/I_{l+1/2}(z) for l = 0..n at one z > 0.

    The downward continued fraction rho_l = 1/((2l+3)/z + rho_{l+1}) from
    rho = 0 at l = n + 80 + int(z), one step at a time in Python floats:
    the one-argument arithmetic whose bytes every row of the batched
    sweep (`specfun._i_ratio_rows`) must reproduce.
    """
    out = np.empty(n + 1)
    r = 0.0
    for l in range(n + 80 + int(z), -1, -1):
        r = 1.0 / ((2.0 * l + 3.0) / z + r)
        if l <= n:
            out[l] = r
    return out


def i_ratio_gap_ref(n, z, w, d):
    """(g, w rho(w)) for l = 0..n at one (z, w, d): g[l] = w rho_l(w) -
    z rho_l(z) with w^2 - z^2 = d z^2, one argument at a time in Python
    floats: the continued fractions z rho_l(z) = z^2/B_l, B_l = 2l + 3 +
    z rho_{l+1}(z), and likewise A_l at w, from the start n + 80 +
    int(max(z, w)), with g_l = (d z^2 B_l - z^2 g_{l+1})/(A_l B_l).  Every
    row of `specfun._i_gap_rows` must reproduce its bytes.
    """
    z2, w2 = z * z, w * w
    dz2 = d * z2
    g = np.empty(n + 1)
    wrho = np.empty(n + 1)
    gl = wr = zr = 0.0
    for l in range(n + 80 + int(max(z, w)), -1, -1):
        a = 2.0 * l + 3.0 + wr
        b = 2.0 * l + 3.0 + zr
        gl = (dz2 * b - z2 * gl) / (a * b)
        wr, zr = w2 / a, z2 / b
        if l <= n:
            g[l] = gl
            wrho[l] = wr
    return g, wrho


def bessel_chain_ref(n, z):
    """The BesselChain at one z, l = 0..n, built one argument at a time:
    the I ratios from the continued fraction `i_ratio_chain_ref` at z,
    log_i from the seed `_log_i_half_scaled(z)` plus the running sum of
    log rho, and the K side from `k_chain_ref`."""
    rho = i_ratio_chain_ref(n, z)
    log_i = np.empty(n + 1)
    log_i[0] = _log_i_half_scaled(z)
    log_i[1:] = log_i[0] + np.cumsum(np.log(rho[:-1]))
    sigma, log_k = k_chain_ref(n, z)
    return BesselChain(z=z, log_i=log_i, log_k=log_k, rho=rho, sigma=sigma)


def chain_row(l_max, z):
    """The production Bessel chain at one z, l = 0..l_max: the one row of
    `specfun._chain_rows`, with z a float and 1-D fields."""
    ch = _chain_rows(l_max, np.array([z], dtype=float))
    return BesselChain(z=z, log_i=ch.log_i[0], log_k=ch.log_k[0],
                       rho=ch.rho[0], sigma=ch.sigma[0])


def bessel_ik_half(l, z):
    """Scaled I_{l+1/2}(z), K_{l+1/2}(z) and derivatives.

    Parameters
    ----------
    l : int
        Order index, 0 <= l <= L_CEILING.
    z : float
        Argument, z > 0.

    Returns
    -------
    ScaledBesselPair

    Notes
    -----
    Relative accuracy is ~1e-13 or better for z in [1e-6, 1e4], l <= 100.
    In the extreme small-z / large-l corner the *scaled* K overflows the
    double range (K_{l+1/2}(z) ~ z^{-l-1/2}); log_k remains finite and
    accurate there, and i_scaled may underflow to 0 with finite log_i.
    """
    if l < 0 or l > L_CEILING:
        raise ValueError("order l=%r outside [0, %d]" % (l, L_CEILING))
    chain = chain_row(l, z)
    i_s, k_s, di_s, dk_s = chain_scaled_values(chain)
    return ScaledBesselPair(
        order_half=l + 0.5,
        i_scaled=float(i_s[l]),
        k_scaled=float(k_s[l]),
        di_scaled=float(di_s[l]),
        dk_scaled=float(dk_s[l]),
        z=float(z),
        log_i=float(chain.log_i[l]),
        log_k=float(chain.log_k[l]),
    )


def _sg_coeff_a(j, l1, l2, m3):
    x = (j * j - (l1 - l2) ** 2) * ((l1 + l2 + 1) ** 2 - j * j) * (j * j - m3 * m3)
    return math.sqrt(x) if x > 0 else 0.0


def _sg_coeff_b(j, l1, l2, m1, m2, m3):
    # pinned against exact rational 3j values (see tests): the middle
    # coefficient of the j-recursion is -(2j+1)[m3 X + (m1-m2) j(j+1)]
    return -(2 * j + 1) * (m3 * (l1 * (l1 + 1) - l2 * (l2 + 1))
                           + (m1 - m2) * j * (j + 1))


@lru_cache(maxsize=None)
def threej_family_ref(l1, l2, m1, m2):
    """f[j - jmin] = 3j(l1 l2 j; m1 m2 m3), j = jmin..l1+l2, m3 = -(m1+m2).

    The scalar two-sided Schulten-Gordon recursion, one family per call:
    the reference for the row-batched recursion `_threej_rows`.
    Matched at the forward maximum and normalized with
    sum (2j+1) f^2 = 1, sign (-1)^{l1-l2-m3} at j = l1+l2.  Returns a
    read-only array.
    """
    jmin, f = _sg_family(l1, l2, m1, m2)
    f.setflags(write=False)
    return jmin, f


def _sg_family(l1, l2, m1, m2):
    m3 = -(m1 + m2)
    jmin = max(abs(l1 - l2), abs(m3))
    jmax = l1 + l2
    sign_top = -1.0 if (l1 - l2 - m3) % 2 else 1.0
    npts = jmax - jmin + 1
    if npts == 1:
        return jmin, np.array([sign_top / math.sqrt(2.0 * jmin + 1.0)])
    if m1 == 0 and m2 == 0:
        # degenerate recursion (all B vanish); use the closed form per j
        return jmin, np.array([threej_000(l1, l2, j) for j in range(jmin, jmax + 1)])

    f = np.zeros(npts)

    def a_of(j):
        return _sg_coeff_a(j, l1, l2, m3)

    def b_of(j):
        return _sg_coeff_b(j, l1, l2, m1, m2, m3)

    # forward pass from jmin
    f[0] = 1.0
    if jmin == 0:
        # only possible for l1 == l2, m3 == 0; seed f(1) from the closed form
        l, m = l1, m1
        f[0] = (1.0 if (l - m) % 2 == 0 else -1.0) / math.sqrt(2.0 * l + 1.0)
        f[1] = (1.0 if (l - m) % 2 == 0 else -1.0) * 2.0 * m \
            / math.sqrt((2.0 * l + 2.0) * (2.0 * l + 1.0) * 2.0 * l)
    # A(j) at the step's j, carried over from the step before: each step
    # evaluates A at j + 1 alone
    a_j = a_of(jmin + 1)
    if jmin != 0:
        # A(jmin) = 0, so the three-term relation at j = jmin is two-term
        f[1] = -b_of(jmin) * f[0] / (jmin * a_j)
    i_stop = npts - 1
    drops = 0
    for i in range(1, npts - 1):
        j = jmin + i
        a_next = a_of(j + 1)
        f[i + 1] = -(b_of(j) * f[i] + (j + 1) * a_j * f[i - 1]) \
            / (j * a_next)
        a_j = a_next
        if abs(f[i + 1]) > _RESCALE:
            f[:i + 2] /= _RESCALE
        if abs(f[i + 1]) < abs(f[i]):
            drops += 1
            if drops >= 2:  # safely inside the oscillatory region
                i_stop = i + 1
                break
        else:
            drops = 0
    i_match = int(np.argmax(np.abs(f[:i_stop + 1])))
    if i_match == i_stop and i_stop < npts - 1:
        i_stop += 1  # keep one backward point beyond the match index

    # backward pass from jmax down to the match index
    g = np.zeros(npts)
    g[-1] = 1.0
    a_hi = a_of(jmax)  # A(j + 1) of the step, carried down likewise
    g[-2] = -b_of(jmax) * g[-1] / ((jmax + 1) * a_hi)
    for i in range(npts - 3, i_match - 1, -1):
        j = jmin + i + 1
        a_j = a_of(j)
        g[i] = -(j * a_hi * g[i + 2] + b_of(j) * g[i + 1]) \
            / ((j + 1) * a_j)
        a_hi = a_j
        if abs(g[i]) > _RESCALE:
            g[i:] /= _RESCALE
    scale = f[i_match] / g[i_match]
    f[i_match:] = g[i_match:] * scale

    j_all = np.arange(jmin, jmax + 1, dtype=float)
    norm = math.sqrt(float(np.sum((2.0 * j_all + 1.0) * f * f)))
    f /= norm
    if f[-1] * sign_top < 0.0:
        f = -f
    return jmin, f


def bessel_i_scaled_ref(l, z, prec=80):
    """I_{l+1/2}(z) e^{-z} via mpmath."""
    with mp.workdps(prec):
        return float(mp.besseli(mp.mpf(2 * l + 1) / 2, z) * mp.exp(-mp.mpf(z)))


def bessel_i_ratio_ref(l, z, prec=60):
    """I_{l+3/2}(z) / I_{l+1/2}(z) via mpmath."""
    with mp.workdps(prec):
        nu = mp.mpf(2 * l + 1) / 2
        return float(mp.besseli(nu + 1, z) / mp.besseli(nu, z))


def bessel_k_scaled_ref(l, z, prec=80):
    """K_{l+1/2}(z) e^{+z} via mpmath."""
    with mp.workdps(prec):
        return float(mp.besselk(mp.mpf(2 * l + 1) / 2, z) * mp.exp(mp.mpf(z)))


def bessel_log_i_ref(l, z, prec=120):
    """log I_{l+1/2}(z) - z via mpmath."""
    with mp.workdps(prec):
        return float(mp.log(mp.besseli(mp.mpf(2 * l + 1) / 2, z)) - z)


def bessel_log_k_ref(l, z, prec=120):
    """log K_{l+1/2}(z) + z via mpmath."""
    with mp.workdps(prec):
        return float(mp.log(mp.besselk(mp.mpf(2 * l + 1) / 2, z)) + z)


def bessel_di_scaled_ref(l, z, prec=80):
    """I'_{l+1/2}(z) e^{-z} via mpmath (central-difference-free identity)."""
    with mp.workdps(prec):
        nu = mp.mpf(2 * l + 1) / 2
        znum = mp.mpf(z)
        val = mp.besseli(nu + 1, znum) + nu / znum * mp.besseli(nu, znum)
        return float(val * mp.exp(-znum))


def bessel_dk_scaled_ref(l, z, prec=80):
    """K'_{l+1/2}(z) e^{+z} via mpmath."""
    with mp.workdps(prec):
        nu = mp.mpf(2 * l + 1) / 2
        znum = mp.mpf(z)
        val = -mp.besselk(nu + 1, znum) + nu / znum * mp.besselk(nu, znum)
        return float(val * mp.exp(znum))


def sph_i_tilde(l, z, prec=80):
    """Modified spherical Bessel i_l(z) = sqrt(pi/(2z)) I_{l+1/2}(z), unscaled."""
    with mp.workdps(prec):
        znum = mp.mpf(z)
        return mp.sqrt(mp.pi / (2 * znum)) * mp.besseli(mp.mpf(2 * l + 1) / 2, znum)


def sph_k_tilde(l, z, prec=80):
    """Modified spherical Bessel k_l(z) = sqrt(2/(pi z)) K_{l+1/2}(z), unscaled."""
    with mp.workdps(prec):
        znum = mp.mpf(z)
        return mp.sqrt(2 / (mp.pi * znum)) * mp.besselk(mp.mpf(2 * l + 1) / 2, znum)


# ---------------------------------------------------------------------------
# Vector multipole evaluators (numpy precision, independent of casphere
# conventions except for the shared spherical-harmonic normalization).
# ---------------------------------------------------------------------------

def _sph_basis():
    return {
        +1: np.array([-1.0, -1.0j, 0.0]) / math.sqrt(2.0),
        0: np.array([0.0, 0.0, 1.0]),
        -1: np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0),
    }


def clebsch_exact_sq(j1, m1, j2, m2, J, M):
    """Signed square c|c| of c = <j1 m1; j2 m2 | J M>, an exact Fraction,
    from the exact 3j square."""
    if m1 + m2 != M:
        return Fraction(0)
    sign, sq = threej_exact_sq(j1, j2, J, m1, m2, -M)
    if (j1 - j2 + M) % 2:
        sign = -sign
    return sign * (2 * J + 1) * sq


@lru_cache(maxsize=None)
def em_weight_squares_ref(j, m, q):
    """The four EM recoupling weights at J = j, order m and q, as exact
    signed squares c|c| (Fractions) from `clebsch_exact_sq`:

    t_m  = <J, m-q; 1 q | J m>,
    t_e  = <J-1, m-q; 1 q | J m> / aR(J),
    c_lo = -aR(J) <J-1, m-q; 1 q | J m>,
    c_hi = -bR(J) <J+1, m-q; 1 q | J m>,

    with aR = sqrt((J+1)/(2J+1)) and bR = sqrt(J/(2J+1)), J >= 1.
    """
    cg0, cgm, cgp = (clebsch_exact_sq(j + dj, m - q, 1, q, j, m)
                     for dj in (0, -1, 1))
    return (cg0, cgm * Fraction(2 * j + 1, j + 1),
            -cgm * Fraction(j + 1, 2 * j + 1), -cgp * Fraction(j, 2 * j + 1))


def clebsch(j1, m1, j2, m2, J, M):
    """<j1 m1; j2 m2 | J M> from the exact 3j square, correctly rounded."""
    sq = clebsch_exact_sq(j1, m1, j2, m2, J, M)
    if sq == 0:
        return 0.0
    with mp.workdps(40):
        val = mp.sqrt(mp.mpf(abs(sq.numerator)) / sq.denominator)
    return float(val if sq > 0 else -val)


def vector_harmonic(J, L, m, th, ph):
    """Y_{JLm} as a cartesian complex 3-vector."""
    from scipy.special import sph_harm_y
    basis = _sph_basis()
    out = np.zeros(3, dtype=complex)
    for q in (-1, 0, 1):
        mu = m - q
        if abs(mu) > L:
            continue
        out = out + clebsch(L, mu, 1, q, J, m) * sph_harm_y(L, mu, th, ph) \
            * basis[q]
    return out


def vector_wave(kind, pol, J, m, kappa, x):
    """Vector multipole M/N_{Jm} with regular ("i") or outgoing ("k") kernel.

    Electric waves via their exact orbital decomposition; see
    `vector_wave_curl_fd` for the independent curl-based check.
    """
    r = float(np.linalg.norm(x))
    th = math.acos(x[2] / r)
    ph = math.atan2(x[1], x[0])
    if kind == "i":
        rad = lambda l: float(sph_i_tilde(l, kappa * r))
    else:
        rad = lambda l: float(sph_k_tilde(l, kappa * r))
    if pol == "M":
        return rad(J) * vector_harmonic(J, J, m, th, ph)
    a = math.sqrt((J + 1) / (2 * J + 1))
    b = math.sqrt(J / (2 * J + 1))
    s = 1.0 if kind == "i" else -1.0
    return s * (a * rad(J - 1) * vector_harmonic(J, J - 1, m, th, ph)
                + b * rad(J + 1) * vector_harmonic(J, J + 1, m, th, ph))


def vector_wave_curl_fd(kind, J, m, kappa, x, h=1e-6):
    """Electric wave N_{Jm} = (1/(i kappa)) curl M_{Jm} by finite differences."""

    def mfun(y):
        return vector_wave(kind, "M", J, m, kappa, y)

    grad = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        grad[j] = (8 * (mfun(x + dx) - mfun(x - dx))
                   - (mfun(x + 2 * dx) - mfun(x - 2 * dx))) / (12 * h)
    curl = np.array([grad[1, 2] - grad[2, 1],
                     grad[2, 0] - grad[0, 2],
                     grad[0, 1] - grad[1, 0]])
    return curl / (1j * kappa)


# ---------------------------------------------------------------------------
# T-matrix references (direct high-precision evaluation of the closed forms)
# ---------------------------------------------------------------------------

def t_scalar_ref(zeta, l, z):
    """(-1)^l (pi/2) [(1/z+1/2)I - zI']/[(1/z+1/2)K - zK'] at nu = l + 1/2.

    zeta = 0 means Dirichlet, zeta = None means Neumann (drop 1/zeta terms).
    """
    with mp.workdps(60):
        zm = mp.mpf(z)
        nu = mp.mpf(2 * l + 1) / 2
        iv = mp.besseli(nu, zm)
        kv = mp.besselk(nu, zm)
        div = mp.besseli(nu - 1, zm) - (nu / zm) * iv
        dkv = -mp.besselk(nu - 1, zm) - (nu / zm) * kv
        if zeta is None:  # only the 1/zeta terms drop; the 1/2 stays
            num = iv / 2 - zm * div
            den = kv / 2 - zm * dkv
        elif zeta == 0:
            num, den = iv, kv
        else:
            c = 1 / mp.mpf(zeta) + mp.mpf(1) / 2
            num = c * iv - zm * div
            den = c * kv - zm * dkv
        return float((-1) ** l * (mp.pi / 2) * num / den)


def t_em_ref(eps, mu, l, z):
    """(T_M, T_E) of a dielectric sphere from the spherical Mie brackets."""
    with mp.workdps(60):
        epsm, mum, zm = mp.mpf(eps), mp.mpf(mu), mp.mpf(z)
        n = mp.sqrt(epsm * mum)

        def it(x):
            return mp.sqrt(mp.pi / (2 * x)) * mp.besseli(l + mp.mpf(1) / 2, x)

        def kt(x):
            return mp.sqrt(2 / (mp.pi * x)) * mp.besselk(l + mp.mpf(1) / 2, x)

        def wi(x):
            return it(x) + x * mp.diff(it, x)

        def wk(x):
            return kt(x) + x * mp.diff(kt, x)

        out = []
        for pol in ("M", "E"):
            eta = mp.sqrt(epsm / mum) if pol == "M" else mp.sqrt(mum / epsm)
            num = eta * it(zm) * wi(n * zm) - n * it(n * zm) * wi(zm)
            den = eta * kt(zm) * wi(n * zm) - n * it(n * zm) * wk(zm)
            out.append(float(-(-1) ** l * (-num / den)))
        return tuple(out)


# ---------------------------------------------------------------------------
# Translation blocks in signed-log form: a direct per-(l_max, m) evaluation
# of the 3j sum over k_{l''}, with the electromagnetic blocks recoupled by
# peak-shifted signed-log sums.  The production kernel, which runs the
# coaxial recurrences instead, must match these.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)
def w_kernel(l_max):
    """3j kernel W[m, l', l, k] of the translation sum (read-only).

    W = -(-1)^{l+m} sqrt((2l+1)(2l'+1)) (2l''+1) 3j(l l' l''; 0 0 0)
    3j(l l' l''; m -m 0) at l'' = l' + l - 2k; zero for m or k above
    min(l', l).  The l'' of the other parity have 3j(l l' l''; 0 0 0) = 0
    and are not stored.  One `_threej_rows` batch per top order
    max(l', l) holds its families (top, lo; m, -m), m <= lo <= top;
    3j(l l' l''; m -m 0) is symmetric in l and l', so each family serves
    both halves, W[m, lo, top] = (-1)^{top+lo} W[m, top, lo].
    """
    n = l_max + 1
    w = np.zeros((n, n, n, n))
    for top in range(n):
        lo, m = np.array([(b, mb) for b in range(top + 1)
                          for mb in range(b + 1)]).T
        _, f = _threej_rows(top, lo, m, -m)
        f = f[::2]
        k = np.arange(top + 1)[:, None]
        lv = np.arange(top + 1)
        base = f[:, m == 0] * (2.0 * (top + lv - 2 * k) + 1.0) * np.sqrt(
            (2.0 * top + 1.0) * (2.0 * lv + 1.0))
        if top % 2 == 0:
            base = -base
        base = base[:, lo] * np.where(m % 2 == 0, 1.0, -1.0)
        mirror = np.where((top + lo) % 2 == 0, 1.0, -1.0)
        w[m, lo, top, :top + 1] = np.where(k <= lo, base * f, 0.0).T
        w[m, top, lo, :top + 1] = np.where(k <= lo, base * mirror * f, 0.0).T
    w.setflags(write=False)
    return w


def translation_oracle_reset():
    w_kernel.cache_clear()


def u_log_block_ref(l_max, m, x, direction="12"):
    """(sign, logmag) with sign * exp(logmag) = U^{direction}(m) e^{+x}.

    U e^{x} = S k_{l'+l}(x) e^{x} with S = sum_k W[m, l', l, k]
    k_{l'+l-2k}(x)/k_{l'+l}(x), each ratio a product of the chain's
    k_j/k_{j+2} <= 1, formed and summed in extended precision: at large x
    the sum cancels to far below its terms.
    """
    if direction == "21":
        s, lg = u_log_block_ref(l_max, m, x, "12")
        return s.T.copy(), lg.T.copy()
    m = abs(m)
    n = l_max + 1
    sigma, log_k = k_chain_ref(2 * l_max, x)
    log_k = log_k + 0.5 * math.log(2.0 / (math.pi * x))
    sigma = sigma.astype(np.longdouble)
    # step[j] = k_j/k_{j+2}; r[L, k] = k_{L-2k}/k_L, 0 for 2k > L
    step = 1.0 / (sigma[:-2] * sigma[1:-1])
    r = np.zeros((2 * n - 1, n), dtype=np.longdouble)
    r[:, 0] = 1.0
    with np.errstate(under="ignore"):
        for k in range(1, n):
            r[2 * k:, k] = r[2 * k:, k - 1] * step[:2 * n - 1 - 2 * k]
    lsum = np.add.outer(np.arange(n), np.arange(n))
    s = np.sum(w_kernel(l_max)[m] * r[lsum], axis=-1).astype(float)
    with np.errstate(divide="ignore"):
        return np.sign(s), np.log(np.abs(s)) + log_k[lsum]


def _signed_log_sum(parts):
    """Sum [(coef, sign, logmag)] -> (sign, logmag) elementwise."""
    peak = None
    for coef, sgn, lg in parts:
        with np.errstate(invalid="ignore"):
            cand = np.where(coef != 0.0, lg + np.log(np.abs(np.where(
                coef != 0.0, coef, 1.0))), -np.inf)
        peak = cand if peak is None else np.maximum(peak, cand)
    ok = np.isfinite(peak)
    safe = np.where(ok, peak, 0.0)
    acc = np.zeros_like(peak)
    for coef, sgn, lg in parts:
        with np.errstate(under="ignore", invalid="ignore"):
            term = np.where(sgn != 0, coef * sgn * np.exp(lg - safe), 0.0)
        acc += term
    sign = np.sign(acc)
    with np.errstate(divide="ignore"):
        logmag = np.where(acc != 0.0, np.log(np.abs(np.where(
            acc != 0.0, acc, 1.0))) + peak, -np.inf)
    logmag[~ok] = -np.inf
    sign[~ok] = 0.0
    return sign, logmag


def em_weights_3j(l_max, m):
    """The Clebsch-Gordan weights of the EM recoupling from one batch of
    3j families: for q in (-1, 0, +1) and J = 0..l_max+1, w0[q][J] =
    <J, m-q; 1 q | J m>, wm[q][J] = <J-1, ...> and wp[q][J] = <J+1, ...>,
    zero below max(1, |m|), and the electric constants aR, bR.  m is one
    order or an array of orders, whose shape leads those of w0, wm and
    wp.  `translation._em_weight_squares` holds the same coefficients,
    with aR and bR folded in, as exact squares.

    One family (J' 1 J; m-q, q, -m) per (m, q, J'): from the top it holds
    J = J'+1, J', J'-1, i.e. wm[J'+1], w0[J'] and wp[J'-1], with
    <j1 m1; 1 q | J m> = (-1)^{j1-1+m} sqrt(2J+1) 3j(j1 1 J; m1 q -m).
    """
    n = l_max + 2
    m = np.asarray(m)
    mq, q, jp = np.broadcast_arrays(
        m[..., None, None], np.arange(-1, 2)[:, None], np.arange(n + 1))
    ok = np.abs(mq - q) <= jp
    at = np.nonzero(ok)[:-2]
    mq, q, jp = mq[ok], q[ok], jp[ok]
    _, f = _threej_rows(jp, 1, mq - q, q)
    sign = np.where((jp - 1 + mq) % 2 == 1, -1.0, 1.0)
    w = np.zeros((3,) + m.shape + (3, n))
    for t in range(f.shape[0]):
        jj = jp + 1 - t
        r = (jj >= np.maximum(1, np.abs(mq))) & (jj < n)
        w[(t,) + tuple(i[r] for i in at) + (q[r] + 1, jj[r])] = \
            sign[r] * np.sqrt(2.0 * jj[r] + 1.0) * f[t, r]
    wm, w0, wp = w
    jv = np.arange(n, dtype=float)
    a_r = np.sqrt((jv + 1.0) / (2.0 * jv + 1.0))
    b_r = np.sqrt(jv / (2.0 * jv + 1.0))
    return w0, wm, wp, a_r, b_r


def em_log_blocks_ref(l_max, m, x, direction="12"):
    """{"MM", "MN", "NM", "NN"} -> (sign, logmag) of G^{PP'} e^{+x}.

    Recouples the 3j-sum scalar blocks with the 3j-route weights."""
    if direction == "21":
        fwd = em_log_blocks_ref(l_max, m, x, "12")
        jv = np.arange(l_max + 1)
        par = np.where((jv[:, None] + jv[None, :]) % 2 == 0, 1.0, -1.0)
        return {key: (fwd[key][0] * par * flip, fwd[key][1])
                for key, flip in (("MM", 1.0), ("MN", -1.0), ("NM", -1.0),
                                  ("NN", 1.0))}
    m = int(m)
    n = l_max + 1
    w0, wm, wp, a_r, b_r = em_weights_3j(l_max, m)
    ublocks = {}
    for mu in {abs(m - 1), abs(m), abs(m + 1)}:
        s, lg = u_log_block_ref(l_max + 1, mu, x, "12")
        sp = np.zeros((l_max + 3, l_max + 3))
        lp = np.full((l_max + 3, l_max + 3), -np.inf)
        sp[1:, 1:] = s
        lp[1:, 1:] = lg
        ublocks[mu] = (sp, lp)
    jlo = max(1, abs(m))

    def upart(mu, roff, coff):
        s, lg = ublocks[abs(mu)]
        return (s[1 + roff:1 + roff + n, 1 + coff:1 + coff + n],
                lg[1 + roff:1 + roff + n, 1 + coff:1 + coff + n])

    a_o = -a_r[:n]
    b_o = -b_r[:n]
    blocks = {}
    for key in ("MM", "MN", "NM", "NN"):
        parts = []
        for iq, q in enumerate((-1, 0, 1)):
            mu = m - q
            if key == "MM":
                s, lg = upart(mu, 0, 0)
                parts.append((np.outer(w0[iq, :n], w0[iq, :n]), s, lg))
            elif key == "NM":
                s, lg = upart(mu, -1, 0)
                parts.append((np.outer(wm[iq, :n] / a_r[:n], w0[iq, :n]),
                              s, lg))
            elif key == "MN":
                w_t = w0[iq, :n]
                s, lg = upart(mu, 0, -1)
                parts.append((np.outer(w_t, a_o * wm[iq, :n]), s, lg))
                s, lg = upart(mu, 0, +1)
                parts.append((np.outer(w_t, b_o * wp[iq, :n]), s, lg))
            else:
                w_t = wm[iq, :n] / a_r[:n]
                s, lg = upart(mu, -1, -1)
                parts.append((np.outer(w_t, a_o * wm[iq, :n]), s, lg))
                s, lg = upart(mu, -1, +1)
                parts.append((np.outer(w_t, b_o * wp[iq, :n]), s, lg))
        sign, logmag = _signed_log_sum(parts)
        if m == 0 and key in ("MN", "NM"):
            sign = np.zeros_like(sign)
            logmag = np.full_like(logmag, -np.inf)
        sign[:jlo, :] = 0.0
        sign[:, :jlo] = 0.0
        logmag[:jlo, :] = -np.inf
        logmag[:, :jlo] = -np.inf
        blocks[key] = (sign, logmag)
    return blocks


def node_kernel_ref(l_max, x, em=False):
    """(blocks, log_scale) of the "12" translation kernel at one x, built
    one x and one order m at a time: from the one-argument K chain
    `k_chain_ref`, the seed column S_{l'0}(0) = -sqrt(2l'+1), the
    sectorial step from order m - 1 to order m and the l step along each
    order, with the recurrence coefficients from Python integers; then
    the EM recoupling one m stack at a time.  The same arithmetic per
    entry, on the same rows, as the batched kernel, so its rows must
    match these bytes.
    """
    from casphere.translation import _em_weight_stack

    def a_coef(j, m):
        # a_j^m, zero for j < m
        if j < m:
            return 0.0
        return math.sqrt((j + 1 + m) * (j + 1 - m)
                         / ((2 * j + 1) * (2 * j + 3)))

    def s_blocks(order, sigma):
        n = order + 1
        rows = 2 * order + 2  # one zero row, then l' = 0..2 order
        # k2[L] = k_{L-1}/k_{L+1}, 0 at L = 0
        k2 = np.zeros(2 * order)
        k2[1:] = 1.0 / (sigma[:2 * order - 1] * sigma[1:2 * order])
        s = np.zeros((n, n, n))
        sect = np.zeros(rows)
        sect[1:] = -np.sqrt(2.0 * np.arange(2 * order + 1) + 1.0)
        for m in range(n):
            if m:
                # S_{l'm}(m) from S_{l'-1,m-1}(m-1) and S_{l'+1,m-1}(m-1)
                lp = np.arange(m, 2 * order - m + 1)
                alpha = -np.array([math.sqrt(
                    (2 * m + 1) * (j + m - 1) * (j + m)
                    / (2 * m * (2 * j - 1) * (2 * j + 1))) for j in lp])
                beta = np.array([math.sqrt(
                    (2 * m + 1) * (j - m + 1) * (j - m + 2)
                    / (2 * m * (2 * j + 1) * (2 * j + 3))) for j in lp])
                new = np.zeros(rows)
                new[lp + 1] = (alpha * sect[lp] * k2[lp + m - 1]
                               + beta * sect[lp + 2])
                sect = new
            a = np.array([a_coef(j, m) for j in range(-1, 2 * order + 1)])
            na = -a
            prev, cur = np.zeros(rows), sect
            s[m, :, m] = cur[1:n + 1]
            for l in range(m, order):
                hi = 2 * order - l
                nxt = np.zeros(rows)
                with np.errstate(under="ignore"):
                    nxt[1:hi + 1] = (
                        na[1:hi + 1] * cur[2:hi + 2]
                        + (na[:hi] * cur[:hi] + na[l] * prev[1:hi + 1])
                        * k2[l:l + hi]) / a[l + 1]
                prev, cur = cur, nxt
                s[m, :, l + 1] = cur[1:n + 1]
        return s

    n = l_max + 1
    lv = np.arange(n)
    lsum = lv[:, None] + lv[None, :]
    sigma, log_k = k_chain_ref(2 * l_max + (2 if em else 0), x)
    log_k = log_k + 0.5 * math.log(2.0 / (math.pi * x))
    if not em:
        return s_blocks(l_max, sigma), log_k[lsum]
    s = s_blocks(l_max + 1, sigma)
    inv = np.concatenate([[0.0, 0.0], 1.0 / sigma])
    ratio = {1: 1.0, 0: inv[lsum + 2]}
    ratio[-1] = ratio[0] * inv[lsum + 1]
    ratio[-2] = ratio[-1] * inv[lsum]
    t_m, t_e, c_lo, c_hi = _em_weight_stack(l_max)
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
        g[:, :, 0, :, 0] += tm * cm * part(0, 0)
        g[:, :, 1, :, 0] += te * cm * part(-1, 0)
        g[:, :, 0, :, 1] += tm * (clo * part(0, -1) + chi * part(0, 1))
        g[:, :, 1, :, 1] += te * (clo * part(-1, -1) + chi * part(-1, 1))
    g[0, :, 0, :, 1] = 0.0
    g[0, :, 1, :, 0] = 0.0
    live = np.arange(n)[None, :] >= np.maximum(1, ms)[:, None]
    g *= (live[:, :, None, None, None] & live[:, None, None, :, None])
    log_scale = np.repeat(np.repeat(log_k[lsum + 1], 2, 0), 2, 1)
    return g.reshape(n, 2 * n, 2 * n), log_scale


# ---------------------------------------------------------------------------
# leading-minor determinants: the per-matrix rank-1 elimination
# ---------------------------------------------------------------------------

def leading_lndets_ref(nmat):
    """(signs, lndets) of the leading principal minors of 1 - nmat.

    One matrix at a time, one rank-1 `np.outer` update per row, with the
    pivot logs accumulated through math.log1p; a pivot below 1e-13 or
    not finite falls back to slogdet of every leading minor.
    """
    n = nmat.shape[0]
    b = nmat.copy()
    signs = np.empty(n)
    lndets = np.empty(n)
    sign = 1.0
    acc = 0.0
    for k in range(n):
        bkk = b[k, k]
        piv = 1.0 - bkk
        if not np.isfinite(piv) or abs(piv) < 1e-13:
            a = np.eye(n) - nmat
            return tuple(np.array(v) for v in zip(*(
                np.linalg.slogdet(a[:j + 1, :j + 1]) for j in range(n))))
        sign *= 1.0 if piv > 0 else -1.0
        acc += math.log1p(-bkk) if piv > 0 else math.log(-piv)
        signs[k] = sign
        lndets[k] = acc
        if k + 1 < n:
            b[k + 1:, k + 1:] += np.outer(b[k + 1:, k], b[k, k + 1:]) / piv
    return signs, lndets


def leading_lndets_mp(nmat, dps=50):
    """ln|det| of every leading principal minor of 1 - nmat, in dps-digit
    arithmetic: one unpivoted elimination of the exact float entries,
    each minor the running sum of its pivot logs."""
    n = nmat.shape[0]
    with mp.workdps(dps):
        a = mp.eye(n) - mp.matrix(nmat.tolist())
        acc = mp.mpf(0)
        lndets = np.empty(n)
        for k in range(n):
            acc += mp.log(abs(a[k, k]))
            lndets[k] = float(acc)
            for i in range(k + 1, n):
                f = a[i, k] / a[k, k]
                for j in range(k + 1, n):
                    a[i, j] -= f * a[k, j]
    return lndets


# ---------------------------------------------------------------------------
# large-distance series: exact translation factors from the 3j sum, and the
# slot-by-slot chain enumeration
# ---------------------------------------------------------------------------

def _exact_root(sq):
    """sign(sq) sqrt(|sq|) of a rational sq whose |sq| is a perfect square."""
    num, den = abs(sq.numerator), sq.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ArithmeticError("sqrt(%s) is not rational" % abs(sq))
    return Fraction(rn if sq > 0 else -rn, rd)


def _w_ref(l, m):
    """Scalar slot weight (2l+1)(l+m)!(l-m)!."""
    return (2 * l + 1) * _fact(l + m) * _fact(l - m)


def _w_em_ref(j, m):
    """EM slot weight (2J+1)(J+m)!(J-m)! J(J+1)."""
    return _w_ref(j, m) * j * (j + 1)


@lru_cache(maxsize=None)
def g_series_ref(l_out, l_in, m):
    """Translation factor G as a Laurent dict {kpow: c}, from the 3j sum.

    U_{l_out,l_in}(m) = sqrt(w(l_out, m) w(l_in, m)) G(x) e^{-x} with
    w(l, m) = (2l+1)(l+m)!(l-m)!, and the 3j sum of the translation
    notes gives

        G = -(-1)^{l_in+m} sum_{l3} (2 l3 + 1) 3j(l_in l_out l3; 0 0 0)
            3j(l_in l_out l3; m -m 0) k~_{l3}(x)
            / sqrt((l_in+m)! (l_in-m)! (l_out+m)! (l_out-m)!),

    k~_l(x) = sum_i (l+i)!/(i!(l-i)! 2^i) x^-(i+1) the Laurent part of
    k_l.  Each term's coefficient is the exact root of the product of
    the two exact 3j squares over the factorials.  Empty for m above
    min(l_out, l_in).
    """
    if m > min(l_out, l_in):
        return {}
    unfold = Fraction(1, _fact(l_in + m) * _fact(l_in - m)
                      * _fact(l_out + m) * _fact(l_out - m))
    sign = -1 if (l_in + m) % 2 == 0 else 1
    out = {}
    for l3 in range(abs(l_out - l_in), l_out + l_in + 1, 2):
        s0, q0 = threej_exact_sq(l_in, l_out, l3, 0, 0, 0)
        s1, q1 = threej_exact_sq(l_in, l_out, l3, m, -m, 0)
        if s0 * s1 == 0:
            continue
        c = sign * (2 * l3 + 1) * _exact_root(s0 * s1 * q0 * q1 * unfold)
        for i in range(l3 + 1):
            out[-(i + 1)] = out.get(-(i + 1), 0) + c * Fraction(
                _fact(l3 + i), _fact(i) * _fact(l3 - i) * 2 ** i)
    return {k: v for k, v in out.items() if v != 0}


@lru_cache(maxsize=None)
def em_block_ref(key, jr, jc, m):
    """EM translation block "12" at (J' = jr, J = jc) as {kpow: c}.

    The recoupling of `translation._em_recouple` on `g_series_ref`, with
    the weights from exact 3j squares (`em_weight_squares_ref`): key
    pairs the target and source polarizations, "M" or "E", and the block
    is sqrt(W(J', m) W(J, m)) times the returned Laurent series, W(J, m)
    = w(J, m) J(J+1).  A magnetic row or column reads the orbital J
    channel with weight t_m; an electric row the J'-1 channel with t_e;
    an electric column the J-1 channel with c_lo and the J+1 channel
    with c_hi.
    """
    w_pair = _w_em_ref(jr, m) * _w_em_ref(jc, m)
    total = {}
    for q in (-1, 0, 1):
        mu = m - q
        rw = em_weight_squares_ref(jr, m, q)
        cw = em_weight_squares_ref(jc, m, q)
        row, l_row = (rw[0], jr) if key[0] == "M" else (rw[1], jr - 1)
        parts = (((cw[0], jc),) if key[1] == "M"
                 else ((cw[2], jc - 1), (cw[3], jc + 1)))
        for col, l_col in parts:
            g = g_series_ref(l_row, l_col, abs(mu))
            if not (row and col and g):
                continue
            c = _exact_root(row * col * Fraction(
                _w_ref(l_row, abs(mu)) * _w_ref(l_col, abs(mu)), w_pair))
            for kp, v in g.items():
                total[kp] = total.get(kp, 0) + c * v
    return {k: v for k, v in total.items() if v != 0}


def _t_slot_scalar_ref(law, l, r_cap):
    """Taylor monomials {(r, r): c} of one internal-sign scalar T entry."""
    lead = 2 * l + 1
    if lead > r_cap:
        return {}
    coeffs = robin_series_ref(_effective_zeta(law), l, r_cap - lead + 1)
    return {(lead + k, lead + k): c for k, c in enumerate(coeffs) if c != 0}


def chain_trace_scalar_ref(t1, t2, p, l_cut, r_cap):
    """Monomials of sum_m tr N_m^p, one closed chain of slots at a time.

    Enumerates every (l_cut+1)^(2p) slot tuple and, for each m up to the
    smallest slot, multiplies T1 U12 T2 U21 ... around the chain with the
    radical-free factors G of `g_series_ref` and the integer slot weights
    w.
    """
    lead1 = {l: min(r for r, _ in d) if d else None for l, d in t1.items()}
    lead2 = {l: min(r for r, _ in d) if d else None for l, d in t2.items()}
    g12 = lru_cache(maxsize=None)(lambda lo, li, m: {
        (0, kp): c for kp, c in g_series_ref(lo, li, m).items()})
    # U21 = (U12)^T, and the radical sqrt(w w) is symmetric
    g21 = lru_cache(maxsize=None)(lambda lo, li, m: g12(li, lo, m))
    acc = {}
    for slots in product(range(l_cut + 1), repeat=2 * p):
        base = 0
        for i, l in enumerate(slots):
            lv = lead1[l] if i % 2 == 0 else lead2[l]
            if lv is None:
                base = r_cap + 1
                break
            base += lv
        if base > r_cap:
            continue
        for m in range(min(slots) + 1):
            wm = 1 if m == 0 else 2
            term = {(0, 0): Fraction(1)}
            for i in range(p):
                a, b = slots[2 * i], slots[2 * i + 1]
                nxt = slots[(2 * i + 2) % (2 * p)]
                term = _mono_mul(term, t1[a], r_cap)
                term = _mono_mul(term, g12(a, b, m), r_cap)
                term = _mono_mul(term, t2[b], r_cap)
                term = _mono_mul(term, g21(b, nxt, m), r_cap)
                if not term:
                    break
                wm *= _w_ref(a, m) * _w_ref(b, m)
            for key, c in term.items():
                acc[key] = acc.get(key, Fraction(0)) + wm * c
    return acc


def scalar_series_ref(law1, law2, p_max, l_cut):
    """{j: b_j} of `expand_scalar` from the slot enumeration.

    A monomial c (kappa R)^r kappa^k of tr N^p adds
    -c k! / (2p (2p)^(k+1)) to b_{r+1}; orders whose chains all start
    past the window are skipped.
    """
    j_max = 2 * p_max + 2
    r_cap = j_max - 1
    t1 = {l: _t_slot_scalar_ref(law1, l, r_cap) for l in range(l_cut + 1)}
    t2 = {l: _t_slot_scalar_ref(law2, l, r_cap) for l in range(l_cut + 1)}
    lead = sum(3 if _effective_zeta(law) is None else 1
               for law in (law1, law2))
    out = {j: Fraction(0) for j in range(3, j_max + 1)}
    for p in range(1, p_max + 1):
        if p * lead > r_cap:
            continue
        for (rp, kp), c in chain_trace_scalar_ref(t1, t2, p, l_cut,
                                                  r_cap).items():
            out[rp + 1] -= c * Fraction(math.factorial(kp),
                                        2 * p * (2 * p) ** (kp + 1))
    return out


def node_stack_ref(pairs, nsph, pol, l_min):
    """Every m-block N_m of one node, padded, each (sphere a, sphere b)
    block written by one multiply over all polarizations at once.

    pairs holds (a, b, scale, u) with the (a, b) block of N_m equal to
    scale * u[m], l-major over l >= l_min with (sphere, polarization)
    inside each order.
    """
    l_max = pairs[0][2].shape[0] // pol - 1
    nl = l_max + 1 - l_min
    lo = pol * l_min
    stack = np.zeros((l_max + 1, nl, nsph, pol, nl, nsph, pol))
    for a, b, scale, u in pairs:
        np.multiply(scale[lo:, lo:].reshape(nl, pol, nl, pol),
                    u[:, lo:, lo:].reshape(-1, nl, pol, nl, pol),
                    out=stack[:, :, a, :, :, b, :])
    n = nl * nsph * pol
    return stack.reshape(l_max + 1, n, n)


# ---------------------------------------------------------------------------
# EM blocks of one (l_max, m, x) in signed-log form, and unscaled
# translation elements read off the signed-log block views: readers of the
# production node kernel that only the tests call
# ---------------------------------------------------------------------------

def mixing_sign(n):
    """+1 on same-polarization entries, -1 on M-E mixing entries.

    Rows and columns are l-major with polarizations (M, E) interleaved.
    """
    v = np.tile([1.0, -1.0], n)
    return v[:, None] * v[None, :]


def em_log_blocks(l_max, m, x, direction="12"):
    """Scaled EM translation blocks in signed-log form.

    Returns a dict with keys "MM", "MN", "NM", "NN"; each value is a pair
    (sign, logmag) of (l_max+1, l_max+1) arrays indexed [J_out, J_in] with
    sign*exp(logmag) = G^{PP'} e^{+x}.  Rows/columns below max(1, |m|) are
    zero.  "MN" and "NM" vanish identically for m = 0.
    """
    from casphere.translation import (
        _check_direction,
        _reversal,
        _signed_log_view,
        node_kernel,
    )
    _check_direction(direction)
    n = l_max + 1
    if abs(m) > l_max:
        zero = (np.zeros((n, n)), np.full((n, n), -np.inf))
        return {key: zero for key in ("MM", "MN", "NM", "NN")}
    kern = node_kernel(l_max, x, em=True)
    g = kern.blocks[abs(m)]
    if direction == "21":
        g = g * _reversal(n, 2)
    if m < 0:
        # same-polarization blocks are even in m, mixing blocks odd
        g = g * mixing_sign(n)
    return {prow + pcol: _signed_log_view(g[i::2, j::2],
                                          kern.log_scale[i::2, j::2])
            for i, prow in enumerate("MN") for j, pcol in enumerate("MN")}


def u_scalar_element(l_out, l_in, m, x, direction="12"):
    """Scalar translation element U^{direction}_{l_out,l_in}(m) at x = kappa d.

    Unscaled, so only for moderate x; exactly 0 when |m| > min(l_out, l_in)
    by the kernel's own selection rule.
    """
    from casphere.translation import u_log_block
    sign, logmag = u_log_block(max(l_out, l_in), m, x, direction)
    with np.errstate(under="ignore"):
        return float(sign[l_out, l_in] * np.exp(logmag[l_out, l_in] - x))


def u_em_element(l_out, l_in, m, x, direction="12"):
    """EM translation element [[MM, MN], [NM, NN]] at (J' = l_out, J = l_in).

    Columns are the source polarization, rows the target one, in the
    order magnetic, electric; unscaled, so only for moderate x.
    """
    blocks = em_log_blocks(max(l_out, l_in), m, x, direction)
    out = np.empty((2, 2))
    with np.errstate(under="ignore"):
        for i, prow in enumerate("MN"):
            for j, pcol in enumerate("MN"):
                s, lg = blocks[prow + pcol]
                out[i, j] = s[l_out, l_in] * np.exp(lg[l_out, l_in] - x)
    return out


# ---------------------------------------------------------------------------
# two-sphere round trip: the dedicated pair assembly the N-sphere one replaced
# ---------------------------------------------------------------------------

def history_pair_ref(geometry, fld, kappa, l_max):
    """History vector of one two-sphere node, assembled pair-wise.

    Both one-bounce factors are balanced symmetrically by the mean radius
    and the centre distance (a different similarity from the N-sphere
    assembly's, with the same determinant); the order-l cut of
    det([[1, -P], [-Q, 1]]) is det(1 - P_l Q_l) with both factors and all
    polarizations truncated consistently.
    """
    from casphere.energy import _per_pol, _stack_history
    from casphere.translation import node_kernel
    sp1, sp2 = geometry.spheres
    d = geometry.d
    pol = 2 if fld.is_em else 1
    logkb = 0.5 * (math.log(kappa * 0.5 * (sp1.radius + sp2.radius))
                   + math.log(kappa * d))
    lv = np.arange(l_max + 1, dtype=float)
    peel_t = _per_pol(-(2.0 * lv + 1.0) * logkb, pol)
    peel_u = _per_pol((lv[:, None] + lv[None, :] + 1.0) * logkb, pol)
    kern = node_kernel(l_max, kappa * d, fld.is_em)
    # damping split over the two one-bounce factors
    rd = math.exp(-kappa * geometry.surface_gap)
    with np.errstate(under="ignore"):
        scale = []
        for sp in (sp1, sp2):
            s, g = t_log_row(sp, l_max, kappa, fld.is_em)
            scale.append(rd * s[:, None] * np.exp(
                (g + peel_t)[:, None] + kern.log_scale + peel_u))
    # "21": an EM block times (-1)^{J'+J}, with its mixing entries
    # negated; the transpose of a scalar block
    if fld.is_em:
        jv = np.repeat(np.arange(l_max + 1), 2)
        u21 = kern.blocks * ((-1.0) ** (jv[:, None] + jv[None, :])
                             * mixing_sign(l_max + 1))
    else:
        u21 = kern.blocks.swapaxes(1, 2)
    # one node: a leading node axis of length 1
    pairs = [(0, 1, scale[0][None], kern.blocks[None]),
             (1, 0, scale[1][None], u21[None])]
    return _stack_history(pairs, 2, pol, l_max, 1 if fld.is_em else 0)[0]


# ---------------------------------------------------------------------------
# quadrature: the one-interval Gauss-Kronrod rule
# ---------------------------------------------------------------------------

def gk15_ref(a, b, fv):
    """(integral, error, rounding error) of the GK15 rule on [a, b] from
    the values fv at `energy._gk15_nodes(a, b)`, one interval alone.

    QUADPACK's error estimate in the max-norm, each sum running
    sequentially over the nodes, in the arithmetic order of quad_vec:
    every interval of `energy._gk15_batch` must reproduce its bytes.
    """
    from casphere.energy import _GK15_V, _GK15_W
    h = 0.5 * (b - a)
    s_k = 0.0
    s_k_abs = 0.0
    for v, ff in zip(_GK15_V, fv):
        s_k += v * ff
        s_k_abs += v * abs(ff)
    s_g = 0.0
    for i, w in enumerate(_GK15_W):
        s_g += w * fv[2 * i + 1]
    y0 = s_k / 2.0
    s_k_dabs = 0.0
    for v, ff in zip(_GK15_V, fv):
        s_k_dabs += v * abs(ff - y0)
    err = float(np.amax(abs((s_k - s_g) * h)))
    dabs = float(np.amax(abs(s_k_dabs * h)))
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    round_err = float(np.amax(abs(50 * sys.float_info.epsilon * h * s_k_abs)))
    if round_err > sys.float_info.min:
        err = max(err, round_err)
    return h * s_k, err, round_err


# ---------------------------------------------------------------------------
# The Robin T-matrix written out from its kernels, and a perfect
# conductor's channels as its entries at zeta = 0 (M) and zeta = -1 (E):
# independent of the production bracket series, in plain Fractions
# ---------------------------------------------------------------------------

def _series_inv(a, n):
    """The first n Taylor coefficients of 1/a, Fraction by Fraction."""
    if a[0] == 0:
        raise ZeroDivisionError("series has no constant term")
    inv = [Fraction(0)] * n
    inv[0] = 1 / Fraction(a[0])
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * inv[k - j]
        inv[k] = -s / a[0]
    return inv


def robin_series_ref(zeta, l, n_terms):
    """Exact Taylor coefficients of a Robin sphere's internal-sign T_l.

    T = -(i_l - zeta z i_l')/(k_l - zeta z k_l') from the power series of
    i_l and z i_l' and the polynomial kernels of k_l and z k_l'; zeta
    None is the Neumann limit -(z i_l')/(z k_l').  zeta enters through
    its exact binary value.  Returns [c_0, c_1, ...] with T = sum_k c_k
    z^{2l+1+k}.
    """
    n = n_terms + 2 * l + 2  # padding for intermediate products
    # regular kernel: i_l = z^l sum_j a_j z^{2j}
    a = [Fraction(0)] * n
    j = 0
    while 2 * j < n:
        a[2 * j] = Fraction(1, (2 ** j) * _fact(j) * _dfact(2 * l + 2 * j + 1))
        j += 1
    # z i_l' = z^l sum_j (l+2j) a_j z^{2j}
    b = [Fraction(0)] * n
    j = 0
    while 2 * j < n:
        b[2 * j] = (l + 2 * j) * a[2 * j]
        j += 1
    # outgoing kernel: k_l = e^{-z} z^{-(l+1)} P(z), P of degree l
    p = [Fraction(0)] * (l + 2)
    for i in range(l + 1):
        c_i = Fraction(_fact(l + i), _fact(i) * _fact(l - i) * 2 ** i)
        p[l - i] = c_i
    # z k_l' = e^{-z} z^{-(l+1)} [z P' - z P - (l+1) P]
    q = [Fraction(0)] * (l + 2)
    for i in range(l + 1):
        q[i] -= (l + 1) * p[i]
        if i + 1 <= l + 1:
            q[i + 1] -= p[i]
    for i in range(1, l + 1):
        q[i] += i * p[i]
    if zeta is None:
        num, den = b, q
    else:
        zeta = Fraction(zeta)
        num = [ai - zeta * bi for ai, bi in zip(a, b)]
        den = [pi - zeta * qi for pi, qi in zip(p, q)]
    # T = -z^{2l+1} e^{z} num(z)/den(z)
    e = [Fraction(1, _fact(k)) for k in range(n)]
    den_full = den + [Fraction(0)] * (n - len(den))
    series = _series_mul(_series_mul(num, e, n), _series_inv(den_full, n), n)
    return [-Fraction(c) for c in series[:n_terms]]


def pec_series_ref(l, n_terms, channel):
    """Exact Taylor coefficients of a perfect conductor's internal-sign T_l:
    T_M = -i_l/k_l, the Robin entry at zeta = 0, and T_E =
    -(z i_l)'/(z k_l)' = -(i_l + z i_l')/(k_l + z k_l'), at zeta = -1."""
    if channel not in ("M", "E"):
        raise ValueError("PEC series requires channel 'M' or 'E'")
    return robin_series_ref(0 if channel == "M" else -1, l, n_terms)


def pec_log_ref(l_max, z):
    """{"M": (sign, log), "E": (sign, log)} of a perfect conductor's
    scaled entries T_l e^{-2z}, l = 0..l_max: -i_l/k_l and
    -(z i_l)'/(z k_l)' > 0 from the Bessel ratio chains."""
    ch = chain_row(l_max, z)
    lv = np.arange(l_max + 1, dtype=float)
    log_ratio = math.log(math.pi / 2.0) + ch.log_i - ch.log_k
    loge = log_ratio + np.log(1.0 + lv + z * ch.rho) \
        - np.log(z * ch.sigma - lv - 1.0)
    return {"M": (-np.ones(l_max + 1), log_ratio),
            "E": (np.ones(l_max + 1), loge)}


# ---------------------------------------------------------------------------
# Unscaled T-matrix values, low-frequency series and real-frequency phase
# shifts: thin readers of the production scaled entries and exact series,
# kept here because only the tests evaluate them.
# ---------------------------------------------------------------------------

def phase_shift(spec, l, k):
    """Scattering phase shift delta_l(k) of a Robin-family sphere.

    Parameters
    ----------
    spec : SphereSpec
        Must carry a scalar law.
    l : int
        Partial wave index, l >= 0.
    k : float
        Real wavenumber, k > 0.

    Returns
    -------
    float
        delta_l with cot(delta_l) = [n_l(x) - zeta x n_l'(x)] /
        [j_l(x) - zeta x j_l'(x)], x = kR, evaluated through atan2 so a
        vanishing denominator (resonance, delta = pi/2) is a regular
        value rather than an error.
    """
    if not k > 0.0:
        raise ValueError("wavenumber must be positive, got %r" % (k,))
    if l < 0:
        raise ValueError("l must be >= 0")
    zeta = _effective_zeta(spec.law)
    x = k * spec.radius
    j, dj = spherical_jn(l, x), spherical_jn(l, x, derivative=True)
    y, dy = spherical_yn(l, x), spherical_yn(l, x, derivative=True)
    if zeta is None:  # Neumann: the 1/zeta terms drop out of the ratio
        num, den = dy, dj
    else:
        num, den = y - zeta * x * dy, j - zeta * x * dj
    delta = math.atan2(den, num)
    # fold into the principal branch (-pi/2, pi/2]
    if delta <= -0.5 * math.pi:
        delta += math.pi
    elif delta > 0.5 * math.pi:
        delta -= math.pi
    return delta




def t_log_row(spec, l_max, kappa, em=False):
    """(sign, log) of the production scaled T-matrix entries at one
    kappa, l = 0..l_max: the one row of `tmatrix._t_em_rows` (em) or
    `tmatrix._t_scalar_rows` on the one-row chain at kappa R, with kappa
    checked as the energy checks its nodes."""
    kv = np.array([kappa], dtype=float)
    kappas = _checked_kappas(kv)
    rows = _t_em_rows if em else _t_scalar_rows
    sign, logmag = rows(spec, _chain_rows(l_max, kv * spec.radius), kappas)
    return sign[0], logmag[0]


def t_scalar_imag(spec, l, kappa):
    """Scalar T-matrix element T_l(i kappa) of a Robin-family sphere.

    Returns (-1)^l (pi/2) [(1/zeta + 1/2) I_nu(z) - z I'_nu(z)] /
    [(1/zeta + 1/2) K_nu(z) - z K'_nu(z)] with nu = l + 1/2, z = kappa R;
    Dirichlet is the zeta -> 0 limit and Neumann drops the 1/zeta terms.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    sign, logmag = t_log_row(spec, l, kappa)
    z = kappa * spec.radius
    pref = -1.0 if l % 2 == 0 else 1.0  # -(-1)^l undoes the internal sign
    return pref * float(sign[l]) * math.exp(float(logmag[l]) + 2.0 * z)


def t_em_imag(spec, l, kappa):
    """EM T-matrix elements (T_M, T_E) of a dielectric or PEC sphere.

    T_M is the magnetic (TE) channel; T_E follows by interchanging eps
    and mu.  Both vanish identically for eps = mu = 1.
    """
    if l < 1:
        raise ValueError("EM multipoles start at l = 1")
    blocks = t_log_row(spec, l, kappa, em=True)
    z = kappa * spec.radius
    pref = -1.0 if l % 2 == 0 else 1.0
    out = []
    for pol in (0, 1):  # M, E
        sign, logmag = (v[pol::2] for v in blocks)
        out.append(pref * float(sign[l]) * math.exp(float(logmag[l]) + 2.0 * z))
    return tuple(out)




def t_low_kappa_series(spec, l, order):
    """Low-frequency expansion of the T-matrix entries.

    Parameters
    ----------
    spec : SphereSpec
    l : int
        Partial wave (l >= 1 for EM laws).
    order : int
        Number of powers beyond the leading kappa^{2l+1}; 0 <= order <= 4.
        EM laws support order <= 3 for l = 1 (the printed gamma
        coefficients) and order <= 1 otherwise.

    Returns
    -------
    dict
        channel -> {power: coefficient} with T_channel(i kappa) =
        sum coeff * kappa^power; channels are "scalar" or "M"/"E".
        The kappa^{2l+2} coefficient of the EM channels is exactly zero.
    """
    if order < 0 or order > 4:
        raise ValueError("unsupported order %r" % (order,))
    law = spec.law
    base = 2 * l + 1
    if is_scalar_law(law):
        fr = mie_series_fractions(*_robin_bracket(_effective_zeta(law)), l,
                                  order + 1)
        pref = -1.0 if l % 2 == 0 else 1.0  # undo internal sign
        coeffs = {base + k: pref * float(c) * spec.radius ** (base + k)
                  for k, c in enumerate(fr)}
        return {"scalar": coeffs}
    if l < 1:
        raise ValueError("EM multipoles start at l = 1")
    pref = -1.0 if l % 2 == 0 else 1.0  # undo internal sign
    if isinstance(law, PerfectConductor):
        out = {}
        for pol, zeta in zip(("M", "E"), _PEC_ZETAS):
            fr = mie_series_fractions(*_robin_bracket(zeta), l, order + 1)
            out[pol] = {base + k: pref * float(c) * spec.radius ** (base + k)
                        for k, c in enumerate(fr)}
        return out
    if isinstance(law, Dispersive):
        raise ValueError("low-frequency series requires a constant material")
    # dielectric: printed static coefficients (gammas known for l = 1 only)
    if order > (3 if l == 1 else 1):
        raise ValueError("unsupported order %r for dielectric l=%d"
                         % (order, l))
    lead_sign = -1 if l % 2 == 0 else 1  # (-1)^{l-1}
    out = {}
    for pol, x, y in (("M", law.mu, law.eps), ("E", law.eps, law.mu)):
        x, y = Fraction(x), Fraction(y)
        hats = [lead_sign * Fraction(l + 1, l * _dfact(2 * l + 1)
                                     * _dfact(2 * l - 1)) * _alpha_hat(x, l),
                0, _gamma13_hat(x, y), _gamma14_hat(x)]
        out[pol] = {base + k: float(c) * spec.radius ** (base + k)
                    for k, c in enumerate(hats[:order + 1])}
    return out


# ---------------------------------------------------------------------------
# The printed series, typed in from the paper, against which the derived
# ones are checked: the perfect-conductor c_0..c_9 (`asymptotics.
# expand_em_metal`; double scattering enters at c_6), and the static
# response coefficients and bracket combinations of the dielectric
# c_0..c_3 (`asymptotics.expand_em_dielectric`).  x is eps for the
# electric channel and mu for the magnetic one, y the other; every formula
# is exact for Fraction arguments.
# ---------------------------------------------------------------------------

METAL_C_PRINTED = {
    0: Fraction(143, 16),
    1: Fraction(0),
    2: Fraction(7947, 160),
    3: Fraction(2065, 32),
    4: Fraction(27705347, 100800),
    5: Fraction(-55251, 64),
    6: Fraction(1373212550401, 144506880),
    7: Fraction(-7583389, 320),
    8: Fraction(-2516749144274023, 44508119040),
    9: Fraction(274953589659739, 275251200),
}


def _alpha_hat(x, l):
    """Static multipole response (x-1)/(x+(l+1)/l), radius scaled out."""
    return (x - 1) / (x + Fraction(l + 1, l))


def _gamma13_hat(x, y):
    return -Fraction(4 + x * (y * x + x - 6)) / (5 * (x + 2) ** 2)


def _gamma14_hat(x):
    return Fraction(4, 9) * ((x - 1) / (x + 2)) ** 2


def dipole_dipole_coefficient(alpha_e, alpha_m):
    """Leading d^-7 bracket from unit-radius dipole polarizabilities.

    c_0 = (23/4)(alpha_e^2 + alpha_m^2) - (7/2) alpha_e alpha_m for two
    identical spheres; alpha_e = 1, alpha_m = -1/2 recovers the perfect
    conductor value 143/16.
    """
    return (Fraction(23, 4) * (alpha_e * alpha_e + alpha_m * alpha_m)
            - Fraction(7, 2) * alpha_e * alpha_m)


def dielectric_series_printed(eps, mu):
    """The printed series of two identical (eps, mu) spheres.

    A SeriesExpansion of form "em-c" with c_0..c_3 assembled from the
    printed bracket combinations of the static response data, at the
    exact binary values of eps and mu; provenance "paper-table".
    """
    eps, mu = Fraction(eps), Fraction(mu)
    a_e, a_m = _alpha_hat(eps, 1), _alpha_hat(mu, 1)
    a_e2, a_m2 = _alpha_hat(eps, 2), _alpha_hat(mu, 2)
    g13_e, g13_m = _gamma13_hat(eps, mu), _gamma13_hat(mu, eps)
    g14_e, g14_m = _gamma14_hat(eps), _gamma14_hat(mu)
    coeffs = {
        0: dipole_dipole_coefficient(a_e, a_m),
        1: Fraction(0),
        2: Fraction(9, 16) * (
            a_e * (59 * a_e2 - 11 * a_m2 + 86 * g13_e - 54 * g13_m)
            + a_m * (59 * a_m2 - 11 * a_e2 + 86 * g13_m - 54 * g13_e)),
        3: Fraction(315, 16) * (a_e * (7 * g14_e - 5 * g14_m)
                                + a_m * (7 * g14_m - 5 * g14_e)),
    }
    lead = min((n for n, c in coeffs.items() if c != 0), default=0)
    return SeriesExpansion(form="em-c", prefactor_power=7 + lead,
                           coeffs=coeffs, provenance="paper-table",
                           certified={n: True for n in coeffs})
