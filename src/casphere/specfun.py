"""Numerically stable special functions for multipole scattering.

Half-integer modified Bessel functions in exponentially scaled form, and
Wigner 3j symbols.  These are the only special functions the scattering,
translation and energy modules consume, and they need numpy alone: the
Bessel ratios come from a continued fraction (I) and an upward recurrence
(K) at every argument, the 3j symbols from exact integer closed forms and
a three-term recursion.

Scaling convention: every stored Bessel log is of I_nu(z)*e^{-z} or
K_nu(z)*e^{+z}.  Downstream products pair e^{+2z} growth against
e^{-kappa d} decay, so the exponentials must be kept symbolic until they
cancel; the log_i/log_k fields stay finite even where the scaled values
leave the double-precision range.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BesselChain",
    "bessel_ik_half_chain",
]

# The chain serves translation-matrix sums over composite orders up to
# 2*l_max + 2; both recurrences stay stable well past that.
_CHAIN_CEILING = 300
# The I continued fraction runs about z pure-Python steps, about 2 s per
# call at this argument on a 2-vCPU Xeon; past it a chain is refused.
_ARG_CEILING = 1e7

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class BesselChain:
    """Vectors of scaled Bessel data for all orders l = 0..l_max at fixed z.

    rho[l] = I_{l+3/2}(z)/I_{l+1/2}(z) and sigma[l] = K_{l+3/2}(z)/K_{l+1/2}(z)
    are the ratio chains; both are positive for z > 0.
    """

    z: float
    log_i: np.ndarray
    log_k: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray


def _log_i_half_scaled(z):
    # log(I_{1/2}(z) e^{-z}) = 0.5 log(2/(pi z)) + log(sinh z) - z
    c = 0.5 * math.log(2.0 / (math.pi * z))
    if z > 1e-3:
        # sinh(z) e^{-z} = (1 - e^{-2z}) / 2
        return c + math.log1p(-math.exp(-2.0 * z)) - _LOG2
    # log sinh z = log z + z^2/6 - z^4/180 + O(z^6)
    z2 = z * z
    return c + math.log(z) + z2 / 6.0 - z2 * z2 / 180.0 - z


def _i_ratio_chain(n, z):
    """rho[l] = I_{l+3/2}(z)/I_{l+1/2}(z) for l = 0..n, 0 < z <= 1e7."""
    if not 0.0 < z <= _ARG_CEILING:
        raise ValueError("bessel argument z=%r outside (0, %g]"
                         % (z, _ARG_CEILING))
    # Downward continued fraction: rho_l = 1/((2l+3)/z + rho_{l+1}).
    # The false solution is damped by at least (z/(2 nu))^2 per step, so
    # 80 spare steps above max(n, z) push the seed error below 1e-30.
    m = n + 80 + int(z)
    out = np.empty(n + 1)
    r = 0.0
    for l in range(m, -1, -1):
        r = 1.0 / ((2.0 * l + 3.0) / z + r)
        if l <= n:
            out[l] = r
    return out


def _k_ratio_chain(n, z):
    """sigma[l] = K_{l+3/2}(z)/K_{l+1/2}(z) for l = 0..n (upward, exact seed)."""
    out = np.empty(n + 1)
    s = 1.0 + 1.0 / z  # K_{3/2}/K_{1/2}
    out[0] = s
    for l in range(1, n + 1):
        s = (2.0 * l + 1.0) / z + 1.0 / s
        out[l] = s
    return out


def _k_chains(n, z):
    """(sigma, log_k) of `bessel_ik_half_chain(n, z)` for every z at once.

    z is a 1-D array of positive arguments; row i of each (len(z), n + 1)
    result holds the K ratio chain and log K_{l+1/2}(z_i) + z_i of that
    argument, with the arithmetic of the one-argument chain.
    """
    sigma = np.empty((len(z), n + 1))
    s = 1.0 + 1.0 / z
    sigma[:, 0] = s
    for l in range(1, n + 1):
        s = (2.0 * l + 1.0) / z + 1.0 / s
        sigma[:, l] = s
    log_k = np.empty_like(sigma)
    # math.log, as in the one-argument chain: numpy's vector log differs
    # from it in the last ulp for some z
    log_k[:, 0] = [0.5 * math.log(math.pi / (2.0 * zi)) for zi in z.tolist()]
    log_k[:, 1:] = log_k[:, :1] + np.cumsum(np.log(sigma[:, :-1]), axis=1)
    return sigma, log_k


def bessel_ik_half_chain(l_max, z):
    """Logs of scaled I_{l+1/2}, K_{l+1/2} and ratio chains, l = 0..l_max.

    Parameters
    ----------
    l_max : int
        Largest order; 0 <= l_max <= 300.
    z : float
        Argument, 0 < z <= 1e7.

    Returns
    -------
    BesselChain
    """
    if l_max < 0 or l_max > _CHAIN_CEILING:
        raise ValueError("order l_max=%r outside [0, %d]" % (l_max, _CHAIN_CEILING))
    rho = _i_ratio_chain(l_max, z)  # refuses z outside (0, 1e7]
    sigma = _k_ratio_chain(l_max, z)
    log_i = np.empty(l_max + 1)
    log_k = np.empty(l_max + 1)
    log_i[0] = _log_i_half_scaled(z)
    log_k[0] = 0.5 * math.log(math.pi / (2.0 * z))
    if l_max > 0:
        log_i[1:] = log_i[0] + np.cumsum(np.log(rho[:-1]))
        log_k[1:] = log_k[0] + np.cumsum(np.log(sigma[:-1]))
    return BesselChain(z=z, log_i=log_i, log_k=log_k, rho=rho, sigma=sigma)




# ---------------------------------------------------------------------------
# Wigner 3j symbols
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
