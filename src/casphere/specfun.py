"""Numerically stable special functions for multipole scattering.

Half-integer modified Bessel functions in exponentially scaled form.
These are the only special functions the scattering, translation and
energy modules consume, and they need numpy alone: the ratios come from
a continued fraction (I) and an upward recurrence (K) at every argument.
Chains are built in rows, one per argument of a vector (one per
quadrature node of a chunk), and the I continued fraction of every row
runs in one downward sweep (`_chain_rows`); one argument is one row.
The numeric translation layer needs no Wigner 3j symbols: its blocks
come from recurrences in the orders and its EM recoupling from the
exact squares of closed-form Clebsch-Gordan weights
(`translation._em_weight_squares`); the exact series in `asymptotics`
runs the same recurrences on rationals and reads the same squares.

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
]

# The chain serves translation-matrix sums over composite orders up to
# 2*l_max + 2; both recurrences stay stable well past that.
_CHAIN_CEILING = 300
# The I continued fraction runs about z steps, on Python floats for a
# one-row chain: about 1.2 s per call at this argument on a 2-vCPU Xeon;
# past it a chain is refused.
_ARG_CEILING = 1e7

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class BesselChain:
    """Vectors of scaled Bessel data for all orders l = 0..l_max at fixed z.

    rho[l] = I_{l+3/2}(z)/I_{l+1/2}(z) and sigma[l] = K_{l+3/2}(z)/K_{l+1/2}(z)
    are the ratio chains; both are positive for z > 0.  A chain of
    rows (`_chain_rows`) has z as a column and one row per argument.
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


def _checked_arg(z):
    """z, refused unless 0 < z <= 1e7."""
    if not 0.0 < z <= _ARG_CEILING:
        raise ValueError("bessel argument z=%r outside (0, %g]"
                         % (z, _ARG_CEILING))
    return z


# rows of a continued-fraction sweep that step alone on Python floats
# before it turns vector.  One in-place numpy step over the active rows
# takes about 3 us, one float step about 0.1 us (2-vCPU Xeon), so a few
# rows step faster alone; near contact a chunk of 2-8 nodes has rows
# thousands of levels apart, which vector steps made 4-7x slower
_SWEEP_ROWS = 16


def _sweep_plan(starts):
    """(order, starts, lo) of a downward sweep whose row i joins at
    starts[i]: the rows by falling start, their starts in that order, and
    the level lo at which the vector steps begin, -1 if every row steps
    alone.  Rows order[:_SWEEP_ROWS] step alone down to lo + 1."""
    order = sorted(range(len(starts)), key=starts.__getitem__, reverse=True)
    starts = [starts[i] for i in order]
    lo = starts[_SWEEP_ROWS] if len(starts) > _SWEEP_ROWS else -1
    return order, starts, lo


def _i_ratio_rows(n, z):
    """rho[i, l] = I_{l+3/2}(z_i)/I_{l+1/2}(z_i), l = 0..n, for the floats
    z_i of the list z, 0 < z_i <= 1e7; shape (len(z), n + 1).

    Downward continued fraction: rho_l = 1/((2l+3)/z + rho_{l+1}).  The
    false solution is damped by at least (z/(2 nu))^2 per step, so 80
    spare steps above max(n, z) push the seed error below 1e-30.  Every
    row joins one sweep over l at its own start n + 80 + int(z_i) with
    rho = 0, so each keeps the bits of the one-argument fraction.  The
    rows of the highest starts step alone on Python floats (`_sweep_plan`)
    and the rest of the sweep is one in-place update of the active rows
    per step, which are a prefix of the rows by falling start.
    """
    zs = [_checked_arg(zi) for zi in z]
    order, starts, lo = _sweep_plan([n + 80 + int(zi) for zi in zs])
    rho = np.empty((len(zs), n + 1))
    rv = np.zeros(len(zs))
    for j, i in enumerate(order[:_SWEEP_ROWS]):
        zi, row, r = zs[i], rho[i], 0.0
        for l in range(starts[j], lo, -1):
            r = 1.0 / ((2.0 * l + 3.0) / zi + r)
            if l <= n:
                row[l] = r
        rv[j] = r
    if lo < 0:
        return rho
    zv = np.array([zs[i] for i in order])
    buf = np.empty(len(zs))
    rho_t = np.empty((n + 1, len(zs)))
    k = _SWEEP_ROWS
    for l in range(lo, -1, -1):
        if k < len(zs) and starts[k] >= l:
            while k < len(zs) and starts[k] >= l:
                k += 1
            zk, rk, bk = zv[:k], rv[:k], buf[:k]
        np.divide(2.0 * l + 3.0, zk, out=bk)
        bk += rk
        np.divide(1.0, bk, out=rk)
        if l <= n:
            rho_t[l] = rv
    rho[order] = rho_t.T
    return rho


def _i_gap_rows(n, z, w, d):
    """(g, w rho(w)) of shape (len(z), n + 1) for the floats of the lists
    z, w and d, row i at (z_i, w_i, d_i): g[i, l] = w_i rho_l(w_i) -
    z_i rho_l(z_i), with the difference of squares w_i^2 - z_i^2 =
    d_i z_i^2 taken from d_i, not from a rounded w_i; 0 < w_i <= 1e7.

    Both chains run the continued fraction of `_i_ratio_rows` down from
    the same start, z rho_l(z) = z^2/B_l with B_l = 2l + 3 + z
    rho_{l+1}(z) and likewise A_l at w, and their difference
    g_l = (d z^2 B_l - z^2 g_{l+1})/(A_l B_l) keeps full relative
    precision as w -> z, where the plain difference loses 1e-16/d.  The
    rows join one sweep at their own starts n + 80 + int(max(z_i, w_i)),
    planned as in `_i_ratio_rows`.
    """
    for wi in w:
        _checked_arg(wi)
    order, starts, lo = _sweep_plan(
        [n + 80 + int(max(zi, wi)) for zi, wi in zip(z, w)])
    g, wrho = np.empty((2, len(z), n + 1))
    state = np.zeros((3, len(z)))
    for j, i in enumerate(order[:_SWEEP_ROWS]):
        z2, w2 = z[i] * z[i], w[i] * w[i]
        dz2 = d[i] * z2
        gl = wr = zr = 0.0
        for l in range(starts[j], lo, -1):
            a = 2.0 * l + 3.0 + wr
            b = 2.0 * l + 3.0 + zr
            gl = (dz2 * b - z2 * gl) / (a * b)
            wr, zr = w2 / a, z2 / b
            if l <= n:
                g[i, l], wrho[i, l] = gl, wr
        state[:, j] = gl, wr, zr
    if lo < 0:
        return g, wrho
    z2 = np.array([z[i] * z[i] for i in order])
    w2 = np.array([w[i] * w[i] for i in order])
    dz2 = np.array([d[i] for i in order]) * z2
    g_t, wrho_t = np.empty((2, n + 1, len(z)))
    rows = (*state, z2, w2, dz2, *np.empty((3, len(z))))
    k = _SWEEP_ROWS
    for l in range(lo, -1, -1):
        if k < len(z) and starts[k] >= l:
            while k < len(z) and starts[k] >= l:
                k += 1
            gl, wr, zr, z2k, w2k, dz2k, a, b, t = (x[:k] for x in rows)
        np.add(2.0 * l + 3.0, wr, out=a)
        np.add(2.0 * l + 3.0, zr, out=b)
        np.multiply(dz2k, b, out=t)
        np.multiply(z2k, gl, out=gl)
        np.subtract(t, gl, out=t)
        np.multiply(a, b, out=gl)
        np.divide(t, gl, out=gl)
        np.divide(w2k, a, out=wr)
        np.divide(z2k, b, out=zr)
        if l <= n:
            g_t[l], wrho_t[l] = state[0], state[1]
    g[order], wrho[order] = g_t.T, wrho_t.T
    return g, wrho


def _k_chains(n, z):
    """(sigma, log_k): the K half of `_chain_rows(n, z)`.

    z is a 1-D array of positive arguments; row i of each (len(z), n + 1)
    result holds the K ratio chain and log K_{l+1/2}(z_i) + z_i of that
    argument.  The translation kernels take their chains from here too.
    """
    if len(z) == 1:
        # one argument steps on Python floats, clear of numpy's per-call
        # cost: sigma_0 = 1 + 1/z, sigma_l = (2l + 1)/z + 1/sigma_{l-1}
        zi = z.item()
        s = 1.0 + 1.0 / zi
        col = [s]
        for l in range(1, n + 1):
            s = (2.0 * l + 1.0) / zi + 1.0 / s
            col.append(s)
        sig = np.array(col)[:, None]
    else:
        # order-major while the recurrence runs, so each step updates one
        # contiguous row of every argument in place: row l starts as
        # (2l + 1)/z, and row 0 is 1 + 1/z
        sig = np.arange(1.0, 2 * n + 2, 2.0)[:, None] / z
        sig[0] += 1.0
        rows = list(sig)
        for prev, row in zip(rows, rows[1:]):
            row += 1.0 / prev
    log_k = np.empty_like(sig)
    # math.log, not numpy's vector log, which differs from it in the last
    # ulp for some z
    log_k[0] = [0.5 * math.log(math.pi / (2.0 * zi)) for zi in z.tolist()]
    log_k[1:] = log_k[:1] + np.cumsum(np.log(sig[:-1]), axis=0)
    return np.ascontiguousarray(sig.T), np.ascontiguousarray(log_k.T)


def _chain_rows(l_max, z):
    """The Bessel chains of every z_i of a 1-D array, in rows.

    Returns one BesselChain whose z is the column z[:, None] and whose
    fields are (len(z), l_max + 1) arrays; row i holds the chain at z_i,
    0 <= l_max <= 300 and 0 < z_i <= 1e7.  The I ratios of all
    rows come from one sweep of the continued fraction (`_i_ratio_rows`),
    the K side is `_k_chains`, and the logs are row-wise cumulative sums.
    """
    if l_max < 0 or l_max > _CHAIN_CEILING:
        raise ValueError("order l_max=%r outside [0, %d]" % (l_max, _CHAIN_CEILING))
    zs = z.tolist()
    rho = _i_ratio_rows(l_max, zs)  # refuses z outside (0, 1e7]
    sigma, log_k = _k_chains(l_max, z)
    log_i = np.empty_like(rho)
    log_i[:, 0] = [_log_i_half_scaled(zi) for zi in zs]
    log_i[:, 1:] = log_i[:, :1] + np.cumsum(np.log(rho[:, :-1]), axis=1)
    return BesselChain(z=z[:, None], log_i=log_i, log_k=log_k, rho=rho,
                       sigma=sigma)
