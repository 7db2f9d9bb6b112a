"""Numerically stable special functions for multipole scattering.

Half-integer modified Bessel functions in exponentially scaled form.
These are the only special functions the scattering, translation and
energy modules consume, and they need numpy alone: the ratios come from
a continued fraction (I) and an upward recurrence (K) at every argument.
Chains are built in rows, one per argument of a vector (one per
quadrature node of a chunk); the one-argument chain is the one-row case.
The numeric translation layer needs no Wigner 3j symbols: its blocks
come from recurrences in the orders and its EM recoupling from closed
Clebsch-Gordan forms (the exact series in `asymptotics` keeps its own
exact 3j).

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


def _i_ratio_gap(n, z, w, d):
    """(g, w rho(w)) for l = 0..n: g[l] = w rho_l(w) - z rho_l(z), with
    the difference of squares w^2 - z^2 = d z^2 taken from d, not from
    a rounded w; 0 < w <= 1e7.

    Both chains run the continued fraction of `_i_ratio_chain` down
    from the same start, z rho_l(z) = z^2/B_l with B_l = 2l + 3 +
    z rho_{l+1}(z) and likewise A_l at w, and their difference
    g_l = (d z^2 B_l - z^2 g_{l+1})/(A_l B_l) keeps full relative
    precision as w -> z, where the plain difference loses 1e-16/d.
    """
    if not 0.0 < w <= _ARG_CEILING:
        raise ValueError("bessel argument z=%r outside (0, %g]"
                         % (w, _ARG_CEILING))
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


def _k_chains(n, z):
    """(sigma, log_k): the K half of `_chain_rows(n, z)`.

    z is a 1-D array of positive arguments; row i of each (len(z), n + 1)
    result holds the K ratio chain and log K_{l+1/2}(z_i) + z_i of that
    argument.  The translation kernels take their chains from here too.
    """
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
    and `bessel_ik_half_chain` is the one-row case.  The I ratios run the
    continued fraction row by row, the K side is `_k_chains`, and the
    logs are row-wise cumulative sums.
    """
    if l_max < 0 or l_max > _CHAIN_CEILING:
        raise ValueError("order l_max=%r outside [0, %d]" % (l_max, _CHAIN_CEILING))
    zs = z.tolist()
    rho = np.empty((len(zs), l_max + 1))
    for i, zi in enumerate(zs):
        rho[i] = _i_ratio_chain(l_max, zi)  # refuses z outside (0, 1e7]
    sigma, log_k = _k_chains(l_max, z)
    log_i = np.empty_like(rho)
    log_i[:, 0] = [_log_i_half_scaled(zi) for zi in zs]
    log_i[:, 1:] = log_i[:, :1] + np.cumsum(np.log(rho[:, :-1]), axis=1)
    return BesselChain(z=z[:, None], log_i=log_i, log_k=log_k, rho=rho,
                       sigma=sigma)


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
    ch = _chain_rows(l_max, np.array([z], dtype=float))
    return BesselChain(z=z, log_i=ch.log_i[0], log_k=ch.log_k[0],
                       rho=ch.rho[0], sigma=ch.sigma[0])
