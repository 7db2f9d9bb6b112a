"""Numerically stable special functions for multipole scattering.

Half-integer modified Bessel functions in exponentially scaled form, and
Wigner 3j symbols.  These are the only special functions the scattering,
translation and energy modules consume, and they need numpy alone: the
Bessel ratios come from a continued fraction (I) and an upward recurrence
(K) at every argument, the 3j symbols from exact integer closed forms and
a three-term recursion.

Scaling convention: every stored Bessel value is I_nu(z)*e^{-z} or
K_nu(z)*e^{+z} (same for derivatives).  Downstream products pair e^{+2z}
growth against e^{-kappa d} decay, so the exponentials must be kept
symbolic until they cancel; the log_i/log_k fields stay finite even where
the scaled values leave the double-precision range.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "L_CEILING",
    "ScaledBesselPair",
    "BesselChain",
    "ThreeJArgs",
    "bessel_ik_half",
    "bessel_ik_half_chain",
    "threej_000",
    "threej_family",
    "wigner3j",
]

# Hard cap on the Bessel order for the single-order interface; raise only
# after re-validating the ratio recurrences at the new depth.
L_CEILING = 100
# The chain form additionally serves translation-matrix sums over composite
# orders up to 2*l_max + 2; both recurrences stay stable well past that.
_CHAIN_CEILING = 300

_LOG2 = math.log(2.0)


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
    i_scaled: np.ndarray
    k_scaled: np.ndarray
    di_scaled: np.ndarray
    dk_scaled: np.ndarray


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
    """rho[l] = I_{l+3/2}(z)/I_{l+1/2}(z) for l = 0..n, at every z > 0."""
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
    """Scaled I_{l+1/2}, K_{l+1/2} and ratio chains for l = 0..l_max.

    Parameters
    ----------
    l_max : int
        Largest order; 0 <= l_max <= L_CEILING.
    z : float
        Argument, z > 0.

    Returns
    -------
    BesselChain
    """
    if not z > 0.0:
        raise ValueError("bessel argument must be positive, got %r" % (z,))
    if l_max < 0 or l_max > _CHAIN_CEILING:
        raise ValueError("order l_max=%r outside [0, %d]" % (l_max, _CHAIN_CEILING))
    rho = _i_ratio_chain(l_max, z)
    sigma = _k_ratio_chain(l_max, z)
    log_i = np.empty(l_max + 1)
    log_k = np.empty(l_max + 1)
    log_i[0] = _log_i_half_scaled(z)
    log_k[0] = 0.5 * math.log(math.pi / (2.0 * z))
    if l_max > 0:
        log_i[1:] = log_i[0] + np.cumsum(np.log(rho[:-1]))
        log_k[1:] = log_k[0] + np.cumsum(np.log(sigma[:-1]))
    nu = np.arange(l_max + 1) + 0.5
    with np.errstate(over="ignore", under="ignore"):
        i_s = np.exp(log_i)
        k_s = np.exp(log_k)
        # I'_nu = I_{nu+1} + (nu/z) I_nu ;  K'_nu = -K_{nu+1} + (nu/z) K_nu
        di_s = i_s * (rho + nu / z)
        dk_s = k_s * (nu / z - sigma)
    return BesselChain(z=z, log_i=log_i, log_k=log_k, rho=rho, sigma=sigma,
                       i_scaled=i_s, k_scaled=k_s, di_scaled=di_s, dk_scaled=dk_s)


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
    chain = bessel_ik_half_chain(l, z)
    return ScaledBesselPair(
        order_half=l + 0.5,
        i_scaled=float(chain.i_scaled[l]),
        k_scaled=float(chain.k_scaled[l]),
        di_scaled=float(chain.di_scaled[l]),
        dk_scaled=float(chain.dk_scaled[l]),
        z=float(z),
        log_i=float(chain.log_i[l]),
        log_k=float(chain.log_k[l]),
    )


# ---------------------------------------------------------------------------
# Wigner 3j symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreeJArgs:
    """Arguments of a Wigner 3j symbol (l1 l2 l3 / m1 m2 m3)."""

    l1: int
    l2: int
    l3: int
    m1: int
    m2: int
    m3: int


@lru_cache(maxsize=None)
def _factorial(n):
    return math.factorial(n)


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
    num = _factorial(big_j - 2 * l1) * _factorial(big_j - 2 * l2) \
        * _factorial(big_j - 2 * l3) * _factorial(g) ** 2
    den = _factorial(big_j + 1) \
        * (_factorial(g - l1) * _factorial(g - l2) * _factorial(g - l3)) ** 2
    val = math.sqrt(num / den)
    return -val if g % 2 else val


def _sg_tables(j, l1, l2, m1, m2):
    """Coefficients of the j-recursion at the integer array j, per row.

    Returns (b, p, q) with b = B(j), p = (j+1) A(j) and q = j A(j+1).  A
    zero p or q lies outside its row's family and reads 1.0, so padded
    lanes divide cleanly.
    """
    m3 = -(m1 + m2)

    def a_of(jj):
        # a float product: exact below 2^53 (l1 + l2 up to ~460), and
        # unlike int64 it cannot wrap at deeper orders
        x = (jj * jj - (l1 - l2) ** 2).astype(float) \
            * ((l1 + l2 + 1) ** 2 - jj * jj) * (jj * jj - m3 * m3)
        return np.sqrt(np.maximum(x, 0.0))

    # pinned against exact rational 3j values (see tests): the middle
    # coefficient of the j-recursion is -(2j+1)[m3 X + (m1-m2) j(j+1)]
    b = (-(2 * j + 1) * (m3 * (l1 * (l1 + 1) - l2 * (l2 + 1))
                         + (m1 - m2) * j * (j + 1))).astype(float)
    p = (j + 1) * a_of(j)
    q = j * a_of(j + 1)
    return b, np.where(p == 0.0, 1.0, p), np.where(q == 0.0, 1.0, q)


_RESCALE = 1e250


def _sg_recursion(l1, l2, m1, m2, jmin, npts, sign_top, width):
    """Families of rows with npts >= 2 and (m1, m2) != (0, 0), top-aligned.

    Every row runs the same steps as a lone family: lanes that have
    stopped or ended are masked, never mixed with live ones.
    """
    rows = len(l1)
    lanes = np.arange(rows)
    jmax = jmin + npts - 1
    col = np.arange(width)[:, None]

    # forward pass from jmin: f[i] at j = jmin + i
    b, p, q = _sg_tables(jmin + col, l1, l2, m1, m2)
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
    running = np.ones(rows, dtype=bool)
    drops = np.zeros(rows, dtype=np.int64)
    for i in range(1, width - 1):
        act = running & (npts > i + 1)
        if not act.any():
            break
        f[i + 1] = np.where(act, -(b[i] * f[i] + p[i] * f[i - 1]) / q[i], 0.0)
        big = act & (np.abs(f[i + 1]) > _RESCALE)
        if big.any():
            f[:i + 2, big] /= _RESCALE
        drops = np.where(np.abs(f[i + 1]) < np.abs(f[i]), drops + 1, 0)
        # two drops in a row: safely inside the oscillatory region
        done = act & (drops >= 2)
        i_stop[done] = i + 1
        running &= ~done
    i_match = np.argmax(np.where(col <= i_stop, np.abs(f), -1.0), axis=0)
    t_match = npts - 1 - i_match

    # backward pass from jmax down to the match: g[t] at j = jmax - t
    b, p, q = _sg_tables(jmax + 1 - col, l1, l2, m1, m2)
    g = np.zeros((width, rows))
    g[0] = 1.0
    g[1] = -b[1] * g[0] / p[1]
    for t in range(2, width):
        act = t_match >= t
        if not act.any():
            break
        g[t] = np.where(act, -(q[t] * g[t - 2] + b[t] * g[t - 1]) / p[t], 0.0)
        big = act & (np.abs(g[t]) > _RESCALE)
        if big.any():
            g[:t + 1, big] /= _RESCALE

    scale = f[i_match, lanes] / g[t_match, lanes]
    below = np.take_along_axis(f, np.clip(npts - 1 - col, 0, width - 1),
                               axis=0)
    res = np.where(col <= t_match, g * scale,
                   np.where(col < npts, below, 0.0))
    # np.sum over j ascending, one contiguous row per family, so a row's
    # norm is the lone family's pairwise sum whatever its batch
    terms = (2.0 * (jmax - col) + 1.0) * res * res
    norm = np.empty(rows)
    for n in sorted(set(npts.tolist())):
        r = np.flatnonzero(npts == n)
        norm[r] = np.sum(np.ascontiguousarray(terms[n - 1::-1, r].T), axis=1)
    res = res / np.sqrt(norm)
    flip = np.where(res[0] * sign_top < 0.0, -1.0, 1.0)
    return np.where(col < npts, res * flip, 0.0)


def _threej_rows(l1, l2, m1, m2):
    """3j(l1 l2 j; m1 m2 m3), m3 = -(m1+m2), for rows of integer arrays.

    Each row (broadcast from the arguments) is the family j = jmin..l1+l2
    with jmin = max(|l1-l2|, |m3|): a two-sided three-term recursion in
    j, matched at the forward maximum and normalized with
    sum (2j+1) f^2 = 1, sign (-1)^{l1-l2-m3} at j = l1+l2.  Both passes
    run in their direction of growth, so every entry keeps full relative
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
    jmax = l1 + l2
    npts = jmax - jmin + 1
    sign_top = np.where((l1 - l2 - m3) % 2 == 1, -1.0, 1.0)
    out = np.zeros((int(npts.max()), len(l1)))
    one = npts == 1
    out[0, one] = sign_top[one] / np.sqrt(2.0 * jmin[one] + 1.0)
    closed = (m1 == 0) & (m2 == 0) & ~one
    for r in np.flatnonzero(closed):
        # degenerate recursion (all B vanish); use the closed form per j
        out[:npts[r], r] = [threej_000(int(l1[r]), int(l2[r]), j)
                            for j in range(jmax[r], jmin[r] - 1, -1)]
    rec = np.flatnonzero(~(one | closed))
    if len(rec):
        out[:, rec] = _sg_recursion(l1[rec], l2[rec], m1[rec], m2[rec],
                                    jmin[rec], npts[rec], sign_top[rec],
                                    out.shape[0])
    return jmin, out


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
