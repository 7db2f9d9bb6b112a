"""Single-sphere scattering T-matrices on the imaginary frequency axis.

Supported laws: the Robin family (Dirichlet, Neumann, Robin with zeta =
lambda/R >= 0) for a scalar field, and dielectric or perfectly conducting
spheres for the electromagnetic field.  All multipoles decouple, so each
T-matrix is diagonal in (l, m) with entries independent of m.

Internally every entry is evaluated in the scaled form T_l e^{-2 kappa R}
through ratio chains of scaled Bessel functions; the ratios keep every
bracket a sum of same-sign terms (no cancellation), which is what makes
l ~ 40-60 at small kappa R feasible.  The scaled entries carry the
internal sign described in `t_scalar_log`; exact low-frequency series and
the static dielectric coefficients serve the large-distance expansions.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .specfun import bessel_ik_half_chain

__all__ = [
    "Robin",
    "Dirichlet",
    "Neumann",
    "Dielectric",
    "PerfectConductor",
    "Dispersive",
    "SphereSpec",
]


# ---------------------------------------------------------------------------
# boundary/material laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Robin:
    """Robin condition phi - zeta R d_n phi = 0 with zeta = lambda/R >= 0.

    zeta = 0 is Dirichlet, zeta = +inf is Neumann.  Negative zeta in
    (-1, 0) produces T-matrix poles (bound states) and is rejected.
    """

    zeta: float


@dataclass(frozen=True)
class Dirichlet:
    pass


@dataclass(frozen=True)
class Neumann:
    pass


@dataclass(frozen=True)
class Dielectric:
    """Frequency-independent permittivity and permeability, finite and > 0."""

    eps: float
    mu: float


@dataclass(frozen=True)
class PerfectConductor:
    pass


@dataclass(frozen=True)
class Dispersive:
    """Extension point: eps_mu(kappa) -> (eps, mu), finite and > 0 at every
    kappa.

    The core treats the callable opaquely, resolving it pointwise on the
    imaginary axis; only constant materials carry low-frequency series.
    """

    eps_mu: object


_SCALAR_LAWS = (Robin, Dirichlet, Neumann)
_EM_LAWS = (Dielectric, PerfectConductor, Dispersive)


def is_scalar_law(law):
    return isinstance(law, _SCALAR_LAWS)


def is_em_law(law):
    return isinstance(law, _EM_LAWS)


@dataclass(frozen=True)
class SphereSpec:
    """A sphere of given radius with a boundary/material law."""

    radius: float
    law: object

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("radius must be positive, got %r" % (self.radius,))
        law = self.law
        if isinstance(law, Robin):
            # NaN fails every comparison, so test for the valid range
            if not law.zeta >= 0.0:
                raise ValueError(
                    "Robin zeta must be >= 0 (zeta in (-1, 0) has bound-state "
                    "poles on the imaginary axis), got %r" % (law.zeta,))
        elif isinstance(law, Dielectric):
            if not (0.0 < law.eps < math.inf and 0.0 < law.mu < math.inf):
                raise ValueError("dielectric requires finite eps > 0 and "
                                 "mu > 0, got (%r, %r)" % (law.eps, law.mu))
        elif isinstance(law, Dispersive):
            if not callable(law.eps_mu):
                raise ValueError("Dispersive.eps_mu must be callable")
        elif not isinstance(law, (Dirichlet, Neumann, PerfectConductor)):
            raise ValueError("unsupported law %r" % (law,))


def _effective_zeta(law):
    """Robin parameter with Dirichlet/Neumann folded in; None means Neumann."""
    if isinstance(law, Dirichlet):
        return 0.0
    if isinstance(law, Neumann):
        return None
    if isinstance(law, Robin):
        return None if math.isinf(law.zeta) else law.zeta
    raise TypeError("a Robin-family law (Dirichlet, Neumann or Robin) is "
                    "required, got %r" % (law,))


# ---------------------------------------------------------------------------
# scaled diagonal entries (imaginary frequency)
# ---------------------------------------------------------------------------

# a perfect conductor's magnetic (TE) and electric (TM) channels are the
# Robin entries at zeta = 0 and zeta = -1: -i_l/k_l and -(z i_l)'/(z k_l)'
_PEC_ZETAS = (0, -1)


def _robin_log(ch, zeta):
    """(sign, log|.|) of the scaled Robin entries T_l e^{-2z} on one chain.

    T_l = -(i_l/k_l)(1 - zeta (l + z rho))/(1 + zeta (z sigma - l)), with
    z rho = z i'_l/i_l - l > 0 and z sigma - l = l - z k'_l/k_l >= l + 1
    from the ratio chains, so each bracket is a sum of same-sign terms
    for zeta >= 0.  zeta None is the Neumann limit
    +(i_l/k_l)(l + z rho)/(z sigma - l); the denominator is signed, so
    zeta = -1 (a perfect conductor's electric channel) works too.
    """
    # log of (i_l/k_l) e^{-2z} = (pi/2) (I e^{-z})/(K e^{+z})
    log_ratio = math.log(math.pi / 2.0) + ch.log_i - ch.log_k
    if zeta == 0:  # Dirichlet: T = -i_l/k_l
        return -np.ones_like(log_ratio), log_ratio
    lv = np.arange(len(log_ratio), dtype=float)
    zrho = ch.z * ch.rho
    zsig_l = ch.z * ch.sigma - lv
    if zeta is None:
        num, den = -(lv + zrho), zsig_l
    else:
        num, den = 1.0 - zeta * (lv + zrho), 1.0 + zeta * zsig_l
    with np.errstate(divide="ignore"):
        logmag = log_ratio + np.log(np.abs(num)) - np.log(np.abs(den))
    return -np.sign(num) * np.sign(den), logmag


def t_scalar_log(spec, l_max, kappa):
    """Scaled scalar entries: (sign, log|.|) of T_l e^{-2 kappa R}.

    Here T_l carries the internal sign convention T_l = -(-1)^l T_l^{print}
    in which the Dirichlet diagonal is negative for every l; the energy
    determinant is invariant under this relabeling and it keeps all
    downstream products sign-transparent.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be finite and positive, got %r"
                         % (kappa,))
    zeta = _effective_zeta(spec.law)
    return _robin_log(bessel_ik_half_chain(l_max, kappa * spec.radius), zeta)


def _em_log_parts(l_max, z):
    """Per-order logs used by the electromagnetic brackets at argument z."""
    ch = bessel_ik_half_chain(l_max, z)
    lv = np.arange(l_max + 1, dtype=float)
    log_i = ch.log_i + 0.5 * math.log(math.pi / (2.0 * z))   # log i_l e^{-z}
    log_k = ch.log_k + 0.5 * math.log(2.0 / (math.pi * z))   # log k_l e^{+z}
    log_wi = log_i + np.log(1.0 + lv + z * ch.rho)           # (z i_l)' e^{-z} > 0
    log_wk = log_k + np.log(z * ch.sigma - lv - 1.0)         # |(z k_l)'| e^{+z}
    return log_i, log_k, log_wi, log_wk


def t_em_log(spec, l_max, kappa):
    """Scaled EM entries: (sign, log) of T e^{-2z}, l-major with the
    polarizations (M, E) interleaved, length 2 (l_max + 1).

    Same internal sign convention as `t_scalar_log`; order l = 0 is zeroed
    (no monopole radiation).
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be finite and positive, got %r"
                         % (kappa,))
    law = spec.law
    z = kappa * spec.radius
    sign = np.empty(2 * (l_max + 1))
    logmag = np.empty(2 * (l_max + 1))
    if isinstance(law, PerfectConductor):
        ch = bessel_ik_half_chain(l_max, z)
        for pol, zeta in enumerate(_PEC_ZETAS):
            sign[pol::2], logmag[pol::2] = _robin_log(ch, zeta)
    elif isinstance(law, (Dielectric, Dispersive)):
        if isinstance(law, Dispersive):
            eps, mu = law.eps_mu(kappa)
            if not (0.0 < eps < math.inf and 0.0 < mu < math.inf):
                raise ValueError("eps_mu(kappa) must return finite positive "
                                 "values, got (%r, %r)" % (eps, mu))
        else:
            eps, mu = law.eps, law.mu
        n = math.sqrt(eps * mu)
        li_z, lk_z, lwi_z, lwk_z = _em_log_parts(l_max, z)
        li_n, _, lwi_n, _ = _em_log_parts(l_max, n * z)
        log_eta_m = 0.5 * (math.log(eps) - math.log(mu))  # log sqrt(eps/mu)
        log_n = 0.5 * (math.log(eps) + math.log(mu))
        for pol, log_eta in enumerate((log_eta_m, -log_eta_m)):
            # numerator: eta i(z) Wi(nz) - n i(nz) Wi(z), may cancel
            t1 = log_eta + li_z + lwi_n
            t2 = log_n + li_n + lwi_z
            hi = np.maximum(t1, t2)
            with np.errstate(under="ignore"):
                num = np.exp(t1 - hi) - np.exp(t2 - hi)
            # denominator: eta k(z) Wi(nz) + n i(nz) |Wk(z)|, all positive
            d1 = log_eta + lk_z + lwi_n
            d2 = log_n + li_n + lwk_z
            logden = np.logaddexp(d1, d2)
            sign[pol::2] = -np.sign(num)
            with np.errstate(divide="ignore"):
                logmag[pol::2] = np.log(np.abs(num)) + hi - logden
    else:
        raise TypeError("EM T-matrix requires Dielectric, Dispersive or "
                        "PerfectConductor, got %r" % (law,))
    sign[:2] = 0.0
    logmag[:2] = -np.inf
    return sign, logmag


# ---------------------------------------------------------------------------
# exact low-frequency series (Robin family and PEC are rational)
# ---------------------------------------------------------------------------

def _fact(n):
    return math.factorial(n)


def _dfact(n):
    # (2k+1)!! etc.; n = -1 gives 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _series_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[:n - i]):
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _series_inv(a, n):
    if a[0] == 0:
        raise ZeroDivisionError("series has no constant term")
    inv = [Fraction(0)] * n
    inv[0] = 1 / a[0]
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * inv[k - j]
        inv[k] = -s / a[0]
    return inv


def robin_series_fractions(zeta, l, n_terms):
    """Exact Taylor coefficients of the internal-sign Robin T_l(i kappa).

    Returns [c_0, c_1, ...] with T_l = sum_k c_k z^{2l+1+k}, z = kappa R,
    as Fractions, of T_l = -(i_l - zeta z i_l')/(k_l - zeta z k_l');
    zeta enters through its exact binary value, and None is the Neumann
    limit.  A perfect conductor's channels are zeta = 0 (M) and -1 (E).
    """
    n = n_terms + 2 * l + 2  # padding for intermediate products
    # regular kernel: i_l = z^l sum_j a_j z^{2j}
    a = [Fraction(0)] * n
    j = 0
    while 2 * j < n:
        a[2 * j] = Fraction(1, (2 ** j) * _fact(j) * _dfact(2 * l + 2 * j + 1))
        j += 1
    # z i_l' = z^l sum_j (l+2j) a_j z^{2j}
    b = [(l + k) * ak for k, ak in enumerate(a)]
    # outgoing kernel: k_l = e^{-z} z^{-(l+1)} P(z), P of degree l
    p = [Fraction(0)] * n
    for i in range(l + 1):
        p[l - i] = Fraction(_fact(l + i), _fact(i) * _fact(l - i) * 2 ** i)
    # z k_l' = e^{-z} z^{-(l+1)} [z P' - z P - (l+1) P]
    q = [Fraction(0)] * n
    for i in range(l + 1):
        q[i] += (i - l - 1) * p[i]
        q[i + 1] -= p[i]
    if zeta is None:
        num, den = b, q
    else:
        zeta = Fraction(zeta)
        num = [ai - zeta * bi for ai, bi in zip(a, b)]
        den = [pi - zeta * qi for pi, qi in zip(p, q)]
    # T = -z^{2l+1} e^{z} num(z)/den(z)
    e = [Fraction(1, _fact(k)) for k in range(n)]
    series = _series_mul(_series_mul(num, e, n), _series_inv(den, n), n)
    return [-c for c in series[:n_terms]]


# Static dielectric response coefficients with the radius scaled out,
# exact for Fraction arguments (x is eps for the electric channel and mu
# for the magnetic one, y the other)

def _alpha_hat(x, l):
    """Static multipole response (x-1)/(x+(l+1)/l), radius scaled out."""
    return (x - 1) / (x + Fraction(l + 1, l))


def _gamma13_hat(x, y):
    return -Fraction(4 + x * (y * x + x - 6)) / (5 * (x + 2) ** 2)


def _gamma14_hat(x):
    return Fraction(4, 9) * ((x - 1) / (x + 2)) ** 2
