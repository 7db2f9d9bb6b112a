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
    z = kappa * spec.radius
    ch = bessel_ik_half_chain(l_max, z)
    lv = np.arange(l_max + 1, dtype=float)
    # log of (i_l/k_l) e^{-2z} = (pi/2) (I e^{-z})/(K e^{+z})
    log_ratio = math.log(math.pi / 2.0) + ch.log_i - ch.log_k
    zrho = z * ch.rho          # z i'_l/i_l - l  (positive)
    zsig_l = z * ch.sigma - lv  # l - z k'_l/k_l  (>= l + 1, no cancellation)
    if zeta == 0.0:  # Dirichlet: T = -i_l/k_l
        sign = -np.ones(l_max + 1)
        logmag = log_ratio
    elif zeta is None:  # Neumann: T = +(i_l/k_l)(l + z rho)/(z sigma - l)
        sign = np.ones(l_max + 1)
        logmag = log_ratio + np.log(lv + zrho) - np.log(zsig_l)
    else:
        # T = -(i_l/k_l) (1 - zeta l - zeta z rho)/(1 + zeta (z sigma - l))
        num = 1.0 - zeta * (lv + zrho)
        den = 1.0 + zeta * zsig_l
        sign = -np.sign(num)
        with np.errstate(divide="ignore"):
            logmag = log_ratio + np.where(num != 0.0,
                                          np.log(np.abs(num)), -np.inf) \
                - np.log(den)
    return sign, logmag


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
    """Scaled EM entries: {"M": (sign, log), "E": (sign, log)} of T e^{-2z}.

    Same internal sign convention as `t_scalar_log`; index l = 0 is zeroed
    (no monopole radiation).
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be finite and positive, got %r"
                         % (kappa,))
    law = spec.law
    z = kappa * spec.radius
    out = {}
    if isinstance(law, PerfectConductor):
        ch = bessel_ik_half_chain(l_max, z)
        lv = np.arange(l_max + 1, dtype=float)
        log_ratio = math.log(math.pi / 2.0) + ch.log_i - ch.log_k
        # magnetic: -i_l/k_l ; electric: -(z i_l)'/(z k_l)' > 0
        sign_m = -np.ones(l_max + 1)
        logm = log_ratio
        sign_e = np.ones(l_max + 1)
        loge = log_ratio + np.log(1.0 + lv + z * ch.rho) \
            - np.log(z * ch.sigma - lv - 1.0)
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
        sign_m = np.empty(l_max + 1)
        logm = np.empty(l_max + 1)
        sign_e = np.empty(l_max + 1)
        loge = np.empty(l_max + 1)
        log_eta_m = 0.5 * (math.log(eps) - math.log(mu))  # log sqrt(eps/mu)
        log_n = 0.5 * (math.log(eps) + math.log(mu))
        for pol, sgn_arr, log_arr in (("M", sign_m, logm), ("E", sign_e, loge)):
            log_eta = log_eta_m if pol == "M" else -log_eta_m
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
            sgn_arr[:] = -np.sign(num)
            with np.errstate(divide="ignore"):
                log_arr[:] = np.where(num != 0.0,
                                      np.log(np.abs(num)), -np.inf) \
                    + hi - logden
    else:
        raise TypeError("EM T-matrix requires Dielectric, Dispersive or "
                        "PerfectConductor, got %r" % (law,))
    sign_m[0] = 0.0
    sign_e[0] = 0.0
    logm[0] = -np.inf
    loge[0] = -np.inf
    out["M"] = (sign_m, logm)
    out["E"] = (sign_e, loge)
    return out


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


def t_scalar_series_fractions(law, l, n_terms, channel=None):
    """Exact Taylor coefficients of the internal-sign T_l(i kappa).

    Returns [c_0, c_1, ...] with T_l = sum_k c_k z^{2l+1+k}, z = kappa R,
    as Fractions.  `channel` selects "M"/"E" for PerfectConductor; Robin
    zeta enters through its exact binary value.
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

    def bracket(zeta_frac, num_side):
        if num_side:
            if zeta_frac is None:  # Neumann: z i'
                return b
            return [ai - zeta_frac * bi for ai, bi in zip(a, b)]
        if zeta_frac is None:  # Neumann: z k'
            return list(q)
        return [pi - zeta_frac * qi
                for pi, qi in zip(p + [Fraction(0)] * (n - len(p)),
                                  q + [Fraction(0)] * (n - len(q)))]

    if isinstance(law, (Robin, Dirichlet, Neumann)):
        zeta = _effective_zeta(law)
        zf = None if zeta is None else Fraction(zeta)
        num = bracket(zf, True)
        den = bracket(zf, False)
    elif isinstance(law, PerfectConductor):
        if channel == "M":
            num, den = a, list(p)
        elif channel == "E":
            # (z i)' = i + z i' ; (z k)' = k + z k'
            num = [ai + bi for ai, bi in zip(a, b)]
            den = [pi + qi for pi, qi in zip(p + [Fraction(0)], q)]
        else:
            raise ValueError("PEC series requires channel 'M' or 'E'")
    else:
        raise TypeError("rational series requires Robin-family or PEC law")

    # T = -z^{2l+1} e^{z} num(z)/den(z)
    e = [Fraction(1, _fact(k)) for k in range(n)]
    den_full = den + [Fraction(0)] * (n - len(den))
    series = _series_mul(_series_mul(num, e, n), _series_inv(den_full, n), n)
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
