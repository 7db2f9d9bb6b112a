"""Single-sphere scattering T-matrices on the imaginary frequency axis.

Supported laws: the Robin family (Dirichlet, Neumann, Robin with zeta =
lambda/R >= 0) for a scalar field, and dielectric, dispersive or
perfectly conducting spheres for the electromagnetic field.  All
multipoles decouple, so each T-matrix is diagonal in (l, m) with entries
independent of m.

Every channel of every law is one bracket at z = kappa R,
T_l = -(alpha i_l - beta (z i_l)')/(alpha k_l - beta (z k_l)'): Robin
(1 + zeta, zeta), Neumann (1, 1), a perfect conductor's M and E channels
the Robin entries at zeta = 0 and -1, and a dielectric alpha =
(w i_l(w))'/i_l(w) at w = n z with beta = mu (M) or eps (E).  Numerically
every entry is the scaled T_l e^{-2 kappa R} from ratio chains of scaled
Bessel functions at z (and the I ratios at n z), so l ~ 40-60 at small
kappa R stay representable; it carries the internal sign described in
`_t_scalar_rows`.  The entries are computed in rows on a Bessel chain of
rows at kappa R, one row per quadrature node of a chunk
(`_t_scalar_rows`, `_t_em_rows`), so spheres of one radius can share one
chain whatever their laws; one kappa is the one-row case.  In exact
fractions the same brackets give the low-frequency series of the
large-distance expansions, dielectric spheres included.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .specfun import _i_gap_rows

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
        # NaN fails every comparison; infinity would pass "> 0" alone
        if not 0.0 < self.radius < math.inf:
            raise ValueError("radius must be finite and > 0, got %r"
                             % (self.radius,))
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


def _bracket_log(ch, num=None, den=None):
    """(sign, log|.|) of the scaled entries -(i_l/k_l)(num/den) e^{-2z}.

    num and den are the brackets divided by i_l and k_l, with signs; no
    bracket is the Dirichlet entry -i_l/k_l.
    """
    # log of (i_l/k_l) e^{-2z} = (pi/2) (I e^{-z})/(K e^{+z})
    log_ratio = math.log(math.pi / 2.0) + ch.log_i - ch.log_k
    if num is None:
        return -np.ones_like(log_ratio), log_ratio
    with np.errstate(divide="ignore"):
        logmag = log_ratio + np.log(np.abs(num)) - np.log(np.abs(den))
    return -np.sign(num) * np.sign(den), logmag


def _robin_log(ch, zeta):
    """(sign, log|.|) of the scaled Robin entries T_l e^{-2z} on a chain.

    T_l = -(i_l/k_l)(1 - zeta (l + z rho))/(1 + zeta (z sigma - l)), with
    z rho = z i'_l/i_l - l > 0 and z sigma - l = l - z k'_l/k_l >= l + 1
    from the ratio chains, so each bracket is a sum of same-sign terms
    for zeta >= 0.  zeta None is the Neumann limit
    +(i_l/k_l)(l + z rho)/(z sigma - l); the denominator is signed, so
    zeta = -1 (a perfect conductor's electric channel) works too.
    """
    if zeta == 0:  # Dirichlet: T = -i_l/k_l
        return _bracket_log(ch)
    lv = np.arange(ch.rho.shape[-1], dtype=float)
    zrho = ch.z * ch.rho
    zsig_l = ch.z * ch.sigma - lv
    if zeta is None:
        return _bracket_log(ch, -(lv + zrho), zsig_l)
    return _bracket_log(ch, 1.0 - zeta * (lv + zrho), 1.0 + zeta * zsig_l)


def _integer(name, value, optional=False):
    """value as an int (`operator.index`; a bool is not one), None
    too when optional, or a TypeError naming it."""
    if value is None and optional:
        return None
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError("%s must be an integer, got %r" % (name, value))


def _checked_kappas(kv):
    """The kappa of the 1-D array kv as floats, each finite and positive."""
    kappas = kv.tolist()
    for kappa in kappas:
        if not 0.0 < kappa < math.inf:
            raise ValueError("kappa must be finite and positive, got %r"
                             % (kappa,))
    return kappas


def _t_scalar_rows(spec, ch, kappas):
    """Scaled scalar entries (sign, log|.|) of T_l e^{-2 kappa R} on the
    chain rows ch (`_chain_rows` at z = kappa R of the checked floats
    kappas): arrays of shape ch.rho.shape, row i at kappas[i].

    Here T_l carries the internal sign convention T_l = -(-1)^l T_l^{print}
    in which the Dirichlet diagonal is negative for every l; the energy
    determinant is invariant under this relabeling and it keeps all
    downstream products sign-transparent.  A Robin-family law reads
    kappa only through z; the kappas keep the signature of `_t_em_rows`,
    so a caller treats both alike.
    """
    return _robin_log(ch, _effective_zeta(spec.law))


def _t_em_rows(spec, ch, kappas):
    """Scaled EM entries (sign, log) of T e^{-2 kappa R} on the chain
    rows ch (`_chain_rows` at z = kappa R of the checked floats kappas):
    arrays of shape (len(kappas), 2 (l_max + 1)), row i at kappas[i],
    l-major with the polarizations (M, E) interleaved.

    Same internal sign convention as `_t_scalar_rows`; order l = 0 is
    zeroed (no monopole radiation).
    """
    law = spec.law
    if isinstance(law, Dispersive):
        materials = [law.eps_mu(kappa) for kappa in kappas]
        for eps, mu in materials:
            if not (0.0 < eps < math.inf and 0.0 < mu < math.inf):
                raise ValueError("eps_mu(kappa) must return finite positive "
                                 "values, got (%r, %r)" % (eps, mu))
    elif isinstance(law, Dielectric):
        materials = [(law.eps, law.mu)] * len(kappas)
    elif not isinstance(law, PerfectConductor):
        raise TypeError("EM T-matrix requires Dielectric, Dispersive or "
                        "PerfectConductor, got %r" % (law,))
    l_max = ch.rho.shape[1] - 1
    if isinstance(law, PerfectConductor):
        channels = [_robin_log(ch, zeta) for zeta in _PEC_ZETAS]
    else:
        # alpha = 1 + l + w rho_l(w) at w = n z and beta = x = mu (M) or
        # eps (E); over i_l and k_l the brackets are (1 - x)(1 + l +
        # z rho_l(z)) + g_l with g_l = w rho_l(w) - z rho_l(z), zero in
        # vacuum, and 1 + l + w rho_l(w) + x (z sigma_l - l - 1) > 0.  The
        # inner field is the I ratios at w, and g carries n^2 - 1 =
        # (eps - 1) mu + (mu - 1) exactly, so a near-vacuum sphere keeps
        # full relative precision
        zs = ch.z[:, 0].tolist()
        g, wrho = _i_gap_rows(
            l_max, zs,
            [math.sqrt(eps * mu) * z for z, (eps, mu) in zip(zs, materials)],
            [(eps - 1.0) * mu + (mu - 1.0) for eps, mu in materials])
        eps, mu = np.array(materials, dtype=float).T[:, :, None]
        lv = np.arange(l_max + 1.0)
        channels = [_bracket_log(
            ch, (1.0 - x) * (1.0 + lv + ch.z * ch.rho) + g,
            1.0 + lv + wrho + x * (ch.z * ch.sigma - lv - 1.0))
            for x in (mu, eps)]
    sign, logmag = np.empty((2, len(kappas), 2 * (l_max + 1)))
    for pol, (s, g) in enumerate(channels):
        sign[:, pol::2], logmag[:, pol::2] = s, g
    sign[:, :2] = 0.0
    logmag[:, :2] = -np.inf
    return sign, logmag


# ---------------------------------------------------------------------------
# exact low-frequency series (every constant law's bracket is rational);
# `fractions`, which loads `decimal`, is imported inside the helpers that
# build Fractions, so the energy path never loads it
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
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[:n - i]):
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _numerators(xs):
    """(den, [x den for x in xs]): rationals as integers over their least
    common denominator den."""
    den = math.lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _robin_bracket(zeta):
    """(alpha, beta) of the Robin law, alpha = B/A as (B, A) = ([1 + zeta],
    [1]) and beta = zeta: alpha i_l - beta (z i_l)' is i_l - zeta z i_l',
    and -z i_l' at the Neumann limit zeta None, ([1], [1]) and 1; zeta
    enters through its exact binary value."""
    from fractions import Fraction
    if zeta is None:
        return ([Fraction(1)], [Fraction(1)]), Fraction(1)
    zeta = Fraction(zeta)
    return ([1 + zeta], [Fraction(1)]), zeta


def _i_kernels(l, n, n2=1):
    """i_l(w) and (w i_l(w))' over w^l as n Taylor coefficients in z,
    at w^2 = n2 z^2: i_l = w^l sum_j a_j w^{2j} and (w i_l)' =
    w^l sum_j (l + 1 + 2j) a_j w^{2j}."""
    from fractions import Fraction
    a = [Fraction(0)] * n
    for j in range((n + 1) // 2):
        a[2 * j] = Fraction(n2) ** j / (
            2 ** j * _fact(j) * _dfact(2 * l + 2 * j + 1))
    return a, [(l + 1 + k) * ak for k, ak in enumerate(a)]


def _k_kernel(l):
    """The integers (l+i)!/(i!(l-i)!2^i), i = 0..l, of the outgoing kernel
    k_l(z) = e^{-z} sum_i c_i z^{-(i+1)}."""
    return [_fact(l + i) // (_fact(i) * _fact(l - i) * 2 ** i)
            for i in range(l + 1)]


def mie_series_fractions(alpha, beta, l, n_terms):
    """Exact Taylor coefficients of the internal-sign bracket T_l(i kappa).

    Returns [c_0, c_1, ...] as Fractions, T_l = sum_k c_k z^{2l+1+k} =
    -(alpha i_l - beta (z i_l)')/(alpha k_l - beta (z k_l)') at z =
    kappa R, with alpha = B/A given as the pair (B, A) of rational series
    in z (n_terms coefficients suffice) and beta a rational; so T_l =
    -(B i_l - beta A (z i_l)')/(B k_l - beta A (z k_l)').
    `_series_brackets` gives each law's.  The series run on integer
    numerators over one denominator each, so only the n_terms
    coefficients returned are reduced Fractions.
    """
    from fractions import Fraction
    n = max(n_terms, l + 2)  # room for the kernel polynomials of k_l
    a, b = _i_kernels(l, n)
    den_k, ab = _numerators(a + b)
    a, b = ab[:n], ab[n:]
    big_b, big_a = alpha
    _, ba = _numerators(big_b + big_a)
    big_b, big_a = ba[:len(big_b)], ba[len(big_b):]
    beta = Fraction(beta)
    bn, bd = beta.numerator, beta.denominator
    # outgoing kernel: k_l = e^{-z} z^{-(l+1)} P(z), P of degree l
    p = _k_kernel(l)[::-1] + [0] * (n - l - 1)
    # (z k_l)' = e^{-z} z^{-(l+1)} [z P' - z P - l P]
    q = [0] * n
    for i in range(l + 1):
        q[i] += (i - l) * p[i]
        q[i + 1] -= p[i]
    # num and den over den_k den_ab bd and den_ab bd, den_ab the common
    # denominator of B and A
    num = [bd * x - bn * y for x, y in zip(_series_mul(big_b, a, n),
                                           _series_mul(big_a, b, n))]
    den = [bd * x - bn * y for x, y in zip(_series_mul(big_b, p, n),
                                           _series_mul(big_a, q, n))]
    if den[0] == 0:
        raise ZeroDivisionError("series has no constant term")
    # 1/den = sum_k inv_k z^k / den_0^(k+1), brought over den_0^n
    inv = [1] + [0] * (n - 1)
    for k in range(1, n):
        inv[k] = -sum(den[j] * inv[k - j] * den[0] ** (j - 1)
                      for j in range(1, k + 1))
    inv = [c * den[0] ** (n - 1 - k) for k, c in enumerate(inv)]
    # T = -z^{2l+1} e^{z} num(z)/den(z), e^z = sum_k ((n-1)!/k!) z^k/(n-1)!
    e = [_fact(n - 1) // _fact(k) for k in range(n)]
    series = _series_mul(_series_mul(num, e, n), inv, n)
    scale = den_k * _fact(n - 1) * den[0] ** n
    return [Fraction(-c, scale) for c in series[:n_terms]]


def _series_brackets(law, l, n):
    """{channel: (alpha, beta)} of a law's exact brackets at order l,
    alpha = B/A as the pair (B, A) of series to n Taylor coefficients in
    z: the one channel None of a Robin-family law, "M" and "E" of a
    perfect conductor or dielectric, whose alpha = (w i_l(w))'/i_l(w)."""
    from fractions import Fraction
    if isinstance(law, PerfectConductor):
        return {ch: _robin_bracket(zeta)
                for ch, zeta in zip(("M", "E"), _PEC_ZETAS)}
    if isinstance(law, Dielectric):
        eps, mu = Fraction(law.eps), Fraction(law.mu)
        a, b = _i_kernels(l, n, eps * mu)
        return {"M": ((b, a), mu), "E": ((b, a), eps)}
    return {None: _robin_bracket(_effective_zeta(law))}
