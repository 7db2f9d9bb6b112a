"""Exact Casimir interaction energies between spheres.

The energy is an integral over imaginary wavenumber kappa of
ln det(1 - N(kappa)), where the round-trip operator N chains the
spheres' T-matrices with translation blocks between their centers.
Azimuthal symmetry makes N block diagonal in m, and each m-block is
truncated at orbital order l; the per-l truncations converge
exponentially and are extrapolated to the exact value.

T-matrix diagonals arrive in signed-log form and translation blocks as
bounded floats times a logged k-factor (see `translation`), so deep
multipole orders at small and large kappa stay representable.  Every
m-independent log of a quadrature node is summed and exponentiated once
per sphere pair, and the per-m work is a product of O(1) floats feeding
the final determinants.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad_vec

from .tmatrix import (
    SphereSpec,
    is_em_law,
    is_scalar_law,
    t_em_log,
    t_scalar_log,
)
# u_log_block stays importable from here: bench/spans.py traces it at
# every import site
from .translation import node_kernel, u_log_block  # noqa: F401

__all__ = [
    "DomainError",
    "FieldKind",
    "REAL_SCALAR",
    "COMPLEX_SCALAR",
    "ELECTROMAGNETIC",
    "Geometry",
    "QuadSpec",
    "EnergyEstimate",
    "integrand",
    "casimir_energy",
    "casimir_energy_nbody",
    "extrapolate",
    "suggest_l_max",
]


class DomainError(RuntimeError):
    """det(1 - N) lost positivity: overlap or convention breakage."""


_PREFACTORS = {
    "scalar-real": 1.0 / (2.0 * math.pi),
    "scalar-complex": 1.0 / math.pi,
    "em": 1.0 / (2.0 * math.pi),
}


@dataclass(frozen=True)
class FieldKind:
    """Fluctuating field: complex scalar, real scalar, or electromagnetic.

    The real scalar carries half the complex-scalar prefactor; the EM
    field shares the 1/(2 pi) prefactor with two polarizations built
    into its blocks.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _PREFACTORS:
            raise ValueError("unknown field kind %r; expected one of %s"
                             % (self.kind, sorted(_PREFACTORS)))

    @property
    def prefactor(self):
        return _PREFACTORS[self.kind]

    @property
    def is_em(self):
        return self.kind == "em"


REAL_SCALAR = FieldKind("scalar-real")
COMPLEX_SCALAR = FieldKind("scalar-complex")
ELECTROMAGNETIC = FieldKind("em")


def _as_field(field_like):
    if isinstance(field_like, FieldKind):
        return field_like
    return FieldKind(str(field_like))


@dataclass(frozen=True)
class Geometry:
    """Collinear spheres on the z-axis with strictly increasing centers."""

    spheres: tuple
    centers: tuple

    def __post_init__(self):
        object.__setattr__(self, "spheres", tuple(self.spheres))
        object.__setattr__(self, "centers",
                           tuple(float(c) for c in self.centers))
        if len(self.spheres) < 2:
            raise ValueError("need at least two spheres")
        if len(self.spheres) != len(self.centers):
            raise ValueError("spheres and centers length mismatch")
        for sp in self.spheres:
            if not isinstance(sp, SphereSpec):
                raise ValueError("spheres must be SphereSpec instances")
        for i in range(len(self.centers) - 1):
            if not self.centers[i + 1] > self.centers[i]:
                raise ValueError("centers must be strictly increasing")
            gap = (self.centers[i + 1] - self.centers[i]
                   - self.spheres[i].radius - self.spheres[i + 1].radius)
            if not gap > 0.0:
                raise ValueError(
                    "spheres %d and %d overlap (surface gap %g <= 0)"
                    % (i, i + 1, gap))

    @classmethod
    def pair(cls, sphere1, sphere2, d):
        """Two spheres with center-to-center distance d."""
        return cls((sphere1, sphere2), (0.0, float(d)))

    @property
    def n_spheres(self):
        return len(self.spheres)

    @property
    def d(self):
        if len(self.spheres) != 2:
            raise ValueError("d is defined for two-sphere geometries")
        return self.centers[1] - self.centers[0]

    @property
    def surface_gap(self):
        """Smallest surface-to-surface distance between adjacent spheres."""
        return min(self.centers[i + 1] - self.centers[i]
                   - self.spheres[i].radius - self.spheres[i + 1].radius
                   for i in range(len(self.centers) - 1))


@dataclass(frozen=True)
class QuadSpec:
    """Adaptive quadrature controls for the kappa integral.

    The integral runs over t = 2 kappa L with L the surface gap; the
    integrand decays like e^{-t}, so t_max = 80 truncates far below
    relative 1e-16 of the peak.
    """

    rel_tol: float = 1e-9
    t_max: float = 80.0

    def __post_init__(self):
        if not self.rel_tol > 0.0:
            raise ValueError("quad tolerance must be > 0")
        if not self.t_max > 0.0:
            raise ValueError("t_max must be > 0")


@dataclass(frozen=True)
class EnergyEstimate:
    """Converged energy (units hbar c / R_1) with its truncation history.

    extrap_error is the magnitude of the last fitted correction (or of
    the last raw difference when the geometric fit was rejected).
    """

    value: float
    l_max: int
    history: list
    delta_fit: float
    quad_error: float
    extrap_error: float = math.nan


def _check_field_laws(geometry, fld):
    for sp in geometry.spheres:
        if fld.is_em and not is_em_law(sp.law):
            raise TypeError("EM field requires dielectric/PEC spheres, "
                            "got %r" % (sp.law,))
        if not fld.is_em and not is_scalar_law(sp.law):
            raise TypeError("scalar field requires Robin-family spheres, "
                            "got %r" % (sp.law,))


def _leading_lndets(nmat):
    """(signs, lndets) of the leading principal minors of 1 - nmat.

    Pivot-free elimination carried in the small matrix B ~ N: the k-th
    pivot is 1 - b_kk, accumulated through log1p so the result keeps
    full relative accuracy even when N is ~1e-12 (far separations).
    The k-th pivot product is exactly the k-th leading minor.  Falls
    back to pivoted slogdet if a pivot degenerates (never happens in
    the physical regime, where 1 - N is strongly diagonally dominated).
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
            return _leading_lndets_pivoted(nmat)
        sign *= 1.0 if piv > 0 else -1.0
        acc += math.log1p(-bkk) if piv > 0 else math.log(-piv)
        signs[k] = sign
        lndets[k] = acc
        if k + 1 < n:
            b[k + 1:, k + 1:] += np.outer(b[k + 1:, k], b[k, k + 1:]) / piv
    return signs, lndets


def _leading_lndets_pivoted(nmat):
    n = nmat.shape[0]
    a = np.eye(n) - nmat
    signs = np.empty(n)
    lndets = np.empty(n)
    for k in range(n):
        sgn, ld = np.linalg.slogdet(a[:k + 1, :k + 1])
        signs[k] = sgn
        lndets[k] = ld
    return signs, lndets


def _accumulate_block(history, nmat, l_lo, weight, stride=1):
    """Add weighted lndets of the per-l cuts of 1 - nmat to history.

    nmat is ordered l-major with `stride` rows per orbital order, so
    the cut at order l is the leading principal minor of size
    stride*(l - l_lo + 1); positivity is asserted at those cuts only
    (staircase minors in between carry no physical meaning).
    """
    signs, lndets = _leading_lndets(nmat)
    cut = lndets[stride - 1::stride]
    if np.any(signs[stride - 1::stride] <= 0.0) \
            or not np.all(np.isfinite(cut)):
        raise DomainError(
            "det(1 - N) lost positivity; spectral radius >= 1 "
            "(check for overlap or invalid parameters)")
    history[l_lo:l_lo + len(cut)] += weight * cut


def _t_log(sphere, fld, l_max, kappa):
    """(sign, log) of the scaled T diagonal, l-major with polarizations
    (M, E) interleaved for the EM field."""
    if not fld.is_em:
        return t_scalar_log(sphere, l_max, kappa)
    blocks = t_em_log(sphere, l_max, kappa)
    return tuple(np.stack([blocks["M"][i], blocks["E"][i]], axis=1).ravel()
                 for i in (0, 1))


def _per_pol(arr, pol):
    """Repeat an l-indexed array over the interleaved polarizations."""
    for axis in range(arr.ndim):
        arr = np.repeat(arr, pol, axis)
    return arr


def _history_pair(geometry, fld, kappa, l_max):
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
        # every m-independent factor of the two one-bounce blocks
        scale = []
        for sp in (sp1, sp2):
            s, g = _t_log(sp, fld, l_max, kappa)
            scale.append(rd * s[:, None] * np.exp(
                (g + peel_t)[:, None] + kern.log_scale + peel_u))
    u12, u21 = kern.oriented("12"), kern.oriented("21")
    hist = np.zeros(l_max + 1)
    l_min = 1 if fld.is_em else 0
    for m in range(l_max + 1):
        l_lo = max(m, l_min)
        k = l_max + 1 - l_lo
        sl = slice(pol * l_lo, None)
        # alternant embedding with 2*pol rows per l: the order-l cut of
        # det([[1, -P],[-Q, 1]]) is det(1 - P_l Q_l) with both one-bounce
        # factors and all polarizations truncated consistently
        big = np.zeros((k, 2, pol, k, 2, pol))
        big[:, 0, :, :, 1, :] = (scale[0][sl, sl] * u12[m][sl, sl]).reshape(
            k, pol, k, pol)
        big[:, 1, :, :, 0, :] = (scale[1][sl, sl] * u21[m][sl, sl]).reshape(
            k, pol, k, pol)
        _accumulate_block(hist, big.reshape(2 * pol * k, 2 * pol * k), l_lo,
                          1.0 if m == 0 else 2.0, stride=2 * pol)
    return hist


def integrand(geometry, field_kind, kappa, l_max):
    """Sum over m of ln det(1 - N_m(kappa)) at truncation l_max.

    The +-m blocks are equal; m > 0 is computed once and doubled.  A
    spectral radius of N_m at or above 1 raises DomainError.
    """
    fld = _as_field(field_kind)
    if geometry.n_spheres != 2:
        raise ValueError("integrand is defined for two-sphere geometries")
    _check_field_laws(geometry, fld)
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    l_min = 1 if fld.is_em else 0
    if l_max < l_min:
        raise ValueError("l_max must be >= %d" % l_min)
    return float(_history_pair(geometry, fld, kappa, l_max)[l_max])


def extrapolate(history, geometry):
    """Extrapolate the per-l truncations to l -> infinity.

    Fits E^(l) = E_inf + A e^{-delta (d/R - 2) l} on the last four
    points via log-linear regression of the successive differences.
    A non-monotone tail rejects the fit and returns the last value with
    delta = nan.
    """
    if len(history) < 4:
        raise ValueError("need at least 4 history points")
    tail = sorted(history)[-4:]
    ls = np.array([p[0] for p in tail], dtype=float)
    es = np.array([p[1] for p in tail], dtype=float)
    diffs = np.diff(es)
    dls = np.diff(ls)
    last_l, last_e = tail[-1]
    if np.any(diffs == 0.0) or len(set(np.sign(diffs))) != 1 \
            or np.any(np.abs(diffs[1:]) >= np.abs(diffs[:-1])):
        return last_e, math.nan
    # slope of ln|diff| vs l gives the decay rate per unit l
    mid = 0.5 * (ls[1:] + ls[:-1])
    slope, _ = np.polyfit(mid, np.log(np.abs(diffs)), 1)
    if not slope < 0.0:
        return last_e, math.nan
    q = math.exp(slope * dls[-1])
    e_inf = last_e + diffs[-1] * q / (1.0 - q)
    # geometric-mean radius generalizes the equal-radius rate law
    rbar = math.sqrt(geometry.spheres[0].radius
                     * geometry.spheres[-1].radius)
    span = (geometry.centers[-1] - geometry.centers[0]) / rbar - 2.0
    delta = -slope / span if span > 0 else math.nan
    return e_inf, delta


def _integrate_history(geometry, fld, l_max, quad, history_fn):
    gap = geometry.surface_gap
    l_min = 1 if fld.is_em else 0

    def f(t):
        if t <= 0.0:
            return np.zeros(l_max + 1)
        kappa = t / (2.0 * gap)
        return history_fn(geometry, fld, kappa, l_max)

    # epsabs acts only as the floor for identically-zero integrands
    res, err = quad_vec(f, 0.0, quad.t_max, epsabs=1e-280,
                        epsrel=quad.rel_tol, norm="max", quadrature="gk15")
    # substitution d kappa = dt/(2L); report in units of hbar c / R_1
    scale = fld.prefactor / (2.0 * gap) * geometry.spheres[0].radius
    energies = scale * res
    quad_error = abs(scale) * float(err)
    history = [(l, float(energies[l])) for l in range(l_min, l_max + 1)]
    if len(history) >= 4:
        value, delta = extrapolate(history, geometry)
        if delta == delta:
            eerr = abs(value - history[-1][1])
        else:
            eerr = abs(history[-1][1] - history[-2][1])
    else:
        value, delta = history[-1][1], math.nan
        eerr = math.nan
    return EnergyEstimate(value=float(value), l_max=l_max, history=history,
                          delta_fit=float(delta), quad_error=quad_error,
                          extrap_error=float(eerr))


def casimir_energy(geometry, field_kind, l_max, quad=QuadSpec()):
    """Casimir interaction energy of two spheres, extrapolated in l.

    Integrates the m-summed log-determinant over t = 2 kappa L with
    adaptive vector quadrature (every truncation l shares one node set),
    then extrapolates the exponentially converging per-l estimates.
    Value and history are in units of hbar c / R_1.
    """
    fld = _as_field(field_kind)
    if geometry.n_spheres != 2:
        raise ValueError("casimir_energy expects exactly two spheres; "
                         "use casimir_energy_nbody for more")
    _check_field_laws(geometry, fld)
    l_min = 1 if fld.is_em else 0
    if l_max < l_min:
        raise ValueError("l_max must be >= %d" % l_min)
    return _integrate_history(geometry, fld, l_max, quad, _history_pair)


# ---------------------------------------------------------------------------
# N collinear spheres
# ---------------------------------------------------------------------------

def _history_nbody(geometry, fld, kappa, l_max):
    """History vector for N spheres: lndet of 1 - K, K_ab = T^a U^ab.

    The block matrix runs over (sphere, l, polarization); a diagonal
    similarity e^{-kappa R_a} (kappa c)^{-l} balances every entry, with
    the same determinant.  Pairs at the same distance share one
    translation kernel.
    """
    spheres = geometry.spheres
    centers = geometry.centers
    nsph = len(spheres)
    p = 2 if fld.is_em else 1
    c_len = max(sp.radius for sp in spheres)
    lv = np.arange(l_max + 1, dtype=float)
    pw = _per_pol((lv[None, :] - lv[:, None]) * math.log(kappa * c_len), p)
    tlogs = [_t_log(sp, fld, l_max, kappa) for sp in spheres]
    kernels = {}
    pairs = []
    with np.errstate(under="ignore"):
        for a in range(nsph):
            for b in range(nsph):
                if a == b:
                    continue
                dab = abs(centers[b] - centers[a])
                kern = kernels.get(dab)
                if kern is None:
                    kern = kernels[dab] = node_kernel(l_max, kappa * dab,
                                                      fld.is_em)
                sa, ga = tlogs[a]
                # exponent: T(scaled)*e^{2 z_a} * U(scaled)*e^{-x},
                # similarity e^{-k R_a + k R_b} (kc)^{l'-l}
                expo = kappa * (spheres[a].radius + spheres[b].radius - dab)
                scale = sa[:, None] * np.exp(ga[:, None] + kern.log_scale
                                             + pw + expo)
                direction = "12" if centers[b] > centers[a] else "21"
                pairs.append((a, b, scale, kern.oriented(direction)))
    hist = np.zeros(l_max + 1)
    l_min = 1 if fld.is_em else 0
    for m in range(l_max + 1):
        l_lo = max(m, l_min)
        nl = l_max + 1 - l_lo
        if nl <= 0:
            break
        nb = nl * p
        sl = slice(p * l_lo, None)
        big = np.zeros((nsph * nb, nsph * nb))
        for a, b, scale, u in pairs:
            big[a * nb:(a + 1) * nb, b * nb:(b + 1) * nb] = \
                scale[sl, sl] * u[m][sl, sl]
        # l-major reordering turns "every sphere restricted to
        # l <= cut" into a leading principal submatrix
        perm = np.concatenate([
            np.arange(a * nb + li * p, a * nb + (li + 1) * p)
            for li in range(nl) for a in range(nsph)])
        _accumulate_block(hist, big[np.ix_(perm, perm)], l_lo,
                          1.0 if m == 0 else 2.0, stride=nsph * p)
    return hist


def casimir_energy_nbody(geometry, field_kind, l_max, quad=QuadSpec()):
    """Casimir energy of N >= 2 collinear spheres.

    Evaluates prefactor * int dkappa ln[det M / det M_inf] with M the
    block matrix of inverse T-matrices and translations; reduces to
    `casimir_energy` for N = 2.
    """
    fld = _as_field(field_kind)
    _check_field_laws(geometry, fld)
    l_min = 1 if fld.is_em else 0
    if l_max < l_min:
        raise ValueError("l_max must be >= %d" % l_min)
    return _integrate_history(geometry, fld, l_max, quad, _history_nbody)


def suggest_l_max(geometry, field_kind, quad=QuadSpec(rel_tol=1e-7),
                  probe_l=10, lo=6, hi=40, target=14.0):
    """Pick a truncation order from a cheap probe run.

    Probes at l = probe_l, reads the fitted decay rate of the
    truncation error, and sizes l_max so the residual is ~e^{-target}
    of the leading correction; clamped to [lo, hi].
    """
    fld = _as_field(field_kind)
    l_min = 1 if fld.is_em else 0
    probe = casimir_energy(geometry, fld, max(probe_l, l_min + 3), quad)
    es = [e for _, e in probe.history]
    diffs = np.abs(np.diff(es))
    if probe.delta_fit != probe.delta_fit or diffs[-1] == 0.0:
        return lo if diffs[-1] == 0.0 else hi
    # per-l decay rate from the last two differences
    rate = math.log(diffs[-2] / diffs[-1]) if diffs[-1] < diffs[-2] else 0.0
    if rate <= 0.0:
        return hi
    need = int(math.ceil(probe.l_max + target / rate))
    return max(lo, min(hi, need))
