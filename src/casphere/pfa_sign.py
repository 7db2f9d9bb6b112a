"""Proximity-force baselines and the sign-of-force classification.

The proximity force approximation (PFA) integrates the parallel-plate
energy density over the gap between two spheres of equal radius R,

    E_PFA = Phi0 (pi/2) hbar c R / (d - 2R)^2,

with the plate amplitude Phi0 = -pi^2/1440 when both boundaries are of
the same kind ("like") and +7 pi^2/11520 when exactly one sphere carries
the zeta = 0 (Dirichlet) condition ("unlike").  The electromagnetic
counterpart is -(pi^3/1440) hbar c R/(d-2R)^2.

Because energies are computed, not forces, a vanishing force cannot be
read off the slope of the PFA-normalized ratio alone.  Writing
Ehat(d) = E/E_PFA, the force

    F = -E'(d) = -E_PFA(d) g(d) / (d - 2R),
    g(d) = Ehat'(d) (d - 2R) - 2 Ehat(d),

vanishes exactly where the parabola t(d) = tau (d/R - 2)^2 is tangent to
Ehat; `find_zero_force` locates the roots of g on a cubic spline through
sampled ratios and classifies the attractive/repulsive regimes between
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import expand_scalar
from .tmatrix import _effective_zeta

__all__ = [
    "RatioCurve",
    "SignProfile",
    "PHI0_LIKE",
    "PHI0_UNLIKE",
    "pfa_energy",
    "pfa_energy_em",
    "amplitude_case",
    "pfa_force_sign",
    "series_force_sign",
    "find_zero_force",
]

PHI0_LIKE = -math.pi ** 2 / 1440.0
PHI0_UNLIKE = 7.0 * math.pi ** 2 / 11520.0

ATTRACTIVE = "attractive"
REPULSIVE = "repulsive"


@dataclass(frozen=True)
class RatioCurve:
    """Sampled PFA-normalized energy ratio Ehat(d) = E/E_PFA.

    `pfa_sign` records the sign of the E_PFA used for normalization
    (-1 for the like and electromagnetic cases, +1 for unlike), which is
    what converts tangency-residual signs back into force directions.
    `parameters` is carried through to the resulting SignProfile.
    """

    d: tuple
    ratio: tuple
    pfa_sign: int = -1
    parameters: object = None

    def __post_init__(self):
        if len(self.d) != len(self.ratio):
            raise ValueError("d and ratio must have the same length")
        if self.pfa_sign not in (-1, 1):
            raise ValueError("pfa_sign must be -1 or +1")


@dataclass(frozen=True)
class SignProfile:
    """Force-sign classification of one separation sweep.

    regimes : tuple of ((d_lo, d_hi), sign) with sign "attractive" or
        "repulsive", ordered by increasing d and alternating.
    zeros : tuple of (d0, transition) with transition "-=>+" or "+=>-"
        read in the direction of increasing d ("-" marks attraction).
    resolution : float
        Localization scale of the reported zeros (grid spacing / 10).
    unresolved : tuple
        Tangency candidates inside the first or last grid interval,
        where the natural-spline end conditions distort derivatives;
        reported separately instead of being trusted.
    """

    parameters: object
    regimes: tuple
    zeros: tuple
    resolution: float
    unresolved: tuple = ()

    def __post_init__(self):
        if len(self.zeros) != max(len(self.regimes) - 1, 0):
            raise ValueError("zeros count must be regimes count - 1")
        for (_, first), (_, second) in zip(self.regimes, self.regimes[1:]):
            if first == second:
                raise ValueError("adjacent regimes must alternate sign")


# ---------------------------------------------------------------------------
# PFA baselines
# ---------------------------------------------------------------------------

def _check_gap(radius, d):
    if not 0.0 < radius < math.inf:
        raise ValueError("radius must be finite and > 0, got %r" % (radius,))
    if not math.isfinite(d):
        raise ValueError("d must be finite, got %r" % (d,))
    if not d > 2.0 * radius:
        raise ValueError("spheres overlap: d=%r <= 2R=%r" % (d, 2.0 * radius))


def pfa_energy(radius, d, amplitude_case="like"):
    """Scalar proximity-force energy Phi0 (pi/2) R/(d-2R)^2, hbar c = 1.

    Parameters
    ----------
    radius : float
        Common sphere radius.
    d : float
        Center-to-center distance, finite and > 2R.
    amplitude_case : str
        "like" (both boundaries of the same kind, attractive plate
        amplitude -pi^2/1440) or "unlike" (exactly one Dirichlet plate,
        repulsive amplitude 7 pi^2/11520).
    """
    _check_gap(radius, d)
    if amplitude_case == "like":
        phi = PHI0_LIKE
    elif amplitude_case == "unlike":
        phi = PHI0_UNLIKE
    else:
        raise ValueError("amplitude_case must be 'like' or 'unlike', got %r"
                         % (amplitude_case,))
    return phi * (math.pi / 2.0) * radius / (d - 2.0 * radius) ** 2


def pfa_energy_em(radius, d):
    """Electromagnetic proximity-force energy -(pi^3/1440) R/(d-2R)^2."""
    _check_gap(radius, d)
    return -(math.pi ** 3 / 1440.0) * radius / (d - 2.0 * radius) ** 2


def amplitude_case(law1, law2):
    """Plate-amplitude selection: 'unlike' iff exactly one zeta is 0."""
    dirichlet = [_effective_zeta(law) == 0.0 for law in (law1, law2)]
    return "unlike" if dirichlet[0] != dirichlet[1] else "like"


def pfa_force_sign(law1, law2):
    """Short-distance force sign from the PFA case: '-' attract, '+' repel."""
    return "+" if amplitude_case(law1, law2) == "unlike" else "-"


def series_force_sign(spec1, spec2):
    """Large-distance force sign from the leading series coefficient."""
    series = expand_scalar(spec1, spec2)
    for j in sorted(series.coeffs):
        c = series.coeffs[j]
        if c != 0:
            return "-" if c < 0 else "+"
    raise ValueError("no nonzero series coefficient inside the default "
                     "window; cannot classify")


# ---------------------------------------------------------------------------
# zero-force finder
# ---------------------------------------------------------------------------

_SCAN_PER_INTERVAL = 32
MIN_SAMPLES = 8  # fewest samples of a curve `find_zero_force` takes


def _check_samples(d, name="d"):
    """Refuse a d-grid `find_zero_force` cannot take: not 1-D, fewer
    than MIN_SAMPLES distances, or not strictly increasing.  `name`
    labels the grid in the message."""
    if d.ndim != 1 or d.size < MIN_SAMPLES:
        raise ValueError("%s needs at least %d distances for the zero-force "
                         "search, got %d" % (name, MIN_SAMPLES, d.size))
    if not np.all(np.diff(d) > 0.0):
        raise ValueError("%s must be strictly increasing" % (name,))


def find_zero_force(curve, radius):
    """Locate force zeros of a sampled PFA-normalized energy curve.

    Fits a natural cubic spline through the (d, Ehat) samples and finds
    the roots of the tangency residual g(d) = Ehat'(d)(d-2R) - 2 Ehat(d),
    which mark force zeros without numerically differentiating data.
    Roots falling inside the first or last grid interval are reported in
    `unresolved` (the natural end conditions are unreliable there).

    Parameters
    ----------
    curve : RatioCurve
        At least MIN_SAMPLES (8) samples on a strictly increasing
        d-grid, d > 2R.
    radius : float
        Common sphere radius R.

    Returns
    -------
    SignProfile
    """
    # the only scipy user in the package: imported here so energies and
    # the CLI start without loading scipy
    from scipy.interpolate import CubicSpline
    from scipy.optimize import brentq

    d = np.asarray(curve.d, dtype=float)
    ratio = np.asarray(curve.ratio, dtype=float)
    _check_samples(d)
    if not np.all(np.isfinite(ratio)):
        raise ValueError("ratio samples must be finite")
    _check_gap(radius, float(d[0]))
    spline = CubicSpline(d, ratio, bc_type="natural")
    dspline = spline.derivative()

    def resid(x):
        return dspline(x) * (x - 2.0 * radius) - 2.0 * spline(x)

    xs = np.unique(np.concatenate(
        [np.linspace(a, b, _SCAN_PER_INTERVAL, endpoint=False)
         for a, b in zip(d[:-1], d[1:])] + [d[-1:]]))
    gs = resid(xs)
    roots = []
    for a, b, ga, gb in zip(xs[:-1], xs[1:], gs[:-1], gs[1:]):
        if ga == 0.0:
            roots.append(float(a))
        elif ga * gb < 0.0:
            roots.append(float(brentq(resid, a, b)))
    if gs[-1] == 0.0:
        roots.append(float(xs[-1]))

    resolved, unresolved = [], []
    for r in roots:
        if r <= d[1] or r >= d[-2]:
            unresolved.append(r)
        else:
            resolved.append(r)

    bounds = [float(d[0])] + resolved + [float(d[-1])]
    regimes = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        attract = curve.pfa_sign * resid(mid) > 0.0
        regimes.append(((lo, hi), ATTRACTIVE if attract else REPULSIVE))
    zeros = []
    for r, ((_, left), (_, right)) in zip(resolved,
                                          zip(regimes, regimes[1:])):
        mark = {ATTRACTIVE: "-", REPULSIVE: "+"}
        zeros.append((r, "%s=>%s" % (mark[left], mark[right])))
    resolution = float(np.max(np.diff(d))) / 10.0
    return SignProfile(parameters=curve.parameters,
                       regimes=tuple(regimes), zeros=tuple(zeros),
                       resolution=resolution,
                       unresolved=tuple(unresolved))
