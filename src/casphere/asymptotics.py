"""Large-separation series for the sphere-sphere Casimir energy.

Expanding ln det(1 - N) = -sum_p tr N^p / p with every T-matrix entry
replaced by its low-frequency Taylor series and every translation entry
by its exact Bessel-K Laurent form turns each trace into a finite sum of
monomials c (kappa R)^a (kappa d)^(a-n) e^{-2 p kappa d}.  Term-by-term
integration,

    int_0^inf kappa^n e^{-2 p kappa d} dkappa = n! / (2 p d)^(n+1),

then collects the energy into inverse powers of the center distance d.
The pipeline runs in exact rational arithmetic (`fractions`): every 3j
symbol splits into a rational part and a radical whose square pairs up
around a closed scattering chain, so scalar coefficients come out as
Fractions.  The electromagnetic recoupling weights are exact surds
c sqrt(r); each translation block carries a single radical, shared by
the two directions of a chain, so the chain products and the final
coefficients are again rational.

Scalar boundary pairs fill the "scalar-b" form

    E = (hbar c / pi d) sum_j b_j (R/d)^(j-1),

electromagnetic spheres the "em-c" form

    E = -(hbar c / pi) (R^6/d^7) sum_n c_n (R/d)^n.

Both series are asymptotic, not convergent: they are useless at short
distance no matter how many terms are kept.  `eval_series` therefore
reports per-term magnitudes and flags the first index at which the terms
stop shrinking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .tmatrix import (
    Dielectric,
    PerfectConductor,
    Robin,
    _alpha_hat,
    _effective_zeta,
    _gamma13_hat,
    _gamma14_hat,
    is_scalar_law,
    t_scalar_series_fractions,
)

__all__ = [
    "SeriesExpansion",
    "SeriesValue",
    "expand_scalar",
    "expand_em_metal",
    "expand_em_dielectric",
    "eval_series",
    "dipole_dipole_coefficient",
]


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesExpansion:
    """Coefficients of a large-distance energy series.

    Attributes
    ----------
    form : str
        "scalar-b" for E = (hbar c / pi d) sum_j coeffs[j] (R/d)^{j-1},
        "em-c" for E = -(hbar c / pi)(R^6/d^7) sum_n coeffs[n] (R/d)^n.
    prefactor_power : int
        Leading power of 1/d of the energy (3 for Dirichlet pairs, 7 for
        Neumann pairs and electromagnetic spheres, ...).
    coeffs : dict
        Index -> exact Fraction, including exact zeros inside the
        computed window.
    provenance : str
        "computed" when produced by the trace engine, "paper-table" when
        taken from the tabulated reference values.
    certified : dict
        Index -> bool; True when the truncation windows (scattering
        order, partial-wave cut, T-series depth) provably cover that
        coefficient, so deepening the truncation cannot change it.
    """

    form: str
    prefactor_power: int
    coeffs: dict
    provenance: str
    certified: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesValue:
    """Truncated series evaluation with a breakdown diagnostic.

    `terms` holds the individual energy contributions in index order;
    `first_growing` is the index of the first term whose magnitude
    exceeds the previous nonzero one (None while the series behaves),
    the usual signal that the asymptotic expansion has been pushed past
    its useful range.
    """

    value: float
    terms: tuple
    first_growing: object = None


# ---------------------------------------------------------------------------
# exact Wigner pieces
#
# For the (0,0,0) row the 3j symbol is A*sqrt(Delta) with both factors
# rational; for the (m,-m,0) row it is
#     (-1)^(l-l') sqrt(Delta) l''! sqrt((l+m)!(l-m)!(l'+m)!(l'-m)!) S,
# S rational.  Around a closed chain each slot's radical appears exactly
# twice, so traces assemble from the rational parts and the integer
# weights w_l = (2l+1)(l+m)!(l-m)!.
# ---------------------------------------------------------------------------

def _threej_zero_parts(l1, l2, l3):
    """Rational split of the m=0 Wigner 3j: returns (A, Delta).

    A vanishes for odd l1+l2+l3; Delta is the triangle factor, reported
    whenever the triangle inequality holds so the same split serves the
    general (m, -m, 0) row.
    """
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return Fraction(0), Fraction(0)
    big_l = l1 + l2 + l3
    delta = Fraction(
        math.factorial(big_l - 2 * l1) * math.factorial(big_l - 2 * l2)
        * math.factorial(big_l - 2 * l3),
        math.factorial(big_l + 1))
    if big_l % 2:
        return Fraction(0), delta
    h = big_l // 2
    a_rat = Fraction(
        (-1) ** (h % 2) * math.factorial(h),
        math.factorial(h - l1) * math.factorial(h - l2)
        * math.factorial(h - l3))
    return a_rat, delta


def _racah_sum(l1, l2, l3, m):
    """Rational remainder S of the 3j symbol (l1, l2, l3; m, -m, 0)."""
    t_lo = max(0, l2 - l3 - m, l1 - l3 - m)
    t_hi = min(l1 + l2 - l3, l1 - m, l2 - m)
    total = Fraction(0)
    for t in range(t_lo, t_hi + 1):
        den = (math.factorial(t)
               * math.factorial(l3 - l2 + t + m)
               * math.factorial(l3 - l1 + t + m)
               * math.factorial(l1 + l2 - l3 - t)
               * math.factorial(l1 - t - m)
               * math.factorial(l2 - t - m))
        total += Fraction((-1) ** (t % 2), den)
    return total


def _w_int(l, m):
    """Slot weight (2l+1)(l+m)!(l-m)!, the squared chain radical."""
    return (2 * l + 1) * math.factorial(l + m) * math.factorial(l - m)


@lru_cache(maxsize=None)
def _ktilde_laurent(l3):
    """Exact Laurent part of k~_l3: {-(i+1): p_i}, e^{-x} stripped."""
    return {-(i + 1): Fraction(math.factorial(l3 + i),
                               math.factorial(i) * math.factorial(l3 - i)
                               * 2 ** i)
            for i in range(l3 + 1)}


@lru_cache(maxsize=None)
def _g_series(l_out, l_in, m, s):
    """Radical-free translation factor G as a Laurent dict {kpow: c}.

    The full scaled translation entry is
        U_{l_out,l_in}(m) = sqrt(w(l_out, m) w(l_in, m)) * G(x) e^{-x},
    with x = kappa*d and s = +1 (direction "12") or -1 ("21").
    """
    if m > min(l_out, l_in):
        return {}
    out = {}
    prefix = -(1 if (m + l_out) % 2 == 0 else -1)
    for l3 in range(abs(l_out - l_in), l_out + l_in + 1):
        a_rat, delta = _threej_zero_parts(l_in, l_out, l3)
        if a_rat == 0:
            continue
        s_rat = _racah_sum(l_in, l_out, l3, m)
        if s_rat == 0:
            continue
        base = (prefix * (s ** (l3 % 2)) * (2 * l3 + 1) * a_rat * delta
                * math.factorial(l3) * s_rat)
        for kp, c in _ktilde_laurent(l3).items():
            out[kp] = out.get(kp, Fraction(0)) + base * c
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# monomial algebra: keys (rpow, kpow) meaning (kappa R)^rpow (kappa d)^
# (kpow - rpow), i.e. kpow is the total kappa power to be integrated
# ---------------------------------------------------------------------------

def _mono_mul(a, b, r_cap):
    out = {}
    for (ra, ka), ca in a.items():
        for (rb, kb), cb in b.items():
            r = ra + rb
            if r > r_cap:
                continue
            key = (r, ka + kb)
            prev = out.get(key)
            out[key] = ca * cb if prev is None else prev + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def _lift_g(gdict):
    return {(0, kp): c for kp, c in gdict.items()}


def _t_slot_scalar(law, l, r_cap):
    """Taylor monomials of one internal-sign scalar T entry."""
    lead = 2 * l + 1
    if lead > r_cap:
        return {}
    coeffs = t_scalar_series_fractions(law, l, r_cap - lead + 1)
    return {(lead + k, lead + k): c for k, c in enumerate(coeffs) if c != 0}


def _chain_trace_scalar(t1, t2, p, l_cut, r_cap):
    """Monomials of sum_m tr N_m^p with both internal sums truncated."""
    lead1 = {l: min(r for r, _ in d) if d else None for l, d in t1.items()}
    lead2 = {l: min(r for r, _ in d) if d else None for l, d in t2.items()}
    g12 = lru_cache(maxsize=None)(
        lambda lo, li, m: _lift_g(_g_series(lo, li, m, 1)))
    g21 = lru_cache(maxsize=None)(
        lambda lo, li, m: _lift_g(_g_series(lo, li, m, -1)))
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
                wm *= _w_int(a, m) * _w_int(b, m)
            for key, c in term.items():
                acc[key] = acc.get(key, Fraction(0)) + wm * c
    return acc


def _integrate_traces(per_p, em_form):
    """Closed-form kappa integration of accumulated trace monomials.

    Maps each (rpow, kpow) monomial of -(1/p) tr N^p onto the series
    coefficient at R-power rpow; `em_form` selects the sign convention
    of the "em-c" normalization (which has a minus sign pulled out).
    """
    out = {}
    for p, mono in per_p.items():
        for (rp, kp), c in mono.items():
            if kp < 0:
                raise ArithmeticError(
                    "negative kappa power survived the chain sum; the "
                    "truncation bookkeeping is inconsistent")
            integ = Fraction(math.factorial(kp), (2 * p) ** (kp + 1))
            idx = rp - 6 if em_form else rp + 1
            sgn = Fraction(1, 2 * p) if em_form else Fraction(-1, 2 * p)
            out[idx] = out.get(idx, Fraction(0)) + sgn * c * integ
    return out


def _lead_power(law):
    """Smallest kappa power any partial wave of this law starts at."""
    return 3 if _effective_zeta(law) is None else 1  # Neumann-like


def expand_scalar(spec1, spec2, p_max=3, l_cut=2):
    """Exact large-distance coefficients b_j for a scalar sphere pair.

    Expands -sum_p tr N^p / p through scattering order `p_max` with
    partial waves truncated at `l_cut` and integrates term by term.  All
    arithmetic is exact (Robin zeta enters through its binary value), so
    the returned Fractions carry no rounding error.

    Parameters
    ----------
    spec1, spec2 : SphereSpec
        Spheres with Robin-family laws and equal radii.
    p_max : int
        Highest scattering order kept; coefficients are produced for
        j = 3 .. 2*p_max + 2.  Defaults cover the d^-8 window.
    l_cut : int
        Highest partial wave kept inside every trace.

    Returns
    -------
    SeriesExpansion
        form "scalar-b", provenance "computed".  `certified[j]` is True
        when neither dropped scattering orders nor dropped partial waves
        can contribute at order j.
    """
    for spec in (spec1, spec2):
        if not is_scalar_law(spec.law):
            raise TypeError("expand_scalar requires Robin-family laws, "
                            "got %r" % (spec.law,))
    if spec1.radius != spec2.radius:
        raise ValueError("the large-distance series is implemented for "
                         "equal radii only")
    if not (1 <= p_max <= 4 and 0 <= l_cut <= 5):
        raise ValueError("requested order beyond the implemented "
                         "truncation (1 <= p_max <= 4, 0 <= l_cut <= 5)")
    j_max = 2 * p_max + 2
    r_cap = j_max - 1
    t1 = {l: _t_slot_scalar(spec1.law, l, r_cap) for l in range(l_cut + 1)}
    t2 = {l: _t_slot_scalar(spec2.law, l, r_cap) for l in range(l_cut + 1)}
    a1, a2 = _lead_power(spec1.law), _lead_power(spec2.law)
    per_p = {}
    for p in range(1, p_max + 1):
        if p * (a1 + a2) > r_cap:
            continue  # this and all deeper orders start past j_max
        mono = _chain_trace_scalar(t1, t2, p, l_cut, r_cap)
        if mono:
            per_p[p] = mono
    raw = _integrate_traces(per_p, em_form=False)
    coeffs = {j: raw.get(j, Fraction(0)) for j in range(3, j_max + 1)}
    general_robin = any(
        isinstance(s.law, Robin) and 0.0 < s.law.zeta < math.inf
        for s in (spec1, spec2))
    certified = {}
    for j in coeffs:
        ok = (j < 1 + (p_max + 1) * (a1 + a2)
              and j < 2 * (l_cut + 1) + 2 + min(a1, a2))
        if general_robin and j > 8:
            ok = False  # conservative: mixed-parity Robin tails unchecked
        certified[j] = ok
    lead = min((j for j, c in coeffs.items() if c != 0), default=3)
    return SeriesExpansion(form="scalar-b", prefactor_power=lead,
                           coeffs=coeffs, provenance="computed",
                           certified=certified)


# ---------------------------------------------------------------------------
# electromagnetic route: identical recoupling to the numerical translation
# blocks, on exact surds c sqrt(r) (c a Fraction, r a squarefree integer).
# Each block carries one radical and both directions of a chain the same
# one, so every chain product is rational.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _surd(q):
    """sqrt(q) of a rational q > 0 as (c, r): c a Fraction, r squarefree."""
    n = q.numerator * q.denominator
    c, r, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        c *= p ** (e // 2)
        r *= p ** (e % 2)
        p += 1
    return Fraction(c, q.denominator), r * n


def _surd_mul(a, b):
    g = math.gcd(a[1], b[1])
    return a[0] * b[0] * g, a[1] * b[1] // (g * g)


def _same_radical(r1, r2, where):
    """r2, after checking that it is the radical r1 already found (if any)."""
    if r1 is not None and r1 != r2:
        raise ArithmeticError(
            "electromagnetic chain radicals failed to cancel: %s carries "
            "sqrt(%d) and sqrt(%d)" % (where, r1, r2))
    return r2


@lru_cache(maxsize=None)
def _cg(j1, m1, jj, q):
    """Exact <j1 m1; 1 q | jj m1+q> as a surd, by Racah's formula."""
    f = math.factorial
    m = m1 + q
    if (j1 < 0 or abs(m1) > j1 or abs(m) > jj
            or not abs(j1 - 1) <= jj <= j1 + 1):
        return Fraction(0), 1
    s = sum(Fraction((-1) ** k, f(k) * f(j1 + 1 - jj - k) * f(j1 - m1 - k)
                     * f(1 + q - k) * f(jj - 1 + m1 + k)
                     * f(jj - j1 - q + k))
            for k in range(max(0, 1 - jj - m1, j1 + q - jj),
                           min(j1 + 1 - jj, j1 - m1, 1 + q) + 1))
    if s == 0:
        return Fraction(0), 1
    c, r = _surd(Fraction(
        (2 * jj + 1) * f(j1 + 1 - jj) * f(j1 - 1 + jj) * f(jj + 1 - j1)
        * f(j1 + m1) * f(j1 - m1) * f(1 + q) * f(1 - q) * f(jj + m)
        * f(jj - m), f(j1 + jj + 2)))
    return s * c, r


@lru_cache(maxsize=None)
def _em_block(key, jr, jc, m):
    """Exact EM translation block "12" at (J' = jr, J = jc) as (r, monos).

    key pairs the target and source polarizations, "M" or "N"; the block
    is sqrt(r) times the Laurent monomials `monos`.
    """
    rad, total = None, {}
    for q in (-1, 0, 1):
        mu = m - q
        if key[0] == "M":
            wrow, roff = _cg(jr, mu, jr, q), 0
        else:  # the J'-1 channel divided by aR(J')
            wrow, roff = _surd_mul(_cg(jr - 1, mu, jr, q),
                                   _surd(Fraction(2 * jr + 1, jr + 1))), -1
        if wrow[0] == 0:
            continue
        if key[1] == "M":
            parts = ((_cg(jc, mu, jc, q), 0),)
        else:  # -aR(J) and -bR(J) times the J-1 and J+1 channels
            a_c, a_r = _surd(Fraction(jc + 1, 2 * jc + 1))
            b_c, b_r = _surd(Fraction(jc, 2 * jc + 1))
            parts = ((_surd_mul((-a_c, a_r), _cg(jc - 1, mu, jc, q)), -1),
                     (_surd_mul((-b_c, b_r), _cg(jc + 1, mu, jc, q)), +1))
        for wcol, coff in parts:
            l_row, l_col, amu = jr + roff, jc + coff, abs(mu)
            g = _g_series(l_row, l_col, amu, 1) if wcol[0] != 0 else {}
            if not g:
                continue
            c, r = _surd_mul(_surd_mul(wrow, wcol), _surd(Fraction(
                _w_int(l_row, amu) * _w_int(l_col, amu))))
            rad = _same_radical(rad, r, "block %s(%d, %d, m=%d)"
                                % (key, jr, jc, m))
            for kp, v in g.items():
                total[(0, kp)] = total.get((0, kp), 0) + c * v
    return rad, {k: v for k, v in total.items() if v != 0}


def _em_chain_coeffs(tser1, tser2, n_max, l_cut):
    """Exact c_n from single-scattering EM chains (p = 1).

    `tser1`/`tser2` map (J, "M"/"E") to monomial dicts with exact
    values.  Double scattering first enters at c_6, so n_max <= 5 keeps
    p = 1 exact.
    """
    r_cap = 6 + n_max
    pkey = {"M": "M", "E": "N"}
    acc = {}
    slots = [(jj, pol) for jj in range(1, l_cut + 1) for pol in ("M", "E")]
    for j1, p1 in slots:
        d1 = tser1.get((j1, p1), {})
        if not d1:
            continue
        for j2, p2 in slots:
            d2 = tser2.get((j2, p2), {})
            if not d2:
                continue
            if min(r for r, _ in d1) + min(r for r, _ in d2) > r_cap:
                continue
            for m in range(min(j1, j2) + 1):
                rad, u12 = _em_block(pkey[p1] + pkey[p2], j1, j2, m)
                if not u12:
                    continue
                r21, u21 = _em_block(pkey[p2] + pkey[p1], j2, j1, m)
                if not u21:
                    continue
                _same_radical(rad, r21, "chain %s%s(%d, %d, m=%d)"
                              % (p1, p2, j1, j2, m))
                par = -1 if (j1 + j2) % 2 else 1
                if p1 != p2:
                    par = -par  # polarization-mixing flip on "21"
                term = _mono_mul(d1, u12, r_cap)
                term = _mono_mul(term, d2, r_cap)
                term = _mono_mul(term, u21, r_cap)
                weight = (1 if m == 0 else 2) * par * rad
                for key, c in term.items():
                    acc[key] = acc.get(key, Fraction(0)) + weight * c
    coeffs = _integrate_traces({1: acc}, em_form=True)
    return {n: coeffs.get(n, Fraction(0)) for n in range(n_max + 1)}


def _em_t_slots_pec(r_cap, l_cut):
    pec = PerfectConductor()
    slots = {}
    for jj in range(1, l_cut + 1):
        lead = 2 * jj + 1
        if lead > r_cap:
            continue
        for pol in ("M", "E"):
            coeffs = t_scalar_series_fractions(pec, jj, r_cap - lead + 1,
                                               channel=pol)
            slots[(jj, pol)] = {(lead + k, lead + k): c
                                for k, c in enumerate(coeffs) if c != 0}
    return slots


def _em_t_slots_dielectric(eps, mu):
    """Exact internal-sign dielectric T monomials at the printed depth.

    Static response data exist through (kappa R)^6 for J = 1 and
    (kappa R)^5 for J = 2 (the even follow-up orders vanish), which is
    exactly what the d^-7 .. d^-10 window consumes.
    """
    slots = {}
    for pol, x, y in (("E", eps, mu), ("M", mu, eps)):
        lead1 = Fraction(2, 3) * _alpha_hat(x, 1)
        slots[(1, pol)] = {k: v for k, v in {
            (3, 3): lead1,
            (5, 5): _gamma13_hat(x, y),
            (6, 6): _gamma14_hat(x),
        }.items() if v != 0}
        lead2 = Fraction(1, 30) * _alpha_hat(x, 2)
        slots[(2, pol)] = {(5, 5): lead2} if lead2 != 0 else {}
    return slots


_METAL_C = {
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


def expand_em_metal(n_max=9, provenance="paper-table", l_cut=None):
    """Large-distance coefficients c_n for two perfectly conducting spheres.

    Parameters
    ----------
    n_max : int
        Highest index returned; the reference table carries n <= 9, the
        trace engine n <= 5 (double scattering first enters at c_6).
    provenance : str
        "paper-table" returns the tabulated values; "computed" runs the
        exact single-scattering engine with PEC Mie series.
    l_cut : int, optional
        Partial-wave cut for the computed route; defaults to the
        smallest window that certifies all requested orders.

    Returns
    -------
    SeriesExpansion
        form "em-c": E = -(hbar c/pi)(R^6/d^7) sum c_n (R/d)^n.
    """
    if provenance == "paper-table":
        if not 0 <= n_max <= 9:
            raise ValueError("tabulated coefficients stop at n = 9")
        coeffs = {n: _METAL_C[n] for n in range(n_max + 1)}
        certified = {n: True for n in coeffs}
    elif provenance == "computed":
        if not 0 <= n_max <= 5:
            raise ValueError("computed route is single-scattering exact "
                             "for n <= 5 only")
        if l_cut is None:
            l_cut = max(1, (n_max + 2) // 2)
        coeffs = _em_chain_coeffs(_em_t_slots_pec(6 + n_max, l_cut),
                                  _em_t_slots_pec(6 + n_max, l_cut),
                                  n_max, l_cut)
        certified = {n: n < 2 * l_cut for n in coeffs}
    else:
        raise ValueError("provenance must be 'computed' or 'paper-table'")
    return SeriesExpansion(form="em-c", prefactor_power=7, coeffs=coeffs,
                           provenance=provenance, certified=certified)


def dipole_dipole_coefficient(alpha_e, alpha_m):
    """Leading d^-7 bracket from unit-radius dipole polarizabilities.

    c_0 = (23/4)(alpha_e^2 + alpha_m^2) - (7/2) alpha_e alpha_m for two
    identical spheres; alpha_e = 1, alpha_m = -1/2 recovers the perfect
    conductor value 143/16.
    """
    return (Fraction(23, 4) * (alpha_e * alpha_e + alpha_m * alpha_m)
            - Fraction(7, 2) * alpha_e * alpha_m)


def expand_em_dielectric(spec1, spec2, provenance="paper-table"):
    """Large-distance coefficients for two identical dielectric spheres.

    The energy is -(hbar c/pi)(R^6/d^7) sum_n c_n (R/d)^n with exactly
    four known coefficients: the d^-7 dipole-dipole bracket, an exactly
    vanishing d^-8 term, and the d^-9/d^-10 brackets mixing quadrupole
    and finite-frequency dipole response.  "paper-table" assembles the
    printed bracket combinations from the static response data;
    "computed" re-derives all four through the exact recoupling engine,
    which provides an independent check including the d^-8 zero.

    Parameters
    ----------
    spec1, spec2 : SphereSpec
        Identical spheres with constant (eps, mu).

    Returns
    -------
    SeriesExpansion
        form "em-c" with coeffs {0, 1, 2, 3}; eps = mu = 1 yields all
        zeros (no scattering response at any order).
    """
    for spec in (spec1, spec2):
        if not isinstance(spec.law, Dielectric):
            raise TypeError("expand_em_dielectric requires constant "
                            "(eps, mu) laws, got %r" % (spec.law,))
    if spec1.radius != spec2.radius or spec1.law != spec2.law:
        raise ValueError("the dielectric expansion is implemented for "
                         "identical spheres only")
    eps = Fraction(spec1.law.eps)
    mu = Fraction(spec1.law.mu)
    if provenance == "paper-table":
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
    elif provenance == "computed":
        coeffs = _em_chain_coeffs(_em_t_slots_dielectric(eps, mu),
                                  _em_t_slots_dielectric(eps, mu),
                                  3, 2)
    else:
        raise ValueError("provenance must be 'computed' or 'paper-table'")
    certified = {n: True for n in coeffs}
    lead = min((n for n, c in coeffs.items() if c != 0), default=0)
    return SeriesExpansion(form="em-c", prefactor_power=7 + lead,
                           coeffs=coeffs, provenance=provenance,
                           certified=certified)


def eval_series(series, radius, d, n_terms=None):
    """Evaluate a truncated large-distance series at (R, d).

    Parameters
    ----------
    series : SeriesExpansion
    radius : float
        Common sphere radius R.
    d : float
        Center-to-center distance, d > 2R.
    n_terms : int, optional
        Number of stored coefficients used, in ascending index order
        (zero coefficients count); defaults to all, 0 gives 0.0.

    Returns
    -------
    SeriesValue
        Energy in units of hbar*c for the absolute R and d supplied
        (divide by R to compare against per-radius energy estimates),
        per-term contributions, and the first index whose term grew.
    """
    if not d > 2 * radius:
        raise ValueError("series evaluation requires d > 2R")
    idx = sorted(series.coeffs)
    if n_terms is None:
        n_terms = len(idx)
    if not 0 <= n_terms <= len(idx):
        raise ValueError("n_terms must lie in 0..%d" % len(idx))
    use = idx[:n_terms]
    terms = []
    for i in use:
        c = float(series.coeffs[i])
        if series.form == "scalar-b":
            terms.append(c / (math.pi * d) * (radius / d) ** (i - 1))
        else:
            terms.append(-c / math.pi * radius ** 6 / d ** 7
                         * (radius / d) ** i)
    first_growing = None
    prev = None
    for pos, t in zip(use, terms):
        if t == 0.0:
            continue
        if prev is not None and abs(t) > abs(prev):
            first_growing = pos
            break
        prev = t
    return SeriesValue(value=math.fsum(terms), terms=tuple(terms),
                       first_growing=first_growing)
