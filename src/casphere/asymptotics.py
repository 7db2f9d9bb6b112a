"""Large-separation series for the sphere-sphere Casimir energy.

Expanding ln det(1 - N) = -sum_p tr N^p / p with every T-matrix entry
replaced by its low-frequency Taylor series and every translation entry
by its exact Bessel-K Laurent form turns each trace into a finite sum of
monomials c (kappa R)^a (kappa d)^(a-n) e^{-2 p kappa d}.  Term-by-term
integration,

    int_0^inf kappa^n e^{-2 p kappa d} dkappa = n! / (2 p d)^(n+1),

then collects the energy into inverse powers of the center distance d.

The pipeline runs in exact rational arithmetic: Python integers over
one common denominator inside, `fractions` only where a result is
handed on.  One trace engine, `_chain_traces`, gives every order at
once as

    sum_m w_m tr (A_m B_m)^p,   w_0 = 1, w_{m>0} = 2,

from products of small sparse matrices whose entries are monomial dicts
(A_m = T1 U12 and B_m = T2 U21 restricted to orders >= m), on integer
numerators over one denominator per matrix.  Each T
series is the exact Taylor series of its law's one `tmatrix` bracket,
dielectric spheres included.  Every power of kappa R is >= 0, so
truncating each product at the highest power kept commutes with the
products and the result is exact.  The scalar translation factors
come from the coaxial recurrences that `translation` runs in floats,
here on rationals with the slot weights folded out (`_g_table`), and
the electromagnetic blocks recouple them with the exact squares of the
closed-form Clebsch-Gordan weights that the float kernel roots
(`translation._em_weight_squares`), each term one exact rational root
(`_em_block`); no 3j symbol is formed.  Every translation entry is
sqrt(W_a W_b) times a rational Laurent series, W the integer weight of
its slot a: w(l, m) = (2l+1)(l+m)!(l-m)! for a scalar partial wave and
w(J, m) J(J+1) for a magnetic or electric multipole.  Around a closed
chain each slot meets two entries, so each takes its own weight whole
and every trace, at every scattering order p, is rational.  Every
series is derived this way and no other.  Cold, in a fresh interpreter
(the CI step "Cold series time"), a scalar series takes a few
milliseconds, the translation factors of every order up to 6 (the
window of the perfect-conductor c_9) about 3 ms, and the
perfect-conductor c_0..c_9 about 0.05 s.

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
from functools import lru_cache, partial

from .tmatrix import (
    Dielectric,
    PerfectConductor,
    Robin,
    _effective_zeta,
    _integer,
    _k_kernel,
    _numerators,
    _series_brackets,
    is_scalar_law,
    mie_series_fractions,
)
from .translation import _em_weight_squares

__all__ = [
    "SeriesExpansion",
    "SeriesValue",
    "expand_scalar",
    "expand_em_metal",
    "expand_em_dielectric",
    "eval_series",
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
        Always "computed": every series comes from the trace engine.  It
        stays a field because the CLI's schema-1 output reports it.
    certified : dict
        Index -> bool; True when the truncation windows (scattering
        order, partial-wave cut, T-series depth) provably cover that
        coefficient, so deepening the truncation cannot change it.
    """

    form: str
    prefactor_power: int
    coeffs: dict
    provenance: str = "computed"
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
# exact translation factors: the coaxial recurrences of `translation` on
# rationals, with the slot weights folded out
# ---------------------------------------------------------------------------

def _w_int(l, m):
    """Slot weight (2l+1)(l+m)!(l-m)!, the squared chain radical."""
    return (2 * l + 1) * math.factorial(l + m) * math.factorial(l - m)


def _combine(terms):
    """sum of (a/b) G over the (a, b, G) of terms, each G a pair (den,
    integer coefficient list) meaning the list over den; the sum as one
    such pair in lowest terms."""
    den = math.lcm(*(b * d for _, b, (d, _) in terms))
    out = [0] * max(len(c) for _, _, (_, c) in terms)
    for a, b, (d, c) in terms:
        f = a * (den // (b * d))
        for i, v in enumerate(c):
            out[i] += f * v
    g = math.gcd(den, *out)
    return den // g, [v // g for v in out]


@lru_cache(maxsize=None)
def _g_table(top):
    """Radical-free translation factors {(l_out, l_in, m): {kpow: c}}.

    Every l_out, l_in <= top and m <= min(l_out, l_in) is present; the
    scaled translation entry in direction "12" is U_{l_out,l_in}(m) =
    sqrt(w(l_out, m) w(l_in, m)) G(x) e^{-x} at x = kappa d, and "21"
    is (-1)^{l_out+l_in} times it.  G follows the coaxial recurrences of
    `translation._s_blocks` with the weights folded out, where every
    coefficient is rational (G[l', l] at order m, k~_l = e^x k_l the
    Laurent polynomial of `_k_kernel`):

        G[l', 0](0) = -k~_l' / l'!,
        2m (2l'+1) G[l', m](m) = -G[l'-1, m-1](m-1)
                                 + (l'-m+1)(l'-m+2) G[l'+1, m-1](m-1),
        (l+1+m)(l+1-m)/(2l+1) G[l', l+1] = -(l'+1+m)(l'+1-m)/(2l'+1)
            G[l'+1, l] - G[l'-1, l]/(2l'+1) - G[l', l-1]/(2l+1),

    on integer lists over one denominator each (`_combine`).
    """
    zero = (1, [])
    # the column l = m of order m, rows l' = m..2 top - m: column l
    # reads the rows up to 2 top - l of the columns before it
    sect = {lp: (math.factorial(lp), [-c for c in _k_kernel(lp)])
            for lp in range(2 * top + 1)}
    out = {}
    for m in range(top + 1):
        if m:
            sect = {lp: _combine(((-1, 2 * m * (2 * lp + 1), sect[lp - 1]),
                                  ((lp - m + 1) * (lp - m + 2),
                                   2 * m * (2 * lp + 1), sect[lp + 1])))
                    for lp in range(m, 2 * top - m + 1)}
        prev, col = {}, sect
        for l in range(m, top + 1):
            for lp in range(m, top + 1):
                den, c = col[lp]
                out[lp, l, m] = {-(i + 1): Fraction(v, den)
                                 for i, v in enumerate(c) if v}
            if l == top:
                break
            # the l step times (l+1+m)(l+1-m)/(2l+1)
            a, b = 2 * l + 1, (l + 1 + m) * (l + 1 - m)
            prev, col = col, {lp: _combine((
                (-a * (lp + 1 + m) * (lp + 1 - m), b * (2 * lp + 1),
                 col[lp + 1]),
                (-a, b * (2 * lp + 1), col.get(lp - 1, zero)),
                (-1, b, prev.get(lp, zero)))) for lp in range(m, 2 * top - l)}
    return out


# ---------------------------------------------------------------------------
# monomial algebra: keys (rpow, kpow) meaning (kappa R)^rpow (kappa d)^
# (kpow - rpow), i.e. kpow is the total kappa power to be integrated.
# Every rpow is >= 0, so truncating a product at r_cap commutes with
# every further product.
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


def _mono_add(acc, mono, w=1):
    for key, c in mono.items():
        acc[key] = acc.get(key, 0) + w * c


def _mat_mul(x, y, r_cap):
    """Product of sparse {(row, col): monomials} matrices, truncated."""
    rows = {}
    for (k, j), v in y.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), xv in x.items():
        for j, yv in rows.get(k, ()):
            _mono_add(out.setdefault((i, j), {}), _mono_mul(xv, yv, r_cap))
    return out


def _mono_numerators(mono):
    """(den, mono with integer coefficients over den), `_numerators` of
    its coefficients."""
    den, coeffs = _numerators(mono.values())
    return den, dict(zip(mono, coeffs))


def _over_one_denominator(mat):
    """(den, {key: integer monomials}) of {key: (den_key, integer
    monomials)}, every entry brought over den = lcm of the den_key."""
    den = math.lcm(*(d for d, _ in mat.values()))
    return den, {key: {k: c * (den // d) for k, c in mono.items()}
                 for key, (d, mono) in mat.items()}


def _cut(mat, r_cap):
    """The matrix with every monomial past (kappa R)^r_cap dropped."""
    return {key: {k: c for k, c in mono.items() if k[0] <= r_cap}
            for key, mono in mat.items()}


def _t_slots(law, orders, r_cap):
    """Taylor monomials {(l, channel): {(r, r): c}} of internal-sign T.

    Every law maps through its exact brackets (`_series_brackets`);
    orders whose series starts past r_cap are left out.
    """
    slots = {}
    for l in orders:
        lead = 2 * l + 1
        if lead > r_cap:
            break
        n = r_cap - lead + 1
        for ch, (alpha, beta) in _series_brackets(law, l, n).items():
            coeffs = mie_series_fractions(alpha, beta, l, n)
            slots[(l, ch)] = {(lead + k, lead + k): c
                              for k, c in enumerate(coeffs) if c != 0}
    return slots


def _chain_traces(t1, t2, pair, p_max, r_cap):
    """{p: monomials of sum_m w_m tr (A_m B_m)^p}, truncated at r_cap.

    `t1`/`t2` map slots (l, channel) to T monomials.  For every m up to
    the slot orders, pair(a, b, m) returns the translation factors
    (U12[a, b], U21[b, a]) or None, and

        A_m[a, b] = t1[a] U12[a, b],   B_m[b, a] = t2[b] U21[b, a],

    over the slots of order >= m, with w_m = 1 for m = 0 and 2 otherwise.
    An entry whose two T series start past r_cap together is skipped.
    A_m and B_m are built on integer numerators over one denominator
    each, A_m = A'/den_A and B_m = B'/den_B, so each order's trace is
    w_m tr (A'B')^p / (den_A den_B)^p and only that quotient is a
    Fraction.  With C = A'B', tr (A'B')^p = tr C^h C^(p-h) at h =
    ceil(p/2), so the orders through p_max take ceil(p_max/2) matrix
    products, not 2 (p_max - 1).
    """
    t1 = {a: _mono_numerators(t) for a, t in t1.items() if t}
    t2 = {b: _mono_numerators(t) for b, t in t2.items() if t}
    lead1 = {a: min(r for r, _ in t) for a, (_, t) in t1.items()}
    lead2 = {b: min(r for r, _ in t) for b, (_, t) in t2.items()}
    out = {p: {} for p in range(1, p_max + 1)}
    for m in range(1 + max((a[0] for a in lead1), default=-1)):
        amat, bmat = {}, {}
        for a, la in lead1.items():
            for b, lb in lead2.items():
                if a[0] < m or b[0] < m or la + lb > r_cap:
                    continue
                u = pair(a, b, m)
                if u is not None:
                    (dt1, c1), (dt2, c2) = t1[a], t2[b]
                    (du1, cu1), (du2, cu2) = map(_mono_numerators, u)
                    amat[a, b] = dt1 * du1, _mono_mul(c1, cu1, r_cap)
                    bmat[b, a] = dt2 * du2, _mono_mul(c2, cu2, r_cap)
        den_a, amat = _over_one_denominator(amat)
        den_b, bmat = _over_one_denominator(bmat)
        # C starts at (kappa R)^(lead_a + lead_b), and so does every
        # partner of a power of C in a trace: the powers are cut that much
        # lower, and each factor of C its partner's lead lower still
        lead_a = min((r for v in amat.values() for r, _ in v), default=0)
        lead_b = min((r for v in bmat.values() for r, _ in v), default=0)
        cut = r_cap - lead_a - lead_b
        powers = [None, _mat_mul(_cut(amat, cut - lead_b),
                                 _cut(bmat, cut - lead_a), cut)]
        while len(powers) <= (p_max + 1) // 2:
            powers.append(_mat_mul(powers[-1], powers[1], cut))
        for p in range(1, p_max + 1):
            x, y = ((amat, bmat) if p == 1
                    else (powers[(p + 1) // 2], powers[p // 2]))
            trace = {}
            for (i, j), v in x.items():
                back = y.get((j, i))
                if back:
                    _mono_add(trace, _mono_mul(v, back, r_cap))
            _mono_add(out[p], trace,
                      Fraction(1 if m == 0 else 2, (den_a * den_b) ** p))
    return {p: {k: v for k, v in mono.items() if v != 0}
            for p, mono in out.items()}


def _pair(block, weight, a, b, m):
    """Chain entries U12[a, b] and U21[b, a] of slots a, b = (l, channel).

    U12[a, b] = sqrt(W_a W_b) block(a, b, m) with W = weight(l, m); around
    a closed chain each slot meets two entries, so each side takes its
    own W whole.  U21[b, a] is the reversed pair's "12" entry times the
    parity (-1)^{l_a+l_b}, negated on EM mixing entries; None when the
    pair does not couple.
    """
    g12, g21 = block(a, b, m), block(b, a, m)
    if not (g12 and g21):
        return None
    par = -1 if (a[0] + b[0] + (a[1] != b[1])) % 2 else 1
    return ({(0, k): weight(a[0], m) * c for k, c in g12.items()},
            {(0, k): par * weight(b[0], m) * c for k, c in g21.items()})


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
        form "scalar-b".  `certified[j]` is True when neither dropped
        scattering orders nor dropped partial waves can contribute at
        order j.
    """
    p_max, l_cut = _integer("p_max", p_max), _integer("l_cut", l_cut)
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
    t1 = _t_slots(spec1.law, range(l_cut + 1), r_cap)
    t2 = _t_slots(spec2.law, range(l_cut + 1), r_cap)
    a1, a2 = _lead_power(spec1.law), _lead_power(spec2.law)
    g = _g_table(l_cut)
    traces = _chain_traces(
        t1, t2, partial(_pair, lambda a, b, m: g.get((a[0], b[0], m)), _w_int),
        p_max, r_cap)
    raw = _integrate_traces(traces, em_form=False)
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
                           coeffs=coeffs, certified=certified)


# ---------------------------------------------------------------------------
# electromagnetic route: the recoupling of `translation._em_recouple` on the
# exact factors G, with the scalar route's fold
# ---------------------------------------------------------------------------

def _w_em(j, m):
    """EM slot weight w(J, m) J(J+1), the squared chain radical."""
    return _w_int(j, m) * j * (j + 1)


@lru_cache(maxsize=None)
def _em_block(a, b, m):
    """Exact EM block "12" from slot b = (J, pol) to a = (J', pol'), pol
    "M" or "E", as {kpow: c}, reading G from `_g_table(max(J', J) + 1)`,
    the smallest table that holds it (an entry of G is the same rational
    in every table that holds it, so the block does not depend on which
    one it reads).

    The block is sqrt(W(J', m) W(J, m)) times the returned series, W the
    slot weight `_w_em`.  Each term's two recoupling weights (the signed
    squares of `translation._em_weight_squares`) times w w / W W fold
    into one rational square, whose exact root is its coefficient; a
    square that is not perfect raises ArithmeticError.
    """
    (jr, pr), (jc, pc) = a, b
    g = _g_table(max(jr, jc) + 1)
    w_pair = _w_em(jr, m) * _w_em(jc, m)
    total = {}
    for q in (-1, 0, 1):
        amu = abs(m - q)
        # (t_m, t_e, c_lo, c_hi) of the target J' and of the source J
        rw, cw = _em_weight_squares(jr, m, q), _em_weight_squares(jc, m, q)
        (rn, rd), l_row = (rw[0], jr) if pr == "M" else (rw[1], jr - 1)
        parts = (((cw[0], jc),) if pc == "M"
                 else ((cw[2], jc - 1), (cw[3], jc + 1)))
        for (cn, cd), l_col in parts:
            gs = g.get((l_row, l_col, amu)) if rn and cn else None
            if not gs:
                continue
            sq = Fraction(rn * cn * _w_int(l_row, amu) * _w_int(l_col, amu),
                          rd * cd * w_pair)
            root = Fraction(math.isqrt(abs(sq.numerator)),
                            math.isqrt(sq.denominator))
            if root * root != abs(sq):
                raise ArithmeticError(
                    "EM block %s%s(%d, %d, m=%d) kept the radical sqrt(%s)"
                    % (pr, pc, jr, jc, m, abs(sq)))
            c = root if sq > 0 else -root
            for kp, v in gs.items():
                total[kp] = total.get(kp, 0) + c * v
    return {k: v for k, v in total.items() if v != 0}


def _em_series(law, n_max, l_cut):
    """The "em-c" series c_0..c_n_max of two equal spheres of `law`.

    The slots are the (J, "M"/"E") with 1 <= J <= l_cut, per m those with
    J >= max(1, m).  Each scattering order p starts at (kappa R)^{6p},
    i.e. at c_{6(p-1)}, so p <= 1 + n_max // 6 covers the window; c_n is
    certified when n < 2 l_cut, past which the waves cut off can enter.
    """
    slots = _t_slots(law, range(1, l_cut + 1), 6 + n_max)
    traces = _chain_traces(slots, slots, partial(_pair, _em_block, _w_em),
                           1 + n_max // 6, 6 + n_max)
    raw = _integrate_traces(traces, em_form=True)
    coeffs = {n: raw.get(n, Fraction(0)) for n in range(n_max + 1)}
    lead = min((n for n, c in coeffs.items() if c != 0), default=0)
    return SeriesExpansion(form="em-c", prefactor_power=7 + lead,
                           coeffs=coeffs,
                           certified={n: n < 2 * l_cut for n in coeffs})


def expand_em_metal(n_max=9, l_cut=None):
    """Large-distance coefficients c_n for two perfectly conducting spheres.

    Derived with the exact trace engine on the perfect-conductor Mie
    series, through every scattering order the window reaches (double
    scattering first enters at c_6); c_0..c_9 take about 0.05 s cold.

    Parameters
    ----------
    n_max : int
        Highest index returned, 0 <= n_max <= 9.
    l_cut : int, optional
        Partial-wave cut, at least 1; defaults to the smallest window
        that certifies all requested orders.

    Returns
    -------
    SeriesExpansion
        form "em-c": E = -(hbar c/pi)(R^6/d^7) sum c_n (R/d)^n.
    """
    n_max = _integer("n_max", n_max)
    l_cut = _integer("l_cut", l_cut, optional=True)
    if not 0 <= n_max <= 9:
        raise ValueError("the series is implemented for 0 <= n_max <= 9")
    if l_cut is None:
        l_cut = max(1, (n_max + 2) // 2)
    elif l_cut < 1:
        raise ValueError("EM partial waves start at l = 1, got "
                         "l_cut=%r" % (l_cut,))
    return _em_series(PerfectConductor(), n_max, l_cut)


def expand_em_dielectric(spec1, spec2):
    """Large-distance coefficients for two identical dielectric spheres.

    The energy is -(hbar c/pi)(R^6/d^7) sum_n c_n (R/d)^n with exactly
    four known coefficients: the d^-7 dipole-dipole bracket, an exactly
    vanishing d^-8 term, and the d^-9/d^-10 brackets mixing quadrupole
    and finite-frequency dipole response.  All four are derived from
    each sphere's exact Mie series (partial waves 1 and 2) through the
    trace engine, whose single-scattering order covers c_0..c_3; the
    d^-8 zero comes out exactly.

    Parameters
    ----------
    spec1, spec2 : SphereSpec
        Identical spheres with constant (eps, mu).

    Returns
    -------
    SeriesExpansion
        form "em-c" with coeffs {0, 1, 2, 3}, all certified; eps = mu = 1
        yields all zeros (no scattering response at any order).
    """
    for spec in (spec1, spec2):
        if not isinstance(spec.law, Dielectric):
            raise TypeError("expand_em_dielectric requires constant "
                            "(eps, mu) laws, got %r" % (spec.law,))
    if spec1.radius != spec2.radius or spec1.law != spec2.law:
        raise ValueError("the dielectric expansion is implemented for "
                         "identical spheres only")
    return _em_series(spec1.law, 3, 2)


def eval_series(series, radius, d, n_terms=None):
    """Evaluate a truncated large-distance series at (R, d).

    Parameters
    ----------
    series : SeriesExpansion
    radius : float
        Common sphere radius R, finite and > 0.
    d : float
        Center-to-center distance, finite and > 2R.
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
    n_terms = _integer("n_terms", n_terms, optional=True)
    if not 0.0 < radius < math.inf:
        raise ValueError("series evaluation requires a finite radius > 0, "
                         "got %r" % (radius,))
    if not math.isfinite(d):
        raise ValueError("series evaluation requires a finite d, got %r"
                         % (d,))
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
