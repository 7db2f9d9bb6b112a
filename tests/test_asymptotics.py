"""Tests for the exact large-separation series engine."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import casphere.asymptotics as asym
from casphere.asymptotics import (
    _g_table,
    _w_em,
    _w_int,
    eval_series,
    expand_em_dielectric,
    expand_em_metal,
    expand_scalar,
)
from casphere.energy import Geometry, casimir_energy, suggest_l_max
from casphere.translation import (
    _em_weight_squares,
    _em_weight_stack,
    node_kernel,
)
from casphere.tmatrix import (
    Dielectric,
    Dirichlet,
    Neumann,
    PerfectConductor,
    Robin,
    SphereSpec,
)

from _oracles import (
    METAL_C_PRINTED,
    ThreeJArgs,
    _alpha_hat,
    _gamma13_hat,
    _gamma14_hat,
    dielectric_series_printed,
    dipole_dipole_coefficient,
    em_block_ref,
    em_weights_3j,
    g_series_ref,
    scalar_series_ref,
    threej_exact_sq,
    u_scalar_element,
    wigner3j,
)

D = SphereSpec(1.0, Dirichlet())
N = SphereSpec(1.0, Neumann())

DD_TABLE = {3: F(-1, 4), 4: F(-1, 4), 5: F(-77, 48), 6: F(-25, 16),
            7: F(-29837, 2880), 8: F(-6491, 1152)}
NN_TABLE = {3: F(0), 4: F(0), 5: F(0), 6: F(0), 7: F(-161, 96), 8: F(0),
            9: F(-3011, 192), 10: F(-175, 128)}
DN_TABLE = {3: F(0), 4: F(0), 5: F(17, 48), 6: F(11, 32), 7: F(663, 160),
            8: F(235, 144)}


# ---------------------------------------------------------------------------
# exact translation factors
# ---------------------------------------------------------------------------

def test_exact_threej_matches_reference():
    # the exact 3j squares behind the translation-factor oracles, every
    # projection with l1, l2 <= 5 (the (0, 0, 0) and (m, -m, 0) rows of
    # G among them), against the 3j recursion
    for l1 in range(6):
        for l2 in range(6):
            for l3 in range(abs(l1 - l2), l1 + l2 + 1):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        sign, sq = threej_exact_sq(l1, l2, l3, m1, m2,
                                                   -m1 - m2)
                        built = sign * math.sqrt(sq)
                        ref = wigner3j(ThreeJArgs(l1, l2, l3, m1, m2,
                                                  -m1 - m2))
                        assert built == pytest.approx(ref, abs=1e-14)


def test_translation_factors_match_exact_3j_oracle():
    # the coaxial recurrences on rationals against the 3j sum, Fraction
    # for Fraction, at every (l_out, l_in, m) with l_out, l_in <= 10
    table = _g_table.__wrapped__(10)
    keys = [(lo, li, m) for lo in range(11) for li in range(11)
            for m in range(min(lo, li) + 1)]
    assert sorted(table) == sorted(keys)
    for key in keys:
        assert table[key] == g_series_ref(*key), key


def test_em_blocks_match_exact_clebsch_oracle():
    # the blocks on the squared closed-form weights against the exact
    # Clebsch-Gordan squares, at every key and (J', J, m) with J', J <= 8
    for key in ("MM", "ME", "EM", "EE"):
        for jr in range(1, 9):
            for jc in range(1, 9):
                for m in range(min(jr, jc) + 1):
                    block = asym._em_block.__wrapped__(
                        (jr, key[0]), (jc, key[1]), m)
                    assert block == em_block_ref(key, jr, jc, m), \
                        (key, jr, jc, m)


def test_translation_factor_matches_block():
    # sqrt(w w) * G * e^{-x} must equal the signed-log translation entry
    for x in (0.3, 1.7):
        for l_out in range(4):
            for l_in in range(4):
                for m in range(min(l_out, l_in) + 1):
                    # "21" is the transpose: U21[l_out, l_in] = U12[l_in,
                    # l_out], and the radical sqrt(w w) is symmetric
                    for rc, direction in (((l_out, l_in), "12"),
                                          ((l_in, l_out), "21")):
                        g = _g_table(3)[(*rc, m)]
                        val = sum(float(c) * x ** k for k, c in g.items())
                        val *= math.sqrt(_w_int(l_out, m) * _w_int(l_in, m))
                        val *= math.exp(-x)
                        ref = u_scalar_element(l_out, l_in, m, x,
                                               direction)
                        assert val == pytest.approx(ref, rel=1e-12,
                                                    abs=1e-300)


def test_translation_factor_transpose_is_parity():
    # the exact series reverses a block by the parity (-1)^{l_out+l_in},
    # the numeric kernel by `_reversal`: on the exact G the two agree
    # with the transpose as Fractions, term by term
    for l_out in range(7):
        for l_in in range(7):
            par = -1 if (l_out + l_in) % 2 else 1
            for m in range(min(l_out, l_in) + 1):
                g = _g_table(6)[l_out, l_in, m]
                assert g
                assert _g_table(6)[l_in, l_out, m] == {
                    k: par * c for k, c in g.items()}


# ---------------------------------------------------------------------------
# scalar coefficient tables (exact Fractions, no tolerance needed)
# ---------------------------------------------------------------------------

def test_dirichlet_table_exact():
    series = expand_scalar(D, D)
    assert series.coeffs == DD_TABLE
    assert series.form == "scalar-b"
    assert series.provenance == "computed"
    assert series.prefactor_power == 3
    assert all(series.certified.values())


def test_neumann_table_exact():
    series = expand_scalar(N, N, p_max=4, l_cut=3)
    assert series.coeffs == NN_TABLE
    assert series.prefactor_power == 7
    assert all(series.certified.values())


def test_mixed_table_exact():
    series = expand_scalar(D, N)
    assert series.coeffs == DN_TABLE
    assert series.prefactor_power == 5
    assert all(series.certified.values())


# exact tables of windows the tests above leave out: D-Robin(10) is the
# series a CLI sweep builds, Robin(1/2)-Robin(1/4) the deepest window
DR10_P4_L3 = {3: F(-1, 44), 4: F(-3, 242), 5: F(34757, 149072),
              6: F(233525, 819896), 7: F(346190646841, 100650432960),
              8: F(119117552863, 73810317504),
              9: F(825937204193431154903, 30339096241288665600),
              10: F(63373161978890607097, 42908150398393969920)}
RHALF_RQUARTER_P4_L5 = {
    3: F(-2, 15), 4: F(-22, 225), 5: F(-5851, 13500), 6: F(-13609, 45000),
    7: F(-61639037, 48600000), 8: F(-216432721, 510300000),
    9: F(-6908908897307, 2571912000000),
    10: F(38012871747203, 33067440000000)}


@pytest.mark.parametrize("law1, law2, l_cut, table", [
    (Dirichlet(), Robin(10.0), 3, DR10_P4_L3),
    (Robin(0.5), Robin(0.25), 5, RHALF_RQUARTER_P4_L5),
])
def test_deep_windows_pinned(law1, law2, l_cut, table):
    series = expand_scalar(SphereSpec(1.0, law1), SphereSpec(1.0, law2),
                           p_max=4, l_cut=l_cut)
    assert series.coeffs == table
    assert series.prefactor_power == 3
    assert series.certified == {j: j <= 8 for j in range(3, 11)}


@pytest.mark.parametrize("law1, law2", [
    (Dirichlet(), Dirichlet()),
    (Neumann(), Neumann()),
    (Dirichlet(), Neumann()),
    (Robin(0.5), Robin(0.25)),
    (Dirichlet(), Robin(10.0)),
], ids=["DD", "NN", "DN", "R05-R025", "D-R10"])
def test_trace_engine_matches_slot_enumeration(law1, law2):
    # the matrix-product traces against every chain of slots, exactly
    for p_max in range(1, 5):
        for l_cut in range(4):
            series = expand_scalar(SphereSpec(1.0, law1),
                                   SphereSpec(1.0, law2),
                                   p_max=p_max, l_cut=l_cut)
            assert series.coeffs == scalar_series_ref(law1, law2, p_max,
                                                      l_cut), (p_max, l_cut)


# zeta enters through its binary value: 0.1 carries a 2^55 denominator,
# so the trace engine's integer numerators grow far past the fixed pairs'
_ZETAS = st.one_of(st.sampled_from([0.1, 0.3, 1.0 / 3.0, 2.2, 1e-3, 123.456]),
                   st.floats(0.0, 100.0))


@given(_ZETAS, _ZETAS, st.integers(1, 3), st.integers(0, 2))
@example(0.1, 0.1, 3, 2)
@example(0.1, 1.0 / 3.0, 2, 1)
@settings(max_examples=15, deadline=None)
def test_trace_engine_matches_slot_enumeration_on_drawn_robin_pairs(
        zeta1, zeta2, p_max, l_cut):
    law1, law2 = Robin(zeta1), Robin(zeta2)
    series = expand_scalar(SphereSpec(1.0, law1), SphereSpec(1.0, law2),
                           p_max=p_max, l_cut=l_cut)
    assert series.coeffs == scalar_series_ref(law1, law2, p_max, l_cut)
    assert all(type(c) is F for c in series.coeffs.values())


def test_neumann_default_window_is_consistent():
    shallow = expand_scalar(N, N)
    deep = expand_scalar(N, N, p_max=4, l_cut=3)
    for j, c in shallow.coeffs.items():
        assert c == deep.coeffs[j]


def test_robin_leading_coefficient_closed_form():
    # only the l=0 s-wave feeds b_3, giving b_3 = -1/(4 (1+zeta)^2)
    series = expand_scalar(SphereSpec(1.0, Robin(0.5)),
                           SphereSpec(1.0, Robin(0.5)))
    assert series.coeffs[3] == -F(1, 4) / (1 + F(1, 2)) ** 2
    series = expand_scalar(SphereSpec(1.0, Robin(0.25)), D)
    assert series.coeffs[3] == -F(1, 4) / (1 + F(1, 4))


def test_robin_continuity():
    soft = expand_scalar(SphereSpec(1.0, Robin(1e-6)),
                         SphereSpec(1.0, Robin(1e-6)))
    for j in (3, 4):
        rel = abs(float(soft.coeffs[j] - DD_TABLE[j]) / float(DD_TABLE[j]))
        assert rel < 1e-4
    hard = expand_scalar(SphereSpec(1.0, Robin(1e6)),
                         SphereSpec(1.0, Robin(1e6)))
    rel = abs(float(hard.coeffs[7] - NN_TABLE[7]) / float(NN_TABLE[7]))
    assert rel < 1e-3


def test_certification_windows():
    # p_max=4 with l_cut=2 leaves j=9,10 exposed to the dropped l=3 wave
    series = expand_scalar(D, D, p_max=4, l_cut=2)
    assert series.certified[8]
    assert not series.certified[9]
    assert not series.certified[10]
    deep = expand_scalar(D, D, p_max=4, l_cut=3)
    assert deep.certified[9]
    assert series.coeffs[9] != deep.coeffs[9]  # the flag is not decorative
    for j in range(3, 9):
        assert series.coeffs[j] == deep.coeffs[j]


def test_general_robin_deep_orders_not_certified():
    series = expand_scalar(SphereSpec(1.0, Robin(0.7)),
                           SphereSpec(1.0, Robin(0.7)),
                           p_max=4, l_cut=3)
    assert series.certified[8]
    assert not series.certified[9]


def test_expand_scalar_validation():
    with pytest.raises(TypeError):
        expand_scalar(SphereSpec(1.0, PerfectConductor()), D)
    with pytest.raises(ValueError):
        expand_scalar(SphereSpec(2.0, Dirichlet()), D)
    with pytest.raises(ValueError):
        expand_scalar(D, D, p_max=0)
    with pytest.raises(ValueError):
        expand_scalar(D, D, p_max=5)
    with pytest.raises(ValueError):
        expand_scalar(D, D, l_cut=6)


# ---------------------------------------------------------------------------
# electromagnetic coefficients
# ---------------------------------------------------------------------------

def test_metal_table_and_computed_agree():
    # every window n_max 0..9, at its default cut, is the printed table
    # exactly, every entry certified
    for n_max in range(10):
        computed = expand_em_metal(n_max)
        assert computed.coeffs == {n: METAL_C_PRINTED[n]
                                   for n in range(n_max + 1)}
        assert all(computed.certified.values())
        assert computed.form == "em-c"
        assert computed.prefactor_power == 7


def test_metal_computed_through_c5():
    computed = expand_em_metal(n_max=5)
    for n in range(6):
        assert computed.coeffs[n] == METAL_C_PRINTED[n]


def test_metal_computed_through_c9():
    # c_6..c_9 carry double scattering: the whole printed table is
    # re-derived, every entry certified, and that is the default
    computed = expand_em_metal()
    assert computed.coeffs == METAL_C_PRINTED
    assert all(computed.certified.values())
    assert computed.provenance == "computed"


@pytest.mark.parametrize("l_cut", [4, 5])
def test_metal_computed_wide_cuts(l_cut):
    # waves past the default cut change nothing through c_5
    computed = expand_em_metal(n_max=5, l_cut=l_cut)
    assert computed.coeffs == {n: METAL_C_PRINTED[n] for n in range(6)}
    assert all(computed.certified.values())


def test_metal_uncertified_cut_is_flagged():
    # without the quadrupole wave c_2 is both wrong and flagged as such
    narrow = expand_em_metal(n_max=2, l_cut=1)
    assert narrow.certified[0] and narrow.certified[1]
    assert not narrow.certified[2]
    assert narrow.coeffs[2] != METAL_C_PRINTED[2]
    assert narrow.coeffs[0] == METAL_C_PRINTED[0]


def test_exact_clebsch_gordan_matches_recoupling_weights():
    # the series route's exact squares, rooted, against the energy route's
    # float weights and the 3j-route weights of the translation oracle
    # folded with aR and bR: the four weights (t_m, t_e, c_lo, c_hi),
    # max(1, m) <= J <= 8
    w0, wm, wp, a_r, b_r = em_weights_3j(8, np.arange(9))
    routes = (_em_weight_stack(8), (w0, wm / a_r, -a_r * wm, -b_r * wp))
    for m in range(9):
        for iq, q in enumerate((-1, 0, 1)):
            for jj in range(max(1, m), 9):
                for iw, (num, den) in enumerate(_em_weight_squares(jj, m, q)):
                    exact = math.copysign(math.sqrt(abs(F(num, den))), num)
                    for weights in routes:
                        assert abs(exact - weights[iw][m, iq, jj]) <= 1e-15, \
                            (iw, jj, m, q)


@pytest.mark.parametrize("x", [0.05, 0.3, 1.7])
def test_em_blocks_are_rational_multiples_of_the_slot_weights(x):
    # every block with J, J', m <= 6, rebuilt uncached, is sqrt(W(J', m)
    # W(J, m)) times a Laurent series with Fraction coefficients, and
    # that product times e^{-x} is the numeric EM translation entry.  A
    # numeric entry is a difference of recoupled channels the size of
    # its 2x2 polarization block (at small x the cross-polarization
    # entries are smaller by about x, and their entrywise relative error
    # grows like 1/x^2: 8.1e-11 at x = 0.05), so it is checked to 1e-12
    # of that
    kern = node_kernel(6, x, em=True)
    for m in range(7):
        u = kern.blocks[m] * np.exp(kern.log_scale)
        for jr in range(max(1, m), 7):
            for jc in range(max(1, m), 7):
                pol = u[2 * jr:2 * jr + 2, 2 * jc:2 * jc + 2]
                for ir, pr in enumerate("ME"):
                    for ic, pc in enumerate("ME"):
                        g = asym._em_block.__wrapped__((jr, pr), (jc, pc),
                                                       m)
                        assert all(isinstance(c, F) for c in g.values())
                        # summed exactly: the Laurent terms cancel
                        val = float(sum(c * F(x) ** k for k, c in g.items()))
                        val *= math.sqrt(_w_em(jr, m) * _w_em(jc, m))
                        assert val == pytest.approx(
                            pol[ir, ic], rel=1e-12,
                            abs=1e-12 * np.abs(pol).max())


def test_em_blocks_are_built_once_across_cuts():
    # a block does not depend on the table order it reads, so a cut of 3
    # after a cut of 2 rebuilds none of the blocks the first one built:
    # together they miss the cache exactly as often as a cold cut of 3
    def run(cuts):
        asym._em_block.cache_clear()
        series = [expand_em_metal(5, l_cut=c) for c in cuts]
        return series, asym._em_block.cache_info()

    (cold,), cold_info = run([3])
    (two, three), info = run([2, 3])
    assert info.misses == cold_info.misses
    assert info.hits > cold_info.hits
    assert three == cold
    assert two == run([2])[0][0]


def test_em_radical_mismatch_raises(monkeypatch):
    # a block whose q terms keep a radical the slot weights cannot take:
    # skew the squared magnetic weight t_m of q = +1 only
    real_squares = asym._em_weight_squares

    def skewed_squares(j, m, q):
        (num, den), *rest = real_squares(j, m, q)
        return ((101 * num if q == 1 else num, den), *rest)

    monkeypatch.setattr(asym, "_em_weight_squares", skewed_squares)
    with pytest.raises(ArithmeticError, match="kept the radical"):
        asym._em_block.__wrapped__((2, "E"), (2, "M"), 1)
    monkeypatch.undo()
    # a slot weight that is not the squared chain radical
    real_w = asym._w_em
    monkeypatch.setattr(asym, "_w_em",
                        lambda j, m: 2 * real_w(j, m) if j == 2 else
                        real_w(j, m))
    with pytest.raises(ArithmeticError, match="kept the radical"):
        asym._em_block.__wrapped__((2, "M"), (1, "M"), 0)


def test_non_integer_orders_are_refused():
    # every order argument is refused at entry, naming itself, rather than
    # failing deep inside; integer types other than int are taken
    series = expand_scalar(D, D)
    for call, name in (
            (lambda: expand_scalar(D, D, p_max=2.0), "p_max"),
            (lambda: expand_scalar(D, D, l_cut=1.5), "l_cut"),
            (lambda: expand_em_metal(2.0), "n_max"),
            (lambda: expand_em_metal(4, l_cut=2.5), "l_cut"),
            (lambda: eval_series(series, 1.0, 10.0, n_terms=1.5),
             "n_terms"),
            # a bool is not an order, and only the optional orders take None
            (lambda: expand_scalar(D, D, p_max=True), "p_max"),
            (lambda: expand_scalar(D, D, l_cut=None), "l_cut"),
            (lambda: expand_em_metal(None), "n_max"),
            (lambda: eval_series(series, 1.0, 10.0, n_terms=False),
             "n_terms")):
        with pytest.raises(TypeError, match=name):
            call()
    assert expand_scalar(D, D, p_max=np.int64(3)).coeffs == DD_TABLE
    assert eval_series(series, 1.0, 10.0, n_terms=np.int64(6)) \
        == eval_series(series, 1.0, 10.0)


def test_metal_validation():
    for n_max in (-1, 10):
        with pytest.raises(ValueError):
            expand_em_metal(n_max=n_max)
    # double scattering enters at c_6, inside the computed window
    computed = expand_em_metal(n_max=6)
    assert computed.coeffs == {n: METAL_C_PRINTED[n] for n in range(7)}


def test_metal_legacy_route_calls_fail_loudly():
    # the second positional argument is the cut now, and there is no
    # route to choose: a call written for the old keyword is refused, not
    # run on a reading it did not mean
    with pytest.raises(TypeError, match="l_cut"):
        expand_em_metal(9, "computed")
    for provenance in ("computed", "paper-table"):
        with pytest.raises(TypeError, match="provenance"):
            expand_em_metal(provenance=provenance)


def test_metal_refuses_a_cut_below_the_dipole():
    # EM partial waves start at l = 1: a cut below it would keep no slot
    # and return all-zero coefficients
    for l_cut in (0, -3):
        with pytest.raises(ValueError, match="l_cut"):
            expand_em_metal(n_max=2, l_cut=l_cut)


def test_dielectric_routes_agree_exactly():
    # the derived series is the printed bracket algebra, exactly, at the
    # binary values of (eps, mu), the non-dyadic pairs included
    for eps, mu in ((2.0, 1.0), (1.5, 3.0), (2.5, 0.5), (1.0, 1.0),
                    (4.0, 1.0), (1.0, 3.0), (16.0, 0.25), (80.0, 1.0),
                    (2.5, 1.7), (2.7, 1.3), (80.1, 0.999)):
        spec = SphereSpec(1.0, Dielectric(eps, mu))
        series = expand_em_dielectric(spec, spec)
        printed = dielectric_series_printed(eps, mu)
        assert series.provenance == "computed"
        assert series.form == printed.form == "em-c"
        assert series.coeffs == printed.coeffs
        assert series.certified == printed.certified
        assert series.prefactor_power == printed.prefactor_power
        assert series.coeffs[1] == 0  # no 1/d^8 term, exactly
    assert dielectric_series_printed(2.0, 1.0).coeffs[0] == F(23, 64)


@pytest.mark.parametrize("eps,mu", [(1.0, 1.0), (1.0, 3.0), (16.0, 0.25),
                                    (2.0, 1.0), (4.0, 1.0), (2.5, 0.5),
                                    (80.0, 1.0), (1.5, 3.0)])
def test_dielectric_mie_slots_are_the_printed_data(eps, mu):
    # the exact Mie series, at alpha = (nz i_l(nz))'/i_l(nz) and beta = mu
    # (M) or eps (E), against the paper's static response coefficients
    slots = asym._t_slots(Dielectric(eps, mu), range(1, 3), 6)
    for pol, x, y in (("E", F(eps), F(mu)), ("M", F(mu), F(eps))):
        j1, j2 = slots[(1, pol)], slots[(2, pol)]
        assert j1.get((3, 3), 0) == F(2, 3) * _alpha_hat(x, 1)
        assert j1.get((4, 4), 0) == 0
        assert j1.get((5, 5), 0) == _gamma13_hat(x, y)
        assert j1.get((6, 6), 0) == _gamma14_hat(x)
        assert j2.get((5, 5), 0) == _alpha_hat(x, 2) / 30
        assert j2.get((6, 6), 0) == 0


def test_dielectric_limits():
    assert dipole_dipole_coefficient(F(1), F(-1, 2)) == F(143, 16)
    vacuum = SphereSpec(1.0, Dielectric(1.0, 1.0))
    series = expand_em_dielectric(vacuum, vacuum)
    assert all(c == 0 for c in series.coeffs.values())
    # mu = 1 reduces the leading term to the polarizability-squared form
    spec = SphereSpec(1.0, Dielectric(4.0, 1.0))
    series = expand_em_dielectric(spec, spec)
    a_e = _alpha_hat(F(4), 1)
    assert series.coeffs[0] == F(23, 4) * a_e * a_e


def test_dielectric_validation():
    spec = SphereSpec(1.0, Dielectric(2.0, 1.0))
    with pytest.raises(TypeError):
        expand_em_dielectric(D, D)
    with pytest.raises(ValueError):
        expand_em_dielectric(spec, SphereSpec(2.0, Dielectric(2.0, 1.0)))
    with pytest.raises(ValueError):
        expand_em_dielectric(spec, SphereSpec(1.0, Dielectric(3.0, 1.0)))


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def test_eval_series_mechanics():
    series = expand_scalar(D, D)
    empty = eval_series(series, 1.0, 10.0, n_terms=0)
    assert empty.value == 0.0 and empty.terms == ()
    full = eval_series(series, 1.0, 10.0)
    manual = math.fsum(float(c) / (math.pi * 10.0) * 0.1 ** (j - 1)
                       for j, c in series.coeffs.items())
    assert full.value == pytest.approx(manual, rel=1e-15)
    assert len(full.terms) == 6
    with pytest.raises(ValueError):
        eval_series(series, 1.0, 1.9)
    with pytest.raises(ValueError):
        eval_series(series, 1.0, 10.0, n_terms=7)


def test_eval_series_refuses_a_non_finite_d():
    # inf > 2R would pass the overlap check and give an energy of 0
    for series in (expand_scalar(D, D), expand_em_metal()):
        for d in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite d"):
                eval_series(series, 1.0, d)


def test_eval_series_refuses_a_bad_radius():
    # d > 2R alone passes a radius at or below zero, which would give a
    # sign-flipped or zero energy
    for series in (expand_scalar(D, D), expand_em_metal()):
        for radius in (-1.0, 0.0, -0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite radius > 0"):
                eval_series(series, radius, 3.0)


def test_eval_series_growth_flag():
    metal = expand_em_metal()
    near = eval_series(metal, 1.0, 10.0)
    assert near.first_growing == 6  # |c_6/10^6| > |c_5/10^5|
    far = eval_series(metal, 1.0, 100.0)
    assert far.first_growing is None
    assert far.value == pytest.approx(
        -float(METAL_C_PRINTED[0]) / math.pi * 1e-14, rel=1e-3)


def test_dd_two_vs_six_terms_far():
    series = expand_scalar(D, D)
    two = eval_series(series, 1.0, 100.0, n_terms=2)
    six = eval_series(series, 1.0, 100.0, n_terms=6)
    assert abs(two.value - six.value) / abs(six.value) < 1e-3


# ---------------------------------------------------------------------------
# consistency with the full quadrature at large separation
# ---------------------------------------------------------------------------

def test_dielectric_energy_meets_its_series_far():
    # the series stops at c_3, so E/S - 1 is c_4 (R/d)^4 / c_0 plus
    # rounding: measured 2.83e-7, 2.83e-11, 1.3e-15 for (4, 1) and
    # 3.71e-7, 3.72e-11, 1.3e-15 for (2.5, 1.7) at d/R = 1e2, 1e3, 1e4
    # (l_max 4, default quadrature); the bound keeps 5e-7 (100 R/d)^4 plus
    # a rounding floor of 1e-14
    for eps, mu in ((4.0, 1.0), (2.5, 1.7)):
        spec = SphereSpec(1.0, Dielectric(eps, mu))
        series = expand_em_dielectric(spec, spec)
        res = {}
        for d in (1e2, 1e3, 1e4):
            est = casimir_energy(Geometry.pair(spec, spec, d), "em", 4)
            res[d] = est.value / eval_series(series, 1.0, d).value - 1.0
            assert abs(res[d]) <= 5e-7 * (1e2 / d) ** 4 + 1e-14
        # the residual is the (R/d)^4 term: ten times farther, 1e4 smaller
        assert 0.99e4 < res[1e2] / res[1e3] < 1.01e4


def test_series_agrees_with_quadrature_far():
    cases = [
        (D, D, expand_scalar(D, D)),
        (N, N, expand_scalar(N, N, p_max=4, l_cut=3)),
        (D, N, expand_scalar(D, N)),
    ]
    for s1, s2, series in cases:
        geom = Geometry((s1, s2), (0.0, 20.0))
        est = casimir_energy(geom, "scalar-real",
                             l_max=suggest_l_max(geom, "scalar-real"))
        val = eval_series(series, 1.0, 20.0).value
        assert abs(val - est.value) / abs(est.value) < 1e-3
