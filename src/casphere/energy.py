"""Exact Casimir interaction energies between spheres.

The energy is an integral over imaginary wavenumber kappa of
ln det(1 - N(kappa)), where N couples every pair of spheres a != b
through the T-matrix of sphere a and the translation block from b to a.
Each sphere's shape and material enter only through its T-matrix, so
two spheres are the N = 2 case of the same block determinant, and one
assembly serves every sphere count.  Azimuthal symmetry makes N block
diagonal in m, and each m-block is truncated at orbital order l; the
per-l truncations converge exponentially and are extrapolated to the
exact value.

T-matrix diagonals arrive in signed-log form and translation blocks as
bounded floats times a logged k-factor (see `translation`), so deep
multipole orders at small and large kappa stay representable.  Every
m-independent log of a quadrature node is summed and exponentiated once
per sphere pair, and the per-m work is a product of O(1) floats feeding
the final determinants.  The nodes of one chunk are assembled together:
one batch of translation kernels per sphere distance covers every node,
spheres of one radius share one Bessel chain, each distinct sphere's
T-matrix diagonals come from one batched call on it, and each (sphere
pair, polarization, polarization) writes the m-blocks of every node with
one multiply (the one block of two equal spheres, below, takes one for
all of them).

The per-l cuts of every m-block are leading principal minors of 1 - N_m,
and the m-blocks of many nodes are eliminated together, m-major and
node-minor, one panel of rows (one orbital order) at a time.  Block m
covers the orders l >= m, so it joins the elimination at order m: the
blocks live at any order form a prefix of the m-major list, and each
one's update window is its own trailing submatrix.  Only those windows
are held, in a ping-pong pair of buffers that shrink with the order;
each panel's Schur update writes the next, smaller windows into the
other buffer, and the blocks that start at the next order are written
after them straight from the assembly.  No byte is spent on padding, so
a chunk of nodes is sized by the working set's real peak.  Two equal
spheres are eliminated in mirror sectors (`_mirror`): one block of
split-complex entries per m, with half the rows and half the bytes.

The kappa integral is a global-adaptive Gauss-Kronrod (7, 15) rule with
the sums, error estimate and interval choice of
`scipy.integrate.quad_vec(..., norm="max", quadrature="gk15",
points=...)` and the stopping test of QUADPACK's QAGP: it stops as soon
as the summed error estimate is below the tolerance, before any
refinement if the initial partition already meets it.  In t = 2 kappa L
it starts from the dyadic partition 0, 1, 2, 4, ..., 32, 80, which
already resolves the integrand's O(1) scale.  The last interval, [32,
80], holds about e^{-32} of the integral: it is evaluated only when an
exponential extrapolation of the integrand from the end of [16, 32]
says it can reach a thousandth of the tolerance, so at the default
tolerance most energies take the 90 nodes of [0, 32] alone.  Those
nodes are evaluated in one batch, and so is every node of each
refinement round after them, whose GK15 sums over every interval are
one reduction.  A quadrature that stops without meeting its tolerance
warns with a QuadratureWarning.
"""

import heapq
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .specfun import _chain_rows
from .tmatrix import (
    SphereSpec,
    _checked_kappas,
    _integer,
    _t_em_rows,
    _t_scalar_rows,
    is_em_law,
    is_scalar_law,
)
# u_log_block stays importable from here: bench/spans.py traces it at
# every import site
from .translation import _node_kernels, _reversal, u_log_block  # noqa: F401

__all__ = [
    "DomainError",
    "LMaxClampWarning",
    "PivotFallbackWarning",
    "QuadratureWarning",
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


class LMaxClampWarning(RuntimeWarning):
    """`suggest_l_max` returned its upper bound `hi`, not a measured need.

    Either the probe's truncation errors did not decay usably (no
    accepted fit or a non-positive rate), or the order they call for
    exceeds `hi`.  The returned l_max may then leave a truncation error
    above the target.
    """


class PivotFallbackWarning(RuntimeWarning):
    """A block's leading minors came from the pivoted slogdet fallback.

    The unpivoted elimination met a pivot of 1 - N below 1e-13 or not
    finite; the block's minors were recomputed by pivoted slogdet, one
    leading minor at a time.  Never raised in the physical regime, where
    1 - N is strongly diagonally dominated.
    """


class QuadratureWarning(RuntimeWarning):
    """The kappa quadrature gave up short of its tolerance: at 10000
    intervals, or on a non-finite error estimate, which quad_error then
    reports.  A stop at the rounding error is silent."""


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
        for i, c in enumerate(self.centers):
            if not math.isfinite(c):
                raise ValueError("center %d must be finite, got %r" % (i, c))
        for i, gap in enumerate(self._gaps()):
            if not self.centers[i + 1] > self.centers[i]:
                raise ValueError("centers must be strictly increasing")
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

    def _gaps(self):
        """Surface-to-surface distance of each adjacent pair."""
        return [self.centers[i + 1] - self.centers[i]
                - self.spheres[i].radius - self.spheres[i + 1].radius
                for i in range(len(self.centers) - 1)]

    @property
    def surface_gap(self):
        """Smallest surface-to-surface distance between adjacent spheres."""
        return min(self._gaps())


# the kappa integral runs over t = 2 kappa L in [0, _T_MAX]; the
# integrand decays like e^{-t}, so 80 truncates far below relative 1e-16
# of the peak.  Its last dyadic interval [32, _T_MAX] holds about e^{-32}
# of the integral and is evaluated only where its tail estimate may
# matter (`_adaptive_gk15`)
_T_MAX = 80.0


@dataclass(frozen=True)
class QuadSpec:
    """Adaptive quadrature controls for the kappa integral.

    The integral runs over t = 2 kappa L with L the surface gap, on
    [0, 80]; the adaptive rule starts from the breakpoints t = 1, 2, 4,
    ..., 32, the seven intervals [0, 1], [1, 2], ..., [16, 32], [32, 80],
    and evaluates the last one only where its tail estimate exceeds a
    thousandth of the tolerance.  rel_tol bounds the global
    Gauss-Kronrod error estimate relative to the max-norm of the history
    integral: the rule stops, without refining, as soon as the summed
    estimate is below it.  The estimate is QUADPACK's, which overstates
    the true error of the smooth kappa integrand by orders of magnitude.
    rel_tol must be finite and > 0: an infinite one would stop on the
    initial partition whatever its error.
    """

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("quad tolerance must be finite and > 0, got %r"
                             % (self.rel_tol,))


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


def _l_min(fld):
    """Lowest orbital order: EM multipoles start at l = 1."""
    return 1 if fld.is_em else 0


def _checked_field(geometry, field_kind, l_max):
    """(FieldKind, l_max as an int) of an energy request, after the
    checks every entry point shares: each sphere's law suits the field,
    and l_max is an integer that reaches the lowest orbital order."""
    fld = _as_field(field_kind)
    l_max = _integer("l_max", l_max)
    for sp in geometry.spheres:
        if fld.is_em and not is_em_law(sp.law):
            raise TypeError("EM field requires dielectric/PEC spheres, "
                            "got %r" % (sp.law,))
        if not fld.is_em and not is_scalar_law(sp.law):
            raise TypeError("scalar field requires Robin-family spheres, "
                            "got %r" % (sp.law,))
    if l_max < _l_min(fld):
        raise ValueError("l_max must be >= %d" % _l_min(fld))
    return fld, l_max


def _panels(sizes, stride):
    """(first row, live blocks) of every panel of `stride` rows when
    blocks of these sizes are eliminated: block i joins at row
    sizes[0] - sizes[i]."""
    starts = np.arange(0, sizes[0], stride)
    return starts, np.searchsorted(sizes[0] - np.asarray(sizes), starts,
                                   "right")


def _buffer_sizes(sizes, stride):
    """Doubles in each of the two buffers `_shrinking_pivots` eliminates
    blocks of these sizes in: the live windows of the even panels, and
    of the odd ones."""
    starts, live = _panels(sizes, stride)
    cells = live * (sizes[0] - starts) ** 2
    return cells[0::2].max(initial=0), cells[1::2].max(initial=0)


def _madd(acc, x, y):
    """acc += x * y entrywise in the algebra of axis 1: reals, or
    split-complex (s, d) = s + j d, j^2 = 1, as x y_s + (x reversed) y_d."""
    acc += x * y[:, :1]
    if acc.shape[1] == 2:
        acc += x[:, ::-1] * y[:, 1:]


def _shrinking_pivots(sizes, stride, write, comps=1):
    """Pivot terms q of the pivot-free elimination of the blocks of
    `_shrinking_lndets`, shape (len(sizes), sizes[0]): row k's pivot is
    1 - q_k, and q is zero on the identity rows in front of each block.

    The blocks hold reals (comps 1, q = b_kk) or split-complex s + j d
    as (s, d) (comps 2), whose row pivot is the product of the real
    sectors' pivots, (1 - s)^2 - d^2 = 1 - q: q = s (2 - s) + d^2 comes
    from the carried s and d, so no first-order term cancels.

    One panel of `stride` rows (one orbital order) at a time: rank-1
    steps confined to the panel's rows and columns, on a transposed copy
    of its columns so each sweeps contiguous rows, each pivot column
    divided once by its pivot in place (a split-complex one times the
    inverse pivot a + j b as col a + (col, components swapped) b), then
    one batched matmul writes the next windows B22 + (B21 / piv) @ B12
    into the other buffer of a ping-pong pair; split-complex B12 enters
    it stacked over its swapped components, so one product forms both.
    The buffers live only as long as this call.
    """
    n = sizes[0]
    bufs = [np.empty(comps * size) for size in _buffer_sizes(sizes, stride)]
    q = np.zeros((len(sizes), n))
    written = 0
    for p, (k0, nact) in enumerate(zip(*_panels(sizes, stride))):
        w = n - k0
        act = bufs[p % 2][:nact * comps * w * w].reshape(nact, comps, w, w)
        if nact > written:
            write(act[written:].reshape(-1, w, w), k0, written)
            written = nact
        # cols[..., c, r] is act[..., r, c] for the panel's columns c
        cols = act[..., :stride].swapaxes(2, 3).copy()
        for k in range(stride):
            col, bk = cols[:, :, k, k + 1:], cols[:, :, k, k, None]
            if comps == 1:
                col /= 1.0 - bk
            else:
                # 1 / (1 - s - j d) = ((1 - s) + j d) / (1 - q)
                s, d = bk[:, :1], bk[:, 1:]
                bk = s * (2.0 - s) + d * d
                inv = np.concatenate((1.0 - s, d), axis=1) / (1.0 - bk)
                flip = col[:, ::-1] * inv[:, 1:]
                col *= inv[:, :1]
                col += flip
            q[:nact, k0 + k] = bk[:, 0, 0]
            # the panel's last row leaves no panel column to update
            j = stride - k - 1
            if j:
                _madd(cols[:, :, k + 1:, k + 1:], col[:, :, None],
                      cols[:, :, k + 1:, k, None])
                _madd(act[:, :, k + 1:stride, stride:], col[:, :, :j, None],
                      act[:, :, k, None, stride:])
        if w > stride:
            v = w - stride
            nxt = bufs[(p + 1) % 2][:nact * comps * v * v].reshape(
                nact, comps, v, v)
            b12 = act[:, :, :stride, stride:]
            if comps == 2:
                # component k of B21 B12 is sum_i B21_i B12_(i ^ k): one
                # matmul over the stacked (component, row) inner axis
                b12 = np.concatenate((b12, b12[:, ::-1]), axis=2)
            np.matmul(cols[..., stride:].reshape(nact, 1, comps * stride, v)
                      .swapaxes(2, 3), b12, out=nxt)
            nxt += act[:, :, stride:, stride:]
    return q


def _shrinking_lndets(sizes, stride, write, comps=1):
    """(signs, lndets) of the leading principal minors of 1 - B for
    blocks B of the given sizes, each of shape (len(sizes), n) with n =
    sizes[0].

    Sizes never increase and are multiples of `stride`.  Block i is
    read as the trailing (bottom-right) corner of an n-row matrix whose
    leading n - sizes[i] rows are identity rows of 1 - B: the leading
    rows of its result belong to them (sign 1, lndet 0).  Only the live
    trailing windows are held.  At row k the blocks being eliminated are
    a prefix of the list and each one's window is its trailing
    (n - k)-row submatrix; `write(out, k, lo)` fills out, of shape
    (count * comps, n - k, n - k), with the `comps` components of each
    of the blocks lo, lo + 1, ... that start at row k, behind the
    windows of the blocks before them.  With comps 2 a block is
    split-complex, S + j D, and its k-row minors are the 2k-row leading
    minors of the real matrix it stands for, kron(S, I) + kron(D, J),
    J = [[0, 1], [1, 0]].

    The elimination (`_shrinking_pivots`) is pivot-free and carried in
    B ~ N.  Each pivot term is built from products of N entries, so
    log1p(-q) keeps full relative accuracy even when N is ~1e-12
    (far separations).  Pivots are checked once, after the elimination:
    a block with one below 1e-13 or not finite warns with a
    PivotFallbackWarning.  `write` then writes the blocks that join at
    its first row again, into a temporary array no larger than one of
    the elimination's buffers, and the block's real matrix goes to the
    pivoted fallback, every row of it; no other block reads its entries.
    """
    nb, n = len(sizes), sizes[0]
    first = n - np.asarray(sizes)
    with np.errstate(all="ignore"):
        q = _shrinking_pivots(sizes, stride, write, comps)
        piv = 1.0 - q
        own = np.arange(n) >= first[:, None]
        terms = np.zeros((nb, n))
        np.log1p(-q, out=terms, where=own & (piv > 0.0))
        np.log(-piv, out=terms, where=own & (piv < 0.0))
        signs = 1.0 - 2.0 * (np.cumsum((piv < 0.0) & own, axis=1) % 2)
        lndets = np.cumsum(terms, axis=1)
        bad = own & ~(np.isfinite(piv) & (np.abs(piv) >= 1e-13))
    for i in np.flatnonzero(bad.any(axis=1)):
        warnings.warn("pivot fallback in block %d of %d (size %d)"
                      % (i, nb, sizes[i]), PivotFallbackWarning)
        k, w = first[i], sizes[i]
        lo = np.searchsorted(first, k)
        group = np.empty((np.count_nonzero(first == k), comps, w, w))
        write(group.reshape(-1, w, w), k, lo)
        # component c multiplies the unit I (c = 0) or J (c = 1)
        real = sum(np.kron(b, np.roll(np.eye(comps), c, axis=1))
                   for c, b in enumerate(group[i - lo]))
        signs[i], lndets[i] = 1.0, 0.0
        signs[i, k:], lndets[i, k:] = (
            v[comps - 1::comps] for v in _leading_lndets_pivoted(real))
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


def _m_history(signs, lndets, stride, l_min):
    """History vectors sum_m w_m lndet(1 - N_m) at every cut l.

    Axis 0 of signs and lndets runs over m, the last axis over the rows
    of `_shrinking_lndets`, and any axes between over nodes.  Blocks run
    l-major with `stride` rows per orbital order, behind the identity
    rows that bring each to the size of the largest, so the cut at order
    l is the leading minor of size stride*(l - l_min + 1) in every row.
    Positivity is asserted at those cuts only (staircase minors in
    between carry no physical meaning).  The +-m blocks are equal:
    m > 0 is weighted twice.
    """
    cut = lndets[..., stride - 1::stride]
    if np.any(signs[..., stride - 1::stride] <= 0.0) \
            or not np.all(np.isfinite(cut)):
        raise DomainError(
            "det(1 - N) lost positivity; spectral radius >= 1 "
            "(check for overlap or invalid parameters)")
    weights = np.full((len(cut),) + (1,) * (cut.ndim - 1), 2.0)
    weights[0] = 1.0
    hist = np.zeros(cut.shape[1:-1] + (l_min + cut.shape[-1],))
    # accumulate runs sequentially over m, the order of per-block sums
    hist[..., l_min:] += np.add.accumulate(weights * cut)[-1]
    return hist


def _per_pol(arr, pol):
    """Repeat an l-indexed array over the interleaved polarizations."""
    for axis in range(arr.ndim):
        arr = np.repeat(arr, pol, axis)
    return arr


def _write_blocks(out, pairs, pol, l0, m0):
    """Write the m-blocks N_m, m = m0, m0 + 1, ..., of some nodes into
    out, m-major and node-minor, from orbital order l0 on.

    out has shape (nm, nn, comps, nl, nsph, pol, nl, nsph, pol) for nm
    values of m, nn nodes, the components of `_shrinking_pivots` and the
    nl orders l0..l_max.  pairs holds (a, b, scale, u): the (sphere a,
    sphere b) block of the last component at node j is scale[j] * u[j,
    m].  The (a, a) blocks of N_m are zero; a pair (0, 0) is instead the
    D of the mirror form (`_mirror`), whose S starts at zero.  Rows and
    columns run l-major with (sphere, polarization) inside each order,
    so every sphere cut at order l is a leading principal submatrix.
    One strided multiply per (pair, polarization, polarization) writes
    every m of every node and keeps the innermost runs long.  The mirror
    form's one block already has u's interleaved (l, polarization)
    layout, so one multiply writes it whole.
    """
    lo = pol * l0
    nm, nn, comps, nl, nsph = out.shape[:5]
    out[:, :, :-1] = 0.0  # S of the mirror form
    out = out[:, :, -1]
    if comps == 2:
        (_, _, scale, u), = pairs
        np.multiply(scale[:, lo:, lo:],
                    u[:, m0:m0 + nm, lo:, lo:].swapaxes(0, 1),
                    out=out.reshape(nm, nn, pol * nl, pol * nl))
        return
    for a in range(nsph):
        out[:, :, :, a, :, :, a] = 0.0
    for a, b, scale, u in pairs:
        s = scale[:, lo:, lo:].reshape(nn, nl, pol, nl, pol)
        blocks = u[:, m0:m0 + nm, lo:, lo:].reshape(
            nn, nm, nl, pol, nl, pol).swapaxes(0, 1)
        for p in range(pol):
            for q in range(pol):
                np.multiply(s[:, :, p, :, q], blocks[:, :, :, p, :, q],
                            out=out[:, :, :, a, p, :, b, q])


def _block_sizes(nsph, pol, l_max, l_min):
    """Rows of the m-blocks of one node, m = 0..l_max: block m covers the
    orders l >= max(m, l_min)."""
    return nsph * pol * (l_max + 1 - np.maximum(np.arange(l_max + 1), l_min))


def _stack_history(pairs, nsph, pol, l_max, l_min):
    """History vectors of the nodes of `_node_pairs`, shape (nn, l_max + 1)
    for the nn nodes its arrays hold.

    The m-blocks of every node are eliminated together, m-major and
    node-minor, so block sizes never increase along them; block m of
    every node joins the working set at order max(m, l_min), written
    straight into its live window.  The mirror form (a pair (0, 0), one
    row group per order: nsph 1) is eliminated split-complex.
    """
    nn = len(pairs[0][2])
    comps = 2 if pairs[0][0] == pairs[0][1] else 1
    stride = nsph * pol
    n = (l_max + 1 - l_min) * stride

    def write(out, k, lo):
        l0 = l_min + k // stride
        nl = l_max + 1 - l0
        _write_blocks(out.reshape(-1, nn, comps, nl, nsph, pol, nl, nsph,
                                  pol), pairs, pol, l0, lo // nn)

    signs, lndets = _shrinking_lndets(
        np.repeat(_block_sizes(nsph, pol, l_max, l_min), nn), stride, write,
        comps)
    return _m_history(signs.reshape(l_max + 1, nn, n),
                      lndets.reshape(l_max + 1, nn, n), stride, l_min)


def _mirror(geometry):
    """Two equal spheres: their m-blocks [[0, M], [P M P, 0]], M = K_12
    and P = diag(r) the parity of `_reversal`, become [[0, D], [D, 0]],
    D = M P, under diag(1, P), which keeps every leading minor, and are
    eliminated as one split-complex block S + j D (j^2 = 1) from S = 0:
    half the rows and half the bytes of the interleaved windows."""
    return (geometry.n_spheres == 2
            and geometry.spheres[0] == geometry.spheres[1])


def _node_pairs(geometry, fld, kappas, l_max):
    """(a, b, scale, u) of every ordered sphere pair at the nodes kappas.

    K_ab = T^a U^ab for spheres a != b; the block matrix runs l-major
    over (l, sphere, polarization), and two spheres are its N = 2 case.
    scale (shape (nn, P, P)) and u (shape (nn, l_max + 1, P, P)) hold
    one row per node, P = pol*(l_max + 1).  A diagonal similarity
    e^{-kappa R_a} (kappa c)^{-l} balances every entry, with the same
    determinant.  Pairs at the same distance share one batch of
    translation kernels, and every u is its "12" blocks: a pair whose
    source lies below its target reads them in direction "21", whose
    +-1 parity mask `_reversal` is folded into the scale.  Spheres of the
    same radius share one Bessel chain over every node, and each distinct
    sphere's T-matrix logs come from one batched call on its chain.
    Two equal spheres (`_mirror`) give the one pair (0, 0, scale, u) of
    D = K_12 P, with the parity P folded into its scale.
    """
    spheres = geometry.spheres
    centers = geometry.centers
    nsph = len(spheres)
    pol = 2 if fld.is_em else 1
    c_len = max(sp.radius for sp in spheres)
    kv = np.array(kappas, dtype=float)
    kappas = _checked_kappas(kv)
    # equal spheres share one T-matrix log (found by ==, so a law need
    # not be hashable), and spheres of one radius one chain
    t_rows = _t_em_rows if fld.is_em else _t_scalar_rows
    chains = {}
    tlogs = []
    for a, sp in enumerate(spheres):
        first = spheres.index(sp)
        if first < a:
            tlogs.append(tlogs[first])
            continue
        ch = chains.get(sp.radius)
        if ch is None:
            ch = chains[sp.radius] = _chain_rows(l_max, kv * sp.radius)
        tlogs.append(t_rows(sp, ch, kappas))
    lv = np.arange(l_max + 1, dtype=float)
    pw = _per_pol(lv[None, :] - lv[:, None], pol) * np.array(
        [math.log(kappa * c_len) for kappa in kappas])[:, None, None]
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
                    kern = kernels[dab] = _node_kernels(l_max, kv * dab,
                                                        fld.is_em)
                sa, ga = tlogs[a]
                # exponent: T(scaled)*e^{2 z_a} * U(scaled)*e^{-x},
                # similarity e^{-k R_a + k R_b} (kc)^{l'-l}
                expo = kv * (spheres[a].radius + spheres[b].radius - dab)
                scale = sa[:, :, None] * np.exp(
                    ga[:, :, None] + kern.log_scale + pw
                    + expo[:, None, None])
                if centers[b] < centers[a]:
                    scale *= _reversal(l_max + 1, pol)
                if _mirror(geometry):
                    # row 0 of the mask outer(r, r) is the parity r
                    return [(0, 0, scale * _reversal(l_max + 1, pol)[0],
                             kern.blocks)]
                pairs.append((a, b, scale, kern.blocks))
    return pairs


# byte budget of the elimination's working set: nodes are eliminated
# together in chunks whose two live-window buffers fit it (at least one
# node per chunk), which bounds the memory of a refinement round
# whatever its node count
_STACK_BYTES = 1 << 20


def _histories(geometry, fld, kappas, l_max):
    """History vectors lndet(1 - K) at every cut l for the nodes kappas,
    shape (len(kappas), l_max + 1).

    Each row equals the one-node call on its kappa bit for bit: the
    nodes of a chunk share the assembly and elimination loops, never
    arithmetic.
    """
    # the mirror form: one row group per order, two components
    comps = 2 if _mirror(geometry) else 1
    nsph = geometry.n_spheres // comps
    pol = 2 if fld.is_em else 1
    l_min = _l_min(fld)
    node_bytes = 8 * comps * sum(_buffer_sizes(
        _block_sizes(nsph, pol, l_max, l_min), nsph * pol))
    chunk = max(1, _STACK_BYTES // node_bytes)
    out = np.empty((len(kappas), l_max + 1))
    for start in range(0, len(kappas), chunk):
        part = kappas[start:start + chunk]
        out[start:start + len(part)] = _stack_history(
            _node_pairs(geometry, fld, part, l_max), nsph, pol, l_max, l_min)
    return out


def integrand(geometry, field_kind, kappa, l_max):
    """Sum over m of ln det(1 - N_m(kappa)) at truncation l_max.

    The +-m blocks are equal; m > 0 is computed once and doubled.  A
    spectral radius of N_m at or above 1 raises DomainError.
    """
    if geometry.n_spheres != 2:
        raise ValueError("integrand is defined for two-sphere geometries")
    fld, l_max = _checked_field(geometry, field_kind, l_max)
    return float(_histories(geometry, fld, [kappa], l_max)[0, l_max])


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


# Gauss-Kronrod (7, 15) rule on [-1, 1]: abscissae from +1 to -1 with
# their Kronrod weights, and the Gauss weights of the odd-indexed nodes
_GK15_HALF_X = (0.991455371120812639206854697526329,
                0.949107912342758524526189684047851,
                0.864864423359769072789712788640926,
                0.741531185599394439863864773280788,
                0.586087235467691130294144838258730,
                0.405845151377397166906606412076961,
                0.207784955007898467600689403773245)
_GK15_X = _GK15_HALF_X + (0.0,) + tuple(-x for x in _GK15_HALF_X[::-1])
_GK15_HALF_V = (0.022935322010529224963732008058970,
                0.063092092629978553290700663189204,
                0.104790010322250183839876322541518,
                0.140653259715525918745189590510238,
                0.169004726639267902826583426598550,
                0.190350578064785409913256402421014,
                0.204432940075298892414161999234649)
_GK15_V = _GK15_HALF_V + (0.209482141084727828012999174891714,) \
    + _GK15_HALF_V[::-1]
_GK15_HALF_W = (0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975)
_GK15_W = _GK15_HALF_W + (0.417959183673469387755102040816327,) \
    + _GK15_HALF_W[::-1]


def _gk15_nodes(a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return [c + h * x for x in _GK15_X]


def _by_interval(values):
    """Values at the GK15 nodes of consecutive intervals, 15 rows each,
    as an (intervals, 15, ...) array."""
    return values.reshape((-1, 15) + values.shape[1:])


def _gk15_batch(a, b, fv):
    """(integrals, errors, rounding errors) of the GK15 rule on every
    interval [a[i], b[i]] from the values fv[i] at `_gk15_nodes(a[i],
    b[i])`; fv has shape (intervals, 15, ...).

    QUADPACK's error estimate in the max-norm, each sum running
    sequentially over the nodes, in the arithmetic order of quad_vec, for
    every interval at once.  The integrals come as one array, a row per
    interval; the errors as lists of floats, each from its interval's
    own tests on Python floats.
    """
    h = 0.5 * (np.asarray(b) - np.asarray(a))
    h = h.reshape((-1,) + (1,) * (fv.ndim - 2))
    nodes = fv.swapaxes(0, 1)  # node-major: one (intervals, ...) slab each
    s_k = np.zeros(nodes.shape[1:])
    s_k_abs = np.zeros(nodes.shape[1:])
    for v, ff in zip(_GK15_V, nodes):
        s_k += v * ff
        s_k_abs += v * abs(ff)
    s_g = np.zeros(nodes.shape[1:])
    for i, w in enumerate(_GK15_W):
        s_g += w * nodes[2 * i + 1]
    y0 = s_k / 2.0
    s_k_dabs = np.zeros(nodes.shape[1:])
    for v, ff in zip(_GK15_V, nodes):
        s_k_dabs += v * abs(ff - y0)

    def amax(x):
        return np.amax(abs(x).reshape(len(x), -1), axis=1).tolist()
    errs = []
    round_errs = amax(50 * sys.float_info.epsilon * h * s_k_abs)
    for err, dabs, round_err in zip(amax((s_k - s_g) * h),
                                    amax(s_k_dabs * h), round_errs):
        if dabs != 0 and err != 0:
            err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
        if round_err > sys.float_info.min:
            err = max(err, round_err)
        errs.append(err)
    return h * s_k, errs, round_errs


# intervals split per refinement round (fewer once their errors exceed
# the global error less tol), and the interval count at which refinement
# gives up
_GK_SPLITS = 128
_GK_LIMIT = 10000
# the last initial interval is skipped where its tail estimate is at most
# this share of the tolerance: skipping at the tolerance itself moved the
# dielectric pair's energy at d/R 1e3 by 6e-11, past its series bound of
# 5e-11
_TAIL_SHARE = 1e-3


def _dyadic_points(b):
    """Breakpoints 1, 2, 4, ... of [0, b]: every power of two p with
    2p <= b, so the last interval [p, b] is at least as long as [p/2, p].
    """
    points = []
    p = 1.0
    while 2.0 * p <= b:
        points.append(p)
        p *= 2.0
    return points


def _tail_estimate(t0, t1, f0, f1):
    """Integral over [t0, inf) of f0 e^{-beta (t - t0)}, the exponential
    through the max-norms f0 at t0 and f1 at t1 < t0: beta = ln(f1/f0) /
    (t0 - t1).  Infinite where that is undefined or does not decay."""
    if not 0.0 < f0 < f1 < math.inf:
        return math.inf
    beta = math.log(f1 / f0) / (t0 - t1)
    return f0 / beta


def _gk15_rules(f, intervals):
    """f's values at the GK15 nodes of the intervals, in one call, and the
    (interval, integral, error, rounding error) of each."""
    values = f([t for lo, hi in intervals for t in _gk15_nodes(lo, hi)])
    return values, list(zip(intervals, *_gk15_batch(*zip(*intervals),
                                                    _by_interval(values))))


def _adaptive_gk15(f, b, rel_tol):
    """(integral, error) over [0, b] of the vector function f.

    Global-adaptive GK15 with the nodes, sums and interval choice of
    scipy's quad_vec(f, 0, b, norm="max", quadrature="gk15",
    points=_dyadic_points(b)) and the stopping test of QUADPACK's QAGP
    (Piessens et al., QUADPACK, Springer 1983): tol = max(1e-280,
    rel_tol * max|integral|), and the rule stops once at least two
    intervals are held and the global error is below tol or below the
    rounding error.  The test runs before every round, the first one
    included, so a partition that meets it is never refined; where a
    round runs, the result equals quad_vec's at epsrel = 8 rel_tol,
    whose tests use tol/8.  It starts from one GK15 rule on each
    interval of the dyadic partition 0, 1, 2, 4, ..., b, whose integrals
    and errors are summed in interval order; the integrand's O(1) scale
    in t = 2 kappa L is then resolved from the start instead of by
    bisecting [0, b].

    The last interval [p, b] of a partition of two or more is evaluated
    only where it can matter.  The rule first evaluates [0, p]; the two
    GK15 nodes of [p/2, p] nearest p give `_tail_estimate`, which
    overstates the decaying integrand's integral over [p, b] (by 7 % on
    the kappa integrands tested).  Where that
    estimate is at most `_TAIL_SHARE` * tol (tol from the integral over
    [0, p]), the interval is never evaluated: the rule runs as quad_vec
    on [0, p] with breakpoints 1, ..., p/2, and the estimate is added to
    the returned error.  Otherwise, or where the estimate is not finite,
    the K15 rule of [p, b] is evaluated at once and joins the sums in
    interval order, so the result is the full partition's, byte for
    byte.

    Each round splits the intervals of largest error (up to 128, until
    their errors exceed the global error less tol).  At `_GK_LIMIT`
    intervals, or on a non-finite error, it gives up with a
    QuadratureWarning.  f maps a list of nodes to an array of values,
    one row per node, and gets every node of [0, p] in one call, then
    those of [p, b] if it is kept, then every node of a round in one
    call; the GK15 rule of every interval of a call is one `_gk15_batch`.
    """
    edges = [0.0] + _dyadic_points(b) + [b]
    initial = list(zip(edges[:-1], edges[1:]))
    head = initial[:-1] or initial
    values, rules = _gk15_rules(f, head)
    total = np.zeros(values.shape[1:])
    for _, ig, _, _ in rules:
        total += ig
    tail_error = 0.0
    if len(head) < len(initial):
        t0, t1 = _gk15_nodes(*head[-1])[:2]
        f0, f1 = np.amax(abs(_by_interval(values)[-1, :2]).reshape(2, -1),
                         axis=1)
        tail_error = _tail_estimate(t0, t1, float(f0), float(f1))
        if not tail_error <= _TAIL_SHARE * max(
                1e-280, rel_tol * np.amax(abs(total))):
            tail_error = 0.0
            tail = _gk15_rules(f, initial[-1:])[1]
            total += tail[0][1]
            rules += tail
    global_error = rounding_error = 0.0
    integrals = {}
    heap = []
    for (lo, hi), ig, err, round_err in rules:
        global_error += err
        rounding_error += round_err
        integrals[(lo, hi)] = ig
        heap.append((-err, lo, hi))
    heapq.heapify(heap)

    while True:
        # epsabs 1e-280 acts only as the floor for identically zero
        # integrands
        tol = max(1e-280, rel_tol * np.amax(abs(total)))
        if len(heap) >= 2 and (global_error < tol
                               or global_error < rounding_error):
            break
        if len(heap) >= _GK_LIMIT or not (math.isfinite(global_error)
                                          and math.isfinite(rounding_error)):
            warnings.warn("kappa quadrature gave up at %d intervals: error "
                          "%.3g, tolerance %.3g" % (len(heap), global_error,
                                                    tol), QuadratureWarning)
            break
        limit = global_error - tol
        split = []
        err_sum = 0.0
        while heap and len(split) < _GK_SPLITS \
                and not (split and err_sum > limit):
            neg_err, lo, hi = heapq.heappop(heap)
            split.append((-neg_err, lo, hi))
            err_sum += -neg_err
        halves = []
        for _, lo, hi in split:
            mid = 0.5 * (lo + hi)
            halves += [(lo, mid), (mid, hi)]
        rules = _gk15_rules(f, halves)[1]
        for i, (old_err, lo, hi) in enumerate(split):
            two = rules[2 * i:2 * i + 2]
            (_, s1, err1, round1), (_, s2, err2, round2) = two
            total += s1 + s2 - integrals.pop((lo, hi))
            global_error += err1 + err2 - old_err
            rounding_error += round1 + round2
            for (x1, x2), ig, err, _ in two:
                integrals[(x1, x2)] = ig
                heapq.heappush(heap, (-err, x1, x2))
    return total, global_error + rounding_error + tail_error


def _integrate_history(geometry, fld, l_max, quad):
    gap = geometry.surface_gap
    l_min = _l_min(fld)
    res, err = _adaptive_gk15(
        lambda ts: _histories(geometry, fld, [t / (2.0 * gap) for t in ts],
                              l_max),
        _T_MAX, quad.rel_tol)
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

    The N = 2 case of the block determinant of `casimir_energy_nbody`,
    restricted to exactly two spheres.  Integrates the m-summed
    log-determinant over t = 2 kappa L with global-adaptive
    Gauss-Kronrod (7, 15) vector quadrature (every truncation l shares
    one node set, and each refinement round is evaluated in one batch),
    then extrapolates the exponentially converging per-l estimates.
    Value and history are in units of hbar c / R_1.
    """
    if geometry.n_spheres != 2:
        raise ValueError("casimir_energy expects exactly two spheres; "
                         "use casimir_energy_nbody for more")
    return _integrate_history(
        geometry, *_checked_field(geometry, field_kind, l_max), quad)


def casimir_energy_nbody(geometry, field_kind, l_max, quad=QuadSpec()):
    """Casimir energy of N >= 2 collinear spheres.

    Evaluates prefactor * int dkappa ln[det M / det M_inf] with M the
    block matrix of inverse T-matrices and translations, i.e. of
    ln det(1 - T U) over every sphere pair.  Two spheres are its N = 2
    case, which `casimir_energy` computes with the same assembly.
    """
    return _integrate_history(
        geometry, *_checked_field(geometry, field_kind, l_max), quad)


# suggest_l_max: the probe's order and quadrature, the residual it aims
# at (e^{-target} of the leading correction) and the clamp [lo, hi]
_PROBE_L = 10
_PROBE_QUAD = QuadSpec(rel_tol=1e-7)
_TARGET = 14.0
_L_LO, _L_HI = 6, 40


def suggest_l_max(geometry, field_kind):
    """Pick a truncation order from a cheap probe run.

    Probes the adjacent pair with the smallest surface gap (the first
    on ties) at l = 10, reads the fitted decay rate of the truncation
    error, and sizes l_max so the residual is ~e^{-14} of the leading
    correction; clamped to [6, 40].  Returning the upper clamp because
    the decay rate is unusable or the need exceeds it warns with
    LMaxClampWarning.
    """
    fld = _as_field(field_kind)
    gaps = geometry._gaps()
    i = gaps.index(min(gaps))
    tight = Geometry.pair(geometry.spheres[i], geometry.spheres[i + 1],
                          geometry.centers[i + 1] - geometry.centers[i])
    probe = casimir_energy(tight, fld, max(_PROBE_L, _l_min(fld) + 3),
                           _PROBE_QUAD)
    es = [e for _, e in probe.history]
    diffs = np.abs(np.diff(es))
    if diffs[-1] == 0.0:
        return _L_LO
    # per-l decay rate from the last two differences
    rate = math.log(diffs[-2] / diffs[-1]) if diffs[-1] < diffs[-2] else 0.0
    if probe.delta_fit != probe.delta_fit or rate <= 0.0:
        warnings.warn("suggest_l_max: the probe's truncation errors do not "
                      "decay usably; returning hi=%d" % _L_HI,
                      LMaxClampWarning, stacklevel=2)
        return _L_HI
    need = int(math.ceil(probe.l_max + _TARGET / rate))
    if need > _L_HI:
        warnings.warn("suggest_l_max: need l_max=%d, clamped to hi=%d"
                      % (need, _L_HI), LMaxClampWarning, stacklevel=2)
    return max(_L_LO, min(_L_HI, need))
