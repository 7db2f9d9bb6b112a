"""Independent high-precision references used only by the test suite.

Everything here is deliberately slow and obvious: exact rational Racah
sums for 3j symbols and mpmath evaluations for Bessel functions.  The
production code must agree with these, never the other way around.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath as mp


@lru_cache(maxsize=None)
def _fact(n):
    return math.factorial(n)


def threej_exact_sq(l1, l2, l3, m1, m2, m3):
    """(sign, value^2) of a Wigner 3j symbol as an exact Fraction.

    Racah's single-sum formula evaluated in integer arithmetic; `sign`
    is the sign of the symbol itself (0 for an exact zero).
    """
    if m1 + m2 + m3 != 0:
        return 0, Fraction(0)
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0, Fraction(0)
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0, Fraction(0)
    tmin = max(0, l2 - l3 - m1, l1 - l3 + m2)
    tmax = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    s = 0
    for t in range(tmin, tmax + 1):
        term = Fraction(
            (-1) ** t,
            _fact(t) * _fact(l3 - l2 + t + m1) * _fact(l3 - l1 + t - m2)
            * _fact(l1 + l2 - l3 - t) * _fact(l1 - t - m1) * _fact(l2 - t + m2),
        )
        s += term
    if s == 0:
        return 0, Fraction(0)
    delta = Fraction(
        _fact(l1 + l2 - l3) * _fact(l1 - l2 + l3) * _fact(-l1 + l2 + l3),
        _fact(l1 + l2 + l3 + 1),
    )
    w = (_fact(l1 + m1) * _fact(l1 - m1) * _fact(l2 + m2) * _fact(l2 - m2)
         * _fact(l3 + m3) * _fact(l3 - m3))
    sq = delta * w * s * s
    sign = 1 if s > 0 else -1
    if (l1 - l2 - m3) % 2:
        sign = -sign
    return sign, sq


def threej_exact(l1, l2, l3, m1, m2, m3, prec=60):
    """Float value of the 3j symbol from the exact rational square."""
    sign, sq = threej_exact_sq(l1, l2, l3, m1, m2, m3)
    if sign == 0:
        return 0.0
    with mp.workdps(prec):
        return float(sign * mp.sqrt(mp.mpf(sq.numerator) / sq.denominator))


def bessel_i_scaled_ref(l, z, prec=80):
    """I_{l+1/2}(z) e^{-z} via mpmath."""
    with mp.workdps(prec):
        return float(mp.besseli(mp.mpf(2 * l + 1) / 2, z) * mp.exp(-mp.mpf(z)))


def bessel_k_scaled_ref(l, z, prec=80):
    """K_{l+1/2}(z) e^{+z} via mpmath."""
    with mp.workdps(prec):
        return float(mp.besselk(mp.mpf(2 * l + 1) / 2, z) * mp.exp(mp.mpf(z)))


def bessel_log_i_ref(l, z, prec=120):
    """log I_{l+1/2}(z) - z via mpmath."""
    with mp.workdps(prec):
        return float(mp.log(mp.besseli(mp.mpf(2 * l + 1) / 2, z)) - z)


def bessel_log_k_ref(l, z, prec=120):
    """log K_{l+1/2}(z) + z via mpmath."""
    with mp.workdps(prec):
        return float(mp.log(mp.besselk(mp.mpf(2 * l + 1) / 2, z)) + z)


def bessel_di_scaled_ref(l, z, prec=80):
    """I'_{l+1/2}(z) e^{-z} via mpmath (central-difference-free identity)."""
    with mp.workdps(prec):
        nu = mp.mpf(2 * l + 1) / 2
        znum = mp.mpf(z)
        val = mp.besseli(nu + 1, znum) + nu / znum * mp.besseli(nu, znum)
        return float(val * mp.exp(-znum))


def bessel_dk_scaled_ref(l, z, prec=80):
    """K'_{l+1/2}(z) e^{+z} via mpmath."""
    with mp.workdps(prec):
        nu = mp.mpf(2 * l + 1) / 2
        znum = mp.mpf(z)
        val = -mp.besselk(nu + 1, znum) + nu / znum * mp.besselk(nu, znum)
        return float(val * mp.exp(znum))


def sph_i_tilde(l, z, prec=80):
    """Modified spherical Bessel i_l(z) = sqrt(pi/(2z)) I_{l+1/2}(z), unscaled."""
    with mp.workdps(prec):
        znum = mp.mpf(z)
        return mp.sqrt(mp.pi / (2 * znum)) * mp.besseli(mp.mpf(2 * l + 1) / 2, znum)


def sph_k_tilde(l, z, prec=80):
    """Modified spherical Bessel k_l(z) = sqrt(2/(pi z)) K_{l+1/2}(z), unscaled."""
    with mp.workdps(prec):
        znum = mp.mpf(z)
        return mp.sqrt(2 / (mp.pi * znum)) * mp.besselk(mp.mpf(2 * l + 1) / 2, znum)


# ---------------------------------------------------------------------------
# Vector multipole evaluators (numpy precision, independent of casphere
# conventions except for the shared spherical-harmonic normalization).
# ---------------------------------------------------------------------------

_E_SPH = {
    +1: None,  # filled lazily to avoid importing numpy at module scope twice
}


def _sph_basis():
    import numpy as np
    return {
        +1: np.array([-1.0, -1.0j, 0.0]) / math.sqrt(2.0),
        0: np.array([0.0, 0.0, 1.0]),
        -1: np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0),
    }


def clebsch(j1, m1, j2, m2, J, M):
    """<j1 m1; j2 m2 | J M> from the exact 3j oracle."""
    if m1 + m2 != M:
        return 0.0
    w = threej_exact(j1, j2, J, m1, m2, -M)
    return ((-1) ** (j1 - j2 + M)) * math.sqrt(2 * J + 1) * w


def vector_harmonic(J, L, m, th, ph):
    """Y_{JLm} as a cartesian complex 3-vector."""
    import numpy as np
    from scipy.special import sph_harm_y
    basis = _sph_basis()
    out = np.zeros(3, dtype=complex)
    for q in (-1, 0, 1):
        mu = m - q
        if abs(mu) > L:
            continue
        out = out + clebsch(L, mu, 1, q, J, m) * sph_harm_y(L, mu, th, ph) \
            * basis[q]
    return out


def vector_wave(kind, pol, J, m, kappa, x):
    """Vector multipole M/N_{Jm} with regular ("i") or outgoing ("k") kernel.

    Electric waves via their exact orbital decomposition; see
    `vector_wave_curl_fd` for the independent curl-based check.
    """
    import numpy as np
    r = float(np.linalg.norm(x))
    th = math.acos(x[2] / r)
    ph = math.atan2(x[1], x[0])
    if kind == "i":
        rad = lambda l: float(sph_i_tilde(l, kappa * r))
    else:
        rad = lambda l: float(sph_k_tilde(l, kappa * r))
    if pol == "M":
        return rad(J) * vector_harmonic(J, J, m, th, ph)
    a = math.sqrt((J + 1) / (2 * J + 1))
    b = math.sqrt(J / (2 * J + 1))
    s = 1.0 if kind == "i" else -1.0
    return s * (a * rad(J - 1) * vector_harmonic(J, J - 1, m, th, ph)
                + b * rad(J + 1) * vector_harmonic(J, J + 1, m, th, ph))


def vector_wave_curl_fd(kind, J, m, kappa, x, h=1e-6):
    """Electric wave N_{Jm} = (1/(i kappa)) curl M_{Jm} by finite differences."""
    import numpy as np

    def mfun(y):
        return vector_wave(kind, "M", J, m, kappa, y)

    grad = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = h
        grad[j] = (8 * (mfun(x + dx) - mfun(x - dx))
                   - (mfun(x + 2 * dx) - mfun(x - 2 * dx))) / (12 * h)
    curl = np.array([grad[1, 2] - grad[2, 1],
                     grad[2, 0] - grad[0, 2],
                     grad[0, 1] - grad[1, 0]])
    return curl / (1j * kappa)


# ---------------------------------------------------------------------------
# T-matrix references (direct high-precision evaluation of the closed forms)
# ---------------------------------------------------------------------------

def t_scalar_ref(zeta, l, z):
    """(-1)^l (pi/2) [(1/z+1/2)I - zI']/[(1/z+1/2)K - zK'] at nu = l + 1/2.

    zeta = 0 means Dirichlet, zeta = None means Neumann (drop 1/zeta terms).
    """
    with mp.workdps(60):
        zm = mp.mpf(z)
        nu = mp.mpf(2 * l + 1) / 2
        iv = mp.besseli(nu, zm)
        kv = mp.besselk(nu, zm)
        div = mp.besseli(nu - 1, zm) - (nu / zm) * iv
        dkv = -mp.besselk(nu - 1, zm) - (nu / zm) * kv
        if zeta is None:  # only the 1/zeta terms drop; the 1/2 stays
            num = iv / 2 - zm * div
            den = kv / 2 - zm * dkv
        elif zeta == 0:
            num, den = iv, kv
        else:
            c = 1 / mp.mpf(zeta) + mp.mpf(1) / 2
            num = c * iv - zm * div
            den = c * kv - zm * dkv
        return float((-1) ** l * (mp.pi / 2) * num / den)


def t_em_ref(eps, mu, l, z):
    """(T_M, T_E) of a dielectric sphere from the spherical Mie brackets."""
    with mp.workdps(60):
        epsm, mum, zm = mp.mpf(eps), mp.mpf(mu), mp.mpf(z)
        n = mp.sqrt(epsm * mum)

        def it(x):
            return mp.sqrt(mp.pi / (2 * x)) * mp.besseli(l + mp.mpf(1) / 2, x)

        def kt(x):
            return mp.sqrt(2 / (mp.pi * x)) * mp.besselk(l + mp.mpf(1) / 2, x)

        def wi(x):
            return it(x) + x * mp.diff(it, x)

        def wk(x):
            return kt(x) + x * mp.diff(kt, x)

        out = []
        for pol in ("M", "E"):
            eta = mp.sqrt(epsm / mum) if pol == "M" else mp.sqrt(mum / epsm)
            num = eta * it(zm) * wi(n * zm) - n * it(n * zm) * wi(zm)
            den = eta * kt(zm) * wi(n * zm) - n * it(n * zm) * wk(zm)
            out.append(float(-(-1) ** l * (-num / den)))
        return tuple(out)


# ---------------------------------------------------------------------------
# Translation blocks in signed-log form: a direct per-(l_max, m) evaluation
# of the 3j sum over k_{l''}, with the electromagnetic blocks recoupled by
# peak-shifted signed-log sums.  The production kernel must match these.
# ---------------------------------------------------------------------------

# (l_max, m) -> (sign int8, log|W|) arrays of shape (l_max+1, l_max+1,
# 2*l_max+1) indexed [l_out, l_in, l'']; clear with translation_oracle_reset
_W_LOG = {}


def translation_oracle_reset():
    _W_LOG.clear()


def _w_log_tensor(l_max, m):
    """W[l', l, l''] = (2l''+1) 3j(l l' l''; 0 0 0) 3j(l l' l''; m -m 0)."""
    import numpy as np
    from casphere.specfun import threej_family
    key = (l_max, m)
    hit = _W_LOG.get(key)
    if hit is not None:
        return hit
    n = l_max + 1
    nw = 2 * l_max + 1
    sgn = np.zeros((n, n, nw), dtype=np.int8)
    logw = np.full((n, n, nw), -np.inf)
    for l_in in range(m, n):
        for l_out in range(m, n):
            jmin, f000 = threej_family(l_in, l_out, 0, 0)
            if m == 0:
                fm = f000
            else:
                jmin_m, fm = threej_family(l_in, l_out, m, -m)
                assert jmin_m == jmin
            w = f000 * fm
            idx = np.arange(jmin, l_in + l_out + 1)
            vals = w * (2.0 * idx + 1.0)
            nz = vals != 0.0
            sgn[l_out, l_in, idx[nz]] = np.sign(vals[nz]).astype(np.int8)
            logw[l_out, l_in, idx[nz]] = np.log(np.abs(vals[nz]))
    _W_LOG[key] = (sgn, logw)
    return sgn, logw


def u_log_block_ref(l_max, m, x, direction="12"):
    """(sign, logmag) with sign * exp(logmag) = U^{direction}(m) e^{+x}."""
    import numpy as np
    from casphere.specfun import bessel_ik_half_chain
    if direction == "21":
        s, lg = u_log_block_ref(l_max, m, x, "12")
        return s.T.copy(), lg.T.copy()
    m = abs(m)
    chain = bessel_ik_half_chain(2 * l_max, x)
    logkt = chain.log_k + 0.5 * math.log(2.0 / (math.pi * x))
    sgn, logw = _w_log_tensor(l_max, m)
    terms = logw + logkt[None, None, :]
    peak = np.max(terms, axis=2)
    ok = np.isfinite(peak)
    acc = np.zeros_like(peak)
    safe_peak = np.where(ok, peak, 0.0)
    with np.errstate(under="ignore"):
        acc[ok] = np.sum(sgn * np.exp(terms - safe_peak[:, :, None]),
                         axis=2)[ok]
    # global prefactor -(-1)^{l_in} (-1)^m sqrt((2 l_in + 1)(2 l_out + 1))
    lvec = np.arange(l_max + 1)
    pref_sign = -np.where(lvec % 2 == 0, 1.0, -1.0) \
        * (1.0 if m % 2 == 0 else -1.0)
    halflog = 0.5 * np.log(2.0 * lvec + 1.0)
    sign = np.sign(acc) * pref_sign[None, :]
    with np.errstate(divide="ignore"):
        logmag = np.where(acc != 0.0, np.log(np.abs(acc)), -np.inf) \
            + peak + halflog[:, None] + halflog[None, :]
    logmag[~ok] = -np.inf
    sign[~ok] = 0.0
    return sign, logmag


def _signed_log_sum(parts):
    """Sum [(coef, sign, logmag)] -> (sign, logmag) elementwise."""
    import numpy as np
    peak = None
    for coef, sgn, lg in parts:
        with np.errstate(invalid="ignore"):
            cand = np.where(coef != 0.0, lg + np.log(np.abs(np.where(
                coef != 0.0, coef, 1.0))), -np.inf)
        peak = cand if peak is None else np.maximum(peak, cand)
    ok = np.isfinite(peak)
    safe = np.where(ok, peak, 0.0)
    acc = np.zeros_like(peak)
    for coef, sgn, lg in parts:
        with np.errstate(under="ignore", invalid="ignore"):
            term = np.where(sgn != 0, coef * sgn * np.exp(lg - safe), 0.0)
        acc += term
    sign = np.sign(acc)
    with np.errstate(divide="ignore"):
        logmag = np.where(acc != 0.0, np.log(np.abs(np.where(
            acc != 0.0, acc, 1.0))) + peak, -np.inf)
    logmag[~ok] = -np.inf
    sign[~ok] = 0.0
    return sign, logmag


def em_log_blocks_ref(l_max, m, x, direction="12"):
    """{"MM", "MN", "NM", "NN"} -> (sign, logmag) of G^{PP'} e^{+x}."""
    import numpy as np
    from casphere.translation import _em_weights
    if direction == "21":
        fwd = em_log_blocks_ref(l_max, m, x, "12")
        jv = np.arange(l_max + 1)
        par = np.where((jv[:, None] + jv[None, :]) % 2 == 0, 1.0, -1.0)
        return {key: (fwd[key][0] * par * flip, fwd[key][1])
                for key, flip in (("MM", 1.0), ("MN", -1.0), ("NM", -1.0),
                                  ("NN", 1.0))}
    m = int(m)
    n = l_max + 1
    w0, wm, wp, a_r, b_r = _em_weights(l_max, m)
    ublocks = {}
    for mu in {abs(m - 1), abs(m), abs(m + 1)}:
        s, lg = u_log_block_ref(l_max + 1, mu, x, "12")
        sp = np.zeros((l_max + 3, l_max + 3))
        lp = np.full((l_max + 3, l_max + 3), -np.inf)
        sp[1:, 1:] = s
        lp[1:, 1:] = lg
        ublocks[mu] = (sp, lp)
    jlo = max(1, abs(m))

    def upart(mu, roff, coff):
        s, lg = ublocks[abs(mu)]
        return (s[1 + roff:1 + roff + n, 1 + coff:1 + coff + n],
                lg[1 + roff:1 + roff + n, 1 + coff:1 + coff + n])

    a_o = -a_r[:n]
    b_o = -b_r[:n]
    blocks = {}
    for key in ("MM", "MN", "NM", "NN"):
        parts = []
        for iq, q in enumerate((-1, 0, 1)):
            mu = m - q
            if key == "MM":
                s, lg = upart(mu, 0, 0)
                parts.append((np.outer(w0[iq, :n], w0[iq, :n]), s, lg))
            elif key == "NM":
                s, lg = upart(mu, -1, 0)
                parts.append((np.outer(wm[iq, :n] / a_r[:n], w0[iq, :n]),
                              s, lg))
            elif key == "MN":
                w_t = w0[iq, :n]
                s, lg = upart(mu, 0, -1)
                parts.append((np.outer(w_t, a_o * wm[iq, :n]), s, lg))
                s, lg = upart(mu, 0, +1)
                parts.append((np.outer(w_t, b_o * wp[iq, :n]), s, lg))
            else:
                w_t = wm[iq, :n] / a_r[:n]
                s, lg = upart(mu, -1, -1)
                parts.append((np.outer(w_t, a_o * wm[iq, :n]), s, lg))
                s, lg = upart(mu, -1, +1)
                parts.append((np.outer(w_t, b_o * wp[iq, :n]), s, lg))
        sign, logmag = _signed_log_sum(parts)
        if m == 0 and key in ("MN", "NM"):
            sign = np.zeros_like(sign)
            logmag = np.full_like(logmag, -np.inf)
        sign[:jlo, :] = 0.0
        sign[:, :jlo] = 0.0
        logmag[:jlo, :] = -np.inf
        logmag[:, :jlo] = -np.inf
        blocks[key] = (sign, logmag)
    return blocks
