"""Euler angles, Wigner-D matrices and (real) spherical harmonics.

Convention, fixed once for the whole package: rotations are active,
R = Rz(alpha) @ Ry(beta) @ Rz(gamma), and

    D^l_{m',m} = exp(-i m' alpha) d^l_{m',m}(beta) exp(-i m gamma)

so that the rotation operator acting on functions, P(g) f(x) = f(R_g^-1 x),
satisfies P(g) Y_{l,m} = sum_{m'} D^l_{m',m}(g) Y_{l,m'}.  The real
harmonics are Z^l = U^T Y^l with the unitary U below, and their rotation
is W = U^-1 D U (real for every rotation).  real_wigner_stacks builds W
for a stack of rotations without a complex D: the z-rotation factors of D
become the real X(-alpha), X(-gamma) of the real harmonics, so
W = X(-alpha) W(R_y(beta)) X(-gamma) with one W(R_y(beta)) per distinct
beta; wigner_D_stack, the complex route, is kept for reference.

The complex harmonics Y_{l,m} (Condon-Shortley phase) come from one fully
normalised associated-Legendre recurrence in numpy: sh_degrees yields
every degree up to l_max from a single pass, and eval_sh_vector is its
single-degree case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

L_MAX_SUPPORTED = 45


@dataclass(frozen=True)
class EulerAngles:
    alpha: float
    beta: float              # in [0, pi]
    gamma: float


def rotation_from_euler(angles: EulerAngles) -> np.ndarray:
    a, b, g = angles.alpha, angles.beta, angles.gamma
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cg, sg = np.cos(g), np.sin(g)
    return np.array([
        [ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb],
        [sa * cb * cg + ca * sg, -sa * cb * sg + ca * cg, sa * sb],
        [-sb * cg, sb * sg, cb],
    ])


def euler_from_rotation(r: np.ndarray) -> EulerAngles:
    """z-y-z Euler angles of a rotation matrix, gimbal branches included.

    Uses the quadrant-correct two-argument arctangent; the round trip
    through rotation_from_euler reproduces r to 1e-10.
    """
    r = np.asarray(r, float)
    c = r[2, 2]
    if not -1.0 - 1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"R[2,2] = {c} outside [-1, 1]")
    c = min(1.0, max(-1.0, c))
    # sin(beta) taken from the bottom row, not from arccos(c): near the
    # gimbal points arccos amplifies rounding in c by ~1e-8.
    s = float(np.hypot(r[2, 0], r[2, 1]))
    if s < 1e-9:
        if c > 0:                      # beta = 0: R = Rz(alpha + gamma)
            return EulerAngles(float(np.arctan2(r[1, 0], r[0, 0])), 0.0, 0.0)
        # beta = pi: R = Ry(pi) Rz(gamma) up to the alpha = 0 gauge
        return EulerAngles(0.0, float(np.pi), float(np.arctan2(r[1, 0], r[1, 1])))
    beta = np.arctan2(s, c)
    alpha = np.arctan2(r[1, 2], r[0, 2])
    gamma = np.arctan2(r[2, 1], -r[2, 0])
    return EulerAngles(float(alpha), float(beta), float(gamma))


# -- small-d matrices -------------------------------------------------------

_LOGFACT = np.array([0.0] + [lgamma(k + 1.0) for k in range(1, 4 * L_MAX_SUPPORTED + 2)])


_JY_EIG_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _jy_eig(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian y-generator on degree l; the
    eigenvalues are exactly the integers -l..l and are snapped to them."""
    if l not in _JY_EIG_CACHE:
        n = 2 * l + 1
        m = np.arange(-l, l, dtype=float)
        c = np.sqrt((l - m) * (l + m + 1)) / 2.0
        jy = np.zeros((n, n), dtype=complex)
        idx = np.arange(n - 1)
        jy[idx + 1, idx] = -1j * c
        jy[idx, idx + 1] = 1j * c
        w, v = np.linalg.eigh(jy)
        _JY_EIG_CACHE[l] = (np.round(w), v)
    return _JY_EIG_CACHE[l]


def wigner_d_small(l: int, beta: float) -> np.ndarray:
    """Real orthogonal (2l+1)x(2l+1) small-d matrix d^l_{m',m}(beta).

    Evaluated as the exponential of the rotation generator through one
    cached eigendecomposition per degree; accurate to ~1e-14 up to l=45,
    where the textbook factorial sum has already lost all precision to
    cancellation (see wigner_d_factorial_sum, kept as a test oracle).
    Rows/columns are indexed m', m = -l..l.
    """
    if not 0 <= l <= L_MAX_SUPPORTED:
        raise ValueError(f"l must be in [0, {L_MAX_SUPPORTED}]")
    n = 2 * l + 1
    if abs(beta) < 1e-14:
        return np.eye(n)
    w, v = _jy_eig(l)
    d = (v * np.exp(-1j * beta * w)) @ v.conj().T
    resid = np.abs(d.imag).max()
    if resid > 1e-12:
        raise AssertionError(f"small-d came out non-real ({resid:.2e})")
    return d.real


def wigner_d_factorial_sum(l: int, beta: float) -> np.ndarray:
    """Explicit factorial-sum formula for d^l(beta), via log-factorials.

    Overflow-free but subject to float cancellation that grows with l
    (~1e-9 at l=20); use only as an independent cross-check at moderate l.
    """
    if not 0 <= l <= L_MAX_SUPPORTED:
        raise ValueError(f"l must be in [0, {L_MAX_SUPPORTED}]")
    n = 2 * l + 1
    if abs(beta) < 1e-14:
        return np.eye(n)
    if abs(beta - np.pi) < 1e-14:
        # d(pi)_{m',m} = (-1)^(l-m) delta_{m',-m}
        d = np.zeros((n, n))
        for m in range(-l, l + 1):
            d[l - m, l + m] = (-1.0) ** (l - m)
        return d

    half = beta / 2.0
    log_c, log_s = np.log(np.cos(half)), np.log(np.sin(half))
    ms = np.arange(-l, l + 1)
    mp = ms[:, None]                       # m'
    m = ms[None, :]
    pref = 0.5 * (_LOGFACT[l + m] + _LOGFACT[l - m] + _LOGFACT[l + mp] + _LOGFACT[l - mp])
    d = np.zeros((n, n))
    for s in range(0, 2 * l + 1):
        a = l + m - s
        b = mp - m + s
        c = l - mp - s
        ok = (a >= 0) & (b >= 0) & (c >= 0)
        if not ok.any():
            continue
        logterm = np.where(ok,
                           pref - _LOGFACT[np.maximum(a, 0)] - _LOGFACT[s]
                           - _LOGFACT[np.maximum(b, 0)] - _LOGFACT[np.maximum(c, 0)]
                           + (2 * l + m - mp - 2 * s) * log_c + (mp - m + 2 * s) * log_s,
                           -np.inf)
        sign = np.where((mp - m + s) % 2 == 0, 1.0, -1.0)
        d += sign * np.exp(logterm)
    return d


def wigner_D(l: int, angles: EulerAngles) -> np.ndarray:
    """Complex unitary Wigner-D matrix for one rotation."""
    d = wigner_d_small(l, angles.beta)
    ms = np.arange(-l, l + 1)
    return (np.exp(-1j * ms[:, None] * angles.alpha) * d
            * np.exp(-1j * ms[None, :] * angles.gamma))


def wigner_D_stack(l: int, rotations: np.ndarray) -> np.ndarray:
    """D^l for a stack of rotation matrices; small-d results are shared
    between rotations with equal beta."""
    cache: dict[float, np.ndarray] = {}
    out = np.empty((len(rotations), 2 * l + 1, 2 * l + 1), dtype=complex)
    ms = np.arange(-l, l + 1)
    for i, r in enumerate(rotations):
        ang = euler_from_rotation(r)
        key = round(ang.beta, 12)
        if key not in cache:
            cache[key] = wigner_d_small(l, ang.beta)
        out[i] = (np.exp(-1j * ms[:, None] * ang.alpha) * cache[key]
                  * np.exp(-1j * ms[None, :] * ang.gamma))
    return out


# -- real-harmonic transform ------------------------------------------------

def real_sh_transform(l: int) -> np.ndarray:
    """Unitary U^l with Z^l = U^T Y^l real: columns m<0 mix i(Y_m -+ Y_-m),
    column 0 is Y_0, columns m>0 mix Y_-m +- Y_m."""
    n = 2 * l + 1
    u = np.zeros((n, n), dtype=complex)
    rt2 = 1.0 / np.sqrt(2.0)
    u[l, l] = 1.0
    for m in range(1, l + 1):
        sgn = (-1.0) ** m
        u[l - m, l - m] = 1j * rt2            # row m'=-m, col m=-m
        u[l + m, l - m] = -1j * sgn * rt2     # row m'=+m, col m=-m
        u[l - m, l + m] = rt2                 # row m'=-m, col m=+m
        u[l + m, l + m] = sgn * rt2           # row m'=+m, col m=+m
    return u


def _to_real_basis(l: int, d: np.ndarray) -> np.ndarray:
    """Real U^H d U for a stack d of (2l+1)x(2l+1) matrices.

    U has its nonzeros at (c, c) and (2l-c, c) only, so both products are
    taken entry-wise, which is cheaper than two dense complex products.
    """
    u = real_sh_transform(l)
    diag = u.diagonal()
    mirror = np.where(np.arange(2 * l + 1) == l, 0.0, u[::-1].diagonal())
    du = d * diag + d[..., ::-1] * mirror
    w = diag.conj()[:, None] * du + mirror.conj()[:, None] * du[..., ::-1, :]
    resid = np.abs(w.imag).max()
    if resid > 1e-12:
        raise AssertionError(f"W = U^H D U came out non-real ({resid:.2e})")
    return w.real


class _StackTables:
    """What every degree of a stack shares: for each rotation the index of
    its distinct beta, and cos/sin(m alpha), cos/sin(m gamma) for
    m = -l_max..l_max."""

    def __init__(self, l_max: int, rotations: np.ndarray):
        angles = [euler_from_rotation(r) for r in rotations]
        keys = np.array([round(a.beta, 12) for a in angles])
        _, first, self.beta_index = np.unique(keys, return_index=True,
                                              return_inverse=True)
        self.betas = [angles[i].beta for i in first]
        self.l_max = l_max
        ms = np.arange(-l_max, l_max + 1)
        ma = np.outer([a.alpha for a in angles], ms)
        mg = np.outer([a.gamma for a in angles], ms)
        self.cos_a, self.sin_a = np.cos(ma), np.sin(ma)
        self.cos_g, self.sin_g = np.cos(mg), np.sin(mg)

    def stack(self, l: int) -> np.ndarray:
        """W^l for every rotation: X(-alpha) W(R_y(beta)) X(-gamma), where
        the real z-rotation X(a) = U^H diag(e^{ima}) U has X[l+m, l+m] =
        cos ma and X[l+m, l-m] = sin ma.  So X(-a) W takes row l+m to
        cos(ma) W[l+m] - sin(ma) W[l-m], and W X(-a) takes column l+m to
        cos(ma) W[:, l+m] + sin(ma) W[:, l-m]; both by broadcasting over
        the stack, in place."""
        w_y = _to_real_basis(l, np.stack([wigner_d_small(l, b)
                                              for b in self.betas]))
        out = w_y[self.beta_index]
        cols = slice(self.l_max - l, self.l_max + l + 1)
        tmp = out[:, ::-1, :] * self.sin_a[:, cols, None]
        out *= self.cos_a[:, cols, None]
        out -= tmp
        np.multiply(out[:, :, ::-1], self.sin_g[:, None, cols], out=tmp)
        out *= self.cos_g[:, None, cols]
        out += tmp
        return out


def real_wigner_stacks(l_max: int, rotations: np.ndarray):
    """Yield (l, W^l) for l = 0..l_max, where W^l is the real orthogonal
    U^H D^l U for every rotation of the stack, shape (N, 2l+1, 2l+1), so
    that Z^l(R^-1 x) = W^T Z^l(x).

    The Euler angles and the z-rotation tables are taken once; per degree,
    one real W(R_y(beta)) per distinct beta is turned into the whole stack
    by real z-rotations, W = X(-alpha) W(R_y(beta)) X(-gamma).
    """
    tables = _StackTables(l_max, rotations)
    for l in range(l_max + 1):
        yield l, tables.stack(l)


def real_wigner_stack(l: int, rotations: np.ndarray) -> np.ndarray:
    """W^l alone, equal to the l-th yield of real_wigner_stacks bit for
    bit; no other degree is built."""
    return _StackTables(l, rotations).stack(l)


def real_rotation_M(l: int, d: np.ndarray) -> np.ndarray:
    """M^l = D^l U^l, the mixed complex-to-real rotation matrix."""
    return d @ real_sh_transform(l)


def real_rotation_M_cases(l: int, d: np.ndarray) -> np.ndarray:
    """M^l from the explicit three-case combination of D columns; equals
    real_rotation_M entry-wise and serves as its cross-check."""
    n = 2 * l + 1
    m_mat = np.empty((n, n), dtype=complex)
    rt2 = 1.0 / np.sqrt(2.0)
    m_mat[:, l] = d[:, l]
    for m in range(1, l + 1):
        sgn = (-1.0) ** m
        m_mat[:, l - m] = 1j * rt2 * (d[:, l - m] - sgn * d[:, l + m])
        m_mat[:, l + m] = rt2 * (d[:, l - m] + sgn * d[:, l + m])
    return m_mat


# -- spherical harmonics ----------------------------------------------------

def _angles(theta, phi) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Broadcast shape and the flattened angles."""
    theta, phi = np.broadcast_arrays(np.atleast_1d(np.asarray(theta, float)),
                                     np.atleast_1d(np.asarray(phi, float)))
    return theta.shape, theta.ravel(), phi.ravel()


def _legendre_degrees(l_max: int, theta: np.ndarray):
    """Yield (l, P) for l = 0..l_max, where P[m] for m = 0..l holds the
    fully normalised associated Legendre function P_l^m(cos theta), with
    the Condon-Shortley phase and normalised so that P_l^m e^{i m phi} is
    Y_{l,m}.  Rows above l are stale; P is overwritten by the next degree.

    Holmes & Featherstone (2002): the sectoral seeds
    P_m^m = -sqrt((2m+1)/(2m)) sin(theta) P_{m-1}^{m-1}, then at fixed m
    P_l^m = a_lm (cos(theta) P_{l-1}^m - P_{l-2}^m / a_{l-1,m}) with
    a_lm = sqrt((4l^2 - 1) / (l^2 - m^2)).  Three buffers, updated in place.
    """
    x = np.cos(theta)
    s = np.sin(theta)           # not sqrt(1 - x^2), which is 0 near the poles
    p2, p1, cur = (np.zeros((l_max + 1, theta.size)) for _ in range(3))
    for l in range(l_max + 1):
        if l == 0:
            cur[0] = 1.0 / np.sqrt(4.0 * np.pi)
        else:
            np.multiply(p1[l - 1], s, out=cur[l])
            cur[l] *= -np.sqrt((2 * l + 1) / (2 * l))
            m = np.arange(l)
            np.multiply(p1[:l], x, out=cur[:l])
            if l >= 2:          # P_{l-2}^m exists for m <= l-2 only
                k = l - 1
                p2[:k] *= np.sqrt((k * k - m[:k] ** 2) / (4.0 * k * k - 1.0))[:, None]
                cur[:k] -= p2[:k]
            cur[:l] *= np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
        yield l, cur
        p2, p1, cur = p1, cur, p2


def _harmonics(l: int, leg: np.ndarray, phi: np.ndarray,
               phases: list[np.ndarray] | None = None) -> np.ndarray:
    """Y^l, shape (2l+1, n), from the degree's Legendre rows: row by row
    Y_{l,m} = P_l^m e^{i m phi}, then Y_{l,-m} = (-1)^m conj(Y_{l,m}).
    phases, if given, caches e^{i m phi} by m across degrees."""
    y = np.empty((2 * l + 1, phi.size), dtype=complex)
    for m in range(l + 1):
        if phases is None:
            e = np.exp(1j * (m * phi))
        else:
            if m == len(phases):
                phases.append(np.exp(1j * (m * phi)))
            e = phases[m]
        np.multiply(leg[m], e, out=y[l + m])
        if m:
            np.conjugate(y[l + m], out=y[l - m])
            if m % 2:
                np.negative(y[l - m], out=y[l - m])
    return y


def sh_degrees(l_max: int, theta, phi):
    """Yield (l, Y^l) for l = 0..l_max from one Legendre recurrence; Y^l
    = [Y_{l,-l} ... Y_{l,l}] with the Condon-Shortley phase, shape
    (2l+1,) + the broadcast shape of theta and phi."""
    shape, theta, phi = _angles(theta, phi)
    phases: list[np.ndarray] = []
    for l, leg in _legendre_degrees(l_max, theta):
        yield l, _harmonics(l, leg, phi, phases).reshape((2 * l + 1,) + shape)


def eval_sh_vector(l: int, theta, phi) -> np.ndarray:
    """Y^l alone, equal to the l-th yield of sh_degrees: the recurrence
    runs up to l and only the last degree is assembled."""
    if l < 0:
        raise ValueError("l must be non-negative")
    shape, theta, phi = _angles(theta, phi)
    for deg, leg in _legendre_degrees(l, theta):
        if deg == l:
            return _harmonics(l, leg, phi).reshape((2 * l + 1,) + shape)


def spherical_from_cartesian(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of unit-normalized cartesian points, shape (..., 3)."""
    xyz = np.asarray(xyz, float)
    r = np.linalg.norm(xyz, axis=-1)
    theta = np.arccos(np.clip(xyz[..., 2] / r, -1.0, 1.0))
    phi = np.arctan2(xyz[..., 1], xyz[..., 0])
    return theta, phi
