"""Turn potentially-real complex irreps into real orthogonal ones.

The similarity transform S is found from the coneigenvectors of a unitary
complex symmetric matrix C built by group averaging of a random symmetric
seed matrix.  The coneigenproblem is solved through the real symmetric
2d x 2d eigenproblem [[C_R, C_I], [C_I, -C_R]], whose eigenvalues are
exactly +-1, the +1 eigenvectors [x; -y] giving S = X - iY with
S S^T = C and S^H Gamma_c S real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import Group, GroupError, Irrep


class RealifyError(ValueError):
    """Numerical failure or invalid input in the real-irrep pipeline."""


@dataclass(frozen=True)
class RealnessVerdict:
    p: int
    indicator: int            # Frobenius-Schur value: 1, 0 or -1
    potentially_real: bool


@dataclass(frozen=True)
class RealIrrep:
    p: int
    S: np.ndarray             # (d, d) complex unitary similarity transform
    matrices: np.ndarray      # (N, d, d) real orthogonal
    seed: int

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def characters(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


@dataclass(frozen=True)
class ConeigenProblem:
    C: np.ndarray             # (d, d) complex symmetric unitary
    B: np.ndarray             # (2d, 2d) real symmetric

    def __post_init__(self):
        c = self.C
        if np.abs(c - c.T).max() > 1e-10 or np.abs(c.conj() @ c - np.eye(len(c))).max() > 1e-10:
            raise RealifyError("C is not symmetric unitary with conj(C) C = I")


def frobenius_schur(irrep: Irrep, group: Group) -> RealnessVerdict:
    """Frobenius-Schur indicator, computed two independent ways.

    Both (1/N) sum chi(g^2) and (1/N) sum chi(g)^2 are evaluated; if they
    disagree the irrep data is corrupted.
    """
    chi = irrep.characters
    sq = np.diag(group.mult_table)          # index of g*g
    v1 = chi[sq].sum() / group.order
    v2 = (chi ** 2).sum() / group.order
    if abs(v1 - v2) > 1e-10:
        raise GroupError("the two Frobenius-Schur forms disagree; corrupted irrep")
    ind = round(v1.real)
    if abs(v1 - ind) >= 1e-8 or ind not in (-1, 0, 1):
        raise GroupError(f"Frobenius-Schur indicator {v1} does not round to -1/0/1")
    return RealnessVerdict(p=irrep.p, indicator=int(ind), potentially_real=ind == 1)


def build_C(irrep: Irrep, seed: int) -> ConeigenProblem:
    """Group-average a random symmetric matrix into the unitary symmetric C.

    Z = (1/N) sum_g Gamma(g) A Gamma(g)^T with A = A^T drawn from the
    stream [seed, p]; then conj(Z) Z = c I and C = Z / sqrt(c).  A
    degenerate draw (Z ~ 0) raises.
    """
    d = irrep.dim
    mats = irrep.matrices
    rng = np.random.default_rng([seed, irrep.p])
    a = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    a = a + a.T
    z = np.einsum("gij,jk,glk->il", mats, a, mats) / mats.shape[0]
    if np.linalg.norm(z) < 1e-6:
        raise RealifyError(f"degenerate draw: group-averaged Z vanishes "
                           f"(p={irrep.p}, seed={seed})")

    zz = z.conj() @ z
    c_z = np.trace(zz).real / d
    if c_z <= 0 or np.abs(zz - c_z * np.eye(d)).max() > 1e-8 * max(1.0, c_z):
        raise RealifyError("conj(Z) Z is not a positive scalar multiple of I; "
                           "corrupted irrep data")
    c = z / np.sqrt(c_z)
    b = np.block([[c.real, c.imag], [c.imag, -c.real]])
    return ConeigenProblem(C=c, B=b)


def takagi_via_real_eig(problem: ConeigenProblem) -> np.ndarray:
    """Unitary S with S S^T = C from the +1 eigenvectors of B."""
    d = problem.C.shape[0]
    w, v = np.linalg.eigh(problem.B)
    if np.abs(w).min() <= 1e-8:
        raise RealifyError("B is numerically singular")
    plus = np.abs(w - 1.0) < 1e-8
    if plus.sum() != d or (np.abs(w + 1.0) < 1e-8).sum() != d:
        raise RealifyError(
            f"B eigenvalues are not d copies each of +-1 (got {np.sort(w)}); "
            "invalid C or upstream indicator error")
    x = v[:d, plus]
    y = -v[d:, plus]
    s = x - 1j * y
    if np.abs(s.conj().T @ s - np.eye(d)).max() > 1e-9:
        raise RealifyError("S is not unitary")
    if np.abs(s @ s.T - problem.C).max() > 1e-9:
        raise RealifyError("S S^T does not reproduce C")
    return s


def realify_irrep(irrep: Irrep, s: np.ndarray, seed: int = 0) -> RealIrrep:
    """Apply Gamma_r = S^H Gamma_c S and truncate the imaginary residue.

    Residues above 1e-8 abort; residues are never silently truncated at
    that scale.
    """
    rot = np.einsum("ij,gjk,kl->gil", s.conj().T, irrep.matrices, s)
    resid = np.abs(rot.imag).max()
    if resid > 1e-8:
        raise RealifyError(f"imaginary residue {resid:.2e} too large; S invalid")
    real = rot.real.copy()
    eye = np.eye(irrep.dim)
    for m in real:
        if np.abs(m.T @ m - eye).max() > 1e-10:
            raise RealifyError("realified matrix is not orthogonal")
    return RealIrrep(p=irrep.p, S=s, matrices=real, seed=seed)


def _real_one_dim(irrep: Irrep) -> bool:
    return irrep.dim == 1 and np.abs(irrep.matrices.imag).max() < 1e-12


def solve_real_irrep(irrep: Irrep, group: Group, seed: int = 0) -> RealIrrep:
    """Full pipeline for one irrep; refuses non-potentially-real input.

    A 1-D irrep whose matrix entries are already real keeps S = [1] (no
    needless phase); otherwise the coneigenvector construction is run once,
    and any numerical failure raises RealifyError.
    """
    verdict = frobenius_schur(irrep, group)
    if not verdict.potentially_real:
        raise RealifyError(
            f"irrep p={irrep.p} has indicator {verdict.indicator}; "
            "no real form exists")
    if _real_one_dim(irrep):
        s = np.eye(irrep.dim, dtype=complex)
        return realify_irrep(irrep, s, seed=seed)
    s = takagi_via_real_eig(build_C(irrep, seed))
    return realify_irrep(irrep, s, seed=seed)


def solve_all(group: Group, irreps: list[Irrep], seed: int = 0
              ) -> tuple[list[RealnessVerdict], dict[int, RealIrrep]]:
    """Verdicts for every irrep plus real forms for the potentially-real ones."""
    verdicts = [frobenius_schur(ir, group) for ir in irreps]
    real = {v.p: solve_real_irrep(ir, group, seed=seed)
            for ir, v in zip(irreps, verdicts) if v.potentially_real}
    return verdicts, real


def real_irrep_to_dict(r: RealIrrep) -> dict:
    return {
        "p": r.p,
        "dim": r.dim,
        "S": [[z.real, z.imag] for z in r.S.ravel()],
        "matrices": [list(m.ravel()) for m in r.matrices],
        "seed": r.seed,
    }
