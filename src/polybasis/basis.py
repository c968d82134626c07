"""Symmetry-adapted basis functions as coefficient matrices over Y^l.

Construction works on real harmonics Z^l, which rotations map by the real
orthogonal W_g = U^H D_g U (wigner.real_wigner_stacks, one degree at a
time).  For irrep p and degree l the projector
P_{j1} = (d_p/N) sum_g Gamma_r(g)_{j1} W_g is real, and P_11 is symmetric
with eigenvalues 0 and 1, exactly N_{p;l} of them 1.  Each unit eigenvector
v of P_11 gives one block A with rows P_{j1} v, orthonormal and real by
Schur orthogonality, and H = A U^T over Y^l.  All N_{p;l} blocks of a
(p, l) are formed together, H entry-wise from U's two nonzeros per
column.  projection_coefficients, a second route to the same subspace, is
kept as the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import Group, Irrep, irrep_multiplicity
from .realify import RealIrrep
from . import wigner

EIGEN_TOL = 1e-10          # distance of a projector eigenvalue from 0 or 1
DUAL_ROUTE_TOL = 1e-11     # agreement of the M-product and explicit-D routes


class BasisError(RuntimeError):
    """Projector rank disagreeing with the multiplicity oracle, or a
    broken construction invariant."""


@dataclass(frozen=True)
class CoeffMatrix:
    """One d_p-dimensional basis function: I(x) = H @ Y^l(x/|x|).

    Rows are orthonormal; every row c obeys conj(c_{m'}) = (-1)^{m'} c_{-m'},
    which makes H @ Y^l real-valued pointwise.
    """

    p: int
    l: int
    n: int                   # 1-based index within the (p, l) block
    H: np.ndarray            # (d_p, 2l+1) complex

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def evaluate(self, theta, phi) -> np.ndarray:
        """Real d_p-vector function at the given sphere angles."""
        y = wigner.eval_sh_vector(self.l, theta, phi)
        vals = np.tensordot(self.H, y, axes=(1, 0))
        resid = np.abs(vals.imag).max()
        if resid > 1e-8:
            raise BasisError(f"basis function evaluated non-real ({resid:.2e})")
        return vals.real


@dataclass
class BasisSet:
    """All coefficient matrices of one group up to l_max, plus provenance."""

    group_name: str
    l_max: int
    seed: int
    blocks: list[CoeffMatrix] = field(default_factory=list)

    def select(self, p: int | None = None, l: int | None = None) -> list[CoeffMatrix]:
        return [b for b in self.blocks
                if (p is None or b.p == p) and (l is None or b.l == l)]

    def get(self, p: int, l: int, n: int) -> CoeffMatrix:
        for b in self.blocks:
            if (b.p, b.l, b.n) == (p, l, n):
                return b
        raise KeyError(f"no basis function (p={p}, l={l}, n={n}); "
                       f"available: {sorted((b.p, b.l, b.n) for b in self.blocks)}")


def projection_coefficients(real_irrep: RealIrrep, group: Group, l: int,
                            m: int, k: int,
                            d_stack: np.ndarray | None = None) -> np.ndarray:
    """Projector coefficient block: D[j, m'] such that
    P_{j,k} Z_{l,m} = sum_{m'} D[j, m'] Y_{l,m'}.

    Computed both through M = D U and through the explicit three-case
    combination of Wigner-D columns; the routes must agree to 1e-11.
    """
    if not 1 <= k <= real_irrep.dim:
        raise ValueError("k out of range")
    if abs(m) > l:
        raise ValueError("|m| must be <= l")
    if d_stack is None:
        d_stack = wigner.wigner_D_stack(l, group.elements)
    weights = real_irrep.matrices[:, :, k - 1]          # (N, d_p), column k
    scale = real_irrep.dim / group.order
    u = wigner.real_sh_transform(l)
    # Route 1: through M = D U.
    m_cols = np.einsum("gab,b->ga", d_stack, u[:, l + m])
    route1 = scale * np.einsum("gj,ga->ja", weights, m_cols)
    # Route 2: explicit three-case combination of D columns.
    rt2 = 1.0 / np.sqrt(2.0)
    if m == 0:
        comb = d_stack[:, :, l]
    elif m < 0:
        comb = 1j * rt2 * (d_stack[:, :, l + m] - (-1.0) ** m * d_stack[:, :, l - m])
    else:
        comb = rt2 * (d_stack[:, :, l - m] + (-1.0) ** m * d_stack[:, :, l + m])
    route2 = scale * np.einsum("gj,ga->ja", weights, comb)
    gap = np.abs(route1 - route2).max()
    if gap > DUAL_ROUTE_TOL:
        raise BasisError(f"projection routes disagree by {gap:.2e} "
                         f"(p={real_irrep.p}, l={l}, m={m}, k={k})")
    # The projector output satisfies conj(c_{m'}) = (-1)^{m'} c_{-m'}
    # exactly; project the numerical result back onto that subspace so the
    # condition holds to machine precision.
    signs = (-1.0) ** np.arange(-l, l + 1)
    sym = 0.5 * (route1 + signs * route1[:, ::-1].conj())
    drift = np.abs(sym - route1).max()
    if drift > 1e-8:
        raise BasisError(f"projection violates the realness condition by "
                         f"{drift:.2e} (p={real_irrep.p}, l={l}, m={m})")
    return sym


def realness_row_condition(h: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff every row c satisfies conj(c_{m'}) = (-1)^{m'} c_{-m'}."""
    h = np.atleast_2d(np.asarray(h, complex))
    l = (h.shape[1] - 1) // 2
    signs = (-1.0) ** np.arange(-l, l + 1)
    return bool(np.abs(h.conj() - signs * h[:, ::-1]).max() <= tol)


def build_basis(real_irrep: RealIrrep, group: Group, l: int,
                multiplicity: int | None = None,
                w_stack: np.ndarray | None = None) -> list[CoeffMatrix]:
    """Orthonormal coefficient matrices for one (p, l); exactly the
    character-theory multiplicity of them, or an empty list if the irrep
    does not occur at this degree.  ``w_stack`` is
    wigner.real_wigner_stack(l, group.elements), built here if not given.
    """
    p = real_irrep.p
    if multiplicity is None:
        multiplicity = irrep_multiplicity(group, real_irrep, l)
    if w_stack is None:
        w_stack = wigner.real_wigner_stack(l, group.elements)
    proj = (real_irrep.dim / group.order) * np.tensordot(
        real_irrep.matrices[:, :, 0], w_stack, axes=(0, 0))    # P_{j1}, j = 1..d_p
    evals, evecs = np.linalg.eigh(proj[0])
    dev = float(np.minimum(np.abs(evals), np.abs(evals - 1.0)).max())
    unit = evals > 0.5
    if dev > EIGEN_TOL or unit.sum() != multiplicity:
        raise BasisError(
            f"projector P_11 for p={p}, l={l} has {unit.sum()} unit eigenvalues, "
            f"multiplicity is {multiplicity}; worst eigenvalue distance from "
            f"{{0, 1}} is {dev:.2e}")
    if not multiplicity:
        return []
    v = evecs[:, unit]
    # sign: largest-magnitude entry positive, ties to the lowest index
    v = v * np.sign(v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])])
    a = np.moveaxis(proj @ v, 2, 0)                # (multiplicity, d_p, 2l+1)
    h = real_to_complex_coefficients(a)
    if not realness_row_condition(h.reshape(-1, 2 * l + 1)):
        raise BasisError(f"realness row condition violated (p={p}, l={l})")
    return [CoeffMatrix(p=p, l=l, n=n, H=h[n - 1])
            for n in range(1, multiplicity + 1)]


def real_to_complex_coefficients(a: np.ndarray) -> np.ndarray:
    """H = A U^T for real A over Z^l (last axis 2l+1), entry-wise from
    U's two nonzeros per column, bit for bit equal to the dense
    ``a @ u_t.real + 1j * (a @ u_t.imag)``: each part of H takes one
    entry of A times the +-1/sqrt(2) (or 1) that real_sh_transform holds,
    then + 0.0, because the dense product writes 0.0 where this product
    gives -0.0, and that would change the saved coefficient files.
    """
    l = (a.shape[-1] - 1) // 2
    u = wigner.real_sh_transform(l)
    h = np.empty(a.shape, dtype=complex)
    rows = np.arange(2 * l + 1)
    for part, out in ((u.real, h.real), (u.imag, h.imag)):
        col = np.abs(part).argmax(axis=1)           # the nonzero of each row
        np.multiply(a[..., col], part[rows, col], out=out)
        out += 0.0
    return h


def build_basis_set(group: Group, irreps: list[Irrep],
                    real_irreps: dict[int, RealIrrep], l_max: int,
                    seed: int = 0) -> BasisSet:
    """All coefficient matrices up to l_max for the potentially-real irreps."""
    bs = BasisSet(group_name=group.name or "?", l_max=l_max, seed=seed)
    irrep_mults = [(real_irreps[ir.p], [irrep_multiplicity(group, ir, l)
                                        for l in range(l_max + 1)])
                   for ir in irreps if ir.p in real_irreps]
    for l, w_stack in wigner.real_wigner_stacks(l_max, group.elements):
        for r, mults in irrep_mults:
            bs.blocks.extend(build_basis(r, group, l, multiplicity=mults[l],
                                         w_stack=w_stack))
        del w_stack     # not held while the next degree's is built: ~10 % of peak RSS
    return bs


def assemble_full_H(basis_set: BasisSet, l: int) -> np.ndarray:
    """Concatenate all rows of degree l (p ascending, n ascending, row
    ascending) into the full coefficient matrix H^l."""
    blocks = sorted(basis_set.select(l=l), key=lambda b: (b.p, b.n))
    if not blocks:
        raise BasisError(f"no basis functions at l={l}")
    return np.vstack([b.H for b in blocks])
