"""Independent numerical verification of a built basis set.

All checks evaluate basis functions pointwise on the sphere (exact
product quadrature or random samples) and compare against the defining
properties: orthonormality, realness, the rotation transformation law,
and the recovery of the irrep matrices from the functions themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, CoeffMatrix, assemble_full_H
from .groups import Group, irrep_multiplicity
from .realify import RealIrrep
from . import wigner

CONSTRUCTION_TOL = 1e-10
END_TO_END_TOL = 1e-8


@dataclass(frozen=True)
class QuadratureGrid:
    """Product Gauss-Legendre (in cos theta) x uniform-phi sphere rule."""

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    degree: int             # integrates Y conj(Y') exactly for l + l' <= degree

    @property
    def nodes(self) -> np.ndarray:
        """Cartesian unit vectors of the nodes, shape (n, 3)."""
        st = np.sin(self.theta)
        return np.stack([st * np.cos(self.phi), st * np.sin(self.phi),
                         np.cos(self.theta)], axis=-1)


def quadrature_grid(degree: int) -> QuadratureGrid:
    """Sphere rule exact for products of harmonics up to the given total
    degree: ceil((degree+1)/2) Gauss-Legendre nodes in cos theta crossed
    with degree+1 equispaced azimuths."""
    n_theta = max(1, (degree + 2) // 2)
    n_phi = degree + 1
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    wt = np.broadcast_to(w[:, None] * (2.0 * np.pi / n_phi), th.shape)
    return QuadratureGrid(theta=th.ravel(), phi=ph.ravel(),
                          weights=wt.ravel().copy(), degree=degree)


@dataclass
class CheckResult:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {"name": self.name, "max_residual": self.max_residual,
                "tolerance": self.tolerance, "passed": self.passed}


@dataclass
class VerificationReport:
    group_name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, tol: float) -> CheckResult:
        res = CheckResult(name=name, max_residual=float(residual), tolerance=tol)
        self.checks.append(res)
        return res

    def to_dict(self) -> dict:
        return {"group": self.group_name, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}

    def table(self) -> str:
        lines = [f"{'check':44s} {'residual':>12s} {'tol':>9s}  result"]
        for c in self.checks:
            lines.append(f"{c.name:44s} {c.max_residual:12.3e} {c.tolerance:9.0e}  "
                         + ("pass" if c.passed else "FAIL"))
        return "\n".join(lines)


def _eval_rows(h: np.ndarray, l: int, theta: np.ndarray, phi: np.ndarray
               ) -> np.ndarray:
    y = wigner.eval_sh_vector(l, theta, phi)
    return np.tensordot(h, y, axes=(1, 0))


def check_transformation(basis: CoeffMatrix, real_irrep: RealIrrep,
                         group: Group, nodes: np.ndarray) -> float:
    """Max over g and x of |I(R_g^-1 x) - Gamma_r(g)^T I(x)|."""
    theta, phi = wigner.spherical_from_cartesian(nodes)
    vals = _eval_rows(basis.H, basis.l, theta, phi)        # (d_p, n)
    worst = 0.0
    for gi in range(group.order):
        rot = nodes @ group.elements[gi]                    # R^-1 x, row-wise
        tr, pr = wigner.spherical_from_cartesian(rot)
        lhs = _eval_rows(basis.H, basis.l, tr, pr)
        rhs = real_irrep.matrices[gi].T @ vals
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def check_orthonormality(basis_set: BasisSet, grid: QuadratureGrid) -> float:
    """Per-degree Gram of all scalar components, by quadrature and in
    coefficient space; returns the worst deviation from identity (and
    between the two Grams)."""
    worst = 0.0
    for l in range(basis_set.l_max + 1):
        blocks = sorted(basis_set.select(l=l), key=lambda b: (b.p, b.n))
        if not blocks:
            continue
        h = np.vstack([b.H for b in blocks])
        gram_coeff = h @ h.conj().T
        vals = _eval_rows(h, l, grid.theta, grid.phi)
        gram_quad = (vals * grid.weights) @ vals.conj().T
        eye = np.eye(len(h))
        worst = max(worst,
                    float(np.abs(gram_coeff - eye).max()),
                    float(np.abs(gram_quad - eye).max()),
                    float(np.abs(gram_quad - gram_coeff).max()))
    return worst


def check_cross_degree_orthogonality(basis_set: BasisSet, grid: QuadratureGrid,
                                     l_pairs: list[tuple[int, int]]) -> float:
    """Components of different degrees must integrate to zero."""
    worst = 0.0
    for la, lb in l_pairs:
        ba = basis_set.select(l=la)
        bb = basis_set.select(l=lb)
        if not ba or not bb:
            continue
        va = np.vstack([_eval_rows(b.H, la, grid.theta, grid.phi) for b in ba])
        vb = np.vstack([_eval_rows(b.H, lb, grid.theta, grid.phi) for b in bb])
        worst = max(worst, float(np.abs((va * grid.weights) @ vb.conj().T).max()))
    return worst


def check_realness(basis_set: BasisSet, grid: QuadratureGrid) -> float:
    """Max imaginary part of any basis component at any node."""
    worst = 0.0
    for b in basis_set.blocks:
        y = wigner.eval_sh_vector(b.l, grid.theta, grid.phi)
        vals = np.tensordot(b.H, y, axes=(1, 0))
        worst = max(worst, float(np.abs(vals.imag).max()))
    return worst


def check_irrep_recovery(basis: CoeffMatrix, real_irrep: RealIrrep,
                        group: Group, nodes: np.ndarray
                        ) -> tuple[float, np.ndarray]:
    """Recover Gamma(g) from sampled P(g) I = Gamma^T I by least squares;
    returns (max residual vs Gamma_r including orthogonality defect,
    recovered stack)."""
    theta, phi = wigner.spherical_from_cartesian(nodes)
    vals = _eval_rows(basis.H, basis.l, theta, phi).real    # (d_p, n)
    pinv = np.linalg.pinv(vals)
    worst = 0.0
    recovered = np.empty_like(real_irrep.matrices)
    eye = np.eye(basis.dim)
    for gi in range(group.order):
        rot = nodes @ group.elements[gi]
        tr, pr = wigner.spherical_from_cartesian(rot)
        lhs = _eval_rows(basis.H, basis.l, tr, pr).real
        gamma_t = lhs @ pinv
        gamma = gamma_t.T
        recovered[gi] = gamma
        worst = max(worst,
                    float(np.abs(gamma - real_irrep.matrices[gi]).max()),
                    float(np.abs(gamma.T @ gamma - eye).max()))
    return worst, recovered


def random_sphere_nodes(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def verify_basis_set(basis_set: BasisSet, group: Group,
                     real_irreps: dict[int, RealIrrep],
                     transform_l_cap: int = 10,
                     n_sample_nodes: int = 200) -> VerificationReport:
    """Run the full check battery and assemble an ordered report."""
    report = VerificationReport(group_name=basis_set.group_name)
    l_max = basis_set.l_max
    grid = quadrature_grid(2 * l_max + 2)

    report.add("orthonormality_gram_per_l", check_orthonormality(basis_set, grid),
               CONSTRUCTION_TOL)
    pairs = [(la, lb) for la in range(min(l_max, 6) + 1)
             for lb in range(la + 1, min(l_max, 6) + 1)]
    if pairs:
        report.add("cross_degree_orthogonality",
                   check_cross_degree_orthogonality(basis_set, grid, pairs),
                   CONSTRUCTION_TOL)
    report.add("pointwise_realness", check_realness(basis_set, grid),
               CONSTRUCTION_TOL)

    nodes = random_sphere_nodes(n_sample_nodes, seed=basis_set.seed + 1)
    worst_t = 0.0
    for b in basis_set.blocks:
        if b.l > transform_l_cap:
            continue
        worst_t = max(worst_t, check_transformation(b, real_irreps[b.p],
                                                    group, nodes))
    report.add("transformation_law", worst_t, END_TO_END_TOL)

    worst_p = 0.0
    for b in basis_set.blocks:
        if b.l > min(transform_l_cap, 6) or b.dim == 1:
            continue
        resid, _ = check_irrep_recovery(b, real_irreps[b.p], group, nodes)
        worst_p = max(worst_p, resid)
    report.add("irrep_recovery_from_functions", worst_p, END_TO_END_TOL)

    # Completeness per degree for O and I; for T, the exact row count of
    # the real subspaces, 2l+1 - 2 N_{2;l} (the complex pair carries the rest).
    worst_c = 0.0
    worst_rows = 0
    for l in range(l_max + 1):
        rows = sum(b.dim for b in basis_set.select(l=l))
        if basis_set.group_name in ("O", "I"):
            worst_c = max(worst_c, abs(rows - (2 * l + 1)))
            h = assemble_full_H(basis_set, l)
            worst_c = max(worst_c, float(np.abs(h @ h.conj().T - np.eye(len(h))).max()))
        else:
            want = sum(r.dim * irrep_multiplicity(group, r, l)
                       for r in real_irreps.values())
            worst_rows = max(worst_rows, abs(rows - want))
    if basis_set.group_name in ("O", "I"):
        report.add("completeness_full_H_unitary", worst_c, CONSTRUCTION_TOL)
    else:
        # Row counts are integers: any mismatch is at least 1.
        report.add("tetrahedral_row_deficit", worst_rows, 0.5)
    return report
