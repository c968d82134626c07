"""Independent numerical verification of a built basis set.

All checks evaluate basis functions pointwise on the sphere (exact
product quadrature or random samples) and compare against the defining
properties: orthonormality, realness, the rotation transformation law,
and the recovery of the irrep matrices from the functions themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, CoeffMatrix
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


Location = dict[str, int]          # where a residual sits: p, l, n, g as apply
Worst = tuple[float, Location]     # a check's worst residual and its location
NO_RESIDUAL: Worst = (0.0, {})


@dataclass
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    location: Location = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {"name": self.name, "max_residual": self.max_residual,
                "tolerance": self.tolerance, "passed": self.passed,
                "location": dict(self.location)}


@dataclass
class VerificationReport:
    group_name: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, tol: float,
            location: Location | None = None) -> CheckResult:
        res = CheckResult(name=name, max_residual=float(residual), tolerance=tol,
                          location=dict(location or {}))
        self.checks.append(res)
        return res

    def to_dict(self) -> dict:
        return {"group": self.group_name, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks]}

    def table(self) -> str:
        lines = [f"{'check':44s} {'residual':>12s} {'tol':>9s}  result  worst at"]
        for c in self.checks:
            where = ", ".join(f"{k}={v}" for k, v in c.location.items())
            lines.append(f"{c.name:44s} {c.max_residual:12.3e} {c.tolerance:9.0e}  "
                         f"{'pass' if c.passed else 'FAIL'}    {where}".rstrip())
        return "\n".join(lines)


def _worst(*results: Worst) -> Worst:
    return max(results, key=lambda r: r[0])


def _peak(a: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Largest |entry| of a and its index; NaN counts as infinite, so a
    non-finite value cannot hide behind a finite one."""
    r = np.abs(a)
    i = np.unravel_index(np.argmax(r), r.shape)     # argmax stops at a NaN
    v = float(r[i])
    return (np.inf if np.isnan(v) else v), i


def _stack(blocks: list[CoeffMatrix]) -> np.ndarray:
    """Stacked H of the blocks of one degree, in order."""
    return np.vstack([b.H for b in blocks])


def _owner(blocks: list[CoeffMatrix], row: int) -> CoeffMatrix:
    """The block holding the given row of the stacked blocks."""
    for b in blocks:
        if row < b.dim:
            return b
        row -= b.dim
    raise IndexError(row)


def _at(b: CoeffMatrix, **more: int) -> Location:
    return {"p": b.p, "l": b.l, "n": b.n, **more}


def _block_gamma(blocks: list[CoeffMatrix], real_irreps: dict[int, RealIrrep],
                 g: int) -> np.ndarray:
    """Block-diagonal Gamma_r(g) over the stacked rows of the blocks."""
    rows = sum(b.dim for b in blocks)
    out = np.zeros((rows, rows))
    i = 0
    for b in blocks:
        out[i:i + b.dim, i:i + b.dim] = real_irreps[b.p].matrices[g]
        i += b.dim
    return out


def sample_angles(nodes: np.ndarray, group: Group
                  ) -> tuple[tuple[np.ndarray, np.ndarray],
                             list[tuple[np.ndarray, np.ndarray]]]:
    """Spherical angles of the sample nodes x and, per g, of R_g^-1 x."""
    return (wigner.spherical_from_cartesian(nodes),
            [wigner.spherical_from_cartesian(nodes @ r)    # R^-1 x, row-wise
             for r in group.elements])


def check_orthonormality(blocks: list[CoeffMatrix], values: np.ndarray,
                         weights: np.ndarray) -> Worst:
    """Gram of all scalar components of one degree, by quadrature (values:
    the components at the grid nodes, H^l Y^l with the rows of the blocks
    in order; weights: the grid weights) and in coefficient space; the
    worst deviation from identity and between the two Grams."""
    h = _stack(blocks)
    gram_coeff = h @ h.conj().T
    gram_quad = (values * weights) @ values.conj().T
    eye = np.eye(len(h))
    value, (_, i, _) = _peak(np.stack([gram_coeff - eye, gram_quad - eye,
                                       gram_quad - gram_coeff]))
    return value, _at(_owner(blocks, i))


def check_cross_degree_orthogonality(
        degrees: list[tuple[list[CoeffMatrix], np.ndarray]],
        weights: np.ndarray) -> Worst:
    """Components of different degrees must integrate to zero; degrees
    holds (blocks, their values at the grid nodes as for
    check_orthonormality) per degree, and every pair of them is checked.
    The location names both blocks (primed: the later degree)."""
    worst = NO_RESIDUAL
    for k, (blocks_a, va) in enumerate(degrees):
        for blocks_b, vb in degrees[k + 1:]:
            value, (i, j) = _peak((va * weights) @ vb.conj().T)
            b = _owner(blocks_b, j)
            worst = _worst(worst, (value, {**_at(_owner(blocks_a, i)),
                                           "p'": b.p, "l'": b.l, "n'": b.n}))
    return worst


def check_realness(blocks: list[CoeffMatrix], values: np.ndarray) -> Worst:
    """Max imaginary part of any component of one degree at any node
    (values as for check_orthonormality)."""
    value, (i, _) = _peak(values.imag)
    return value, _at(_owner(blocks, i))


def check_transformation(blocks: list[CoeffMatrix],
                         real_irreps: dict[int, RealIrrep], g: int,
                         values: np.ndarray, values_g: np.ndarray) -> Worst:
    """Max over the blocks of one degree and the nodes x of
    |I(R_g^-1 x) - Gamma_r(g)^T I(x)| at one group element g, from the
    components H^l Y^l (rows of the blocks in order) at the nodes (values)
    and at R_g^-1 x (values_g)."""
    value, (i, _) = _peak(values_g - _block_gamma(blocks, real_irreps, g).T
                          @ values)
    return value, _at(_owner(blocks, i), g=g)


def check_irrep_recovery(blocks: list[CoeffMatrix],
                         real_irreps: dict[int, RealIrrep], g: int,
                         values: np.ndarray, values_g: np.ndarray) -> Worst:
    """Recover Gamma(g) at one group element g, for every block of one
    degree with d_p > 1, from the sampled P(g) I = Gamma^T I by least
    squares (values and values_g as for check_transformation); max residual
    vs Gamma_r, including the orthogonality defect of the recovered matrix."""
    dims = [b.dim for b in blocks]
    keep = np.repeat([d > 1 for d in dims], dims)
    blocks = [b for b in blocks if b.dim > 1]
    if not blocks:
        return NO_RESIDUAL
    ids = np.repeat(np.arange(len(blocks)), [b.dim for b in blocks])
    diagonal = ids[:, None] == ids[None, :]
    vals = values[keep].real
    lhs = values_g[keep].real
    # per block, the normal equations Gamma (V V^T) = V lhs^T of
    # lhs = Gamma^T V; one block-diagonal solve covers every block
    try:
        gamma = np.linalg.solve(np.where(diagonal, vals @ vals.T, 0.0),
                                np.where(diagonal, vals @ lhs.T, 0.0))
    except np.linalg.LinAlgError:       # rows dependent at the nodes
        return np.inf, {"l": blocks[0].l, "g": g}
    value, (_, i, _) = _peak(np.stack([gamma - _block_gamma(blocks, real_irreps, g),
                                       gamma.T @ gamma - np.eye(len(vals))]))
    return value, _at(_owner(blocks, i), g=g)


def random_sphere_nodes(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def verify_basis_set(basis_set: BasisSet, group: Group,
                     real_irreps: dict[int, RealIrrep],
                     transform_l_cap: int = 10,
                     n_sample_nodes: int = 200) -> VerificationReport:
    """Run the full check battery and assemble an ordered report.

    Y^l comes from one harmonic recurrence (wigner.sh_degrees) over the
    quadrature grid, whose per-degree product H^l Y^l feeds the Gram,
    realness and cross-degree checks; one over the sample nodes up to
    transform_l_cap, whose H^l Y^l is held; and one per g over R_g^-1 x,
    shared by every block in the transformation-law and irrep-recovery
    checks.  That is order + 2 recurrences in all.  Irrep recovery covers
    every degree up to transform_l_cap, and cross-degree pairs every degree
    up to max(transform_l_cap, 6).
    """
    report = VerificationReport(group_name=basis_set.group_name)
    l_max = basis_set.l_max
    cap = min(l_max, transform_l_cap)
    pair_cap = max(cap, min(l_max, 6))
    grid = quadrature_grid(2 * l_max + 2)
    nodes = random_sphere_nodes(n_sample_nodes, seed=basis_set.seed + 1)
    (theta, phi), rotated = sample_angles(nodes, group)
    complete_o_i = basis_set.group_name in ("O", "I")
    by_degree = [sorted(basis_set.select(l=l), key=lambda b: (b.p, b.n))
                 for l in range(l_max + 1)]

    ortho = real = trans = recov = complete = NO_RESIDUAL
    held = []                  # (blocks, H^l Y^l on the grid), l <= pair_cap
    for l, y in wigner.sh_degrees(l_max, grid.theta, grid.phi):
        blocks = by_degree[l]
        rows = sum(b.dim for b in blocks)
        # Completeness per degree for O and I; for T, the exact row count of
        # the real subspaces, 2l+1 - 2 N_{2;l} (the complex pair carries the
        # rest).  Row counts are integers: any mismatch is at least 1.
        if complete_o_i:
            complete = _worst(complete, (abs(rows - (2 * l + 1)), {"l": l}))
        else:
            want = sum(r.dim * irrep_multiplicity(group, r, l)
                       for r in real_irreps.values())
            complete = _worst(complete, (abs(rows - want), {"l": l}))
        if blocks:
            h = _stack(blocks)
            if complete_o_i:
                complete = _worst(complete, (_peak(h @ h.conj().T - np.eye(rows))[0],
                                             {"l": l}))
            values = h @ y
            ortho = _worst(ortho, check_orthonormality(blocks, values,
                                                       grid.weights))
            real = _worst(real, check_realness(blocks, values))
            if l <= pair_cap:
                held.append((blocks, values))
        if l == pair_cap:      # free the held values before the larger degrees
            cross = check_cross_degree_orthogonality(held, grid.weights)
            held.clear()
        del y                  # not held while the next degree is built

    # Sample nodes: per degree up to cap, the stacked H^l and H^l Y^l at the
    # nodes, held across the group elements (at most 2116 x 200 values).
    at_nodes = {}
    for l, y in wigner.sh_degrees(cap, theta, phi):
        if by_degree[l]:
            h = _stack(by_degree[l])
            at_nodes[l] = (by_degree[l], h, h @ y)
    for g, (theta_g, phi_g) in enumerate(rotated):
        for l, y_g in wigner.sh_degrees(cap, theta_g, phi_g):
            if l not in at_nodes:
                continue
            blocks, h, values = at_nodes[l]
            values_g = h @ y_g
            trans = _worst(trans, check_transformation(blocks, real_irreps, g,
                                                       values, values_g))
            recov = _worst(recov, check_irrep_recovery(blocks, real_irreps, g,
                                                       values, values_g))

    found = [("orthonormality_gram_per_l", ortho, CONSTRUCTION_TOL)]
    if pair_cap >= 1:
        found.append(("cross_degree_orthogonality", cross, CONSTRUCTION_TOL))
    found += [("pointwise_realness", real, CONSTRUCTION_TOL),
              ("transformation_law", trans, END_TO_END_TOL),
              ("irrep_recovery_from_functions", recov, END_TO_END_TOL),
              ("completeness_full_H_unitary", complete, CONSTRUCTION_TOL)
              if complete_o_i else
              ("tetrahedral_row_deficit", complete, 0.5)]
    for name, (residual, location), tol in found:
        report.add(name, residual, tol, location)
    return report
