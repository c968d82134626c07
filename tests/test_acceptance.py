"""Acceptance suite: the ten headline guarantees of the package, each at
its stated tolerance.  One test (or parametrized family) per criterion."""

import time

import numpy as np
import pytest

from polybasis.basis import assemble_full_H, build_basis_set
from polybasis.groups import irrep_multiplicity
from polybasis.realify import frobenius_schur, solve_all
from polybasis.verify import (check_orthonormality, check_irrep_recovery,
                              check_transformation, quadrature_grid,
                              random_sphere_nodes, sample_angles)
from polybasis import io as pio
from polybasis import wigner


@pytest.fixture(scope="module")
def sets15(atlas, real_irreps):
    """Basis sets to l_max=15 (desk scale) per group, seed 7."""
    out = {}
    for name, (g, irreps) in atlas.items():
        _, real = real_irreps[name]
        out[name] = build_basis_set(g, irreps, real, l_max=15, seed=7)
    return out


def test_criterion_01_realness_verdicts(atlas):
    t0 = time.perf_counter()
    expected = {"T": [1, 0, 0, 1], "O": [1] * 5, "I": [1] * 5}
    for name, want in expected.items():
        group, irreps = atlas[name]
        got = [frobenius_schur(ir, group).indicator for ir in irreps]
        assert got == want, f"group {name}: indicators {got} != {want}"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_real_irrep_construction(atlas, real_irreps):
    t0 = time.perf_counter()
    for name, (group, irreps) in atlas.items():
        _, real = real_irreps[name]
        for p, r in real.items():
            sim = np.einsum("ij,gjk,kl->gil", r.S.conj().T,
                            irreps[p - 1].matrices, r.S)
            assert np.abs(sim.imag).max() < 1e-10
            eye = np.eye(r.dim)
            for m in r.matrices:
                assert np.abs(m.T @ m - eye).max() < 1e-10
            prod = np.einsum("iab,jbc->ijac", r.matrices, r.matrices)
            assert np.abs(prod - r.matrices[group.mult_table]).max() < 1e-10
    # B-eigenvalue structure for a multi-dimensional case of each group
    from polybasis.realify import build_C
    for name, p in (("T", 4), ("O", 5), ("I", 5)):
        group, irreps = atlas[name]
        w = np.linalg.eigvalsh(build_C(irreps[p - 1], seed=7).B)
        d = irreps[p - 1].dim
        assert (np.abs(w - 1.0) < 1e-8).sum() == d
        assert (np.abs(w + 1.0) < 1e-8).sum() == d
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_completeness_O_I_desk_scale(atlas, sets15):
    for name in "OI":
        group, irreps = atlas[name]
        bs = sets15[name]
        for l in range(16):
            total = sum(ir.matrices.shape[1] * irrep_multiplicity(group, ir, l)
                        for ir in irreps)
            assert total == 2 * l + 1
            h = assemble_full_H(bs, l)
            assert h.shape == (2 * l + 1, 2 * l + 1)
            assert np.abs(h @ h.conj().T - np.eye(2 * l + 1)).max() < 1e-10


def test_criterion_03_completeness_extended_l45(atlas, real_irreps):
    t0 = time.perf_counter()
    for name in "OI":
        group, irreps = atlas[name]
        _, real = real_irreps[name]
        bs = build_basis_set(group, irreps, real, l_max=45, seed=7)
        for l in range(46):
            h = assemble_full_H(bs, l)
            assert h.shape == (2 * l + 1, 2 * l + 1)
            assert np.abs(h @ h.conj().T - np.eye(2 * l + 1)).max() < 1e-10, (name, l)
    # T is incomplete at most degrees, but its rows stay orthonormal; seed 8
    # is where single-pass Gram-Schmidt lost it (2.5e-9 at l = 44).
    group, irreps = atlas["T"]
    _, real = solve_all(group, irreps, seed=8)
    bs = build_basis_set(group, irreps, real, l_max=45, seed=8)
    for l in range(46):
        h = assemble_full_H(bs, l)
        assert np.abs(h @ h.conj().T - np.eye(len(h))).max() < 1e-10, ("T", l)
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.parametrize("l", range(1, 16))
def test_criterion_04_tetrahedral_incompleteness(atlas, sets15, l):
    """The real T basis of degree l has exactly 2l+1 - 2 N_{2;l} rows: the
    complex-conjugate pair p = 2, 3 carries the rest.  It is incomplete
    exactly where that pair occurs, and complete (H^l square unitary) where
    it does not, which for l >= 1 is only l = 1 and l = 3."""
    group, irreps = atlas["T"]
    n1, n2, n3, n4 = (irrep_multiplicity(group, ir, l) for ir in irreps)
    dim = 2 * l + 1
    assert n2 == n3, f"l={l}: conjugate irreps differ, N2={n2} N3={n3}"
    total = n1 + 3 * n4
    assert total == dim - 2 * n2, (l, n1, n2, n4)
    assert (total < dim) == (n2 > 0)
    assert (n2 == 0) == (l in (1, 3))
    h = assemble_full_H(sets15["T"], l)
    assert h.shape == (total, dim)
    assert np.abs(h @ h.conj().T - np.eye(total)).max() < 1e-10
    if n2 == 0:
        assert h.shape == (dim, dim)
        assert np.abs(h.conj().T @ h - np.eye(dim)).max() < 1e-10


def test_criterion_05_transformation_law(atlas, real_irreps, basis_sets):
    nodes = random_sphere_nodes(200, seed=8)
    for name in "TOI":
        group, _ = atlas[name]
        _, real = real_irreps[name]
        (theta, phi), rotated = sample_angles(nodes, group)
        for l in range(basis_sets[name].l_max + 1):    # fixture holds l <= 10
            y = wigner.eval_sh_vector(l, theta, phi)
            for g, (theta_g, phi_g) in enumerate(rotated):
                y_g = wigner.eval_sh_vector(l, theta_g, phi_g)
                for b in basis_sets[name].select(l=l):
                    resid, where = check_transformation([b], real, g, b.H @ y,
                                                        b.H @ y_g)
                    assert resid < 1e-8, (where, resid)


@pytest.mark.parametrize("name", "TOI")
def test_criterion_05_transformation_law_coefficients_l40_45(atlas, sets45, name):
    """In coefficient space the law I(R_g^-1 x) = Gamma_r(g)^T I(x) reads
    H D(g)^T = Gamma_r(g)^T H, since Y^l(R_g^-1 x) = D(g)^T Y^l(x); it holds
    at the construction tolerance for every g and block at the top degrees."""
    group, _ = atlas[name]
    real, bs = sets45[name]
    for l in range(40, 46):
        d_stack = wigner.wigner_D_stack(l, group.elements)
        for b in bs.select(l=l):
            gam = real[b.p].matrices
            lhs = np.einsum("ja,gba->gjb", b.H, d_stack)
            rhs = np.einsum("gkj,ka->gja", gam, b.H)
            resid = np.abs(lhs - rhs).max()
            assert resid <= 1e-10, (name, b.p, l, b.n, resid)


def test_criterion_06_orthonormality(sets15):
    grid = quadrature_grid(2 * 15 + 2)
    for name in "TOI":
        for l in range(16):
            blocks = sets15[name].select(l=l)
            values = (np.vstack([b.H for b in blocks])
                      @ wigner.eval_sh_vector(l, grid.theta, grid.phi))
            resid, where = check_orthonormality(blocks, values, grid.weights)
            assert resid < 1e-10, (name, where, resid)


def test_criterion_07_multiplicity_oracle_agreement(atlas, real_irreps, sets15):
    for name in "TOI":
        group, irreps = atlas[name]
        _, real = real_irreps[name]
        bs = sets15[name]
        for ir in irreps:
            for l in range(16):
                built = len(bs.select(p=ir.p, l=l))
                want = (irrep_multiplicity(group, ir, l)
                        if ir.p in real else 0)
                assert built == want
    group, irreps = atlas["I"]
    identity_counts = [irrep_multiplicity(group, irreps[0], l)
                       for l in range(16)]
    assert identity_counts == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1]


@pytest.mark.parametrize("name,p", [("T", 4), ("O", 5), ("I", 2)])
def test_criterion_08_irrep_recovery(atlas, real_irreps, basis_sets, name, p):
    group, _ = atlas[name]
    _, real = real_irreps[name]
    nodes = random_sphere_nodes(200, seed=8)
    (theta, phi), rotated = sample_angles(nodes, group)
    found = False
    for l in range(basis_sets[name].l_max + 1):
        blocks = basis_sets[name].select(p=p, l=l)
        if not blocks:
            continue
        found = True
        # the residual covers |Gamma - Gamma_r| and |Gamma^T Gamma - 1|
        # of every recovered Gamma(g)
        y = wigner.eval_sh_vector(l, theta, phi)
        for g, (theta_g, phi_g) in enumerate(rotated):
            y_g = wigner.eval_sh_vector(l, theta_g, phi_g)
            for b in blocks:
                resid, where = check_irrep_recovery([b], real, g, b.H @ y,
                                                    b.H @ y_g)
                assert resid < 1e-8, (where, resid)
    assert found


def test_criterion_09_gauge_robustness(atlas):
    runs = {}
    for seed in (7, 1234):
        run = {}
        for name, (group, irreps) in atlas.items():
            _, real = solve_all(group, irreps, seed=seed)
            run[name] = build_basis_set(group, irreps, real, l_max=8, seed=seed)
        runs[seed] = run
    for name in "TOI":
        a, b = runs[7][name], runs[1234][name]
        keys = sorted({(blk.p, blk.l) for blk in a.blocks})
        assert keys == sorted({(blk.p, blk.l) for blk in b.blocks})
        for p, l in keys:
            ha = np.vstack([blk.H for blk in a.select(p=p, l=l)])
            hb = np.vstack([blk.H for blk in b.select(p=p, l=l)])
            assert ha.shape == hb.shape
            # principal angles between the two row spans (rows orthonormal);
            # sine-based form stays accurate near zero, where arccos of a
            # near-unit singular value loses half the digits
            resid = hb - (hb @ ha.conj().T) @ ha
            sines = np.linalg.svd(resid, compute_uv=False)[:len(hb)]
            angles = np.arcsin(np.clip(sines, 0.0, 1.0))
            assert angles.max() < 1e-8, (name, p, l, angles.max())


def test_criterion_10_mesh_export(basis_sets, tmp_path):
    b = basis_sets["I"].get(1, 6, 1)
    verts, faces, radii = pio.displaced_mesh(b, component=1, subdivisions=3)
    assert radii.min() == pytest.approx(0.5, abs=1e-6)
    assert radii.max() == pytest.approx(1.0, abs=1e-6)
    path = tmp_path / "accept.obj"
    pio.write_obj(path, verts, faces, radii)
    v2, f2 = pio.read_obj(path)
    assert np.abs(v2 - verts).max() == 0.0 and (f2 == faces).all()

    b0 = basis_sets["O"].get(1, 0, 1)
    _, _, r0 = pio.displaced_mesh(b0, component=1, subdivisions=2)
    assert r0.var() < 1e-12
