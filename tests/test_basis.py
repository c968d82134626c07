import numpy as np
import pytest

from polybasis.basis import (BasisError, BasisSet, assemble_full_H,
                             build_basis, build_basis_set,
                             projection_coefficients, real_to_complex_coefficients,
                             realness_row_condition)
from polybasis.groups import irrep_multiplicity
from polybasis.verify import random_sphere_nodes
from polybasis import wigner


class TestProjection:
    def test_argument_validation(self, atlas, real_irreps):
        group, _ = atlas["O"]
        _, real = real_irreps["O"]
        r = real[4]
        with pytest.raises(ValueError):
            projection_coefficients(r, group, l=2, m=0, k=0)
        with pytest.raises(ValueError):
            projection_coefficients(r, group, l=2, m=0, k=r.dim + 1)
        with pytest.raises(ValueError):
            projection_coefficients(r, group, l=2, m=3, k=1)

    @pytest.mark.parametrize("name,p,l", [("T", 4, 3), ("O", 3, 4), ("I", 5, 6)])
    def test_output_satisfies_realness(self, atlas, real_irreps, name, p, l):
        group, _ = atlas[name]
        _, real = real_irreps[name]
        for m in range(-l, l + 1):
            c = projection_coefficients(real[p], group, l, m, k=1)
            assert c.shape == (real[p].dim, 2 * l + 1)
            assert realness_row_condition(c, tol=1e-12)

    def test_idempotence(self, atlas, real_irreps):
        # The diagonal projector P_kk, expressed on real harmonics through
        # W(g) = U^H D(g) U, is idempotent.
        group, _ = atlas["O"]
        _, real = real_irreps["O"]
        r, l, k = real[4], 4, 1
        u = wigner.real_sh_transform(l)
        d_stack = wigner.wigner_D_stack(l, group.elements)
        w_stack = np.einsum("ab,gbc,cd->gad", u.conj().T, d_stack, u)
        assert np.abs(w_stack.imag).max() < 1e-12
        proj_kk = (r.dim / group.order) * np.einsum(
            "g,gac->ac", r.matrices[:, k - 1, k - 1], w_stack.real)
        assert np.abs(proj_kk @ proj_kk - proj_kk).max() < 1e-11


@pytest.mark.parametrize("name,p,l", [("O", 5, 43), ("T", 4, 44), ("I", 5, 45)])
def test_reference_route_spans_built_blocks(atlas, sets45, name, p, l):
    """Every single-projector image P_{j1} Z_{l,m} (the reference route) lies
    in the row span of the built (p, l) blocks, and together they span all
    N_{p;l} d_p rows, at the top-degree (group, p, l) where Gram-Schmidt
    over those images lost orthogonality."""
    group, _ = atlas[name]
    real, bs = sets45[name]
    h = np.vstack([b.H for b in bs.select(p=p, l=l)])
    assert len(h) == real[p].dim * irrep_multiplicity(group, real[p], l)
    d_stack = wigner.wigner_D_stack(l, group.elements)
    cands = [projection_coefficients(real[p], group, l, m, k=1, d_stack=d_stack)
             for m in range(-l, l + 1)]
    stacked = np.vstack(cands)
    resid = stacked - (stacked @ h.conj().T) @ h
    assert np.abs(resid).max() <= 1e-10
    assert np.linalg.matrix_rank(stacked, tol=1e-6) == len(h)


class TestBuildBasis:
    @pytest.mark.parametrize("name", "TOI")
    def test_counts_match_multiplicity(self, atlas, real_irreps, basis_sets, name):
        group, irreps = atlas[name]
        bs = basis_sets[name]
        for irrep in irreps:
            for l in range(bs.l_max + 1):
                want = (irrep_multiplicity(group, irrep, l)
                        if irrep.p in dict(real_irreps[name][1]) else 0)
                assert len(bs.select(p=irrep.p, l=l)) == want

    @pytest.mark.parametrize("name", "TOI")
    def test_rows_orthonormal_across_blocks(self, basis_sets, name):
        bs = basis_sets[name]
        for l in range(bs.l_max + 1):
            blocks = bs.select(l=l)
            if not blocks:
                continue
            h = np.vstack([b.H for b in blocks])
            assert np.abs(h @ h.conj().T - np.eye(len(h))).max() < 1e-10

    @pytest.mark.parametrize("name", "TOI")
    def test_realness_row_condition_everywhere(self, basis_sets, name):
        for b in basis_sets[name].blocks:
            assert realness_row_condition(b.H)

    def test_first_function_is_invariant_constant(self, basis_sets):
        # (p=1, l=0): the constant Y_00 itself, up to sign convention +1
        b = basis_sets["O"].get(1, 0, 1)
        assert b.H.shape == (1, 1)
        assert b.H[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("name", "TOI")
    def test_sign_convention(self, basis_sets, name):
        # row 1 over Z^l is the eigenvector v itself (P_11 v = v); its
        # largest-magnitude entry is positive
        for b in basis_sets[name].blocks:
            a1 = b.H[0] @ wigner.real_sh_transform(b.l).conj()
            assert np.abs(a1.imag).max() < 1e-12
            assert a1.real[np.abs(a1.real).argmax()] > 0

    @pytest.mark.parametrize("d_p", [1, 2, 3, 4, 5])
    def test_entrywise_H_is_the_dense_product_bit_for_bit(self, d_p):
        # every (d_p, 2l+1) shape up to l = 45, with exact zeros and -0.0
        # in A; one stacked call per degree against each block's product
        rng = np.random.default_rng(d_p)
        for l in range(wigner.L_MAX_SUPPORTED + 1):
            a = rng.normal(size=(3, d_p, 2 * l + 1))
            mask = rng.integers(0, 4, size=a.shape)
            a[mask == 0] = 0.0
            a[mask == 1] = -0.0
            u_t = wigner.real_sh_transform(l).T
            h = real_to_complex_coefficients(a)
            for a_n, h_n in zip(a, h):
                dense = a_n @ u_t.real + 1j * (a_n @ u_t.imag)
                assert np.array_equal(h_n.view(np.uint64), dense.view(np.uint64)), l

    def test_octahedral_invariant_degrees(self, atlas, real_irreps):
        # first octahedrally invariant harmonics: l = 0, 4, 6
        group, _ = atlas["O"]
        _, real = real_irreps["O"]
        counts = [len(build_basis(real[1], group, l)) for l in range(9)]
        assert counts == [1, 0, 0, 0, 1, 0, 1, 0, 1]

    def test_icosahedral_invariant_degrees(self, atlas, real_irreps):
        group, _ = atlas["I"]
        _, real = real_irreps["I"]
        counts = [len(build_basis(real[1], group, l)) for l in range(16)]
        assert counts == [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1]

    def test_explicit_multiplicity_override_checked(self, atlas, real_irreps):
        group, _ = atlas["O"]
        _, real = real_irreps["O"]
        with pytest.raises(BasisError, match="unit eigenvalues"):
            build_basis(real[1], group, l=4, multiplicity=2)

    @pytest.mark.parametrize("case", ["fewer", "more", "zero"])
    def test_wrong_multiplicity_raises(self, atlas, real_irreps, case):
        # too few and zero used to return a truncated or empty basis
        group, _ = atlas["I"]
        _, real = real_irreps["I"]
        want = irrep_multiplicity(group, real[5], 45)
        wrong = {"fewer": want - 1, "more": want + 1, "zero": 0}[case]
        with pytest.raises(BasisError, match=f"p=5, l=45 has {want} unit "
                                             f"eigenvalues, multiplicity is {wrong}"):
            build_basis(real[5], group, 45, multiplicity=wrong)

    def test_evaluate_matches_manual_contraction(self, basis_sets):
        b = basis_sets["I"].get(5, 2, 1)
        nodes = random_sphere_nodes(30, seed=4)
        theta, phi = wigner.spherical_from_cartesian(nodes)
        y = wigner.eval_sh_vector(2, theta, phi)
        manual = np.tensordot(b.H, y, axes=(1, 0))
        assert np.abs(manual.imag).max() < 1e-12
        assert np.abs(b.evaluate(theta, phi) - manual.real).max() < 1e-12

    @pytest.mark.parametrize("name", "TOI")
    def test_transformation_law_sampled(self, atlas, real_irreps, basis_sets, name):
        group, _ = atlas[name]
        _, real = real_irreps[name]
        nodes = random_sphere_nodes(40, seed=11)
        theta, phi = wigner.spherical_from_cartesian(nodes)
        for b in basis_sets[name].select(l=None):
            if b.l > 6:
                continue
            vals = b.evaluate(theta, phi)
            for gi in (1, group.order // 2, group.order - 1):
                rot = nodes @ group.elements[gi]
                lhs = b.evaluate(*wigner.spherical_from_cartesian(rot))
                rhs = real[b.p].matrices[gi].T @ vals
                assert np.abs(lhs - rhs).max() < 1e-10


class TestBasisSet:
    def test_get_missing_raises_with_available(self, basis_sets):
        with pytest.raises(KeyError, match="available"):
            basis_sets["T"].get(2, 0, 1)

    def test_select_filters(self, basis_sets):
        bs = basis_sets["O"]
        assert all(b.p == 4 for b in bs.select(p=4))
        assert all(b.l == 6 for b in bs.select(l=6))

    def test_assemble_full_H_square_for_O_I(self, basis_sets):
        for name in "OI":
            bs = basis_sets[name]
            for l in range(bs.l_max + 1):
                h = assemble_full_H(bs, l)
                assert h.shape == (2 * l + 1, 2 * l + 1)
                assert np.abs(h @ h.conj().T - np.eye(2 * l + 1)).max() < 1e-10

    def test_tetrahedral_row_counts(self, basis_sets, atlas):
        # rows = 2l+1 - 2 * (multiplicity of the complex-pair irreps)
        group, irreps = atlas["T"]
        bs = basis_sets["T"]
        for l in range(bs.l_max + 1):
            rows = sum(b.dim for b in bs.select(l=l))
            skipped = sum(irrep_multiplicity(group, irreps[p - 1], l)
                          for p in (2, 3))
            assert rows == 2 * l + 1 - skipped

    def test_assemble_raises_when_empty(self, atlas, real_irreps):
        bs = BasisSet(group_name="T", l_max=0, seed=0)
        with pytest.raises(BasisError):
            assemble_full_H(bs, 0)


def test_build_basis_set_deterministic(atlas, real_irreps, basis_sets):
    group, irreps = atlas["O"]
    _, real = real_irreps["O"]
    again = build_basis_set(group, irreps, real, l_max=10, seed=7)
    for b1, b2 in zip(basis_sets["O"].blocks, again.blocks):
        assert (b1.p, b1.l, b1.n) == (b2.p, b2.l, b2.n)
        assert np.abs(b1.H - b2.H).max() == 0.0
