import numpy as np
import pytest

from polybasis.basis import BasisSet, CoeffMatrix
from polybasis.verify import (CheckResult, VerificationReport,
                              check_cross_degree_orthogonality,
                              check_orthonormality, check_irrep_recovery,
                              check_realness, check_transformation,
                              quadrature_grid, random_sphere_nodes,
                              sample_angles, verify_basis_set)
from polybasis import wigner


class TestQuadrature:
    def test_weights_sum_to_sphere_area(self):
        for deg in (0, 3, 12):
            grid = quadrature_grid(deg)
            assert grid.weights.sum() == pytest.approx(4 * np.pi, abs=1e-12)

    def test_nodes_unit_length(self):
        grid = quadrature_grid(8)
        assert np.abs(np.linalg.norm(grid.nodes, axis=1) - 1.0).max() < 1e-13

    @pytest.mark.parametrize("l", [0, 2, 5, 9])
    def test_harmonic_gram_exact(self, l):
        grid = quadrature_grid(2 * l)
        y = wigner.eval_sh_vector(l, grid.theta, grid.phi)
        gram = (y * grid.weights) @ y.conj().T
        assert np.abs(gram - np.eye(2 * l + 1)).max() < 1e-12

    def test_cross_degree_integrals_vanish(self):
        grid = quadrature_grid(9)
        y2 = wigner.eval_sh_vector(2, grid.theta, grid.phi)
        y5 = wigner.eval_sh_vector(5, grid.theta, grid.phi)
        assert np.abs((y2 * grid.weights) @ y5.conj().T).max() < 1e-13


def on_grid(blocks, l_max):
    """Values H^l Y^l of the blocks (all of one degree l) on the
    verification grid of a set of the given l_max, and the grid."""
    grid = quadrature_grid(2 * l_max + 2)
    y = wigner.eval_sh_vector(blocks[0].l, grid.theta, grid.phi)
    return np.vstack([b.H for b in blocks]) @ y, grid


def at_nodes(blocks, y):
    """Values H^l Y^l of the blocks (all of one degree) from Y^l at some nodes."""
    return np.vstack([b.H for b in blocks]) @ y


class TestChecks:
    def test_orthonormality_clean(self, atlas, basis_sets):
        bs = basis_sets["I"]
        for l in range(bs.l_max + 1):
            blocks = bs.select(l=l)
            values, grid = on_grid(blocks, bs.l_max)
            resid, where = check_orthonormality(blocks, values, grid.weights)
            assert resid < 1e-10 and where["l"] == l

    def test_orthonormality_detects_scaling(self, basis_sets):
        bs = basis_sets["O"]
        for l in range(bs.l_max + 1):
            bad = [CoeffMatrix(p=b.p, l=b.l, n=b.n, H=1.01 * b.H)
                   for b in bs.select(l=l)]
            values, grid = on_grid(bad, bs.l_max)
            assert check_orthonormality(bad, values, grid.weights)[0] > 1e-3

    def test_cross_degree_clean(self, basis_sets):
        bs = basis_sets["T"]
        degrees = [(bs.select(l=l), on_grid(bs.select(l=l), bs.l_max)[0])
                   for l in (0, 3, 4, 6)]
        grid = quadrature_grid(2 * bs.l_max + 2)
        resid, where = check_cross_degree_orthogonality(degrees, grid.weights)
        assert resid < 1e-11
        assert where["l"] < where["l'"]

    def test_cross_degree_detects_overlap(self, basis_sets):
        # the same functions listed under two degrees overlap with themselves
        bs = basis_sets["O"]
        blocks = bs.select(l=6)
        values, grid = on_grid(blocks, bs.l_max)
        resid, where = check_cross_degree_orthogonality(
            [(blocks, values), (blocks, values)], grid.weights)
        assert resid == pytest.approx(1.0, abs=1e-10)
        assert where["l"] == where["l'"] == 6

    def test_realness_clean_and_detects_corruption(self, basis_sets):
        bs = basis_sets["O"]
        for l in range(bs.l_max + 1):
            blocks = bs.select(l=l)
            resid, where = check_realness(blocks, on_grid(blocks, bs.l_max)[0])
            assert resid < 1e-11 and where["l"] == l
        b = bs.get(4, 1, 1)
        h = b.H.copy()
        h[0, 0] += 0.05j
        bad = [CoeffMatrix(p=b.p, l=b.l, n=b.n, H=h)]
        resid, where = check_realness(bad, on_grid(bad, bs.l_max)[0])
        assert resid > 1e-3
        assert where == {"p": 4, "l": 1, "n": 1}

    def test_transformation_clean(self, atlas, real_irreps, basis_sets):
        group, _ = atlas["I"]
        _, real = real_irreps["I"]
        nodes = random_sphere_nodes(100, seed=2)
        blocks = basis_sets["I"].select(l=6)
        (theta, phi), rotated = sample_angles(nodes, group)
        y = wigner.eval_sh_vector(6, theta, phi)
        for g, (theta_g, phi_g) in enumerate(rotated):
            y_g = wigner.eval_sh_vector(6, theta_g, phi_g)
            for b in blocks:
                assert check_transformation([b], real, g, at_nodes([b], y),
                                            at_nodes([b], y_g))[0] < 1e-11
            assert check_transformation(blocks, real, g, at_nodes(blocks, y),
                                        at_nodes(blocks, y_g))[0] < 1e-11

    def test_transformation_detects_wrong_irrep(self, atlas, real_irreps, basis_sets):
        group, _ = atlas["I"]
        _, real = real_irreps["I"]
        nodes = random_sphere_nodes(100, seed=2)
        b4 = basis_sets["I"].get(4, 4, 1)
        # feed the 4-D function the wrong 4x4 matrices: identity stack
        from polybasis.realify import RealIrrep
        fake = RealIrrep(p=4, S=np.eye(4, dtype=complex),
                         matrices=np.broadcast_to(np.eye(4),
                                                  (group.order, 4, 4)).copy(),
                         seed=0)
        worst = 0.0
        (theta, phi), rotated = sample_angles(nodes, group)
        y = wigner.eval_sh_vector(4, theta, phi)
        for g, (theta_g, phi_g) in enumerate(rotated):
            y_g = wigner.eval_sh_vector(4, theta_g, phi_g)
            values, values_g = at_nodes([b4], y), at_nodes([b4], y_g)
            assert check_transformation([b4], real, g, values, values_g)[0] < 1e-11
            resid, where = check_transformation([b4], {4: fake}, g, values, values_g)
            assert where == {"p": 4, "l": 4, "n": 1, "g": g}
            worst = max(worst, resid)
        assert worst > 1e-2

    def test_irrep_recovery_matches_real_irrep(self, atlas, real_irreps, basis_sets):
        group, _ = atlas["O"]
        _, real = real_irreps["O"]
        nodes = random_sphere_nodes(150, seed=9)
        b = basis_sets["O"].get(5, 3, 1)
        worst = 0.0
        (theta, phi), rotated = sample_angles(nodes, group)
        y = wigner.eval_sh_vector(3, theta, phi)
        for g, (theta_g, phi_g) in enumerate(rotated):
            y_g = wigner.eval_sh_vector(3, theta_g, phi_g)
            values, values_g = at_nodes([b], y), at_nodes([b], y_g)
            assert check_irrep_recovery([b], real, g, values, values_g)[0] < 1e-9
            # O's p = 4 and p = 5 are both 3-dimensional; the wrong one is found
            resid, where = check_irrep_recovery([b], {5: real[4]}, g, values,
                                                values_g)
            assert (where["p"], where["l"], where["g"]) == (5, 3, g)
            worst = max(worst, resid)
        assert worst > 1e-2

    def test_one_evaluation_per_degree_and_group_element(
            self, atlas, real_irreps, basis_sets, monkeypatch):
        # one harmonic recurrence over the grid, one over the sample nodes
        # and one per g over R_g^-1 x; no single-degree evaluations
        passes, singles = [], []
        degrees, single = wigner.sh_degrees, wigner.eval_sh_vector

        def counted_degrees(l_max, theta, phi):
            passes.append(l_max)
            return degrees(l_max, theta, phi)

        def counted_single(l, theta, phi):
            singles.append(l)
            return single(l, theta, phi)

        monkeypatch.setattr(wigner, "sh_degrees", counted_degrees)
        monkeypatch.setattr(wigner, "eval_sh_vector", counted_single)
        for name in "TOI":
            group, _ = atlas[name]
            _, real = real_irreps[name]
            bs = basis_sets[name]
            passes.clear()
            report = verify_basis_set(bs, group, real, transform_l_cap=10)
            assert report.passed, report.table()
            assert bs.l_max == 10
            assert len(passes) == group.order + 2, name
            assert singles == [], name


class TestReport:
    def test_check_result_passed(self):
        assert CheckResult("x", 1e-12, 1e-10).passed
        assert not CheckResult("x", 1e-9, 1e-10).passed

    def test_report_aggregation_and_dict(self):
        rep = VerificationReport(group_name="O")
        rep.add("a", 1e-12, 1e-10)
        assert rep.passed
        rep.add("b", 1.0, 1e-10)
        assert not rep.passed
        rep.add("c", 2.0, 1e-10, {"p": 4, "l": 3, "n": 1, "g": 5})
        d = rep.to_dict()
        assert d["group"] == "O" and d["passed"] is False
        assert [c["name"] for c in d["checks"]] == ["a", "b", "c"]
        assert d["checks"][0]["location"] == {}
        assert d["checks"][2]["location"] == {"p": 4, "l": 3, "n": 1, "g": 5}
        assert "FAIL" in rep.table()
        assert rep.table().splitlines()[-1].endswith("FAIL    p=4, l=3, n=1, g=5")

    @pytest.mark.parametrize("name", "TOI")
    def test_full_battery_passes(self, atlas, real_irreps, basis_sets, name):
        group, _ = atlas[name]
        _, real = real_irreps[name]
        report = verify_basis_set(basis_sets[name], group, real,
                                  transform_l_cap=6, n_sample_nodes=120)
        assert report.passed, report.table()

    def test_battery_flags_corrupted_set(self, atlas, real_irreps, basis_sets):
        group, _ = atlas["O"]
        _, real = real_irreps["O"]
        bs = basis_sets["O"]
        # swap two rows of one block: still orthonormal, breaks the law
        bad_blocks = []
        for b in bs.blocks:
            if (b.p, b.l, b.n) == (4, 3, 1):
                h = b.H.copy()
                h[[0, 1]] = h[[1, 0]]
                b = CoeffMatrix(p=b.p, l=b.l, n=b.n, H=h)
            bad_blocks.append(b)
        bad = BasisSet(group_name="O", l_max=bs.l_max, seed=bs.seed,
                       blocks=bad_blocks)
        report = verify_basis_set(bad, group, real, transform_l_cap=6,
                                  n_sample_nodes=120)
        assert not report.passed
        failing = {c.name: c for c in report.checks if not c.passed}
        assert "transformation_law" in failing
        where = failing["transformation_law"].location
        assert (where["p"], where["l"], where["n"]) == (4, 3, 1), report.table()
        assert "p=4, l=3, n=1, g=" in report.table()

    def test_irrep_recovery_fires_above_l6(self, atlas, real_irreps,
                                           basis_sets):
        group, _ = atlas["O"]
        _, real = real_irreps["O"]
        bs = basis_sets["O"]
        target = bs.select(p=4, l=8)[0]
        h = target.H.copy()
        h[[0, 1]] = h[[1, 0]]
        bad = BasisSet(group_name="O", l_max=bs.l_max, seed=bs.seed,
                       blocks=[CoeffMatrix(p=b.p, l=b.l, n=b.n, H=h)
                               if b is target else b for b in bs.blocks])
        report = verify_basis_set(bad, group, real, transform_l_cap=10)
        recovery = {c.name: c for c in report.checks}["irrep_recovery_from_functions"]
        assert not recovery.passed, report.table()
        assert recovery.location["l"] == 8 and recovery.location["p"] == 4

    def test_cross_degree_row_kept_below_cap_one(self, atlas, real_irreps,
                                                 basis_sets):
        # pairs cover degrees up to max(transform_l_cap, 6), so the row is
        # reported even when the transformation law stops at l = 0
        group, _ = atlas["O"]
        _, real = real_irreps["O"]
        report = verify_basis_set(basis_sets["O"], group, real,
                                  transform_l_cap=0)
        checks = {c.name: c for c in report.checks}
        assert report.passed, report.table()
        assert "cross_degree_orthogonality" in checks
        assert checks["cross_degree_orthogonality"].location["l'"] <= 6

    def test_non_finite_coefficient_fails(self, atlas, real_irreps, basis_sets):
        group, _ = atlas["T"]
        _, real = real_irreps["T"]
        bs = basis_sets["T"]
        target = bs.get(1, 0, 1)
        h = target.H.copy()
        h[0, 0] = np.nan
        bad = BasisSet(group_name="T", l_max=bs.l_max, seed=bs.seed,
                       blocks=[CoeffMatrix(p=1, l=0, n=1, H=h) if b is target
                               else b for b in bs.blocks])
        report = verify_basis_set(bad, group, real, transform_l_cap=2)
        failing = {c.name: c.max_residual for c in report.checks
                   if not c.passed}
        assert failing["orthonormality_gram_per_l"] == np.inf, report.table()

    def test_zeroed_block_is_reported(self, atlas, real_irreps, basis_sets):
        # rows that vanish at the nodes leave Gamma unrecoverable: the
        # battery reports it instead of raising
        group, _ = atlas["O"]
        _, real = real_irreps["O"]
        bs = basis_sets["O"]
        target = bs.get(4, 3, 1)
        bad = BasisSet(group_name="O", l_max=bs.l_max, seed=bs.seed,
                       blocks=[CoeffMatrix(p=4, l=3, n=1, H=0 * b.H)
                               if b is target else b for b in bs.blocks])
        report = verify_basis_set(bad, group, real, transform_l_cap=4)
        checks = {c.name: c for c in report.checks}
        assert checks["irrep_recovery_from_functions"].max_residual == np.inf
        assert checks["irrep_recovery_from_functions"].location["l"] == 3
        assert checks["orthonormality_gram_per_l"].location == {
            "p": 4, "l": 3, "n": 1}

    @pytest.mark.parametrize("name", "TOI")
    def test_full_battery_passes_l45_cli_caps(self, atlas, sets45, name):
        """The battery as the CLI runs it at the top degree (transformation
        law and irrep recovery to l = 10, 200 sample nodes)."""
        group, _ = atlas[name]
        real, bs = sets45[name]
        report = verify_basis_set(bs, group, real,
                                  transform_l_cap=min(bs.l_max, 10))
        assert bs.l_max == 45
        assert report.passed, report.table()

    def test_battery_flags_missing_tetrahedral_multiplet(self, atlas,
                                                        real_irreps,
                                                        basis_sets):
        group, _ = atlas["T"]
        _, real = real_irreps["T"]
        bs = basis_sets["T"]
        intact = verify_basis_set(bs, group, real, transform_l_cap=6,
                                  n_sample_nodes=120)
        assert intact.passed, intact.table()
        # dropping both copies of (p=4, l=3) leaves an orthonormal,
        # correctly transforming set that is 6 rows short at l = 3
        bad = BasisSet(group_name="T", l_max=bs.l_max, seed=bs.seed,
                       blocks=[b for b in bs.blocks if (b.p, b.l) != (4, 3)])
        assert len(bad.blocks) == len(bs.blocks) - 2
        report = verify_basis_set(bad, group, real, transform_l_cap=6,
                                  n_sample_nodes=120)
        failing = {c.name: c.max_residual for c in report.checks
                   if not c.passed}
        assert failing == {"tetrahedral_row_deficit": 6.0}, report.table()
