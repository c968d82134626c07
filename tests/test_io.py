import json

import numpy as np
import pytest

import oracles
from polybasis import io as pio
from polybasis.basis import BasisSet, CoeffMatrix


class TestCoeffFiles:
    def test_schema(self, basis_sets, tmp_path):
        pio.save_basis_set(basis_sets["I"], tmp_path)
        d = json.loads((tmp_path / "coeff_I_l06.json").read_text())
        assert d["group"] == "I" and d["l"] == 6
        assert d["meta"]["seed"] == 7
        assert d["meta"]["convention_id"] == "zyz-active-condon-shortley-v1"
        for blk in d["blocks"]:
            assert set(blk) == {"p", "n", "rows"}
            for row in blk["rows"]:
                for re, im in row:
                    assert isinstance(re, float) and isinstance(im, float)

    @staticmethod
    def assert_bytes_match_json(bs, out):
        paths = pio.save_basis_set(bs, out)
        for l in range(bs.l_max + 1):
            assert paths[l].read_text() == json.dumps(
                oracles.coeff_file_dict(bs, l), indent=1) + "\n", l

    @pytest.mark.parametrize("name", ["T", "O", "I"])
    def test_bytes_match_indent1_json(self, basis_sets, name, tmp_path):
        self.assert_bytes_match_json(basis_sets[name], tmp_path)

    def test_bytes_match_indent1_json_at_l45(self, sets45, tmp_path):
        self.assert_bytes_match_json(sets45["I"][1], tmp_path)

    def test_bytes_match_indent1_json_for_edge_floats(self, tmp_path):
        # signed zero, the smallest subnormal, exponent notation on both
        # sides of repr's switch, and a degree with no blocks
        h = np.array([[complex(-0.0, 5e-324), complex(1e16, 1.0),
                       complex(1e-300, -0.0)]])
        bs = BasisSet(group_name="T", l_max=1, seed=3,
                      blocks=[CoeffMatrix(p=4, l=1, n=1, H=h)])
        self.assert_bytes_match_json(bs, tmp_path)

    def test_non_finite_coefficient_refused_on_save(self, basis_sets,
                                                    tmp_path):
        bs = basis_sets["T"]
        target = bs.get(4, 3, 1)
        h = target.H.copy()
        h[1, 2] = np.nan
        bad = BasisSet(group_name="T", l_max=bs.l_max, seed=bs.seed,
                       blocks=[CoeffMatrix(p=4, l=3, n=1, H=h) if b is target
                               else b for b in bs.blocks])
        with pytest.raises(ValueError, match=r"\(p=4, l=3, n=1\)"):
            pio.save_basis_set(bad, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_save_load_round_trip(self, basis_sets, tmp_path):
        bs = basis_sets["O"]
        paths = pio.save_basis_set(bs, tmp_path)
        assert len(paths) == bs.l_max + 2          # l files + manifest
        loaded = pio.load_basis_set(tmp_path / "manifest_O.json")
        assert loaded.group_name == "O" and loaded.l_max == bs.l_max
        assert len(loaded.blocks) == len(bs.blocks)
        for b in bs.blocks:
            assert np.abs(loaded.get(b.p, b.l, b.n).H - b.H).max() == 0.0

    def test_save_load_save_byte_identical(self, basis_sets, tmp_path):
        bs = basis_sets["T"]
        pio.save_basis_set(bs, tmp_path / "a")
        loaded = pio.load_basis_set(tmp_path / "a" / "manifest_T.json")
        pio.save_basis_set(loaded, tmp_path / "b")
        for l in range(bs.l_max + 1):
            name = f"coeff_T_l{l:02d}.json"
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_truncated_file_fails_parse(self, basis_sets, tmp_path):
        pio.save_basis_set(basis_sets["T"], tmp_path)
        path = tmp_path / "coeff_T_l03.json"
        path.write_text(path.read_text()[:200])
        with pytest.raises(json.JSONDecodeError):
            pio.load_basis_set(tmp_path / "manifest_T.json")


class TestLoadValidation:
    @staticmethod
    def tampered(bs, out, edit):
        pio.save_basis_set(bs, out)
        path = out / "coeff_T_l03.json"
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data, indent=1) + "\n")
        return path

    def test_other_convention_id(self, basis_sets, tmp_path):
        def edit(data):
            data["meta"]["convention_id"] = "zyz-passive-v0"
        path = self.tampered(basis_sets["T"], tmp_path, edit)
        with pytest.raises(ValueError, match="convention_id") as err:
            pio.load_basis_set(tmp_path / "manifest_T.json")
        assert str(path) in str(err.value)

    def test_row_of_wrong_length(self, basis_sets, tmp_path):
        def edit(data):
            data["blocks"][0]["rows"][0].pop()
        path = self.tampered(basis_sets["T"], tmp_path, edit)
        with pytest.raises(ValueError, match="2l\\+1 = 7") as err:
            pio.load_basis_set(tmp_path / "manifest_T.json")
        assert str(path) in str(err.value)

    def test_non_finite_entry(self, basis_sets, tmp_path):
        def edit(data):
            data["blocks"][0]["rows"][0][2][1] = float("inf")
        path = self.tampered(basis_sets["T"], tmp_path, edit)
        with pytest.raises(ValueError, match="non-finite") as err:
            pio.load_basis_set(tmp_path / "manifest_T.json")
        assert str(path) in str(err.value)


class TestIcosphere:
    @pytest.mark.parametrize("subdiv", [0, 1, 3])
    def test_counts_and_manifoldness(self, subdiv):
        verts, faces = pio.icosphere(subdiv)
        f = 20 * 4 ** subdiv
        assert len(faces) == f
        # closed 2-manifold of genus 0: V - E + F = 2, E = 3F/2
        e = len({tuple(sorted(pair)) for tri in faces
                 for pair in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))})
        assert e == 3 * f // 2
        assert len(verts) - e + f == 2
        assert np.abs(np.linalg.norm(verts, axis=1) - 1.0).max() < 1e-12

    def test_every_edge_shared_by_two_faces(self):
        _, faces = pio.icosphere(1)
        count = {}
        for tri in faces:
            for pair in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                count[tuple(sorted(pair))] = count.get(tuple(sorted(pair)), 0) + 1
        assert set(count.values()) == {2}

    @pytest.mark.parametrize("subdiv", range(6))
    def test_matches_midpoint_loop(self, subdiv):
        # same faces and vertex order; the vectorised norm sums in another
        # order, so vertices may move by an ulp or two
        verts, faces = pio.icosphere(subdiv)
        ref_verts, ref_faces = oracles.icosphere(subdiv)
        assert np.array_equal(faces, ref_faces)
        assert np.abs(verts - ref_verts).max() <= 1e-15


class TestDisplacedMesh:
    def test_default_radii_span(self, basis_sets):
        b = basis_sets["O"].get(1, 4, 1)
        verts, faces, radii = pio.displaced_mesh(b, component=1, subdivisions=3)
        assert radii.min() == pytest.approx(0.5, abs=1e-6)
        assert radii.max() == pytest.approx(1.0, abs=1e-6)
        assert np.abs(np.linalg.norm(verts, axis=1) - radii).max() < 1e-12

    def test_constant_function_gives_sphere(self, basis_sets):
        b = basis_sets["T"].get(1, 0, 1)
        _, _, radii = pio.displaced_mesh(b, component=1, subdivisions=2)
        assert np.abs(radii - 0.75).max() < 1e-12
        assert radii.var() < 1e-12

    def test_explicit_kappas(self, basis_sets):
        b = basis_sets["I"].get(1, 6, 1)
        _, _, radii = pio.displaced_mesh(b, component=1, kappa1=1.0,
                                         kappa2=0.0, subdivisions=2)
        assert np.abs(radii - 1.0).max() < 1e-12

    def test_argument_validation(self, basis_sets):
        b = basis_sets["O"].get(1, 4, 1)
        with pytest.raises(ValueError):
            pio.displaced_mesh(b, component=2)
        with pytest.raises(ValueError):
            pio.displaced_mesh(b, kappa1=1.0)
        with pytest.raises(ValueError):
            pio.displaced_mesh(b, kappa1=-1.0, kappa2=0.1)

    def test_tetrahedral_symmetry_of_radii(self, atlas, basis_sets):
        # invariant-irrep surface radii are unchanged under every group element
        group, _ = atlas["T"]
        b = basis_sets["T"].get(1, 6, 1)
        verts, _ = pio.icosphere(2)
        from polybasis import wigner
        f = b.evaluate(*wigner.spherical_from_cartesian(verts))[0]
        for g in group.elements:
            fg = b.evaluate(*wigner.spherical_from_cartesian(verts @ g))[0]
            assert np.abs(f - fg).max() < 1e-10


class TestObj:
    @pytest.mark.parametrize("subdiv", [0, 3])
    def test_bytes_match_fstring_writer(self, basis_sets, tmp_path, subdiv):
        b = basis_sets["I"].get(1, 6, 1)
        verts, faces, radii = pio.displaced_mesh(b, subdivisions=subdiv)
        for r in (radii, None):
            pio.write_obj(tmp_path / "a.obj", verts, faces, r)
            oracles.write_obj(tmp_path / "b.obj", verts, faces, r)
            assert ((tmp_path / "a.obj").read_bytes()
                    == (tmp_path / "b.obj").read_bytes())

    def test_round_trip(self, basis_sets, tmp_path):
        b = basis_sets["O"].get(4, 3, 1)
        verts, faces, radii = pio.displaced_mesh(b, component=2, subdivisions=2)
        path = tmp_path / "m.obj"
        pio.write_obj(path, verts, faces, radii)
        v2, f2 = pio.read_obj(path)
        assert np.abs(v2 - verts).max() == 0.0
        assert (f2 == faces).all()

    def test_obj_is_plain_text_with_radii_comments(self, basis_sets, tmp_path):
        b = basis_sets["O"].get(1, 0, 1)
        verts, faces, radii = pio.displaced_mesh(b, subdivisions=0)
        path = tmp_path / "m.obj"
        pio.write_obj(path, verts, faces, radii)
        text = path.read_text()
        assert text.count("\nv ") + text.startswith("v ") == len(verts)
        assert text.count("\nf ") == len(faces)
        assert text.count("# r ") == len(radii)
        # indices are 1-based and in range
        for line in text.splitlines():
            if line.startswith("f "):
                idx = [int(t) for t in line.split()[1:]]
                assert all(1 <= i <= len(verts) for i in idx)
