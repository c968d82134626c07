import json

import numpy as np
import pytest
from click.testing import CliRunner

from polybasis import io as pio
from polybasis.basis import build_basis
from polybasis.cli import main


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def basis_out(runner, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "out"
    res = runner.invoke(main, ["basis", "--group", "O", "--lmax", "6",
                               "--seed", "7", "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out


class TestBasisCommand:
    def test_writes_expected_files(self, basis_out):
        names = {p.name for p in basis_out.iterdir()}
        assert {"manifest_O.json", "group_O.json", "report_O.json"} <= names
        assert {f"coeff_O_l{l:02d}.json" for l in range(7)} <= names

    def test_report_passed(self, basis_out):
        report = json.loads((basis_out / "report_O.json").read_text())
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} >= {
            "orthonormality_gram_per_l", "pointwise_realness",
            "transformation_law", "irrep_recovery_from_functions"}

    def test_deterministic_reruns_byte_identical(self, runner, basis_out,
                                                 tmp_path):
        out2 = tmp_path / "again"
        res = runner.invoke(main, ["basis", "--group", "O", "--lmax", "6",
                                   "--seed", "7", "--out", str(out2)])
        assert res.exit_code == 0, res.output
        for l in range(7):
            name = f"coeff_O_l{l:02d}.json"
            assert ((basis_out / name).read_bytes()
                    == (out2 / name).read_bytes())

    def test_seed_from_environment(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("POLYBASIS_SEED", "7")
        out = tmp_path / "env"
        res = runner.invoke(main, ["basis", "--group", "T", "--lmax", "2",
                                   "--out", str(out), "--no-verify"])
        assert res.exit_code == 0, res.output
        data = json.loads((out / "coeff_T_l00.json").read_text())
        assert data["meta"]["seed"] == 7

    def test_rejects_bad_group_and_lmax(self, runner):
        assert runner.invoke(main, ["basis", "--group", "X", "--lmax", "2"]
                             ).exit_code == 2
        assert runner.invoke(main, ["basis", "--group", "O", "--lmax", "99"]
                             ).exit_code == 2


class TestVerifyCommand:
    def test_passes_on_good_files(self, runner, basis_out):
        res = runner.invoke(main, ["verify", str(basis_out / "manifest_O.json")])
        assert res.exit_code == 0, res.output
        assert "pass" in res.output

    def test_fails_on_tampered_file(self, runner, basis_out, tmp_path):
        import shutil
        bad = tmp_path / "bad"
        shutil.copytree(basis_out, bad)
        path = bad / "coeff_O_l04.json"
        data = json.loads(path.read_text())
        data["blocks"][0]["rows"][0][0][0] *= -1.0       # flip one sign
        path.write_text(json.dumps(data, indent=1) + "\n")
        res = runner.invoke(main, ["verify", str(bad / "manifest_O.json")])
        assert res.exit_code == 1
        assert "FAIL" in res.output

    def test_truncated_file_errors(self, runner, basis_out, tmp_path):
        import shutil
        bad = tmp_path / "trunc"
        shutil.copytree(basis_out, bad)
        path = bad / "coeff_O_l02.json"
        path.write_text(path.read_text()[:120])
        res = runner.invoke(main, ["verify", str(bad / "manifest_O.json")])
        assert res.exit_code != 0
        assert isinstance(res.exception, json.JSONDecodeError)

    def test_refused_file_is_exit_2(self, runner, basis_out, tmp_path):
        import shutil
        bad = tmp_path / "other_convention"
        shutil.copytree(basis_out, bad)
        path = bad / "coeff_O_l03.json"
        data = json.loads(path.read_text())
        data["meta"]["convention_id"] = "zyz-passive-v0"
        path.write_text(json.dumps(data, indent=1) + "\n")
        res = runner.invoke(main, ["verify", str(bad / "manifest_O.json")])
        assert res.exit_code == 2
        assert "convention_id" in res.output and str(path) in res.output

    def test_missing_manifest_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["verify", str(tmp_path / "nope.json")])
        assert res.exit_code == 2


class TestMeshCommand:
    def test_writes_valid_obj(self, runner, tmp_path):
        out = tmp_path / "surf.obj"
        res = runner.invoke(main, ["mesh", "--group", "I", "--p", "1",
                                   "--l", "6", "--subdiv", "2", "--seed", "7",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        verts, faces = pio.read_obj(out)
        assert len(faces) == 20 * 4 ** 2
        r = np.linalg.norm(verts, axis=1)
        assert r.min() == pytest.approx(0.5, abs=1e-6)
        assert r.max() == pytest.approx(1.0, abs=1e-6)

    def test_l0_sphere(self, runner, tmp_path):
        out = tmp_path / "sphere.obj"
        res = runner.invoke(main, ["mesh", "--group", "O", "--p", "1",
                                   "--l", "0", "--subdiv", "1",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        verts, _ = pio.read_obj(out)
        r = np.linalg.norm(verts, axis=1)
        assert r.var() < 1e-12
        assert np.abs(r - 0.75).max() < 1e-9

    def test_absent_block_lists_available(self, runner, tmp_path):
        res = runner.invoke(main, ["mesh", "--group", "O", "--p", "2",
                                   "--l", "0", "--out",
                                   str(tmp_path / "x.obj")])
        assert res.exit_code == 1
        assert "available" in res.output

    def test_complex_irrep_lists_real_ones(self, runner, tmp_path):
        res = runner.invoke(main, ["mesh", "--group", "T", "--p", "2",
                                   "--l", "6", "--out",
                                   str(tmp_path / "x.obj")])
        assert res.exit_code == 1
        assert "no real irrep p=2" in res.output
        assert "[1, 4]" in res.output

    def test_block_matches_full_set(self, runner, atlas, sets45, tmp_path):
        # mesh builds only its (p, l); the exported function is bit-identical
        # to the same block of a whole basis set at the same seed
        group, _ = atlas["I"]
        real, bs = sets45["I"]
        for b in build_basis(real[5], group, 45):
            assert np.array_equal(b.H, bs.get(5, 45, b.n).H)
        out = tmp_path / "cli.obj"
        res = runner.invoke(main, ["mesh", "--group", "I", "--p", "5",
                                   "--l", "45", "--n", "2", "--j", "3",
                                   "--subdiv", "2", "--seed", "7",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        verts, faces, radii = pio.displaced_mesh(bs.get(5, 45, 2), component=3,
                                                 subdivisions=2)
        ref = tmp_path / "ref.obj"
        pio.write_obj(ref, verts, faces, radii)
        assert out.read_bytes() == ref.read_bytes()

    def test_component_out_of_range(self, runner, tmp_path):
        res = runner.invoke(main, ["mesh", "--group", "O", "--p", "1",
                                   "--l", "4", "--j", "3", "--out",
                                   str(tmp_path / "x.obj")])
        assert res.exit_code == 1
        assert "out of range" in res.output
