"""The benchmark's own checks must pass intact outputs and reject broken ones.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import checks  # noqa: E402
import run  # noqa: E402

SEED = 3
L_MAX = 6
SUBDIV = 3
POINTS = checks.random_unit_vectors(np.random.default_rng(0), 12)


def failing(findings) -> set[str]:
    return {f.name for f in checks.failures(findings)}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def built(tmp_path_factory, cli):
    """T and I coefficient files up to L_MAX, written by the program."""
    root = tmp_path_factory.mktemp("built")
    for g in ("T", "I"):
        code, out = run.run_cli(cli, ["basis", "--group", g, "--lmax", str(L_MAX),
                                      "--seed", str(SEED), "--no-verify",
                                      "--out", str(root / g)])
        assert code == 0, out
    return root


def copy_of(built: Path, tmp_path: Path, g: str) -> Path:
    dst = tmp_path / g
    shutil.copytree(built / g, dst)
    return dst


def test_harmonics_match_scipy():
    from scipy.special import sph_harm_y

    rng = np.random.default_rng(1)
    theta, phi = rng.uniform(0, np.pi, 40), rng.uniform(-np.pi, np.pi, 40)
    for l, y in checks.sh_degrees(45, theta, phi):
        ref = np.array([sph_harm_y(l, m, theta, phi) for m in range(-l, l + 1)])
        assert np.abs(y - ref).max() < 1e-12, l


def test_tetrahedral_row_count_from_characters():
    rots = checks.tetrahedral_rotations()
    # 2l+1 - 2 N_2: the complex pair is absent only at l = 0, 1, 3.
    assert [checks.tetrahedral_real_row_count(l, rots) for l in range(8)] == \
        [1, 3, 3, 7, 7, 9, 11, 13]


@pytest.mark.parametrize("g", ["T", "I"])
def test_intact_coefficients_pass(built, g):
    assert failing(checks.check_basis_dir(built / g, g, POINTS)) == set()


def test_coefficient_perturbed_by_1e6_is_rejected(built, tmp_path):
    out = copy_of(built, tmp_path, "I")
    path = out / "coeff_I_l05.json"
    data = json.loads(path.read_text())
    row = data["blocks"][0]["rows"][0]
    mags = [abs(complex(*c)) if i != 5 else 0.0 for i, c in enumerate(row)]
    row[int(np.argmax(mags))][0] += 1e-6
    path.write_text(json.dumps(data))
    bad = failing(checks.check_basis_dir(out, "I", POINTS))
    assert {"gram_per_degree", "realness_rows"} <= bad


def test_tetrahedral_set_missing_p4_l3_multiplet_is_rejected(built, tmp_path):
    out = copy_of(built, tmp_path, "T")
    path = out / "coeff_T_l03.json"
    data = json.loads(path.read_text())
    data["blocks"] = [b for b in data["blocks"] if b["p"] != 4]
    path.write_text(json.dumps(data))
    assert failing(checks.check_basis_dir(out, "T", POINTS)) == {"rows_per_degree"}


def _mesh(cli, tmp_path, args):
    obj = tmp_path / "m.obj"
    code, out = run.run_cli(cli, ["mesh", *args, "--l", str(L_MAX), "--subdiv", str(SUBDIV),
                                  "--seed", str(SEED), "--out", str(obj)])
    assert code == 0, out
    return checks.read_obj(obj)


def _change_one_radius(verts, radii):
    """Move one vertex, not at either end of the radius range, by 1e-6
    along its ray and update its radius comment to match."""
    verts, radii = verts.copy(), radii.copy()
    i = int(np.argsort(radii)[len(radii) // 2])
    verts[i] *= (radii[i] + 1e-6) / radii[i]
    radii[i] += 1e-6
    return verts, radii


def test_obj_with_one_radius_changed_is_rejected_t(cli, tmp_path):
    verts, faces, radii = _mesh(cli, tmp_path, ["--group", "T", "--p", "1"])
    rots = checks.tetrahedral_rotations()

    def all_findings(v, r):
        return (checks.mesh_geometry_findings(v, faces, r, SUBDIV)
                + checks.invariance_findings(v, r, rots))

    assert failing(all_findings(verts, radii)) == set()
    bad_r = radii.copy()
    bad_r[7] += 1e-6
    assert "vertex_norm_is_radius" in failing(all_findings(verts, bad_r))
    assert failing(all_findings(*_change_one_radius(verts, radii))) == {"radii_group_invariant"}


def test_obj_with_one_radius_changed_is_rejected_i(cli, built, tmp_path):
    data = json.loads((built / "I" / f"coeff_I_l{L_MAX:02d}.json").read_text())
    blk = data["blocks"][-1]
    rows = np.array(blk["rows"], dtype=float)
    row = rows[0, :, 0] + 1j * rows[0, :, 1]
    verts, faces, radii = _mesh(cli, tmp_path, ["--group", "I", "--p", str(blk["p"]),
                                                "--n", str(blk["n"])])
    spot = np.array([0, 5])

    def all_findings(v, r):
        return (checks.mesh_geometry_findings(v, faces, r, SUBDIV)
                + checks.evaluation_findings(v, r, row, L_MAX, spot))

    assert failing(all_findings(verts, radii)) == set()
    assert failing(all_findings(*_change_one_radius(verts, radii))) == {"radii_vs_own_harmonics"}


def test_verifier_exiting_0_on_corrupted_copy_is_a_failed_operation(cli, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REVERIFY_LMAX", 4)
    workload = run.Reverify(cli, tmp_path, SEED)
    _, results = run.run_pass(workload, None)
    assert [o.failed for o in run.check_pass(workload, results)] == [[]] * 4

    from polybasis.verify import VerificationReport
    monkeypatch.setattr(cli, "verify_basis_set",
                        lambda basis_set, *a, **k: VerificationReport(basis_set.group_name))
    _, results = run.run_pass(workload, None)
    outcomes = run.check_pass(workload, results)
    assert [bool(o.failed) for o in outcomes] == [False, False, False, True]
    assert outcomes[-1].failed[0].name == "exit_code"


def test_only_the_named_fault_is_an_expected_failure():
    op = run.Op("basis O", [], lambda c, o: [], known_fault=run.KNOWN_FAULT)
    at_fault = checks.Finding("gram_per_degree", 1.2e-10, 1e-10, "p=5, l=43")
    elsewhere = checks.Finding("gram_per_degree", 1.2e-10, 1e-10, "p=4, l=40")
    assert run.Outcome(op, [at_fault]).expected_failure
    assert not run.Outcome(op, [elsewhere]).expected_failure
    assert not run.Outcome(run.Op("basis T", [], op.check), [at_fault]).expected_failure
