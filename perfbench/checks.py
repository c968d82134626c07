"""Checks of polybasis outputs that do not use polybasis code.

Everything here reads the program's files with the standard ``json``
module and recomputes what it needs with its own numerics: spherical
harmonics from a fully normalised associated-Legendre recurrence, SO(3)
characters from rotation angles, the tetrahedral group from its signed
permutation matrices. Each check returns ``Finding`` records; an operation
fails when any finding exceeds its tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONSTRUCTION_TOL = 1e-10    # the per-degree tolerance the package README states
END_TO_END_TOL = 1e-8
COUNT_TOL = 0.5             # row and vertex counts are integers


@dataclass(frozen=True)
class Finding:
    name: str
    residual: float
    tol: float
    where: str = ""

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol   # NaN fails

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        at = f" at {self.where}" if self.where else ""
        return f"{self.name}={self.residual:.3e} (tol {self.tol:.0e}){at} {verdict}"


def failures(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings if not f.ok]


def worst_residual(findings: list[Finding]) -> float:
    """Largest residual, a NaN counting as infinite."""
    return max((math.inf if math.isnan(f.residual) else f.residual for f in findings),
               default=0.0)


# -- spherical harmonics ------------------------------------------------------

def sh_degrees(l_max: int, theta: np.ndarray, phi: np.ndarray):
    """Yield (l, Y^l) for l = 0..l_max, Condon-Shortley phase, Y^l of shape
    (2l+1, n) with rows m = -l..l.

    Fully normalised associated Legendre functions by the standard
    three-term recurrence in l at fixed m, seeded by the sectoral values
    P_mm = -sqrt((2m+1)/(2m)) sin(theta) P_{m-1,m-1}.
    """
    x = np.cos(np.ravel(theta))
    s = np.sin(np.ravel(theta))
    e = np.exp(1j * np.outer(np.arange(l_max + 1), np.ravel(phi)))
    prev2 = np.zeros((l_max + 1, x.size))
    prev1 = np.zeros((l_max + 1, x.size))
    for l in range(l_max + 1):
        cur = np.zeros((l_max + 1, x.size))
        if l == 0:
            cur[0] = 1.0 / math.sqrt(4.0 * math.pi)
        else:
            cur[l] = -math.sqrt((2 * l + 1) / (2 * l)) * s * prev1[l - 1]
            m = np.arange(l)
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(np.maximum((l - 1.0) ** 2 - m * m, 0.0)
                        / max(4.0 * (l - 1) ** 2 - 1.0, 1.0))
            cur[:l] = a[:, None] * (x * prev1[:l] - b[:, None] * prev2[:l])
        pos = cur[:l + 1] * e[:l + 1]                       # m = 0..l
        y = np.empty((2 * l + 1, x.size), dtype=complex)
        y[l:] = pos
        signs = (-1.0) ** np.arange(1, l + 1)
        y[:l] = (signs[:, None] * pos[1:].conj())[::-1]     # Y_{-m} = (-1)^m conj(Y_m)
        yield l, y
        prev2, prev1 = prev1, cur


def sh_vector(l: int, theta, phi) -> np.ndarray:
    """Y^l alone, shape (2l+1, n)."""
    for deg, y in sh_degrees(l, np.asarray(theta), np.asarray(phi)):
        if deg == l:
            return y
    raise ValueError("l must be non-negative")


def angles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = np.linalg.norm(points, axis=1)
    return (np.arccos(np.clip(points[:, 2] / r, -1.0, 1.0)),
            np.arctan2(points[:, 1], points[:, 0]))


def random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# -- groups and characters ----------------------------------------------------

def so3_character(l: int, rotations: np.ndarray) -> np.ndarray:
    """chi_l(theta) = sin((2l+1) theta/2) / sin(theta/2) from tr R = 1 + 2 cos theta."""
    cos_t = np.clip((np.trace(rotations, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    out = np.full(theta.shape, float(2 * l + 1))
    mask = np.sin(theta / 2.0) > 1e-9
    out[mask] = (np.sin((2 * l + 1) * theta[mask] / 2.0)
                 / np.sin(theta[mask] / 2.0))
    return out


def tetrahedral_rotations() -> np.ndarray:
    """The 12 rotations of the tetrahedron with vertices (1,1,1),
    (1,-1,-1), (-1,1,-1), (-1,-1,1): cyclic permutations of the axes
    times sign changes with determinant +1."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    signs = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    out = []
    for perm in perms:
        for sg in signs:
            r = np.zeros((3, 3))
            for row, col in enumerate(perm):
                r[row, col] = sg[row]
            out.append(r)
    return np.array(out)


def tetrahedral_real_row_count(l: int, rotations: np.ndarray) -> int:
    """N_1 + 3 N_4: the trivial irrep (character 1) and the 3-dimensional
    irrep (character tr R) of T restricted from degree l."""
    chi = so3_character(l, rotations)
    n1 = chi.sum() / len(rotations)
    n4 = (chi * np.trace(rotations, axis1=1, axis2=2)).sum() / len(rotations)
    return int(round(n1)) + 3 * int(round(n4))


# -- reading the program's files ----------------------------------------------

def read_group(path: Path) -> dict:
    """Rotation matrices and irrep characters/dimensions from group_<G>.json."""
    data = json.loads(Path(path).read_text())
    rots = np.array(data["elements"], dtype=float).reshape(-1, 3, 3)
    irreps = {}
    for ir in data["irreps"]:
        d = ir["dim"]
        mats = np.array(ir["matrices"], dtype=float)
        mats = (mats[..., 0] + 1j * mats[..., 1]).reshape(-1, d, d)
        irreps[ir["p"]] = (d, np.trace(mats, axis1=1, axis2=2))
    return {"name": data["name"], "rotations": rots, "irreps": irreps}


def read_coefficients(manifest: Path) -> tuple[dict, dict[int, list]]:
    """Manifest and {l: [(p, n, H), ...]} sorted by (p, n)."""
    manifest = Path(manifest)
    meta = json.loads(manifest.read_text())
    by_l: dict[int, list] = {}
    for name in meta["files"]:
        data = json.loads((manifest.parent / name).read_text())
        blocks = []
        for blk in data["blocks"]:
            rows = np.array(blk["rows"], dtype=float)
            blocks.append((blk["p"], blk["n"], rows[..., 0] + 1j * rows[..., 1]))
        by_l[data["l"]] = sorted(blocks, key=lambda b: (b[0], b[1]))
    return meta, by_l


# -- coefficient-file checks --------------------------------------------------

def coefficient_findings(by_l: dict[int, list], l_max: int) -> list[Finding]:
    """Per-degree Gram |H H^H - I| and the realness row condition
    conj(c_m) = (-1)^m c_{-m}, each with the (p, l) of its worst entry."""
    gram, gram_at = 0.0, ""
    real, real_at = 0.0, ""
    missing = [l for l in range(l_max + 1) if not by_l.get(l)]
    for l, blocks in sorted(by_l.items()):
        if not blocks:
            continue
        h = np.vstack([b[2] for b in blocks])
        owner = [b[0] for b in blocks for _ in range(b[2].shape[0])]
        dev = np.abs(h @ h.conj().T - np.eye(len(h)))
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        if dev[i, j] > gram:
            gram, gram_at = float(dev[i, j]), f"p={owner[i]}, l={l}"
        signs = (-1.0) ** np.arange(-l, l + 1)
        rdev = np.abs(h.conj() - signs * h[:, ::-1]).max(axis=1)
        if rdev.max() > real:
            real, real_at = float(rdev.max()), f"p={owner[int(rdev.argmax())]}, l={l}"
    return [Finding("gram_per_degree", gram, CONSTRUCTION_TOL, gram_at),
            Finding("realness_rows", real, CONSTRUCTION_TOL, real_at),
            Finding("degrees_missing", float(len(missing)), COUNT_TOL,
                    f"l={missing[:5]}" if missing else "")]


def row_count_findings(by_l: dict[int, list], group: dict, l_max: int) -> list[Finding]:
    """Rows per degree: 2l+1 for O and I, N_1 + 3 N_4 for T; every block
    has the dimension of its irrep."""
    worst, at = 0, ""
    for l in range(l_max + 1):
        blocks = by_l.get(l, [])
        rows = sum(b[2].shape[0] for b in blocks)
        if group["name"] == "T":
            want = tetrahedral_real_row_count(l, group["rotations"])
        else:
            want = 2 * l + 1
        bad_dims = [b for b in blocks if b[2].shape != (group["irreps"][b[0]][0], 2 * l + 1)]
        err = abs(rows - want) + len(bad_dims)
        if err > worst:
            worst, at = err, f"l={l}: {rows} rows, want {want}"
    return [Finding("rows_per_degree", float(worst), COUNT_TOL, at)]


def transformation_findings(by_l: dict[int, list], group: dict,
                            points: np.ndarray) -> list[Finding]:
    """I(R_g^-1 x) = Gamma(g)^T I(x) at sample points, Gamma recovered by
    least squares; Gamma(g) orthogonal with trace equal to the character
    of the block's irrep p (of the same dimension)."""
    rots = group["rotations"]
    n_s, n_g = len(points), len(rots)
    rotated = np.concatenate([points] + [points @ r for r in rots])
    theta, phi = angles(rotated)
    law = orth = char = imag = 0.0
    law_at = orth_at = char_at = imag_at = ""
    for l, y in sh_degrees(max(by_l), theta, phi):
        for p, n, h in by_l.get(l, []):
            vals = h @ y                                  # (d, (1 + N_g) n_s)
            where = f"p={p}, l={l}, n={n}"
            im = float(np.abs(vals.imag).max())
            if im > imag:
                imag, imag_at = im, where
            f = vals.real
            base = f[:, :n_s]
            moved = f[:, n_s:].reshape(len(h), n_g, n_s).transpose(1, 0, 2)
            gamma_t = moved @ np.linalg.pinv(base)        # (N_g, d, d) = Gamma^T
            res = float(np.abs(moved - gamma_t @ base).max())
            if res > law:
                law, law_at = res, where
            eye = np.eye(len(h))
            od = float(np.abs(gamma_t @ gamma_t.transpose(0, 2, 1) - eye).max())
            if od > orth:
                orth, orth_at = od, where
            dim, chi = group["irreps"][p]
            cd = (float(np.abs(np.trace(gamma_t, axis1=1, axis2=2) - chi).max())
                  if dim == len(h) else math.inf)
            if cd > char:
                char, char_at = cd, where
    return [Finding("transformation_law", law, END_TO_END_TOL, law_at),
            Finding("gamma_orthogonal", orth, END_TO_END_TOL, orth_at),
            Finding("gamma_character", char, END_TO_END_TOL, char_at),
            Finding("pointwise_imag", imag, END_TO_END_TOL, imag_at)]


def check_basis_dir(out_dir: Path, group_name: str, points: np.ndarray) -> list[Finding]:
    """All checks of one ``polybasis basis`` output directory."""
    out_dir = Path(out_dir)
    group = read_group(out_dir / f"group_{group_name}.json")
    meta, by_l = read_coefficients(out_dir / f"manifest_{group_name}.json")
    return (coefficient_findings(by_l, meta["l_max"])
            + row_count_findings(by_l, group, meta["l_max"])
            + transformation_findings(by_l, group, points))


# -- OBJ checks -----------------------------------------------------------------

def read_obj(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices, faces (0-based) and the '# r' radius comments."""
    verts, faces, radii = [], [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(t) for t in line.split()[1:4]])
        elif line.startswith("f "):
            faces.append([int(t.split("/")[0]) - 1 for t in line.split()[1:4]])
        elif line.startswith("# r "):
            radii.append(float(line[4:]))
    return np.array(verts), np.array(faces, dtype=int), np.array(radii)


def mesh_geometry_findings(verts: np.ndarray, faces: np.ndarray,
                           radii: np.ndarray, subdiv: int) -> list[Finding]:
    """Vertex and face counts 10*4^s+2 and 20*4^s, |v| = r, r spanning [0.5, 1]."""
    count = abs(len(verts) - (10 * 4 ** subdiv + 2)) + abs(len(faces) - 20 * 4 ** subdiv)
    count += abs(len(radii) - len(verts))
    if len(faces) and (faces.min() < 0 or faces.max() >= len(verts)):
        count += 1
    out = [Finding("mesh_counts", float(count), COUNT_TOL,
                   f"{len(verts)} vertices, {len(faces)} faces")]
    if count:
        return out
    norm = np.linalg.norm(verts, axis=1)
    out.append(Finding("vertex_norm_is_radius", float(np.abs(norm - radii).max()),
                       CONSTRUCTION_TOL))
    out.append(Finding("radius_range", max(abs(radii.min() - 0.5), abs(radii.max() - 1.0)),
                       CONSTRUCTION_TOL, f"[{radii.min():.17g}, {radii.max():.17g}]"))
    return out


def vertex_permutation(unit: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """perm with unit[perm[i]] = unit[i] @ rot (R^-1 applied row-wise)."""
    key = {tuple(k): i for i, k in enumerate(np.round(unit * 1e6).astype(np.int64))}
    moved = unit @ rot
    perm = np.array([key.get(tuple(k), -1)
                     for k in np.round(moved * 1e6).astype(np.int64)])
    if (perm < 0).any() or np.abs(unit[perm] - moved).max() > 1e-12:
        raise ValueError("vertex set is not invariant under the rotation")
    return perm


def invariance_findings(verts: np.ndarray, radii: np.ndarray,
                        rotations: np.ndarray) -> list[Finding]:
    """Radii of a p = 1 export unchanged when the group permutes vertices."""
    unit = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    worst = 0.0
    for r in rotations:
        try:
            perm = vertex_permutation(unit, r)
        except ValueError:
            return [Finding("radii_group_invariant", math.inf, CONSTRUCTION_TOL,
                            "vertices not permuted by the group")]
        worst = max(worst, float(np.abs(radii[perm] - radii).max()))
    return [Finding("radii_group_invariant", worst, CONSTRUCTION_TOL)]


def evaluation_findings(verts: np.ndarray, radii: np.ndarray, row: np.ndarray,
                        l: int, spot: np.ndarray) -> list[Finding]:
    """Radii against kappa1 + kappa2 * Re(row . Y^l) from this module's
    harmonics, with kappa chosen so r spans [0.5, 1]; mpmath checks the
    harmonics themselves at the vertices ``spot``."""
    import mpmath

    theta, phi = angles(verts)
    # In chunks, so that the check's memory stays below the program's.
    f = np.concatenate([(row @ sh_vector(l, theta[i:i + 1024], phi[i:i + 1024])).real
                        for i in range(0, len(theta), 1024)])
    k2 = 0.5 / (f.max() - f.min())
    predicted = 0.5 + k2 * (f - f.min())
    out = [Finding("radii_vs_own_harmonics", float(np.abs(predicted - radii).max()),
                   CONSTRUCTION_TOL)]
    worst = 0.0
    for i in spot:
        ref = sum(complex(c) * complex(mpmath.spherharm(l, m, theta[i], phi[i]))
                  for m, c in zip(range(-l, l + 1), row))
        worst = max(worst, abs(ref.real - f[i]), abs(ref.imag))
    out.append(Finding("harmonics_vs_mpmath", worst, CONSTRUCTION_TOL,
                       f"{len(spot)} vertices"))
    return out
