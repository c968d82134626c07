"""Coefficient-file persistence and OBJ mesh export.

Coefficients are stored one JSON file per degree. The files are
byte-identical to ``json.dumps(..., indent=1) + "\n"`` of the documented
schema, but each block is written by one ``%``-format call with one
``%r`` per real and imaginary part: ``%r`` is ``float.__repr__``, the
shortest round-trip string that ``json`` writes, so save -> load -> save
is byte-identical too. Non-finite coefficients are refused on save, and
files with another convention, a malformed block or a non-finite entry
are refused on load. Meshes are subdivided icospheres displaced radially
by one basis-function component, written as OBJ text the same way, one
``%``-format per record type, viewable in any standard OBJ reader.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .basis import BasisSet, CoeffMatrix
from . import wigner


# -- coefficient files ------------------------------------------------------

CONVENTION_ID = "zyz-active-condon-shortley-v1"


class CoeffFileError(ValueError):
    """A coefficient file that load_basis_set refuses; the message names it."""


def _block_text(b: CoeffMatrix) -> str:
    """One block as json.dumps(indent=1) lays it out inside "blocks"."""
    h = np.ascontiguousarray(b.H, dtype=complex)
    pair = "\n     [\n      %r,\n      %r\n     ]"
    row = "\n    [" + ",".join([pair] * h.shape[1]) + "\n    ]"
    template = ",".join([row] * h.shape[0])
    return (f'  {{\n   "p": {b.p},\n   "n": {b.n},\n   "rows": ['
            + template % tuple(h.view(float).ravel().tolist())
            + "\n   ]\n  }")


def _coeff_file_text(basis_set: BasisSet, l: int) -> str:
    blocks = sorted(basis_set.select(l=l), key=lambda b: (b.p, b.n))
    meta = {"seed": basis_set.seed,
            "tolerances": {"construction": 1e-10, "end_to_end": 1e-8},
            "convention_id": CONVENTION_ID}
    body = ("[\n" + ",\n".join(_block_text(b) for b in blocks) + "\n ]"
            if blocks else "[]")
    meta_text = json.dumps(meta, indent=1).replace("\n", "\n ")
    return (f'{{\n "group": {json.dumps(basis_set.group_name)},\n "l": {l},\n'
            f' "blocks": {body},\n "meta": {meta_text}\n}}\n')


def save_basis_set(basis_set: BasisSet, out_dir: str | Path) -> list[Path]:
    """One coefficient file per degree plus a manifest; returns the paths.

    Raises ValueError, before writing anything, if a block holds a NaN or
    an infinity, which JSON cannot represent.
    """
    for b in basis_set.blocks:
        if not np.isfinite(b.H).all():
            raise ValueError(f"non-finite coefficient in block "
                             f"(p={b.p}, l={b.l}, n={b.n}); nothing written")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for l in range(basis_set.l_max + 1):
        path = out / f"coeff_{basis_set.group_name}_l{l:02d}.json"
        path.write_text(_coeff_file_text(basis_set, l))
        paths.append(path)
    manifest = {
        "group": basis_set.group_name,
        "l_max": basis_set.l_max,
        "seed": basis_set.seed,
        "files": [p.name for p in paths],
    }
    mpath = out / f"manifest_{basis_set.group_name}.json"
    mpath.write_text(json.dumps(manifest, indent=1) + "\n")
    return paths + [mpath]


def _block_matrix(path: Path, l: int, blk: dict) -> np.ndarray:
    """A block's rows as a (d, 2l+1) complex matrix, or CoeffFileError."""
    where = f"{path}: block (p={blk['p']}, l={l}, n={blk['n']})"
    m = 2 * l + 1
    for i, row in enumerate(blk["rows"]):
        if len(row) != m:
            raise CoeffFileError(f"{where}: row {i + 1} has {len(row)} "
                                 f"entries, expected 2l+1 = {m}")
    try:
        a = np.array(blk["rows"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CoeffFileError(f"{where}: entries are not [re, im] "
                             f"number pairs ({exc})") from None
    if a.shape[1:] != (m, 2):
        raise CoeffFileError(f"{where}: rows of shape {a.shape[1:]}, "
                             f"expected ({m}, 2)")
    if not np.isfinite(a).all():
        raise CoeffFileError(f"{where}: non-finite coefficient")
    return a.view(complex).reshape(len(a), m)


def load_basis_set(manifest_path: str | Path) -> BasisSet:
    """The basis set a manifest describes.

    Raises CoeffFileError, naming the file, for a convention_id other than
    CONVENTION_ID, a row whose length is not 2l+1, or a non-finite entry.
    """
    mpath = Path(manifest_path)
    manifest = json.loads(mpath.read_text())
    bs = BasisSet(group_name=manifest["group"], l_max=manifest["l_max"],
                  seed=manifest["seed"])
    for name in manifest["files"]:
        if name.startswith("manifest"):
            continue
        path = mpath.parent / name
        data = json.loads(path.read_text())
        convention = data.get("meta", {}).get("convention_id")
        if convention != CONVENTION_ID:
            raise CoeffFileError(f"{path}: convention_id {convention!r}, "
                                 f"expected {CONVENTION_ID!r}")
        l = data["l"]
        for blk in data["blocks"]:
            bs.blocks.append(CoeffMatrix(p=blk["p"], l=l, n=blk["n"],
                                         H=_block_matrix(path, l, blk)))
    bs.blocks.sort(key=lambda b: (b.l, b.p, b.n))
    return bs


# -- icosphere mesh ---------------------------------------------------------

def icosphere(subdivisions: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Unit sphere triangulation from a subdivided icosahedron.

    Returns (vertices (n,3), faces (m,3) int).  Closed genus-0 manifold;
    m = 20 * 4^subdivisions.
    """
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    faces = np.array(faces, dtype=int)
    for _ in range(subdivisions):
        # Edges ab, bc, ca of each face in order; each new midpoint is
        # numbered by the first face edge that reaches it.
        n = len(verts)
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        key = edges.min(axis=1) * n + edges.max(axis=1)
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
        ends = edges[first[order]]
        mid = verts[ends[:, 0]] + verts[ends[:, 1]]
        verts = np.vstack([verts, mid / np.linalg.norm(mid, axis=1,
                                                        keepdims=True)])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return verts, faces


def displaced_mesh(basis: CoeffMatrix, component: int = 1,
                   kappa1: float | None = None, kappa2: float | None = None,
                   subdivisions: int = 5):
    """Sphere displaced to r = kappa1 + kappa2 * I[component](theta, phi).

    With both kappas unset, they are chosen so the vertex radii span
    exactly [0.5, 1.0]; a constant function degenerates to the sphere of
    radius 0.75.  Returns (vertices, faces, radii).
    """
    if not 1 <= component <= basis.dim:
        raise ValueError(f"component must be in 1..{basis.dim}")
    verts, faces = icosphere(subdivisions)
    theta, phi = wigner.spherical_from_cartesian(verts)
    f = basis.evaluate(theta, phi)[component - 1]
    if kappa1 is None and kappa2 is None:
        lo, hi = float(f.min()), float(f.max())
        if hi - lo < 1e-12:
            kappa1, kappa2 = 0.75, 0.0
        else:
            kappa2 = 0.5 / (hi - lo)
            kappa1 = 0.5 - kappa2 * lo
    elif kappa1 is None or kappa2 is None:
        raise ValueError("set both kappa1 and kappa2, or neither")
    if kappa1 <= 0:
        raise ValueError("kappa1 must be positive")
    radii = kappa1 + kappa2 * f
    return verts * radii[:, None], faces, radii


def write_obj(path: str | Path, vertices: np.ndarray, faces: np.ndarray,
              radii: np.ndarray | None = None) -> None:
    """OBJ writer; vertex radii, when given, are kept in a comment block
    for color mapping in external viewers."""
    lines = ["# polybasis surface export"]
    if radii is not None:
        lines.append("# vertex radii:")
        lines += _records("# r %r", np.asarray(radii, dtype=float))
    lines += _records("v %r %r %r", np.asarray(vertices, dtype=float))
    lines += _records("f %d %d %d", np.asarray(faces) + 1)
    Path(path).write_text("\n".join(lines) + "\n")


def _records(fmt: str, values: np.ndarray) -> list[str]:
    """fmt once per row of values, as one %-format call; [] for no rows."""
    if not len(values):
        return []
    return ["\n".join([fmt] * len(values)) % tuple(values.ravel().tolist())]


def read_obj(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Minimal OBJ reader (v/f records only), for round-trip tests."""
    verts, faces = [], []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts or parts[0] not in ("v", "f"):
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        else:
            faces.append([int(x.split("/")[0]) - 1 for x in parts[1:4]])
    return np.array(verts), np.array(faces, dtype=int)
