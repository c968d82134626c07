"""Reference implementations the tests compare the package against.

Spherical harmonics from scipy, one (l, m) at a time, independent of the
package's Legendre recurrence (polybasis.wigner.sh_degrees). The real
rotation matrices W = U^H D U one element at a time from the complex
Wigner-D stack, which polybasis.wigner.real_wigner_stacks builds from real
z-rotations instead. The coefficient-file schema as a dict for
``json.dumps(..., indent=1)``, the per-record f-string OBJ writer and the
per-midpoint icosphere loop, which the package's %-format writers and
vectorised subdivision must match.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import special as sp_special

from polybasis import wigner
from polybasis.basis import BasisSet


def eval_complex_sh(l: int, m: int, theta, phi) -> np.ndarray:
    """Y_{l,m}(theta, phi) with the Condon-Shortley phase, from scipy."""
    theta = np.asarray(theta, float)
    phi = np.asarray(phi, float)
    if hasattr(sp_special, "sph_harm_y"):
        return np.asarray(sp_special.sph_harm_y(l, m, theta, phi))
    return np.asarray(sp_special.sph_harm(m, l, phi, theta))


def eval_real_sh(l: int, m: int, theta, phi) -> np.ndarray:
    """Real spherical harmonic Z_{l,m} = (U^T Y^l)_m, from scipy."""
    if m == 0:
        val = eval_complex_sh(l, 0, theta, phi)
    elif m < 0:
        ym = eval_complex_sh(l, m, theta, phi)
        ymm = eval_complex_sh(l, -m, theta, phi)
        val = 1j / np.sqrt(2.0) * (ym - (-1.0) ** m * ymm)
    else:
        ym = eval_complex_sh(l, m, theta, phi)
        ymm = eval_complex_sh(l, -m, theta, phi)
        val = 1.0 / np.sqrt(2.0) * (ymm + (-1.0) ** m * ym)
    resid = np.abs(np.imag(val)).max() if np.ndim(val) else abs(np.imag(val))
    if resid > 1e-12:
        raise AssertionError(f"real harmonic has imaginary residue {resid:.2e}")
    return np.real(val)


def real_wigner_stack(l: int, rotations: np.ndarray) -> np.ndarray:
    """W^l = U^H D^l U element by element from wigner.wigner_D_stack, with
    U^H D U taken entry-wise from U's two nonzeros per column."""
    d_stack = wigner.wigner_D_stack(l, rotations)
    u = wigner.real_sh_transform(l)
    diag = u.diagonal()
    mirror = np.where(np.arange(2 * l + 1) == l, 0.0, u[::-1].diagonal())
    out = np.empty(d_stack.shape)
    for i, d in enumerate(d_stack):
        du = d * diag + d[:, ::-1] * mirror
        w = diag.conj()[:, None] * du + mirror.conj()[:, None] * du[::-1]
        resid = np.abs(w.imag).max()
        if resid > 1e-12:
            raise AssertionError(f"W = U^H D U came out non-real ({resid:.2e})")
        out[i] = w.real
    return out


def coeff_file_dict(basis_set: BasisSet, l: int) -> dict:
    """The degree-l coefficient file as the dict json.dumps encodes."""
    blocks = sorted(basis_set.select(l=l), key=lambda b: (b.p, b.n))
    return {
        "group": basis_set.group_name,
        "l": l,
        "blocks": [{"p": b.p, "n": b.n,
                    "rows": [[[float(z.real), float(z.imag)] for z in row]
                             for row in b.H]}
                   for b in blocks],
        "meta": {
            "seed": basis_set.seed,
            "tolerances": {"construction": 1e-10, "end_to_end": 1e-8},
            "convention_id": "zyz-active-condon-shortley-v1",
        },
    }


def write_obj(path, vertices, faces, radii=None) -> None:
    """OBJ text one f-string per record."""
    lines = ["# polybasis surface export"]
    if radii is not None:
        lines.append("# vertex radii:")
        lines += [f"# r {float(r)!r}" for r in radii]
    lines += [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
              for v in vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    Path(path).write_text("\n".join(lines) + "\n")


def icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Subdivided icosahedron, one cached midpoint at a time."""
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
    verts = [tuple(v) for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                v = np.array(verts[i]) + np.array(verts[j])
                v /= np.linalg.norm(v)
                verts.append(tuple(v))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=int)
