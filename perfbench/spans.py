"""In-memory spans around polybasis's public functions.

``Tracer.install`` replaces each function at the module attribute where
its callers look it up (``polybasis.cli.build_basis_set``,
``polybasis.wigner.eval_sh_vector``, ...) by a wrapper that records a span:
name, start, end, parent, the pass it belongs to and a few counts taken
from the call's arguments or result. ``uninstall`` puts the originals
back, so untraced passes run the program's own functions. Nothing in the
package is edited.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from pathlib import Path

import numpy as np


def _sh_values(args, kwargs, result):
    l, theta = args[0], args[1]
    return {"values": (2 * l + 1) * int(np.size(theta))}


def _blocks(args, kwargs, result):
    return {"blocks": len(result)}


def _saved_bytes(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


def _obj_bytes(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _margin(args, kwargs, result):
    """Decimal digits between the worst check residual and its tolerance."""
    return {"margin_digits": min(math.log10(c.tolerance / max(c.max_residual, 1e-300))
                                 for c in result.checks)}


# (module, attribute, span name, counter)
TARGETS = [
    ("polybasis.cli", "build_atlas", "groups.build_atlas", None),
    ("polybasis.cli", "solve_all", "realify.solve_all", None),
    ("polybasis.cli", "build_basis_set", "basis.build_basis_set", None),
    ("polybasis.cli", "verify_basis_set", "verify.verify_basis_set", _margin),
    ("polybasis.basis", "build_basis", "basis.build_basis", _blocks),
    ("polybasis.basis", "projection_coefficients", "basis.projection_coefficients", None),
    ("polybasis.wigner", "wigner_D_stack", "wigner.wigner_D_stack", None),
    ("polybasis.wigner", "eval_sh_vector", "wigner.eval_sh_vector", _sh_values),
    ("polybasis.verify", "check_orthonormality", "verify.check_orthonormality", None),
    ("polybasis.verify", "check_cross_degree_orthogonality",
     "verify.check_cross_degree_orthogonality", None),
    ("polybasis.verify", "check_realness", "verify.check_realness", None),
    ("polybasis.verify", "check_transformation", "verify.check_transformation", None),
    ("polybasis.verify", "check_irrep_recovery", "verify.check_irrep_recovery", None),
    ("polybasis.io", "save_basis_set", "io.save_basis_set", _saved_bytes),
    ("polybasis.io", "load_basis_set", "io.load_basis_set", None),
    ("polybasis.io", "icosphere", "io.icosphere", None),
    ("polybasis.io", "displaced_mesh", "io.displaced_mesh", None),
    ("polybasis.io", "write_obj", "io.write_obj", _obj_bytes),
]

# Per-layer metrics: span self times per pass, then counts and ratios.
SELF_TIME_METRICS = {
    "groups.build_atlas_s": "groups.build_atlas",
    "realify.solve_all_s": "realify.solve_all",
    "wigner.wigner_D_stack_s": "wigner.wigner_D_stack",
    "wigner.eval_sh_vector_s": "wigner.eval_sh_vector",
    "basis.build_basis_s": "basis.build_basis",
    "basis.projection_coefficients_s": "basis.projection_coefficients",
    "verify.check_orthonormality_s": "verify.check_orthonormality",
    "verify.check_cross_degree_orthogonality_s": "verify.check_cross_degree_orthogonality",
    "verify.check_realness_s": "verify.check_realness",
    "verify.check_transformation_s": "verify.check_transformation",
    "verify.check_irrep_recovery_s": "verify.check_irrep_recovery",
    "verify.verify_basis_set_self_s": "verify.verify_basis_set",
    "io.save_basis_set_s": "io.save_basis_set",
    "io.load_basis_set_s": "io.load_basis_set",
    "io.icosphere_s": "io.icosphere",
    "io.displaced_mesh_s": "io.displaced_mesh",
    "io.write_obj_s": "io.write_obj",
    "cli.self_s": "cli",
}


class Tracer:
    """Spans of one process. A span is [name, start, end, parent, pass, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.pass_no = -1

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_no,
                           attrs or {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.spans[idx][5].update(counter(args, kwargs, result))
                return result
            finally:
                self.close(idx)
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig, counter))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def self_times(self) -> np.ndarray:
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                own[s[3]] -= d
        return own

    def pass_metrics(self, pass_no: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        own = self.self_times()
        idx = [i for i, s in enumerate(self.spans) if s[4] == pass_no]
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        attrs: dict[str, float] = {}
        margins = []
        for i in idx:
            name, attr = self.spans[i][0], self.spans[i][5]
            total[name] = total.get(name, 0.0) + float(own[i])
            calls[name] = calls.get(name, 0) + 1
            for k, v in (attr.items() if name != "cli" else ()):
                if k == "margin_digits":
                    if self._root_attr(i, "expect_pass", True):
                        margins.append(v)
                else:
                    key = f"{name}.{k}"
                    attrs[key] = attrs.get(key, 0) + v
        out = {metric: total.get(span, 0.0)
               for metric, span in SELF_TIME_METRICS.items()}
        out["wigner.wigner_D_stack_calls"] = calls.get("wigner.wigner_D_stack", 0)
        out["wigner.eval_sh_vector_calls"] = calls.get("wigner.eval_sh_vector", 0)
        sh = attrs.get("wigner.eval_sh_vector.values", 0)
        out["wigner.sh_values"] = sh
        out["wigner.sh_values_per_s"] = (sh / out["wigner.eval_sh_vector_s"]
                                         if sh else 0.0)
        proj = calls.get("basis.projection_coefficients", 0)
        blocks = attrs.get("basis.build_basis.blocks", 0)
        out["basis.projection_coefficients_calls"] = proj
        out["basis.blocks_built"] = blocks
        out["basis.candidates_per_block"] = proj / blocks if blocks else 0.0
        out["verify.worst_margin_digits"] = min(margins) if margins else 0.0
        out["io.saved_mb"] = attrs.get("io.save_basis_set.bytes", 0) / 1e6
        out["io.obj_mb"] = attrs.get("io.write_obj.bytes", 0) / 1e6
        return out

    def _root_attr(self, i: int, key: str, default):
        while self.spans[i][3] >= 0:
            i = self.spans[i][3]
        return self.spans[i][5].get(key, default)

    def to_json(self) -> list[dict]:
        own = self.self_times()
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "pass": s[4], "self_s": float(o), **s[5]}
                for s, o in zip(self.spans, own)]
