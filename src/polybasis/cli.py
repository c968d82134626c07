"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error or a
coefficient file that load_basis_set refuses.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from .groups import GROUP_NAMES, build_atlas, group_to_dict
from .realify import solve_all
from .basis import build_basis_set
from .verify import verify_basis_set
from . import basis as pbasis
from . import io as pio
from .wigner import L_MAX_SUPPORTED


def _seed_from(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("POLYBASIS_SEED")
    return int(env) if env else 0


@click.group()
def main():
    """Real orthonormal basis functions of the polyhedral rotation groups."""


@main.command()
@click.option("--group", "group_name", required=True,
              type=click.Choice(GROUP_NAMES), help="Polyhedral group.")
@click.option("--lmax", required=True, type=click.IntRange(0, L_MAX_SUPPORTED),
              help="Highest spherical-harmonic degree.")
@click.option("--seed", type=int, default=None,
              help="RNG seed (default: POLYBASIS_SEED or 0).")
@click.option("--out", "out_dir", type=click.Path(path_type=Path),
              default=Path("polybasis_out"), show_default=True)
@click.option("--no-verify", is_flag=True, help="Skip the verification battery.")
def basis(group_name, lmax, seed, out_dir, no_verify):
    """Compute coefficient files up to LMAX and verify them."""
    seed = _seed_from(seed)
    group, irreps = build_atlas(group_name)
    _, real = solve_all(group, irreps, seed=seed)
    basis_set = build_basis_set(group, irreps, real, l_max=lmax, seed=seed)
    paths = pio.save_basis_set(basis_set, out_dir)
    (out_dir / f"group_{group_name}.json").write_text(
        json.dumps(group_to_dict(group, irreps), indent=1) + "\n")
    click.echo(f"wrote {len(paths)} files to {out_dir}")
    if no_verify:
        return
    report = verify_basis_set(basis_set, group, real,
                              transform_l_cap=min(lmax, 10))
    (out_dir / f"report_{group_name}.json").write_text(
        json.dumps(report.to_dict(), indent=1) + "\n")
    click.echo(report.table())
    if not report.passed:
        click.echo("verification FAILED; outputs are flagged in the report",
                   err=True)
        sys.exit(1)


@main.command()
@click.option("--group", "group_name", required=True, type=click.Choice(GROUP_NAMES))
@click.option("--p", "p", required=True, type=int, help="Irrep index (1-based).")
@click.option("--l", "l", required=True, type=click.IntRange(0, L_MAX_SUPPORTED))
@click.option("--n", "n", default=1, show_default=True, help="Copy index within (p, l).")
@click.option("--j", "j", default=1, show_default=True, help="Vector component (1-based).")
@click.option("--k1", type=float, default=None, help="Radial offset kappa1.")
@click.option("--k2", type=float, default=None, help="Radial gain kappa2.")
@click.option("--subdiv", default=5, show_default=True, type=click.IntRange(0, 7))
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(path_type=Path),
              default=None, help="Output OBJ path.")
def mesh(group_name, p, l, n, j, k1, k2, subdiv, seed, out_path):
    """Export one basis-function component as a radially displaced sphere."""
    seed = _seed_from(seed)
    group, irreps = build_atlas(group_name)
    _, real = solve_all(group, irreps, seed=seed)
    if p not in real:
        raise click.ClickException(
            f"no real irrep p={p} for {group_name}; real irreps: p in {sorted(real)}")
    blocks = {b.n: b for b in pbasis.build_basis(real[p], group, l)}
    if n not in blocks:
        raise click.ClickException(
            f"no basis function (p={p}, l={l}, n={n}); available: "
            f"n in {sorted(blocks)}")
    block = blocks[n]
    if not 1 <= j <= block.dim:
        raise click.ClickException(
            f"component j={j} out of range 1..{block.dim} for p={p}")
    verts, faces, radii = pio.displaced_mesh(block, component=j, kappa1=k1,
                                             kappa2=k2, subdivisions=subdiv)
    if out_path is None:
        out_path = Path(f"{group_name}_p{p}_l{l}_n{n}_j{j}.obj")
    pio.write_obj(out_path, verts, faces, radii)
    click.echo(f"wrote {out_path} ({len(verts)} vertices, {len(faces)} faces)")


@main.command()
@click.argument("path", type=click.Path(exists=True, path_type=Path))
def verify(path):
    """Re-verify persisted coefficient files (PATH is a manifest)."""
    try:
        basis_set = pio.load_basis_set(path)
    except pio.CoeffFileError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    group, irreps = build_atlas(basis_set.group_name)
    _, real = solve_all(group, irreps, seed=basis_set.seed)
    report = verify_basis_set(basis_set, group, real,
                              transform_l_cap=min(basis_set.l_max, 10))
    click.echo(report.table())
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
