import pytest

from polybasis.groups import build_atlas
from polybasis.realify import solve_all
from polybasis.basis import build_basis_set


@pytest.fixture(scope="session")
def atlas():
    """(group, irreps) for each of the three polyhedral groups."""
    return {name: build_atlas(name) for name in "TOI"}


@pytest.fixture(scope="session")
def real_irreps(atlas):
    """(verdicts, {p: RealIrrep}) per group, seed 7."""
    return {name: solve_all(g, irreps, seed=7)
            for name, (g, irreps) in atlas.items()}


@pytest.fixture(scope="session")
def basis_sets(atlas, real_irreps):
    """Basis sets to l_max=10 per group, seed 7."""
    out = {}
    for name, (g, irreps) in atlas.items():
        _, real = real_irreps[name]
        out[name] = build_basis_set(g, irreps, real, l_max=10, seed=7)
    return out


# Top-degree sets at the seeds where single-pass Gram-Schmidt lost
# orthogonality: T at 8, O at 7 (and I at 7).
SEEDS45 = {"T": 8, "O": 7, "I": 7}


@pytest.fixture(scope="session")
def sets45(atlas):
    """(real irreps, basis set to l_max=45) per group at SEEDS45."""
    out = {}
    for name, (g, irreps) in atlas.items():
        seed = SEEDS45[name]
        _, real = solve_all(g, irreps, seed=seed)
        out[name] = (real, build_basis_set(g, irreps, real, l_max=45, seed=seed))
    return out
