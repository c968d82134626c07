"""Reference implementations the tests compare the package against.

Spherical harmonics from scipy, one (l, m) at a time, independent of the
package's Legendre recurrence (polybasis.wigner.sh_degrees).
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp_special


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
