import numpy as np
import pytest

import oracles
from oracles import eval_complex_sh, eval_real_sh
from polybasis.wigner import (EulerAngles, L_MAX_SUPPORTED, eval_sh_vector,
                              euler_from_rotation, real_rotation_M,
                              real_rotation_M_cases, real_sh_transform,
                              real_wigner_stack, real_wigner_stacks,
                              rotation_from_euler,
                              sh_degrees, spherical_from_cartesian,
                              wigner_D, wigner_D_stack, wigner_d_factorial_sum,
                              wigner_d_small)

RNG = np.random.default_rng(1234)


def random_rotation(rng):
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestEuler:
    def test_known_z_rotation(self):
        r = rotation_from_euler(EulerAngles(0.7, 0.0, 0.0))
        c, s = np.cos(0.7), np.sin(0.7)
        assert np.abs(r - [[c, -s, 0], [s, c, 0], [0, 0, 1]]).max() < 1e-15

    def test_known_y_rotation(self):
        r = rotation_from_euler(EulerAngles(0.0, 0.4, 0.0))
        c, s = np.cos(0.4), np.sin(0.4)
        assert np.abs(r - [[c, 0, s], [0, 1, 0], [-s, 0, c]]).max() < 1e-15

    def test_round_trip_random(self):
        for _ in range(200):
            r = random_rotation(RNG)
            assert np.abs(rotation_from_euler(euler_from_rotation(r)) - r).max() < 1e-10

    @pytest.mark.parametrize("r", [
        np.eye(3),
        np.diag([-1.0, -1.0, 1.0]),
        np.diag([-1.0, 1.0, -1.0]),
        np.diag([1.0, -1.0, -1.0]),
        rotation_from_euler(EulerAngles(0.3, np.pi, 0.0)),
        rotation_from_euler(EulerAngles(0.0, np.pi - 1e-12, 1.1)),
    ])
    def test_round_trip_gimbal(self, r):
        ang = euler_from_rotation(r)
        assert 0.0 <= ang.beta <= np.pi
        assert np.abs(rotation_from_euler(ang) - r).max() < 1e-10

    def test_beta_range(self):
        for _ in range(50):
            assert 0.0 <= euler_from_rotation(random_rotation(RNG)).beta <= np.pi

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            euler_from_rotation(2.0 * np.eye(3))


class TestSmallD:
    def test_l0(self):
        assert wigner_d_small(0, 1.3) == pytest.approx(np.eye(1))

    def test_l1_explicit(self):
        b = 0.9
        c, s = np.cos(b), np.sin(b)
        expect = np.array([
            [(1 + c) / 2, s / np.sqrt(2), (1 - c) / 2],
            [-s / np.sqrt(2), c, s / np.sqrt(2)],
            [(1 - c) / 2, -s / np.sqrt(2), (1 + c) / 2],
        ])
        assert np.abs(wigner_d_small(1, b) - expect).max() < 1e-14

    def test_half_turn(self):
        for l in (1, 2, 5):
            d = wigner_d_small(l, np.pi)
            expect = np.zeros((2 * l + 1, 2 * l + 1))
            for m in range(-l, l + 1):
                expect[l - m, l + m] = (-1.0) ** (l - m)
            assert np.abs(d - expect).max() < 1e-13

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 7, 12, 15])
    def test_matches_factorial_oracle(self, l):
        for b in (0.2, 1.0, 2.6):
            assert np.abs(wigner_d_small(l, b)
                          - wigner_d_factorial_sum(l, b)).max() < 1e-10

    @pytest.mark.parametrize("l", [4, 20, 45])
    def test_orthogonal_at_high_l(self, l):
        d = wigner_d_small(l, 1.234)
        n = 2 * l + 1
        assert np.abs(d.T @ d - np.eye(n)).max() < 1e-12

    def test_additivity(self):
        # d(b1) d(b2) = d(b1 + b2): y-rotations commute along one axis
        b1, b2 = 0.41, 0.93
        for l in (2, 9):
            lhs = wigner_d_small(l, b1) @ wigner_d_small(l, b2)
            assert np.abs(lhs - wigner_d_small(l, b1 + b2)).max() < 1e-12

    def test_l_out_of_range(self):
        with pytest.raises(ValueError):
            wigner_d_small(L_MAX_SUPPORTED + 1, 0.5)
        with pytest.raises(ValueError):
            wigner_d_small(-1, 0.5)


class TestWignerD:
    def test_unitary(self):
        ang = EulerAngles(0.3, 1.1, -0.8)
        for l in (1, 3, 8):
            d = wigner_D(l, ang)
            assert np.abs(d.conj().T @ d - np.eye(2 * l + 1)).max() < 1e-12

    def test_homomorphism_random(self):
        for l in (1, 2, 6):
            for _ in range(10):
                r1, r2 = random_rotation(RNG), random_rotation(RNG)
                d1 = wigner_D(l, euler_from_rotation(r1))
                d2 = wigner_D(l, euler_from_rotation(r2))
                d12 = wigner_D(l, euler_from_rotation(r1 @ r2))
                assert np.abs(d1 @ d2 - d12).max() < 1e-11

    def test_transformation_law_complex(self):
        # P(g) Y_{l,m}(x) = Y_{l,m}(R^-1 x) = sum_{m'} D_{m',m} Y_{l,m'}(x)
        rng = np.random.default_rng(99)
        pts = rng.normal(size=(40, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        for l in (1, 2, 5):
            for _ in range(5):
                r = random_rotation(rng)
                d = wigner_D(l, euler_from_rotation(r))
                y = eval_sh_vector(l, *spherical_from_cartesian(pts))
                y_rot = eval_sh_vector(l, *spherical_from_cartesian(pts @ r))
                assert np.abs(d.T @ y - y_rot).max() < 1e-12

    def test_stack_matches_single(self, atlas):
        group, _ = atlas["O"]
        for l in (1, 4):
            stack = wigner_D_stack(l, group.elements)
            for i, r in enumerate(group.elements):
                single = wigner_D(l, euler_from_rotation(r))
                assert np.abs(stack[i] - single).max() < 1e-12


class TestRealTransform:
    @pytest.mark.parametrize("l", [0, 1, 2, 5, 9])
    def test_U_unitary(self, l):
        u = real_sh_transform(l)
        assert np.abs(u.conj().T @ u - np.eye(2 * l + 1)).max() < 1e-14

    def test_real_harmonics_are_real_combinations(self):
        rng = np.random.default_rng(5)
        theta = rng.uniform(0, np.pi, 30)
        phi = rng.uniform(-np.pi, np.pi, 30)
        for l in (1, 3):
            u = real_sh_transform(l)
            y = eval_sh_vector(l, theta, phi)
            z = u.T @ y
            assert np.abs(z.imag).max() < 1e-13
            for m in range(-l, l + 1):
                assert np.abs(z[l + m].real - eval_real_sh(l, m, theta, phi)).max() < 1e-13

    def test_M_routes_agree(self):
        for l in (1, 2, 7):
            for _ in range(5):
                d = wigner_D(l, euler_from_rotation(random_rotation(RNG)))
                assert np.abs(real_rotation_M(l, d)
                              - real_rotation_M_cases(l, d)).max() < 1e-13

    def test_W_real_orthogonal(self):
        for l in (1, 2, 6):
            u = real_sh_transform(l)
            for _ in range(5):
                d = wigner_D(l, euler_from_rotation(random_rotation(RNG)))
                w = u.conj().T @ d @ u
                assert np.abs(w.imag).max() < 1e-12
                wr = w.real
                assert np.abs(wr.T @ wr - np.eye(2 * l + 1)).max() < 1e-12

    @pytest.mark.parametrize("l", [0, 1, 6, 45])
    def test_real_stack_matches_dense_product(self, atlas, l):
        # the entry-wise U^H D U equals the dense product
        group, _ = atlas["I"]
        u = real_sh_transform(l)
        dense = u.conj().T @ wigner_D_stack(l, group.elements) @ u
        w = real_wigner_stack(l, group.elements)
        assert w.dtype.kind == "f"
        assert np.abs(w - dense).max() < 1e-13
        assert np.abs(np.einsum("gba,gbc->gac", w, w)
                      - np.eye(2 * l + 1)).max() < 1e-12

    @pytest.mark.parametrize("name", ["T", "O", "I"])
    def test_stacks_match_element_by_element_oracle(self, atlas, name):
        # every g and every l <= 45; the homomorphism residual over the
        # generators and the orthogonality residual are no larger than the
        # oracle's: the worst over all degrees at most equal, each degree
        # within one rounding unit of 1
        group, _ = atlas[name]
        gens = [int(np.abs(group.elements - g).sum(axis=(1, 2)).argmin())
                for g in group.generators]

        def homomorphism(w):
            return max(np.abs(w[group.mult_table[i]] - w[i] @ w).max() for i in gens)

        def orthogonality(w):
            return np.abs(np.einsum("gba,gbc->gac", w, w)
                          - np.eye(w.shape[1])).max()

        eps = np.finfo(float).eps
        worst = np.zeros((2, 2))
        seen = []
        for l, w in real_wigner_stacks(L_MAX_SUPPORTED, group.elements):
            seen.append(l)
            ref = oracles.real_wigner_stack(l, group.elements)
            assert w.shape == ref.shape and w.dtype == float
            assert np.abs(w - ref).max() <= 1e-15, l
            res = np.array([[homomorphism(w), homomorphism(ref)],
                            [orthogonality(w), orthogonality(ref)]])
            assert (res[:, 0] <= res[:, 1] + eps).all(), (l, res)
            worst = np.maximum(worst, res)
        assert seen == list(range(L_MAX_SUPPORTED + 1))
        assert (worst[:, 0] <= worst[:, 1]).all(), worst

    @pytest.mark.parametrize("name", ["T", "O", "I"])
    def test_single_degree_is_that_yield_bit_for_bit(self, atlas, name):
        rotations = atlas[name][0].elements
        for l, w in real_wigner_stacks(L_MAX_SUPPORTED, rotations):
            single = real_wigner_stack(l, rotations)
            assert np.array_equal(single.view(np.uint64), w.view(np.uint64)), l

    def test_transformation_law_real(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(25, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        for l in (1, 4):
            u = real_sh_transform(l)
            r = random_rotation(rng)
            w = (u.conj().T @ wigner_D(l, euler_from_rotation(r)) @ u).real
            z = np.stack([eval_real_sh(l, m, *spherical_from_cartesian(pts))
                          for m in range(-l, l + 1)])
            z_rot = np.stack([eval_real_sh(l, m, *spherical_from_cartesian(pts @ r))
                              for m in range(-l, l + 1)])
            assert np.abs(w.T @ z - z_rot).max() < 1e-12


class TestSphericalHarmonics:
    def test_known_values(self):
        theta, phi = 0.8, 1.9
        y0 = eval_sh_vector(0, theta, phi)[:, 0]
        assert y0[0] == pytest.approx(0.5 / np.sqrt(np.pi))
        y1 = eval_sh_vector(1, theta, phi)[:, 0]              # m = -1, 0, 1
        y10 = np.sqrt(3 / (4 * np.pi)) * np.cos(theta)
        assert y1[1] == pytest.approx(y10)
        y11 = -np.sqrt(3 / (8 * np.pi)) * np.sin(theta) * np.exp(1j * phi)
        assert y1[2] == pytest.approx(y11)

    def test_condon_shortley_conjugation(self):
        theta, phi = 1.1, -0.4
        for l in (1, 2, 3):
            y = eval_sh_vector(l, theta, phi)[:, 0]
            for m in range(-l, l + 1):
                lhs = np.conj(y[l + m])
                rhs = (-1.0) ** m * y[l - m]
                assert abs(lhs - rhs) < 1e-13

    def test_real_sh_explicit_l1(self):
        theta, phi = 0.9, 2.2
        st, ct = np.sin(theta), np.cos(theta)
        scale = np.sqrt(3 / (4 * np.pi))
        z = (real_sh_transform(1).T @ eval_sh_vector(1, theta, phi))[:, 0]
        assert abs(z.imag).max() < 1e-15
        assert z[0].real == pytest.approx(scale * st * np.sin(phi))
        assert z[1].real == pytest.approx(scale * ct)
        assert z[2].real == pytest.approx(scale * st * np.cos(phi))

    def test_recurrence_matches_scipy_every_degree_and_order(self):
        # every (l, m) with l <= 45 at random nodes, the exact poles and
        # 1e-9 from them, against scipy's sph_harm_y one (l, m) at a time
        rng = np.random.default_rng(45)
        n = 500
        theta = np.concatenate([np.arccos(rng.uniform(-1.0, 1.0, n)),
                                [0.0, np.pi, 1e-9, np.pi - 1e-9]])
        phi = np.concatenate([rng.uniform(-np.pi, np.pi, n), [0.3, -1.2, 2.0, -3.0]])
        seen = []
        for l, y in sh_degrees(L_MAX_SUPPORTED, theta, phi):
            seen.append(l)
            assert y.shape == (2 * l + 1, n + 4)
            ref = np.array([eval_complex_sh(l, m, theta, phi)
                            for m in range(-l, l + 1)])
            assert np.abs(y - ref).max() <= 1e-13, l
        assert seen == list(range(L_MAX_SUPPORTED + 1))

    @pytest.mark.parametrize("l", [0, 1, 2, 7, 20, 45])
    def test_single_degree_is_that_yield_bit_for_bit(self, l):
        rng = np.random.default_rng(l)
        theta = np.concatenate([rng.uniform(0.0, np.pi, 300), [0.0, np.pi]])
        phi = np.concatenate([rng.uniform(-np.pi, np.pi, 300), [1.0, -2.0]])
        for deg, y in sh_degrees(l, theta, phi):
            assert np.array_equal(eval_sh_vector(deg, theta, phi), y), deg

    def test_shapes_broadcast(self):
        theta = np.linspace(0.1, 3.0, 12).reshape(3, 4)
        y = eval_sh_vector(3, theta, 0.7)
        assert y.shape == (7, 3, 4)
        flat = eval_sh_vector(3, theta.ravel(), np.full(12, 0.7))
        assert np.array_equal(y.reshape(7, 12), flat)
        with pytest.raises(ValueError):
            eval_sh_vector(-1, theta, 0.7)

    def test_spherical_from_cartesian_poles(self):
        theta, phi = spherical_from_cartesian(np.array([0.0, 0.0, 1.0]))
        assert theta == pytest.approx(0.0)
        theta, _ = spherical_from_cartesian(np.array([0.0, 0.0, -2.0]))
        assert theta == pytest.approx(np.pi)
