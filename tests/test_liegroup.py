import numpy as np
import pytest
from scipy.linalg import expm

from proprio.liegroup import (
    SMALL_ANGLE,
    GroupElement,
    adjoint,
    adjoint_column,
    sek3_compose,
    sek3_exp,
    sek3_exp_compose,
    skew,
    so3_exp,
)


def as_matrix(g):
    """(3+K)x(3+K) embedding [[R, cols^T], [0, I_K]] of an SE_K(3) element."""
    m = np.eye(3 + g.k)
    m[:3, :3] = g.rot
    m[:3, 3:] = g.cols.T
    return m


def random_element(rng, k=3):
    rot = so3_exp(rng.uniform(-2.0, 2.0, 3))
    return GroupElement(rot, rng.normal(size=(k, 3)))


class TestSkew:
    def test_broadcast(self):
        v = np.random.default_rng(15).normal(size=(2, 5, 3))
        out = skew(v)
        assert out.shape == (2, 5, 3, 3)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(out[idx], skew(v[idx]))

    def test_zero(self):
        assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))

    def test_definition(self):
        expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
        assert np.array_equal(skew([1, 2, 3]), expected)

    def test_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v, w = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(skew(v) @ w, np.cross(v, w), atol=1e-14)
            np.testing.assert_allclose(skew(v) @ w, -skew(w) @ v, atol=1e-14)

    def test_antisymmetric(self):
        s = skew([0.3, -0.7, 1.1])
        assert np.array_equal(s, -s.T)


def _expm_series(m, terms=20):
    out = np.eye(3)
    acc = np.eye(3)
    for i in range(1, terms):
        acc = acc @ m / i
        out = out + acc
    return out


def ref_so3_exp(omega):
    """Rodrigues' formula over leading axes from skew(omega) and the batched
    product W @ W, the form the closed-form entries of so3_exp replaced."""
    omega = np.asarray(omega, dtype=float)
    theta2 = np.sum(omega * omega, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(safe)) / safe**2)
    w = skew(omega)
    return np.eye(3) + a[..., None, None] * w + b[..., None, None] * (w @ w)


class TestSo3Exp:
    def test_identity(self):
        assert np.array_equal(so3_exp([0, 0, 0]), np.eye(3))

    def test_quarter_turn_vs_series(self):
        omega = np.array([0.0, 0.0, np.pi / 2])
        rot = so3_exp(omega)
        np.testing.assert_allclose(rot, _expm_series(skew(omega)), atol=1e-12)
        # maps x-axis onto y-axis
        np.testing.assert_allclose(rot @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_roundtrip(self):
        omega = np.array([0.3, -0.2, 0.1])
        np.testing.assert_allclose(so3_exp(omega) @ so3_exp(-omega), np.eye(3), atol=1e-15)

    def test_roundtrip_sweep(self):
        # every angle up to pi, against the dense matrix exponential
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(1000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            omega = axis * rng.uniform(1e-12, np.pi)
            worst = max(worst, np.max(np.abs(so3_exp(omega) - expm(skew(omega)))))
        assert worst < 1e-12

    def test_small_angle_series(self):
        omega = np.array([1e-10, -2e-10, 5e-11])
        np.testing.assert_allclose(so3_exp(omega), np.eye(3) + skew(omega), atol=1e-18)

    def test_broadcast_matches_per_vector(self):
        rng = np.random.default_rng(13)
        axes = rng.normal(size=(40, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.concatenate([[0.0, 1e-12, 0.5 * SMALL_ANGLE, 2 * SMALL_ANGLE], rng.uniform(1e-6, np.pi, 36)])
        omegas = (axes * angles[:, None]).reshape(4, 10, 3)
        batch = so3_exp(omegas)
        assert batch.shape == (4, 10, 3, 3)
        for idx in np.ndindex(4, 10):
            np.testing.assert_allclose(batch[idx], so3_exp(omegas[idx]), rtol=0, atol=1e-15)
            np.testing.assert_allclose(batch[idx], ref_so3_exp(omegas[idx]), rtol=0, atol=1e-15)
        assert np.array_equal(batch[0, 0], np.eye(3))

    def test_matches_skew_product_form(self):
        rng = np.random.default_rng(16)
        increments = rng.normal(size=(2500, 3)) * 1e-3  # gyro * dt at 1 kHz
        large = rng.uniform(-np.pi, np.pi, size=(500, 3))
        for omegas in (increments, large):
            np.testing.assert_allclose(so3_exp(omegas), ref_so3_exp(omegas), rtol=0, atol=1e-15)

    def test_sek3_rotation_is_so3_exp(self):
        rng = np.random.default_rng(14)
        for scale in (0.0, 1e-9, 1e-3, 1.0):
            xi = rng.normal(size=9) * scale
            np.testing.assert_allclose(sek3_exp(xi).rot, so3_exp(xi[:3]), rtol=0, atol=1e-15)


def ref_sek3_exp(xi):
    """SE_K(3) exp from one product of the coefficients (1, a, b) and
    (1, b, c) with the stacked basis [I, W, W^2], the form the closed-form
    entries replaced."""
    omega = xi[:3]
    theta2 = float(omega @ omega)
    theta = np.sqrt(theta2)
    if theta < SMALL_ANGLE:
        a, b, c = 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0, 1.0 / 6.0 - theta2 / 120.0
    else:
        a, b, c = np.sin(theta) / theta, (1.0 - np.cos(theta)) / theta2, (theta - np.sin(theta)) / (theta2 * theta)
    w = skew(omega)
    basis = np.concatenate((np.eye(3), w, w @ w)).reshape(3, 9)
    rot, jac = (np.array(((1.0, a, b), (1.0, b, c))) @ basis).reshape(2, 3, 3)
    return GroupElement(rot, xi[3:].reshape(-1, 3) @ jac.T)


class TestSek3:
    @pytest.mark.parametrize("theta", [
        0.0, 1e-9, SMALL_ANGLE * (1 - 1e-6), SMALL_ANGLE * (1 + 1e-6), 1e-3, 1.0, np.pi - 1e-6,
    ])
    def test_matches_basis_product_form(self, theta):
        # with the identity as the translation part the columns are J_l^T,
        # so rotation and left Jacobian are compared entry by entry
        rng = np.random.default_rng(16)
        for _ in range(50):
            axis = rng.normal(size=3)
            xi = np.concatenate([theta * axis / np.linalg.norm(axis), np.eye(3).ravel()])
            got, ref = sek3_exp(xi), ref_sek3_exp(xi)
            np.testing.assert_allclose(got.rot, ref.rot, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got.cols, ref.cols, rtol=0, atol=1e-15)

    def test_zero_tangent(self):
        g = sek3_exp(np.zeros(12))
        assert np.array_equal(g.rot, np.eye(3))
        assert np.array_equal(g.cols, np.zeros((3, 3)))

    def test_zero_rotation_copies_blocks(self):
        xi = np.concatenate([np.zeros(3), [1.0, 2, 3], [-4, 5, 6]])
        g = sek3_exp(xi)
        np.testing.assert_allclose(g.cols, [[1, 2, 3], [-4, 5, 6]], atol=0)

    def test_against_dense_expm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = rng.integers(1, 5)
            xi = rng.normal(size=3 * (k + 1))
            dense = np.zeros((3 + k, 3 + k))
            dense[:3, :3] = skew(xi[:3])
            dense[:3, 3:] = xi[3:].reshape(k, 3).T
            np.testing.assert_allclose(
                as_matrix(sek3_exp(xi)), expm(dense), atol=1e-9
            )

    def test_left_jacobian_small_angle_series(self):
        # below SMALL_ANGLE the columns are J_l b with J_l ~ I + W/2 + W^2/6
        omega = np.array([3e-9, -1e-9, 2e-9])
        b = np.array([0.4, -1.0, 2.0])
        w = skew(omega)
        np.testing.assert_allclose(sek3_exp(np.concatenate([omega, b])).cols[0],
                                   (np.eye(3) + w / 2.0 + w @ w / 6.0) @ b, rtol=0, atol=1e-18)

    @pytest.mark.parametrize("scale", [0.0, 1e-12, 0.5, 0.999, 1.001, 2.0, 1e3, 1e5, 1e7, 3e8])
    def test_matches_closed_form_around_small_angle(self, scale):
        # rotation I + a W + b W^2 and J_l = I + b W + c W^2 term by term,
        # with the series below SMALL_ANGLE and the closed forms above it
        rng = np.random.default_rng(11)
        for _ in range(50):
            axis = rng.normal(size=3)
            omega = scale * SMALL_ANGLE * axis / np.linalg.norm(axis)
            t2 = float(omega @ omega)
            t = np.sqrt(t2)
            if t < SMALL_ANGLE:
                a, b, c = 1.0 - t2 / 6.0, 0.5 - t2 / 24.0, 1.0 / 6.0 - t2 / 120.0
            else:
                a, b, c = np.sin(t) / t, (1.0 - np.cos(t)) / t2, (t - np.sin(t)) / (t2 * t)
            w = skew(omega)
            g = sek3_exp(np.concatenate([omega, np.eye(3).ravel()]))  # columns are J_l^T
            np.testing.assert_allclose(g.rot, np.eye(3) + a * w + b * (w @ w), rtol=0, atol=1e-15)
            np.testing.assert_allclose(g.cols.T, np.eye(3) + b * w + c * (w @ w), rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="tangent vector length 7 is not 3"):
            sek3_exp(np.zeros(7))

    def test_exp_inverse_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            xi = rng.normal(size=12)
            g = sek3_compose(sek3_exp(xi), sek3_exp(-xi))
            np.testing.assert_allclose(g.rot, np.eye(3), atol=1e-8)
            np.testing.assert_allclose(g.cols, 0.0, atol=1e-8)


class TestComposeInverse:
    def test_inverse(self):
        rng = np.random.default_rng(6)
        a = random_element(rng)
        inv = np.linalg.inv(as_matrix(a))
        ident = sek3_compose(a, GroupElement(inv[:3, :3], inv[:3, 3:].T))
        np.testing.assert_allclose(ident.rot, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(ident.cols, 0.0, atol=1e-9)

    def test_identity_neutral(self):
        rng = np.random.default_rng(7)
        a = random_element(rng)
        b = sek3_compose(a, GroupElement(np.eye(3), np.zeros((a.k, 3))))
        np.testing.assert_allclose(b.rot, a.rot, atol=0)
        np.testing.assert_allclose(b.cols, a.cols, atol=0)

    def test_matches_embedded_product(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a, b = random_element(rng), random_element(rng)
            np.testing.assert_allclose(
                as_matrix(sek3_compose(a, b)), as_matrix(a) @ as_matrix(b), atol=1e-10
            )

    def test_column_count_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="column counts differ: 2 vs 3"):
            sek3_compose(random_element(rng, 2), random_element(rng, 3))


class TestExpCompose:
    @pytest.mark.parametrize("theta", [0.0, 1e-9, SMALL_ANGLE * 0.99, SMALL_ANGLE * 1.01, 1e-3, 1.0, np.pi - 1e-6])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_exp_then_compose(self, theta, k):
        rng = np.random.default_rng(30 + k)
        for _ in range(10):
            axis = rng.normal(size=3)
            xi = np.concatenate([axis / np.linalg.norm(axis) * theta, rng.normal(size=3 * k)])
            g = random_element(rng, k)
            got, ref = sek3_exp_compose(xi, g), sek3_compose(sek3_exp(xi), g)
            np.testing.assert_allclose(got.rot, ref.rot, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got.cols, ref.cols, rtol=0, atol=1e-15)

    def test_column_count_mismatch(self):
        g = random_element(np.random.default_rng(0), 3)
        with pytest.raises(ValueError, match="does not match 3 columns"):
            sek3_exp_compose(np.zeros(9), g)


def _hat(xi, k):
    m = np.zeros((3 + k, 3 + k))
    m[:3, :3] = skew(xi[:3])
    m[:3, 3:] = xi[3:].reshape(k, 3).T
    return m


def _vee(m, k):
    out = np.empty(3 * (k + 1))
    out[:3] = [m[2, 1], m[0, 2], m[1, 0]]
    out[3:] = m[:3, 3:].T.ravel()
    return out


def ref_adjoint(g):
    """Adjoint filled one block column at a time, the form the vectorised
    adjoint replaced."""
    k = g.k
    dim = 3 * (k + 1)
    ad = np.zeros((dim, dim))
    ad[:3, :3] = g.rot
    for i in range(k):
        r0 = 3 * (i + 1)
        ad[r0 : r0 + 3, r0 : r0 + 3] = g.rot
        ad[r0 : r0 + 3, :3] = skew(g.cols[i]) @ g.rot
    return ad


class TestAdjoint:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_per_column_loop(self, k):
        rng = np.random.default_rng(17 + k)
        for _ in range(20):
            g = random_element(rng, k)
            np.testing.assert_allclose(adjoint(g), ref_adjoint(g), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_first_block_column_is_skew_cols_times_rot(self, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(20):
            g = random_element(rng, k)
            ad = adjoint(g).reshape(k + 1, 3, k + 1, 3)
            np.testing.assert_allclose(ad[1:, :, 0, :], skew(g.cols) @ g.rot, rtol=0, atol=1e-15)
            assert np.array_equal(ad[0, :, 0, :], g.rot)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_column_helper_is_the_first_block_column(self, k):
        rng = np.random.default_rng(60 + k)
        for _ in range(20):
            g = random_element(rng, k)
            col = adjoint_column(g)
            assert col.shape == (3 * (k + 1), 3)
            assert np.array_equal(col, adjoint(g)[:, :3])

    def test_identity(self):
        assert np.array_equal(adjoint(GroupElement(np.eye(3), np.zeros((3, 3)))), np.eye(12))

    def test_block_structure(self):
        rng = np.random.default_rng(10)
        g = random_element(rng, 2)
        ad = adjoint(g)
        np.testing.assert_allclose(ad[:3, :3], g.rot, atol=0)
        for i in range(2):
            r = 3 * (i + 1)
            np.testing.assert_allclose(ad[r : r + 3, r : r + 3], g.rot, atol=0)
            np.testing.assert_allclose(ad[r : r + 3, :3], skew(g.cols[i]) @ g.rot, atol=1e-15)
            assert np.array_equal(ad[:3, r : r + 3], np.zeros((3, 3)))

    def test_conjugation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_element(rng, 3)
            xi = rng.normal(size=12)
            lhs = adjoint(g) @ xi
            conj = as_matrix(g) @ _hat(xi, 3) @ np.linalg.inv(as_matrix(g))
            np.testing.assert_allclose(lhs, _vee(conj, 3), atol=1e-9)

    def test_homomorphism(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a, b = random_element(rng), random_element(rng)
            np.testing.assert_allclose(
                adjoint(sek3_compose(a, b)), adjoint(a) @ adjoint(b), atol=1e-8
            )


def test_determinism():
    xi = np.array([0.1, -0.2, 0.3, 1.0, 2.0, 3.0, -1.0, 0.5, 0.25])
    a = sek3_exp(xi)
    b = sek3_exp(xi.copy())
    assert np.array_equal(a.rot, b.rot) and np.array_equal(a.cols, b.cols)
    assert np.array_equal(so3_exp([0.1, 0.2, 0.3]), so3_exp([0.1, 0.2, 0.3]))
