"""Matrix Lie group primitives: SO(3) and the extended poses SE_K(3).

An SE_K(3) element carries one rotation and K translation-like columns.
The odometry filter uses K = 2 + L (velocity, position, and one column per
foot in contact), but everything here works for any K >= 1.

Conventions: rotations are plain 3x3 numpy arrays, tangent vectors are flat
arrays [omega, b_1, ..., b_K] with the rotation block first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this rotation angle the closed forms switch to 4th-order Taylor
# series (no 0/0, no branch discontinuity).
SMALL_ANGLE = 1e-8

# Orthogonality defect above which a rotation should be re-projected.
ORTHOGONALITY_TOL = 1e-7


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or column counts."""


def skew(v) -> np.ndarray:
    """3x3 skew-symmetric matrix S such that S @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(omega) -> np.ndarray:
    """Rodrigues' formula, series fallback for tiny angles."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega)
    w = skew(omega)
    w2 = w @ w
    if theta < SMALL_ANGLE:
        return np.eye(3) + w + w2 / 2.0 + (w @ w2) / 6.0 + (w2 @ w2) / 24.0
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * w + b * w2


def so3_log(rot) -> np.ndarray:
    """Rotation vector of a rotation matrix.

    Handles the small-angle limit by series and the angle-near-pi branch by
    reconstructing the axis from the diagonal (the sin(theta) formula loses
    all precision there).
    """
    rot = np.asarray(rot, dtype=float)
    trace = rot[0, 0] + rot[1, 1] + rot[2, 2]
    cos_theta = min(1.0, max(-1.0, (trace - 1.0) / 2.0))
    theta = np.arccos(cos_theta)
    vee = np.array(
        [rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]
    )
    if theta < 1e-4:
        # omega = 0.5 * (1 + theta^2/6 + 7 theta^4/360) * vee
        return 0.5 * (1.0 + theta**2 / 6.0 + 7.0 * theta**4 / 360.0) * vee
    if theta > np.pi - 1e-4:
        # axis magnitudes from the diagonal, signs anchored on the largest
        # component; near pi both sign choices are equally valid.
        one_minus = 1.0 - cos_theta
        diag = np.diag(rot)
        axis_sq = np.maximum(0.0, (diag - cos_theta) / one_minus)
        k = int(np.argmax(axis_sq))
        axis = np.zeros(3)
        axis[k] = np.sqrt(axis_sq[k])
        for j in range(3):
            if j != k:
                axis[j] = (rot[k, j] + rot[j, k]) / (2.0 * one_minus * axis[k])
        if vee[k] < 0.0:
            axis = -axis
        return theta * axis / np.linalg.norm(axis)
    return theta / (2.0 * np.sin(theta)) * vee


def so3_left_jacobian(omega) -> np.ndarray:
    """Left Jacobian J_l of SO(3); maps tangent blocks to SE_K(3) columns."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega)
    w = skew(omega)
    w2 = w @ w
    if theta < SMALL_ANGLE:
        return np.eye(3) + w / 2.0 + w2 / 6.0 + (w @ w2) / 24.0 + (w2 @ w2) / 120.0
    a = (1.0 - np.cos(theta)) / theta**2
    b = (theta - np.sin(theta)) / theta**3
    return np.eye(3) + a * w + b * w2


def orthogonality_defect(rot) -> float:
    """Max absolute entry of R R^T - I."""
    rot = np.asarray(rot, dtype=float)
    return float(np.max(np.abs(rot @ rot.T - np.eye(3))))


def project_rotation(rot) -> np.ndarray:
    """Closest rotation in Frobenius norm (polar projection via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(rot, dtype=float))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


@dataclass(frozen=True)
class GroupElement:
    """SE_K(3) element: a rotation plus K ordered 3-columns.

    For the filter mean the columns are (v, p, d_1, ..., d_L). Treated as an
    immutable value; operations return new elements.
    """

    rot: np.ndarray  # (3, 3)
    cols: np.ndarray  # (K, 3)

    @property
    def k(self) -> int:
        return self.cols.shape[0]

    @staticmethod
    def identity(k: int) -> "GroupElement":
        return GroupElement(np.eye(3), np.zeros((k, 3)))

    def as_matrix(self) -> np.ndarray:
        """(3+K)x(3+K) embedding [[R, cols^T], [0, I_K]]."""
        k = self.k
        m = np.eye(3 + k)
        m[:3, :3] = self.rot
        m[:3, 3:] = self.cols.T
        return m


def sek3_exp(xi) -> GroupElement:
    """Exponential map of SE_K(3) from a flat tangent vector.

    xi = [omega, b_1, ..., b_K]; each column is J_l(omega) @ b_i.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size % 3 != 0 or xi.size < 6:
        raise DimensionMismatchError(f"tangent vector length {xi.size} is not 3(K+1)")
    omega = xi[:3]
    blocks = xi[3:].reshape(-1, 3)
    jac = so3_left_jacobian(omega)
    return GroupElement(so3_exp(omega), blocks @ jac.T)


def sek3_log(g: GroupElement) -> np.ndarray:
    """Inverse of sek3_exp (valid for rotation angle < pi)."""
    omega = so3_log(g.rot)
    jac_inv = np.linalg.inv(so3_left_jacobian(omega))
    return np.concatenate([omega, (g.cols @ jac_inv.T).ravel()])


def sek3_compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product; matches multiplication of the embedded matrices."""
    if a.k != b.k:
        raise DimensionMismatchError(f"column counts differ: {a.k} vs {b.k}")
    return GroupElement(a.rot @ b.rot, b.cols @ a.rot.T + a.cols)


def sek3_inverse(a: GroupElement) -> GroupElement:
    return GroupElement(a.rot.T, -(a.cols @ a.rot))


def adjoint(g: GroupElement) -> np.ndarray:
    """Adjoint matrix: Ad(X) xi = vee(X hat(xi) X^-1).

    Block structure: R on every diagonal block, skew(col_i) R in the
    (i+1, 0) block, zero elsewhere.
    """
    k = g.k
    dim = 3 * (k + 1)
    ad = np.zeros((dim, dim))
    ad[:3, :3] = g.rot
    for i in range(k):
        r0 = 3 * (i + 1)
        ad[r0 : r0 + 3, r0 : r0 + 3] = g.rot
        ad[r0 : r0 + 3, :3] = skew(g.cols[i]) @ g.rot
    return ad
