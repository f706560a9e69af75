"""Matrix Lie group primitives: SO(3) and the extended poses SE_K(3).

An SE_K(3) element carries one rotation and K translation-like columns.
The odometry filter uses K = 2 + L (velocity, position, and one column per
leg), but everything here works for any K >= 1.

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


def sek3_compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product; matches multiplication of the embedded matrices."""
    if a.k != b.k:
        raise DimensionMismatchError(f"column counts differ: {a.k} vs {b.k}")
    return GroupElement(a.rot @ b.rot, b.cols @ a.rot.T + a.cols)


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
