"""Matrix Lie group primitives: SO(3) and the extended poses SE_K(3).

An SE_K(3) element carries one rotation and K translation-like columns.
The odometry filter uses K = 2 + L (velocity, position, and one column per
leg), but everything here works for any K >= 1.

Conventions: rotations are plain 3x3 numpy arrays, tangent vectors are flat
arrays [omega, b_1, ..., b_K] with the rotation block first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this rotation angle the closed forms switch to 4th-order Taylor
# series (no 0/0, no branch discontinuity).
SMALL_ANGLE = 1e-8

# Orthogonality defect above which a rotation should be re-projected.
ORTHOGONALITY_TOL = 1e-7


_EYE3 = np.eye(3)
# skew(v).ravel() == v @ _SKEW_MAP
_SKEW_MAP = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])
# row 3k+i holds row i of skew(e_k)
_SKEW_MAP_ROWS = _SKEW_MAP.reshape(9, 3)


def skew(v) -> np.ndarray:
    """Skew-symmetric matrices S with S @ w == cross(v, w): (..., 3) -> (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_MAP).reshape(v.shape[:-1] + (3, 3))


def so3_exp(omega) -> np.ndarray:
    """Rodrigues' formula over leading axes: (..., 3) -> (..., 3, 3).

    R = I + a W + b W^2 from the closed-form entries `sek3_exp` uses. Below
    SMALL_ANGLE the two coefficients switch to their series,
    sin(t)/t ~ 1 - t^2/6 and (1 - cos t)/t^2 ~ 1/2 - t^2/24, per vector.
    """
    omega = np.asarray(omega, dtype=float)
    x, y, z = omega[..., 0], omega[..., 1], omega[..., 2]
    theta2 = x * x + y * y + z * z
    theta = np.sqrt(theta2)
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(safe)) / safe**2)
    return np.stack(_rodrigues_entries(a, b, x, y, z), axis=-1).reshape(omega.shape[:-1] + (3, 3))


def orthogonality_defect(rot) -> float:
    """Max absolute entry of R R^T - I."""
    rot = np.asarray(rot, dtype=float)
    return float(np.abs(np.dot(rot, rot.T) - _EYE3).max())


def project_rotation(rot) -> np.ndarray:
    """Closest rotation in Frobenius norm (polar projection via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(rot, dtype=float))
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


@dataclass(frozen=True, slots=True)
class GroupElement:
    """SE_K(3) element: a rotation plus K ordered 3-columns.

    For the filter mean the columns are (v, p, d_1, ..., d_L). Treated as an
    immutable value; operations return new elements. Slots make the frozen
    constructor cheaper; the filter builds two elements per step.
    """

    rot: np.ndarray  # (3, 3)
    cols: np.ndarray  # (K, 3)

    @property
    def k(self) -> int:
        return self.cols.shape[0]


def _rodrigues_entries(p, q, x, y, z) -> tuple:
    """Row-major entries of I + p W + q W^2, W = skew((x, y, z)), W^2 = w w^T - |w|^2 I."""
    xx, yy, zz, xy, xz, yz = x * x, y * y, z * z, x * y, x * z, y * z
    return (
        1.0 - q * (yy + zz), q * xy - p * z, q * xz + p * y,
        q * xy + p * z, 1.0 - q * (xx + zz), q * yz - p * x,
        q * xz - p * y, q * yz + p * x, 1.0 - q * (xx + yy),
    )


def _exp_coefficients(x, y, z) -> tuple:
    """a = sin(t)/t, b = (1 - cos t)/t^2, c = (t - sin t)/t^3 of t = |(x, y, z)|.

    Below SMALL_ANGLE each switches to its series, from Python scalars.
    """
    theta2 = x * x + y * y + z * z
    theta = math.sqrt(theta2)
    if theta < SMALL_ANGLE:
        return 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0, 1.0 / 6.0 - theta2 / 120.0
    sin = math.sin(theta)
    return sin / theta, (1.0 - math.cos(theta)) / theta2, (theta - sin) / (theta2 * theta)


def sek3_exp(xi) -> GroupElement:
    """Exponential map of SE_K(3) from a flat tangent vector.

    xi = [omega, b_1, ..., b_K]; the rotation is I + a W + b W^2
    (so3_exp(omega)) and each column is J_l(omega) @ b_i, with
    J_l = I + b W + c W^2 the left Jacobian of SO(3) (W = skew(omega)).
    Both are written entry by entry from Python scalars, with
    W^2 = omega omega^T - theta^2 I; the columns take J_l^T = I - b W + c W^2.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size % 3 != 0 or xi.size < 6:
        raise ValueError(f"tangent vector length {xi.size} is not 3(K+1)")
    x, y, z = xi[:3].tolist()
    a, b, c = _exp_coefficients(x, y, z)
    rot_jac_t = np.array(_rodrigues_entries(a, b, x, y, z) + _rodrigues_entries(-b, c, x, y, z)).reshape(2, 3, 3)
    return GroupElement(rot_jac_t[0], np.dot(xi[3:].reshape(-1, 3), rot_jac_t[1]))


def sek3_exp_compose(xi: np.ndarray, g: GroupElement) -> GroupElement:
    """sek3_compose(sek3_exp(xi), g) in one pass, with no intermediate element.

    xi is a flat float array of length 3(g.k + 1). With exp(xi) = (R, B J_l^T),
    B the (K, 3) rows of xi[3:], the product is (R R_g, B J_l^T + cols_g R^T);
    R^T = I - a W + b W^2 and J_l^T come from one np.array call.
    """
    if xi.size != 3 + g.cols.size:
        raise ValueError(f"tangent vector length {xi.size} does not match {g.k} columns")
    x, y, z = xi[:3].tolist()
    a, b, c = _exp_coefficients(x, y, z)
    rot_jac_t = np.array(_rodrigues_entries(-a, b, x, y, z) + _rodrigues_entries(-b, c, x, y, z)).reshape(6, 3)
    rot_t = rot_jac_t[:3]
    cols = np.dot(xi[3:].reshape(-1, 3), rot_jac_t[3:])
    cols += np.dot(g.cols, rot_t)
    return GroupElement(np.dot(rot_t.T, g.rot), cols)


def sek3_compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product; matches multiplication of the embedded matrices."""
    if a.k != b.k:
        raise ValueError(f"column counts differ: {a.k} vs {b.k}")
    return GroupElement(np.dot(a.rot, b.rot), np.dot(b.cols, a.rot.T) + a.cols)


def adjoint_column(g: GroupElement) -> np.ndarray:
    """First block column of adjoint(g), (3(K+1), 3): R, then skew(col_i) R per column.

    skew(c) R is linear in c, so with E the (3, 9) stack of skew(e_k) R the
    blocks below R are cols @ E: two np.dot calls, one to form E and one to
    apply it.
    """
    return np.concatenate((g.rot, np.dot(g.cols, np.dot(_SKEW_MAP_ROWS, g.rot).reshape(3, 9)).reshape(-1, 3)))


def adjoint(g: GroupElement) -> np.ndarray:
    """Adjoint matrix: Ad(X) xi = vee(X hat(xi) X^-1).

    Block structure: R on every diagonal block, adjoint_column(g) as the
    first block column, zero elsewhere. The diagonal blocks are one
    broadcast assignment through the einsum view ad[i, :, i, :] of a
    (K+1, 3, K+1, 3) array.
    """
    n = g.k + 1
    ad = np.zeros((n, 3, n, 3))
    np.einsum("ijik->ijk", ad)[...] = g.rot
    ad[:, :, 0, :] = adjoint_column(g).reshape(n, 3, 3)
    return ad.reshape(3 * n, 3 * n)
