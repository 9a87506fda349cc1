"""Rotation algebra: unit quaternions and 3x3 rotation matrices.

All rotation matrices follow the row-vector-on-the-right convention used
throughout the package: ``rotated = coords @ R.T`` for an (N, 3) coordinate
array, equivalent to applying ``R`` to each column vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "quaternion_to_matrix",
    "matrix_to_quaternion",
    "random_rotation_matrix",
    "rotation_matrix_axis_angle",
    "rotation_matrix_euler",
    "is_rotation_matrix",
    "rotation_angle_between",
]


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion ``w + xi + yj + zk`` representing a 3-D rotation.

    Stored normalized; construction normalizes its inputs.  The identity
    rotation is ``Quaternion(1, 0, 0, 0)``.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm = float(np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2))
        if norm == 0.0:
            raise ValueError("zero quaternion cannot represent a rotation")
        if abs(norm - 1.0) > 1e-12:
            object.__setattr__(self, "w", self.w / norm)
            object.__setattr__(self, "x", self.x / norm)
            object.__setattr__(self, "y", self.y / norm)
            object.__setattr__(self, "z", self.z / norm)

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis: np.ndarray, angle: float) -> "Quaternion":
        """Quaternion rotating by ``angle`` radians about ``axis``."""
        axis = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            raise ValueError("rotation axis must be non-zero")
        axis = axis / norm
        half = 0.5 * angle
        s = np.sin(half)
        return cls(float(np.cos(half)), float(axis[0] * s), float(axis[1] * s), float(axis[2] * s))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product; ``(a * b)`` rotates by ``b`` then ``a``."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def rotate(self, coords: np.ndarray) -> np.ndarray:
        """Rotate an (N, 3) or (3,) coordinate array by this quaternion."""
        return np.asarray(coords, dtype=float) @ quaternion_to_matrix(self).T

    def angle_to(self, other: "Quaternion") -> float:
        """Geodesic rotation angle (radians) between two orientations."""
        dot = abs(float(np.dot(self.as_array(), other.as_array())))
        dot = min(dot, 1.0)
        return 2.0 * float(np.arccos(dot))


def quaternion_to_matrix(q: Quaternion) -> np.ndarray:
    """Convert a unit quaternion to a 3x3 rotation matrix."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ],
        dtype=float,
    )


def matrix_to_quaternion(R: np.ndarray) -> Quaternion:
    """Convert a rotation matrix to a unit quaternion (Shepperd's method)."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"expected (3, 3) matrix, got {R.shape}")
    trace = float(np.trace(R))
    if trace > 0:
        s = 2.0 * np.sqrt(trace + 1.0)
        w = 0.25 * s
        x = (R[2, 1] - R[1, 2]) / s
        y = (R[0, 2] - R[2, 0]) / s
        z = (R[1, 0] - R[0, 1]) / s
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = 2.0 * np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2])
        w = (R[2, 1] - R[1, 2]) / s
        x = 0.25 * s
        y = (R[0, 1] + R[1, 0]) / s
        z = (R[0, 2] + R[2, 0]) / s
    elif R[1, 1] > R[2, 2]:
        s = 2.0 * np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2])
        w = (R[0, 2] - R[2, 0]) / s
        x = (R[0, 1] + R[1, 0]) / s
        y = 0.25 * s
        z = (R[1, 2] + R[2, 1]) / s
    else:
        s = 2.0 * np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1])
        w = (R[1, 0] - R[0, 1]) / s
        x = (R[0, 2] + R[2, 0]) / s
        y = (R[1, 2] + R[2, 1]) / s
        z = 0.25 * s
    return Quaternion(float(w), float(x), float(y), float(z))


def rotation_matrix_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix for ``angle`` radians about ``axis`` (Rodrigues)."""
    return quaternion_to_matrix(Quaternion.from_axis_angle(axis, angle))


def rotation_matrix_euler(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Z-Y-Z Euler-angle rotation matrix ``Rz(alpha) @ Ry(beta) @ Rz(gamma)``."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rz_a = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]], dtype=float)
    ry_b = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]], dtype=float)
    rz_g = np.array([[cg, -sg, 0], [sg, cg, 0], [0, 0, 1]], dtype=float)
    return rz_a @ ry_b @ rz_g


def random_rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    """Draw a rotation matrix uniformly from SO(3) (Shoemake's method)."""
    u1, u2, u3 = rng.random(3)
    q = Quaternion(
        float(np.sqrt(1 - u1) * np.sin(2 * np.pi * u2)),
        float(np.sqrt(1 - u1) * np.cos(2 * np.pi * u2)),
        float(np.sqrt(u1) * np.sin(2 * np.pi * u3)),
        float(np.sqrt(u1) * np.cos(2 * np.pi * u3)),
    )
    return quaternion_to_matrix(q)


#: Relative tolerance of the orthogonality test: ``np.allclose``'s default.
_ORTHO_RTOL = 1e-5


def is_rotation_matrix(R: np.ndarray, atol: float = 1e-8) -> bool:
    """True if ``R`` is orthogonal with determinant +1 within ``atol``.

    Orthogonality is ``np.allclose(R @ R.T, I, atol=atol)`` written out:
    every entry of R·Rᵀ − I within ``atol + 1e-5·|I|``.  The determinant
    is expanded by cofactors.  Both run on Python floats, where NaN fails
    every comparison and inf reaches R·Rᵀ's diagonal, so a matrix with a
    non-finite entry is never a rotation.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    rows = R.tolist()
    for i in range(3):
        xi, yi, zi = rows[i]
        for j in range(i, 3):
            xj, yj, zj = rows[j]
            eye = 1.0 if i == j else 0.0
            if not abs(xi * xj + yi * yj + zi * zj - eye) <= atol + _ORTHO_RTOL * eye:
                return False
    (a, b, c), (d, e, f), (g, h, k) = rows
    det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    return abs(det - 1.0) <= atol


def rotation_angle_between(R1: np.ndarray, R2: np.ndarray) -> float:
    """Geodesic angle (radians) between two rotation matrices."""
    R = np.asarray(R1) @ np.asarray(R2).T
    cos_theta = (float(np.trace(R)) - 1.0) / 2.0
    cos_theta = min(1.0, max(-1.0, cos_theta))
    return float(np.arccos(cos_theta))
