"""Cyclic Jacobi eigendecomposition for small symmetric matrices.

Plain Jacobi is the right tool at 4x4: unconditionally stable, no complex
arithmetic, and bit-for-bit deterministic because the rotation order is fixed.
Convergence threshold is 1e-14 times the Frobenius norm, capped at 100 sweeps.
Output is fully normalized: eigenvalues ascending, each eigenvector scaled so
its first component of magnitude above 1e-12 is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

N = 4

_SWEEP_CAP = 100
_OFF_FACTOR = 1e-14
_SIGN_EPS = 1e-12


@dataclass(frozen=True)
class SymMat4:
    """Symmetric 4x4 of floats; exact symmetry is enforced at construction."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != N or any(len(r) != N for r in self.rows):
            raise ValueError("SymMat4 needs 4x4 entries")
        for i in range(N):
            for j in range(i + 1, N):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError(f"asymmetric entries at ({i},{j})")

    @classmethod
    def from_upper(cls, upper: Sequence[float]) -> "SymMat4":
        """Build from the 10 upper-triangle entries, row-major."""
        if len(upper) != 10:
            raise ValueError("upper triangle of a 4x4 has 10 entries")
        u = [float(v) for v in upper]
        return cls((
            (u[0], u[1], u[2], u[3]),
            (u[1], u[4], u[5], u[6]),
            (u[2], u[5], u[7], u[8]),
            (u[3], u[6], u[8], u[9]),
        ))

    def frobenius(self) -> float:
        (r00, r01, r02, r03), (r10, r11, r12, r13) = self.rows[:2]
        (r20, r21, r22, r23), (r30, r31, r32, r33) = self.rows[2:]
        return math.sqrt(
            0 + r00 * r00 + r01 * r01 + r02 * r02 + r03 * r03
            + r10 * r10 + r11 * r11 + r12 * r12 + r13 * r13
            + r20 * r20 + r21 * r21 + r22 * r22 + r23 * r23
            + r30 * r30 + r31 * r31 + r32 * r32 + r33 * r33
        )


_IDENTITY = tuple(tuple(float(i == j) for j in range(N)) for i in range(N))


def _off_norm(a: list[list[float]]) -> float:
    (_, a01, a02, a03), (_, _, a12, a13), (_, _, _, a23), _ = a
    return math.sqrt(0 + a01**2 + a02**2 + a03**2 + a12**2 + a13**2 + a23**2)


def sym_eigen(m: SymMat4) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Eigenvalues (ascending) and matching orthonormal eigenvectors (as rows).

    Reconstruction sum(lam_k v_k v_k^T) reproduces m to ~1e-14 of its norm.
    """
    a = [list(row) for row in m.rows]
    v = [list(row) for row in _IDENTITY]
    threshold = _OFF_FACTOR * max(m.frobenius(), 1e-300)

    for _ in range(_SWEEP_CAP):
        if _off_norm(a) <= threshold:
            break
        for p in range(N - 1):
            for q in range(p + 1, N):
                apq = a[p][q]
                if abs(apq) <= threshold * 1e-2:
                    continue
                # Classic stable rotation choice (Golub & Van Loan alg. 8.4.1)
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(N):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(N):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(N):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq

    # Eigenvectors are the columns of v.
    pairs = sorted(zip([a[k][k] for k in range(N)], zip(*v)), key=itemgetter(0))
    values = []
    vectors = []
    for lam, vec in pairs:
        for comp in vec:
            if abs(comp) > _SIGN_EPS:
                if comp < 0:
                    vec = tuple(-c for c in vec)
                break
        values.append(lam)
        vectors.append(vec)
    return tuple(values), tuple(vectors)
