"""Cyclic Jacobi eigendecomposition for small symmetric matrices.

Plain Jacobi is the right tool at 4x4: unconditionally stable, no complex
arithmetic, and bit-for-bit deterministic because the rotation order is fixed.
Convergence threshold is 1e-14 times the Frobenius norm, capped at 100 sweeps.
Output is fully normalized: eigenvalues ascending, each eigenvector scaled so
its first component of magnitude above 1e-12 is positive.

Symmetry is checked where rows come in: `SymMat4(rows)` rejects rows that
are not 4x4 or not exactly symmetric. `SymMat4.from_upper` writes each entry
below the diagonal as its mirror, so it checks only the count of 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

N = 4

_SWEEP_CAP = 100
_OFF_FACTOR = 1e-14
_SIGN_EPS = 1e-12


@dataclass(frozen=True)
class SymMat4:
    """Symmetric 4x4 of floats. SymMat4(rows) checks the shape and exact
    symmetry of rows; from_upper builds symmetric rows and skips that check."""

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
        u0, u1, u2, u3, u4, u5, u6, u7, u8, u9 = map(float, upper)
        m = object.__new__(cls)
        # symmetric by construction, so __post_init__'s check is skipped
        object.__setattr__(m, "rows", (
            (u0, u1, u2, u3),
            (u1, u4, u5, u6),
            (u2, u5, u7, u8),
            (u3, u6, u8, u9),
        ))
        return m

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


def _off_norm(a: Sequence[Sequence[float]]) -> float:
    (_, a01, a02, a03), (_, _, a12, a13), (_, _, _, a23), _ = a
    return math.sqrt(0 + a01**2 + a02**2 + a03**2 + a12**2 + a13**2 + a23**2)


def sym_eigen(m: SymMat4) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    """Eigenvalues (ascending) and matching orthonormal eigenvectors (as rows).

    Reconstruction sum(lam_k v_k v_k^T) reproduces m to ~1e-14 of its norm.
    ValueError on a nan or inf entry, or where the norm overflows on a large off-diagonal part.
    """
    # a and v stay the input's tuples until the first rotation, so an m
    # already within the threshold (a diagonal one) is not copied into lists
    a = m.rows
    v = _IDENTITY
    if not (frobenius := m.frobenius()) < math.inf:
        # a nan or inf spreads or divides by zero; for finite entries the inf
        # threshold stops at once, right only for a negligible off-diagonal part
        try:
            bad = not _off_norm(a) <= _OFF_FACTOR * max(abs(a[k][k]) for k in range(N))
        except OverflowError:  # an off-diagonal square
            bad = True
        if bad or not all(map(math.isfinite, sum(a, ()))):
            raise ValueError(f"sym_eigen needs finite entries, off-diagonal ones negligible if the norm overflows, got {a}")
    threshold = _OFF_FACTOR * max(frobenius, 1e-300)

    for sweep in range(_SWEEP_CAP):
        if _off_norm(a) <= threshold:
            break
        if not sweep:
            a = [list(row) for row in a]
            v = [list(row) for row in v]
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

    # Eigenvectors are the columns of v, taken by ascending diagonal; the
    # sort is stable, so tied values keep their column order.
    diag = [a[0][0], a[1][1], a[2][2], a[3][3]]
    v0, v1, v2, v3 = v
    values = []
    vectors = []
    for k in sorted(range(N), key=diag.__getitem__):
        lam, vec = diag[k], (v0[k], v1[k], v2[k], v3[k])
        for comp in vec:
            if abs(comp) > _SIGN_EPS:
                if comp < 0:
                    vec = tuple(-c for c in vec)
                break
        values.append(lam)
        vectors.append(vec)
    return tuple(values), tuple(vectors)
