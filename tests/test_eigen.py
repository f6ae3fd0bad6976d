"""Jacobi eigensolver checked by reconstruction, invariants, and known spectra."""

import math
import random
from operator import itemgetter

import pytest

from spherecurv import RngStream, SymMat4, draw_gaussian, sym_eigen

from fieldtools import left_sum


def _random_symmetric(seed: int, scale: float = 1.0) -> SymMat4:
    s = RngStream(seed)
    entries = []
    for _ in range(10):
        g, s = draw_gaussian(s)
        entries.append(g * scale)
    return SymMat4.from_upper(entries)


def _det4(m: SymMat4) -> float:
    rows = [list(r) for r in m.rows]

    def det3(a):
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    total = 0.0
    for j in range(4):
        minor = [[rows[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        total += (-1) ** j * rows[0][j] * det3(minor)
    return total


def test_symmetry_is_enforced():
    with pytest.raises(ValueError):
        SymMat4(rows=((0.0, 1.0, 0.0, 0.0),
                      (0.5, 0.0, 0.0, 0.0),
                      (0.0, 0.0, 0.0, 0.0),
                      (0.0, 0.0, 0.0, 0.0)))


def test_from_upper_layout():
    m = SymMat4.from_upper([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert m.rows[0][0] == 1
    assert m.rows[0][3] == 4
    assert m.rows[3][0] == 4
    assert m.rows[1][2] == 6
    assert m.rows[3][3] == 10


def test_identity_spectrum():
    m = SymMat4.from_upper([1, 0, 0, 0, 1, 0, 0, 1, 0, 1])
    vals, vecs = sym_eigen(m)
    assert vals == (1.0, 1.0, 1.0, 1.0)
    for k, v in enumerate(vecs):
        assert v[k] == 1.0


def test_diagonal_matrix_sorted_ascending():
    m = SymMat4.from_upper([3, 0, 0, 0, -1, 0, 0, 7, 0, 2])
    vals, vecs = sym_eigen(m)
    assert vals == (-1.0, 2.0, 3.0, 7.0)
    # eigenvector for -1 is +-e2; sign normalization makes it +e2
    assert vecs[0] == (0.0, 1.0, 0.0, 0.0)


def test_known_two_by_two_block():
    # [[0, 1], [1, 0]] block has eigenvalues -1 and 1
    m = SymMat4.from_upper([0, 1, 0, 0, 0, 0, 0, 5, 0, 9])
    vals, _ = sym_eigen(m)
    assert vals == pytest.approx((-1.0, 1.0, 5.0, 9.0), abs=1e-14)


@pytest.mark.parametrize("seed", range(60))
def test_reconstruction_and_orthogonality(seed):
    m = _random_symmetric(seed, scale=2.0)
    vals, vecs = sym_eigen(m)
    norm = m.frobenius()
    tol = 1e-10 * (1.0 + norm)
    for i in range(4):
        for j in range(4):
            rebuilt = sum(vals[k] * vecs[k][i] * vecs[k][j] for k in range(4))
            assert abs(rebuilt - m.rows[i][j]) <= tol
    for a in range(4):
        for b in range(4):
            dot = sum(vecs[a][i] * vecs[b][i] for i in range(4))
            assert abs(dot - (1.0 if a == b else 0.0)) <= 1e-12


@pytest.mark.parametrize("seed", range(30))
def test_trace_and_determinant_invariants(seed):
    m = _random_symmetric(seed + 1000)
    vals, _ = sym_eigen(m)
    trace = sum(m.rows[i][i] for i in range(4))
    scale = 1.0 + m.frobenius()
    assert abs(sum(vals) - trace) <= 1e-12 * scale
    prod = vals[0] * vals[1] * vals[2] * vals[3]
    assert abs(prod - _det4(m)) <= 1e-10 * scale**4


def test_ascending_order_always():
    for seed in range(40):
        vals, _ = sym_eigen(_random_symmetric(seed + 7))
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_determinism():
    m = _random_symmetric(4242)
    assert sym_eigen(m) == sym_eigen(m)


def test_repeated_eigenvalue_pair():
    """diag(2, 2, 5, 7) conjugated by a rotation in the (1, 2)-plane keeps an
    exact double eigenvalue; the solver must still produce an orthonormal
    basis and the right spectrum."""
    c = math.cos(0.7)
    s = math.sin(0.7)
    # R diag(2,2,5,7) R^T with R rotating coordinates 2 and 3
    base = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]]
    rot = [[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]]
    prod = [[sum(rot[i][k] * base[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    conj = [[sum(prod[i][k] * rot[j][k] for k in range(4)) for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            avg = 0.5 * (conj[i][j] + conj[j][i])
            conj[i][j] = conj[j][i] = avg
    vals, vecs = sym_eigen(SymMat4(rows=tuple(tuple(r) for r in conj)))
    assert vals == pytest.approx((2.0, 2.0, 5.0, 7.0), abs=1e-12)
    for a in range(4):
        for b in range(a + 1, 4):
            dot = sum(vecs[a][i] * vecs[b][i] for i in range(4))
            assert abs(dot) <= 1e-12


def _ref_sym_eigen(m):
    """sym_eigen with the Frobenius and off-diagonal norms as loop-form sums,
    before they were written out, kept as the reference."""
    a = [list(row) for row in m.rows]
    v = [[float(i == j) for j in range(4)] for i in range(4)]
    off = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    frobenius = math.sqrt(left_sum([x * x for row in m.rows for x in row]))
    threshold = 1e-14 * max(frobenius, 1e-300)
    for _ in range(100):
        if math.sqrt(left_sum([a[i][j] ** 2 for i, j in off])) <= threshold:
            break
        for p, q in off:
            apq = a[p][q]
            if abs(apq) <= threshold * 1e-2:
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * apq)
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            for k in range(4):
                akp, akq = a[k][p], a[k][q]
                a[k][p] = c * akp - s * akq
                a[k][q] = s * akp + c * akq
            for k in range(4):
                apk, aqk = a[p][k], a[q][k]
                a[p][k] = c * apk - s * aqk
                a[q][k] = s * apk + c * aqk
            for k in range(4):
                vkp, vkq = v[k][p], v[k][q]
                v[k][p] = c * vkp - s * vkq
                v[k][q] = s * vkp + c * vkq
    pairs = sorted(zip([a[k][k] for k in range(4)], zip(*v)), key=itemgetter(0))
    values, vectors = [], []
    for lam, vec in pairs:
        for comp in vec:
            if abs(comp) > 1e-12:
                if comp < 0:
                    vec = tuple(-c for c in vec)
                break
        values.append(lam)
        vectors.append(vec)
    return frobenius, tuple(values), tuple(vectors)


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    return tuple(_hex(v) for v in value)


def test_kernels_match_the_loop_form_bit_for_bit():
    """3000 seeded matrices with signed zeros, sparse rows and repeated
    entries: Frobenius norm, eigenvalues and eigenvectors by float.hex."""
    rng = random.Random("sym-eigen-kernels")
    for n in range(3000):
        upper = [rng.choice((0.0, -0.0, 1.0, -2.5)) if rng.random() < 0.2 else rng.gauss(0.0, 1.0)
                 for _ in range(10)]
        if n % 7 == 0:
            upper = [rng.choice((0.0, -0.0)) for _ in range(10)]
            upper[rng.randrange(10)] = rng.gauss(0.0, 1.0)
        m = SymMat4.from_upper(upper)
        values, vectors = sym_eigen(m)
        assert _hex((m.frobenius(), values, vectors)) == _hex(_ref_sym_eigen(m)), n
