"""Jacobi eigensolver checked by reconstruction, invariants, and known spectra."""

import math
import random
from operator import itemgetter

import pytest

from spherecurv import RngStream, SymMat4, draw_gaussian, eigen, sym_eigen

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


@pytest.mark.parametrize("rows", [
    ((0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
    ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
    ((0.0,) * 4,) * 5,
    (),
], ids=["3x4", "4x3", "ragged", "5x4", "empty"])
def test_direct_rows_must_be_4x4(rows):
    with pytest.raises(ValueError, match="4x4"):
        SymMat4(rows=rows)


@pytest.mark.parametrize("i, j", [(0, 1), (0, 3), (1, 2), (2, 3)])
def test_direct_rows_must_be_exactly_symmetric(i, j):
    """One entry below the diagonal one ulp off its mirror is rejected."""
    rows = [[float(min(r, c)) for c in range(4)] for r in range(4)]
    rows[j][i] = math.nextafter(rows[i][j], math.inf)
    with pytest.raises(ValueError, match=f"asymmetric entries at \\({i},{j}\\)"):
        SymMat4(rows=tuple(map(tuple, rows)))


@pytest.mark.parametrize("n", [0, 9, 11, 16])
def test_from_upper_needs_ten_entries(n):
    with pytest.raises(ValueError, match="10 entries"):
        SymMat4.from_upper([1.0] * n)


def test_from_upper_equals_checked_rows():
    """from_upper skips the symmetry check, and builds the same value that
    the checked constructor accepts: floats, mirrored, equal and hashing
    alike."""
    upper = [1, -2.5, 0.0, -0.0, 3, 4.25, 5, 6, 7, 8]
    m = SymMat4.from_upper(upper)
    checked = SymMat4(rows=m.rows)
    assert m == checked and hash(m) == hash(checked)
    assert all(type(x) is float for row in m.rows for x in row)
    assert all(m.rows[i][j] == m.rows[j][i] for i in range(4) for j in range(4))


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


def _ref_outcome(m):
    """_ref_sym_eigen(m)'s floats by float.hex, or None where it raises."""
    try:
        return _hex(_ref_sym_eigen(m))
    except ArithmeticError:
        return None


def _skip_edge_upper():
    """A matrix whose entry (0, 1) equals threshold * 1e-2 exactly, the
    largest entry the sweep skips, next to an entry (2, 3) that makes the
    first sweep run. Rotating (0, 1) would give eigenvectors an entry near
    1e-16 where the skip leaves 0.0."""
    upper = [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.5, 4.0]
    while True:
        threshold = 1e-14 * max(SymMat4.from_upper(upper).frobenius(), 1e-300)
        if upper[1] == threshold * 1e-2:
            return upper
        upper[1] = threshold * 1e-2


_DIAGONAL = (0, 4, 7, 9)  # the diagonal entries among the 10 upper ones


def _edge_uppers(rng):
    """Matrices with a nan or an infinite entry, among random entries or
    among zeros of either sign; random ones scaled by 1e-300 and by 1e300;
    all-zero ones; the skip edge; ones the first off-diagonal norm test
    already accepts: diagonal ones with signed-zero or tiny nonzero
    off-diagonal entries and tied or ordered diagonals; and two finite ones
    whose Frobenius norm overflows only through the diagonal, so that the
    threshold is inf."""
    def zeros():
        return [rng.choice((0.0, -0.0)) for _ in range(10)]

    out = [_skip_edge_upper(), [1e200, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, -1e200, 0.0, 2.0],
           [1e200, 1.0, 0.5, 0.0, 1e200, 0.0, 0.0, 1.0, 1e150, -2.0]]
    for _ in range(12):
        upper = [rng.gauss(0.0, 1.0) for _ in range(10)]
        diagonal = zeros()
        for k, d in zip(_DIAGONAL, rng.choice(([3.0, 1.0, 2.0, -1.0], [2.0, 2.0, -0.0, 2.0], upper[:4]))):
            diagonal[k] = d
        out += [diagonal, [x if k in _DIAGONAL else rng.choice((1e-20, -1e-20, 0.0)) for k, x in enumerate(diagonal)]]
        for bad in (math.nan, math.inf, -math.inf):
            for base in (upper, zeros()):
                planted = list(base)
                planted[rng.randrange(10)] = bad
                out.append(planted)
        out += [[x * 1e-300 for x in upper], [x * 1e300 for x in upper], zeros()]
    return out


def test_kernels_match_the_loop_form_bit_for_bit():
    """3000 seeded matrices with signed zeros, sparse rows and repeated
    entries, and the edge matrices of _edge_uppers: Frobenius norm,
    eigenvalues and eigenvectors by float.hex. A matrix with a nan or an
    infinite entry, or one on which the loop form raises, raises ValueError:
    there the loop form divides by zero on a nan threshold (a nan entry is
    not skipped, and max(nan, 1e-300) is nan), returns nans after 100
    sweeps, or overflows squaring an off-diagonal entry."""
    rng = random.Random("sym-eigen-kernels")
    uppers = []
    for n in range(3000):
        upper = [rng.choice((0.0, -0.0, 1.0, -2.5)) if rng.random() < 0.2 else rng.gauss(0.0, 1.0)
                 for _ in range(10)]
        if n % 7 == 0:
            upper = [rng.choice((0.0, -0.0)) for _ in range(10)]
            upper[rng.randrange(10)] = rng.gauss(0.0, 1.0)
        uppers.append(upper)
    rejected = 0
    for n, upper in enumerate(uppers + _edge_uppers(rng)):
        m = SymMat4.from_upper(upper)
        want = _ref_outcome(m)
        if want is None or not all(map(math.isfinite, upper)):
            with pytest.raises(ValueError, match="sym_eigen"):
                sym_eigen(m)
            rejected += 1
        else:
            assert _hex((m.frobenius(), *sym_eigen(m))) == want, n
    assert rejected == 12 * 7  # the 72 with a nan or an inf, the 12 scaled by 1e300


@pytest.mark.parametrize(
    "upper, message",
    [
        ([math.nan] + [0.0] * 9, r"^sym_eigen needs finite entries, .* got \(\(nan, 0\.0, 0\.0, 0\.0\), "),
        ([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, -math.inf, 1.0], r"needs finite entries, .*-inf"),
        ([1.0, 2e154, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0], r"negligible if the norm overflows, got \(\(1\.0, 2e\+154, "),
        ([1.0, 1.2e154, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0], "negligible if the norm overflows"),
        ([0.0, 1e154, 1e154, 1e154, 0.0, 1e154, 1e154, 0.0, 1e154, 0.0], "negligible if the norm overflows"),
        ([1e200, 1e160, 0.0, 0.0, 1e200, 0.0, 0.0, 1.0, 0.0, 1.0], "negligible if the norm overflows"),
        ([1e160, 1e150, 0.0, 0.0, 1e160, 0.0, 0.0, 1.0, 0.0, 1.0], "negligible if the norm overflows"),
        ([1.0, -0.0, 0.0, -0.0, 2.0, 0.0, -0.0, 3.0, 0.0, math.inf], r"needs finite entries, .*inf\)\)$"),
        ([1.0, 0.0, 0.0, 0.0, -math.inf, 0.0, 0.0, 3.0, 0.0, 4.0], r"needs finite entries, .*-inf"),
        ([1.0, -0.0, 0.0, 0.0, 2.0, 0.0, 0.0, math.nan, -0.0, 4.0], r"needs finite entries, .*nan"),
        ([1.0, 0.0, math.nan, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0], r"needs finite entries, .*nan"),
    ],
    ids=["nan", "inf", "square-overflows", "norm-overflows", "six-squares-overflow", "square-beside-1e200",
         "1e150-beside-1e160", "inf-on-a-diagonal-form", "minus-inf-on-a-diagonal-form",
         "nan-on-a-diagonal-form", "nan-off-the-diagonal"],
)
def test_extreme_entries_raise_value_error(upper, message):
    """Where the loop form raised ZeroDivisionError (nan), returned nans or
    raised OverflowError (2e154 squared), sym_eigen raises ValueError. So it
    does where the loop form returned the diagonal and identity vectors
    because an overflowing norm made its threshold inf while the
    off-diagonal part was not negligible: the true eigenvalues of the
    1.2e154 matrix are about +-1.2e154, not 1, and those of the 1e160 one
    are 1e160 +- 1e150."""
    with pytest.raises(ValueError, match=message):
        sym_eigen(SymMat4.from_upper(upper))


@pytest.mark.parametrize(
    "upper",
    [
        [2.0, -0.0, 0.0, -0.0, -1.0, -0.0, 0.0, 2.0, -0.0, 0.5],
        [-0.0, -0.0, -0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -0.0, 0.0],
        [1e200, 0.0, -0.0, 0.0, -1e200, 0.0, 0.0, 3.0, 0.0, 1e200],
        [1.7976931348623157e308, 0.0, 0.0, 0.0, -1.7976931348623157e308, 0.0, 0.0, 5e-324, 0.0, -0.0],
    ],
    ids=["signed-zero-off-diagonal", "all-signed-zeros", "1e200-norm-overflows", "float-max"],
)
def test_extreme_diagonal_forms_skip_the_norms_and_keep_the_loop_form_bits(monkeypatch, upper):
    """An exactly diagonal form with a finite diagonal returns the sorted
    diagonal and identity vectors before either norm runs, with the bits of
    the loop form, which computes both and finds nothing to rotate: also
    where its Frobenius norm overflows and its threshold is inf."""
    m = SymMat4.from_upper(upper)
    want = _ref_outcome(m)

    def no_norm(*args):
        raise AssertionError("a norm ran on a diagonal form")

    monkeypatch.setattr(eigen, "_off_norm", no_norm)
    monkeypatch.setattr(SymMat4, "frobenius", no_norm)
    assert want is not None and _hex(sym_eigen(m)) == want[1:]

