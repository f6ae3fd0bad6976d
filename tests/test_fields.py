"""Field construction, derivative tables, and evaluation semantics, checked
against finite differences and exact algebraic oracles."""

from fractions import Fraction

import pytest

from spherecurv import (
    N_VARS,
    RngStream,
    cartan_field,
    cartan_model,
    coordinate_field,
    draw_rational,
    equator_model,
    eval1,
    eval2,
    hess_terms,
    polynomial_field,
)
from spherecurv.fields import Poly
from fieldtools import UPPER, draw_float, expanded_quartic, field, hess_matrix, ring, variables

# Central differences: gradient error ~ h^2 + eps/h, second-derivative error
# ~ h^2 + eps/h^2, so each order gets its own near-optimal step.
_GRAD_STEP = 1e-5
_HESS_STEP = 1e-4
_GRAD_TOL = 1e-8
_HESS_TOL = 1e-6


def _field_value(field, x):
    return eval2(field, tuple(x))[0]


def _fd_grad(field, x, i):
    xp = list(x)
    xm = list(x)
    xp[i] += _GRAD_STEP
    xm[i] -= _GRAD_STEP
    return (_field_value(field, xp) - _field_value(field, xm)) / (2 * _GRAD_STEP)


def _fd_hess(field, x, i, j):
    if i == j:
        xp = list(x)
        xm = list(x)
        xp[i] += _HESS_STEP
        xm[i] -= _HESS_STEP
        f0 = _field_value(field, x)
        return (_field_value(field, xp) - 2 * f0 + _field_value(field, xm)) / _HESS_STEP**2
    xpp = list(x)
    xpm = list(x)
    xmp = list(x)
    xmm = list(x)
    for vec, si, sj in ((xpp, 1, 1), (xpm, 1, -1), (xmp, -1, 1), (xmm, -1, -1)):
        vec[i] += si * _HESS_STEP
        vec[j] += sj * _HESS_STEP
    return (
        _field_value(field, xpp)
        - _field_value(field, xpm)
        - _field_value(field, xmp)
        + _field_value(field, xmm)
    ) / (4 * _HESS_STEP**2)


def _random_point(seed):
    s = RngStream(seed)
    out = []
    for _ in range(N_VARS):
        v, s = draw_float(s, -1.0, 1.0)
        out.append(v)
    return tuple(out)


def _rational_point(s, height):
    pt = []
    for _ in range(N_VARS):
        q, s = draw_rational(s, height)
        pt.append(q)
    return tuple(pt), s


def test_polynomial_field_drops_zero_terms():
    f = polynomial_field({(1, 0, 0, 0, 0, 0): 0, (0, 2, 0, 0, 0, 0): Fraction(3)})
    assert len(f.coeffs) == 1
    assert f.coeffs[0] == ((0, 2, 0, 0, 0, 0), Fraction(3))
    assert type(f.coeffs[0][1]) is int


# exponent tuple -> (exception, message) for polynomial_field; a float or
# bool exponent was once truncated by int() or read as 0 / 1
_BAD_EXPONENTS = [
    ((1, 0, 0), ValueError, "3 entries"),
    ((0,) * 7, ValueError, "7 entries"),
    ((1, 0, 0, 0, 0, -1), ValueError, "nonnegative"),
    ((1.5, 0, 0, 0, 0, 0), TypeError, "must be ints"),
    ((1.0, 0, 0, 0, 0, 0), TypeError, "must be ints"),
    ((True, 0, 0, 0, 0, 0), TypeError, "must be ints"),
    ((0, 0, 0, 0, 0, False), TypeError, "must be ints"),
    ((Fraction(2), 0, 0, 0, 0, 0), TypeError, "must be ints"),
    ((0, 0, 0, 0, 0, float("nan")), TypeError, "must be ints"),
]


@pytest.mark.parametrize("exps, error, message", _BAD_EXPONENTS)
def test_polynomial_field_rejects_exponents_that_are_not_plain_ints(exps, error, message):
    with pytest.raises(error, match=message):
        polynomial_field({exps: 1})


@pytest.mark.parametrize("index, error", [
    (True, TypeError), (False, TypeError), (1.0, TypeError), (2.5, TypeError),
    (Fraction(1), TypeError), (-1, ValueError), (6, ValueError),
])
def test_coordinate_field_rejects_an_index_that_is_not_a_plain_int(index, error):
    with pytest.raises(error, match="coordinate index"):
        coordinate_field(index)


def test_polynomial_product_difference_of_squares():
    x_plus_y = polynomial_field({(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1})
    x_minus_y = polynomial_field({(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): -1})
    prod = field(ring(x_plus_y) * ring(x_minus_y))
    expected = polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): -1})
    assert prod == expected


def test_poly_ring_arithmetic():
    """Poly with Polys and numbers on two variables; diff keeps a Fraction
    coefficient a Fraction, and table makes each integral one an int."""
    x, y = variables(2)
    assert (x + y) * (x - y) == x**2 - y**2 != x**2
    assert 3 - x == -(x - 3) == -x + 3 and 2 * x == x * 2 == x + x and x**0 == 1
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    d = (Fraction(1, 2) * x**2).diff(0)
    assert d.terms == {(1, 0): 1} and type(d.terms[1, 0]) is Fraction
    table = ((x * Fraction(1, 2)) ** 2 * 4 - y).table
    assert table == (((0, 1), -1), ((2, 0), 1)) and [type(c) for _e, c in table] == [int, int]


def test_describe_is_json_friendly():
    assert coordinate_field(3).describe() == {"kind": "coordinate", "index": 3}
    assert cartan_field().describe() == {"kind": "cartan_quartic"}
    poly = polynomial_field({(2, 0, 0, 0, 0, 0): 1})
    assert poly.describe() == {"kind": "polynomial", "terms": 1}


def test_builtin_quartic_equals_expanded_polynomial():
    """The built-in quartic and its expansion from the six variables have
    the same table."""
    assert cartan_field().coeffs == expanded_quartic().coeffs


def test_eval_point_validation():
    f = cartan_field()
    with pytest.raises(ValueError):
        eval2(f, (1.0, 2.0))
    with pytest.raises(ValueError):
        eval2(f, (0.0, 0.0, 0.0, float("nan"), 0.0, 0.0))
    with pytest.raises(ValueError):
        eval1(f, (0.0, 0.0, 0.0, 0.0, float("inf"), 0.0))


def test_exactness_on_rational_points():
    f = cartan_field()
    pt = tuple(Fraction(1, k) for k in range(2, 8))
    value, grad, hess = eval2(f, pt)
    assert isinstance(value, Fraction)
    assert all(isinstance(g, Fraction) for g in grad)
    assert all(isinstance(h, Fraction) for h in hess)


def test_float_points_stay_float():
    f = cartan_field()
    value, grad, hess = eval2(f, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
    assert isinstance(value, float)
    assert all(isinstance(g, float) for g in grad)
    assert all(isinstance(h, float) for h in hess)


def test_hess_terms_give_the_full_bilinear_form():
    """u^T H v summed over hess_terms' nonzero upper entries, as second_form
    sums it, equals the sum over the full matrix."""
    f = polynomial_field({(1, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 2, 0): 1})
    g = polynomial_field({(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1})
    x = tuple(Fraction(v) for v in (1, 2, 0, 0, -1, 0))
    _, _, hess = eval2(field(ring(f) * ring(g)), x)
    mat = hess_matrix(hess)
    u = (1, 2, 0, 0, 3, 0)
    v = (0, 1, 0, 0, -2, 1)
    full = sum(mat[a][b] * u[a] * v[b] for a in range(N_VARS) for b in range(N_VARS))
    terms = hess_terms(hess)
    assert [h for h, _ij in terms] == [h for h in hess if h]
    assert sum(h * u[i] * v[i] if i == j else h * (u[i] * v[j] + u[j] * v[i]) for h, (i, j) in terms) == full


def test_quartic_field_at_first_basis_vector():
    """Hand-derived derivatives of the catalog quartic at e1.

    With F = A^2 + 4B^2, A = x1^2+x2^2+x3^2-x4^2-x5^2-x6^2 and
    B = x1 x4 + x2 x5 + x3 x6, the point e1 has A = 1, B = 0, so
    Hess F = 2 grad(A) grad(A)^T + 2 Hess(A) + 8 grad(B) grad(B)^T, which is
    diagonal: (12, 4, 4, 4, -4, -4). All off-diagonal entries vanish.
    """
    x = tuple(Fraction(v) for v in (1, 0, 0, 0, 0, 0))
    value, grad, hess = eval2(cartan_field(), x)
    assert value == 1
    assert grad == (4, 0, 0, 0, 0, 0)
    mat = hess_matrix(hess)
    assert [mat[i][i] for i in range(6)] == [12, 4, 4, 4, -4, -4]
    for i in range(6):
        for j in range(6):
            if i != j:
                assert mat[i][j] == 0


def test_exact_product_rule_on_polynomials():
    """Derivatives of f*g equal the product rule applied to those of f and g."""
    f = polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 1): -3})
    g = polynomial_field({(1, 1, 0, 0, 0, 0): 2, (0, 0, 0, 0, 0, 0): 5})
    fg = field(ring(f) * ring(g))
    s = RngStream(404)
    for _ in range(25):
        pt, s = _rational_point(s, 9)
        fv, fgr, fh = eval2(f, pt)
        gv, ggr, gh = eval2(g, pt)
        value, grad, hess = eval2(fg, pt)
        assert value == fv * gv
        assert grad == tuple(fv * ggr[k] + gv * fgr[k] for k in range(N_VARS))
        assert hess == tuple(
            fv * gh[k] + gv * fh[k] + fgr[i] * ggr[j] + ggr[i] * fgr[j]
            for k, (i, j) in enumerate(UPPER)
        )


@pytest.mark.parametrize("seed", range(6))
def test_gradient_matches_finite_differences(seed):
    field = cartan_field()
    x = _random_point(seed)
    _, grad, _ = eval2(field, x)
    for i in range(N_VARS):
        fd = _fd_grad(field, x, i)
        assert grad[i] == pytest.approx(fd, abs=_GRAD_TOL)


@pytest.mark.parametrize("seed", range(4))
def test_hessian_matches_finite_differences(seed):
    field = cartan_field()
    x = _random_point(100 + seed)
    _, _, hess = eval2(field, x)
    for k, (i, j) in enumerate(UPPER):
        fd = _fd_hess(field, x, i, j)
        assert hess[k] == pytest.approx(fd, abs=_HESS_TOL)


def test_eval1_agrees_with_eval2():
    field = cartan_field()
    x = _random_point(55)
    value, grad, _ = eval2(field, x)
    assert eval1(field, x) == (value, grad)


# |x|^2 on R^6
_X2 = sum(x * x for x in variables())


def _munzner_residues(f, g):
    """(|grad F|^2 - g^2 |x|^(2g - 2), Laplacian of F) for the Poly F of a
    homogeneous polynomial of degree g on R^6: both 0 when F satisfies
    Munzner's equations."""
    grads = [f.diff(i) for i in range(N_VARS)]
    return sum(d * d for d in grads) - g * g * _X2 ** (g - 1), sum(d.diff(i) for i, d in enumerate(grads))


def _cartan_munzner(quartic):
    """G = |x|^4 - 2 F for the Poly F of the Cartan quartic."""
    return _X2 * _X2 - 2 * quartic


@pytest.mark.parametrize(
    "model, munzner", [(equator_model(), lambda f: f), (cartan_model(), _cartan_munzner)], ids=["equator", "cartan"]
)
def test_analyze_fields_are_isoparametric(model, munzner):
    """The fields that analyze samples satisfy Munzner's (1980) equations,
    exactly on their own tables: a homogeneous F of degree g on R^6 with
    |grad F|^2 = g^2 |x|^(2g - 2) and Laplacian c |x|^(g - 2) has
    isoparametric levels in S^5 with g distinct principal curvatures, and
    c = 0 makes their multiplicities equal, m = 4 / g. For the Cartan
    quartic F the Cartan-Munzner polynomial is G = |x|^4 - 2 F, g = 4 and
    m = 1; the coordinate x_6 is the g = 1 case, the equator."""
    g, f = model.g, munzner(ring(model.field_spec.field))
    assert {sum(exps) for exps in f.terms} == {g}
    assert _munzner_residues(f, g) == (0, 0)
    assert model.multiplicities == ((N_VARS - 2) // g,) * g


def test_munzner_residues_reject_a_planted_coefficient():
    """A Cartan table with one coefficient off by one fails both equations."""
    (exps, c), *rest = cartan_field().coeffs
    grad_sq, laplacian = _munzner_residues(_cartan_munzner(Poly(dict([(exps, c + 1), *rest]))), 4)
    assert grad_sq != 0 and laplacian != 0
