"""Field construction, derivative tables, and evaluation semantics, checked
against finite differences and exact algebraic oracles."""

import random
from fractions import Fraction

import pytest

from spherecurv import (
    N_VARS,
    RngStream,
    cartan_field,
    coordinate_field,
    draw_rational,
    eval1,
    eval2,
    hess_bilinear,
    hess_terms,
    polynomial_field,
)
from fieldtools import UPPER, draw_float, expanded_quartic, hess_matrix, polynomial_product

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


def test_coordinate_field_validation():
    coordinate_field(0)
    coordinate_field(5)
    with pytest.raises(ValueError):
        coordinate_field(6)
    with pytest.raises(ValueError):
        coordinate_field(-1)


def test_polynomial_field_drops_zero_terms():
    f = polynomial_field({(1, 0, 0, 0, 0, 0): 0, (0, 2, 0, 0, 0, 0): Fraction(3)})
    assert len(f.coeffs) == 1
    assert f.coeffs[0] == ((0, 2, 0, 0, 0, 0), Fraction(3))
    assert type(f.coeffs[0][1]) is int


def test_polynomial_field_rejects_bad_exponents():
    with pytest.raises(ValueError):
        polynomial_field({(1, 0, 0): 1})
    with pytest.raises(ValueError):
        polynomial_field({(1, 0, 0, 0, 0, -1): 1})


def test_polynomial_product_difference_of_squares():
    x_plus_y = polynomial_field({(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1})
    x_minus_y = polynomial_field({(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): -1})
    prod = polynomial_product(x_plus_y, x_minus_y)
    expected = polynomial_field({(2, 0, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0, 0): -1})
    assert prod == expected


def test_describe_is_json_friendly():
    assert coordinate_field(3).describe() == {"kind": "coordinate", "index": 3}
    assert cartan_field().describe() == {"kind": "cartan_quartic"}
    poly = polynomial_field({(2, 0, 0, 0, 0, 0): 1})
    assert poly.describe() == {"kind": "polynomial", "terms": 1}


def test_builtin_quartic_equals_expanded_polynomial():
    """The built-in quartic and its independent expansion are the same field."""
    builtin = cartan_field()
    expanded = expanded_quartic()
    s = RngStream(2718)
    for _ in range(20):
        pt, s = _rational_point(s, 7)
        assert eval2(builtin, pt) == eval2(expanded, pt)


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


def test_hess_bilinear_matches_full_matrix():
    f = polynomial_field({(1, 1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 2, 0): 1})
    g = polynomial_field({(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1})
    x = tuple(Fraction(v) for v in (1, 2, 0, 0, -1, 0))
    _, _, hess = eval2(polynomial_product(f, g), x)
    mat = hess_matrix(hess)
    u = (1, 2, 0, 0, 3, 0)
    v = (0, 1, 0, 0, -2, 1)
    full = sum(mat[a][b] * u[a] * v[b] for a in range(N_VARS) for b in range(N_VARS))
    assert hess_bilinear(hess_terms(hess), u, v) == full


def _dense_hess_bilinear(hess, u, v):
    """u^T H v over every upper-triangle entry, zeros included: the form
    before zero entries were skipped, kept as the reference."""
    acc = 0
    k = 0
    for i in range(N_VARS):
        ui = u[i]
        acc += hess[k] * ui * v[i]
        k += 1
        for j in range(i + 1, N_VARS):
            acc += hess[k] * (ui * v[j] + u[j] * v[i])
            k += 1
    return acc


def _gauss_with_zeros(rng):
    """Six normals, each replaced by 0.0 or -0.0 with probability 1/4."""
    return [rng.choice((0.0, -0.0)) if rng.random() < 0.25 else rng.gauss(0.0, 1.0)
            for _ in range(N_VARS)]


def _sparse_table(rng):
    """Up to five terms of degree <= 3 with small int or Fraction coefficients."""
    table = {}
    for _ in range(rng.randint(1, 5)):
        exps = [0] * N_VARS
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(N_VARS)] += 1
        table[tuple(exps)] = rng.choice((1, -2, 3, Fraction(1, 3), Fraction(-5, 2)))
    return table


@pytest.mark.parametrize("kind", ["coordinate", "cartan", "sparse"])
def test_zero_skipping_hess_bilinear_matches_dense_form(kind):
    """Bit for bit, sign of zero included, on 2000 seeded (point, u, v) frames
    with signed zeros in every vector."""
    rng = random.Random(f"hess-bilinear-{kind}")
    fields = {
        "coordinate": [coordinate_field(i) for i in range(N_VARS)],
        "cartan": [cartan_field()],
        "sparse": [polynomial_field(_sparse_table(rng)) for _ in range(50)],
    }[kind]
    zero_entries = 0
    for n in range(2000):
        x, u = _gauss_with_zeros(rng), _gauss_with_zeros(rng)
        v = u if n % 4 == 0 else _gauss_with_zeros(rng)
        _, _, hess = eval2(fields[n % len(fields)], x)
        zero_entries += sum(1 for h in hess if h == 0)
        got, ref = hess_bilinear(hess_terms(hess), u, v), _dense_hess_bilinear(hess, u, v)
        assert got == ref
        assert float(got).hex() == float(ref).hex()
    assert zero_entries > 0


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
    fg = polynomial_product(f, g)
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
