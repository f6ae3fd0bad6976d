"""Exact verification layer: solvers, interaction sums, divergence coefficient.

Frozen oracles in this file were derived by hand before the implementation
existed:

  * diag_from_K at lam=(1,2,3,4), K=(1,0,0,0): denominators
    prod_{j!=i}(lam_j - lam_i) are (6, -2, 2, -6), so column 0 is
    (1/6, -1/2, 1/2, -1/6) and every other column is zero.
  * I_closed at lam=(1,2,3,4), K=(1,1,1,1): the pair-difference product is
    D = 1*2*3*1*2*1 = 12 and each bracket evaluates to 16, so every
    I_l = -16/144 = -1/9.
  * gauss_R(1,2,3,4) = 12 + 2*e2 = 12 + 2*35 = 82.
  * dpsi at the same data with mixed = 0: gauss_R/2 - sum(I_l)
    = 41 + 4/9 = 373/9.
  * g2_solve(1, 4): radicand 1*3*4 = 12, lam = (1/2)sqrt(12) = sqrt(3),
    mu = -(1/6)sqrt(12) = -sqrt(1/3). g2_solve(2, 4): radicand 16, a
    perfect square, so lam = (1/4)sqrt(16) = 1, mu = -1.
  * g3 determinant at (p,q,r)=(1,1,2), lams (0,1,2):
    1*1*2*(1-0)(2-0)(2-1) = 4.
"""

import functools
import inspect
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import check_golden
import mpmath as mp
import pytest
import sympy

from spherecurv import identities, rng
from spherecurv.exact import clear_denominators
from spherecurv import (
    DerivativeTable,
    IDENTITY_NAMES,
    IdentityVerdict,
    Quadruple,
    RngStream,
    Surd,
    diag_from_K,
    diag_from_system,
    dpsi_coeff,
    draw_rational,
    draw_rationals,
    g2_solve,
    g3_kernel,
    gauss_R,
    I_closed,
    I_def,
    matrix_rank,
    recover_curvatures,
    run_identity_sweep,
    sign_lemma,
)

F = Fraction
LAM_1234 = Quadruple((F(1), F(2), F(3), F(4)))
A = sympy.symbols("a0:4")  # the quadruple a as symbols, for the certificates


def _forbid_mpmath_roots(monkeypatch):
    def no_mpmath(*args, **kwargs):
        raise AssertionError("mpmath root finding reached")

    monkeypatch.setattr(mp, "polyroots", no_mpmath)
    monkeypatch.setattr(mp, "eig", no_mpmath)


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class TestQuadruple:
    def test_sorted_and_exact(self):
        q = Quadruple((F(-1), F(0), F(1, 2), F(7)))
        assert q.lam == (F(-1), F(0), F(1, 2), F(7))

    def test_coercion(self):
        q = Quadruple((1, 2, "7/2", F(9)))
        assert q.lam == (F(1), F(2), F(7, 2), F(9))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Quadruple((F(1), F(1), F(2), F(3)))
        with pytest.raises(ValueError):
            Quadruple((F(4), F(3), F(2), F(1)))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Quadruple((1.0, 2, 3, 4))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Quadruple((F(1), F(2), F(3)))


class TestTwoCurvatures:
    def test_k1_s4_closed_form(self):
        (lam, mu), (nlam, nmu) = g2_solve(1, 4)
        assert lam == Surd(F(1), F(3))
        assert mu == Surd(F(-1), F(1, 3))
        assert (lam.coef, lam.radicand) == (F(1, 2), F(12))
        assert (mu.coef, mu.radicand) == (F(-1, 6), F(12))
        assert (nlam.coef, nmu.coef, nmu.radicand) == (F(-1, 2), F(1, 6), F(12))
        assert nlam == -lam and nmu == -mu
        assert float(lam) == pytest.approx(math.sqrt(3), abs=1e-15)
        assert float(mu) == pytest.approx(-1 / math.sqrt(3), abs=1e-15)

    def test_k2_s4_is_rational(self):
        (lam, mu), _ = g2_solve(2, 4)
        assert lam == Surd(F(1)) and lam.squared() == 1 and float(lam) == 1.0
        assert mu == Surd(F(-1)) and mu.squared() == 1 and float(mu) == -1.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("S", [F(4), F(7, 5), F(12), F(1, 3)])
    def test_branches_satisfy_system_exactly(self, k, S):
        for lam, mu in g2_solve(k, S):
            assert (k * lam + (4 - k) * mu).is_zero()
            assert k * lam.squared() + (4 - k) * mu.squared() == S
        first_lam = g2_solve(k, S)[0][0]
        assert first_lam.coef > 0

    @pytest.mark.parametrize("height", [2, 3, 1000, 10**6, 2**70])
    def test_int_core_keeps_the_surd_fields(self, height):
        """g2_solve returns Surds with the coef and radicand fields of the
        Fraction solver, and _g2_cleared on the unreduced draw gives the
        same values."""
        root = RngStream(1618)
        for key in range(200):
            k, stream = rng.draw_int(root.split(key), 1, 3)
            num, stream = rng.draw_int(stream, 1, height)
            den, _stream = rng.draw_int(stream, 1, height)
            ref = _fraction_g2_solve(k, F(num, den))
            fields = [(s.coef, s.radicand) for branch in ref for s in branch]
            assert [(s.coef, s.radicand) for branch in g2_solve(k, F(num, den)) for s in branch] == fields
            branches, c, rad_num, rad_den = identities._g2_cleared(k, num, den)
            rad = F(rad_num, rad_den)
            assert [(F(v, c), rad) for branch in branches for v in branch] == fields

    def test_validation(self):
        with pytest.raises(ValueError):
            g2_solve(0, 4)
        with pytest.raises(ValueError):
            g2_solve(4, 4)
        with pytest.raises(ValueError):
            g2_solve(1, 0)
        with pytest.raises(ValueError):
            g2_solve(1, -3)


def _fraction_g2_solve(k, S):
    """The two branches of g2_solve as they were built on Fractions and Surds."""
    root = Surd(1, k * (4 - k) * S)
    lam = F(1, 2 * k) * root
    mu = F(-1, 2 * (4 - k)) * root
    return (lam, mu), (-lam, -mu)


def _g3_matrix(p, q, r, lams):
    """The three-curvature system's Fraction matrix, rows (p, q, r) times
    1, lam and lam^2."""
    la, mu, sig = (F(v) for v in lams)
    return [
        [F(p), F(q), F(r)],
        [p * la, q * mu, r * sig],
        [p * la * la, q * mu * mu, r * sig * sig],
    ]


def _g3_determinant_residues(monkeypatch):
    """det(rows) - p q r (a2 - a1)(a3 - a1)(a3 - a2), expanded over
    Z[a1, a2, a3], for each (p, q, r) the g3 trial draws; rows is the
    matrix that _g3_kernel_cleared, run on symbols, hands _reduce."""
    a1, a2, a3 = sympy.symbols("a1:4")
    recorded = []
    monkeypatch.setattr(identities, "_reduce", lambda rows, ncols: recorded.append(rows) or [0, 1, 2])
    residues = []
    for p, q, r in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        identities._g3_kernel_cleared(p, q, r, (a1, a2, a3))
        residues.append(sympy.expand(_det3(recorded.pop()) - p * q * r * (a2 - a1) * (a3 - a1) * (a3 - a2)))
    return residues


class TestThreeCurvatures:
    def test_matrix_determinant_frozen(self):
        m = _g3_matrix(1, 1, 2, (F(0), F(1), F(2)))
        assert _det3(m) == 4

    def test_determinant_factorisation_is_certified(self, monkeypatch):
        """Certificate for the g3 kernel: the integer moment rows that
        _g3_kernel_cleared eliminates have determinant
        p q r (a2 - a1)(a3 - a1)(a3 - a2) as a polynomial, so they have rank
        3, and the kernel is 0, whenever the three values are distinct. A
        planted kernel that drops the multiplicity r, or repeats a value,
        is rejected."""
        assert _g3_determinant_residues(monkeypatch) == [0, 0, 0]
        kernel = identities._g3_kernel_cleared
        for planted in (
            lambda p, q, r, a: kernel(p, q, 1, a),
            lambda p, q, r, a: kernel(p, q, r, (a[0], a[0], a[2])),
        ):
            monkeypatch.setattr(identities, "_g3_kernel_cleared", planted)
            assert _g3_determinant_residues(monkeypatch) != [0, 0, 0]

    def test_kernel_always_trivial(self):
        assert g3_kernel(1, 1, 2, (F(0), F(1), F(2))) == 0
        assert g3_kernel(2, 1, 1, (F(-5), F(1, 3), F(2))) == 0
        assert g3_kernel(1, 2, 1, ("1/7", "2/7", "3/7")) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            g3_kernel(0, 2, 2, (F(0), F(1), F(2)))
        with pytest.raises(ValueError):
            g3_kernel(1, 1, 1, (F(0), F(1), F(2)))
        with pytest.raises(ValueError):
            g3_kernel(1, 1, 2, (F(1), F(1), F(2)))

    @pytest.mark.parametrize("lams", [(), (F(1), F(2)), (F(1), F(2), F(3), F(4))])
    def test_lams_arity_validation(self, lams):
        with pytest.raises(ValueError, match=f"lams has three entries, got {len(lams)}"):
            g3_kernel(1, 1, 2, lams)

    @pytest.mark.parametrize("height", [1, 2, 3, 1000, 10**6, 2**70])
    def test_int_core_matches_public(self, height):
        """On seeded draws g3_kernel, its int core on the values cleared
        over the lcm of their unreduced denominators and the rank of the
        Fraction matrix agree; repeated values and bad multiplicities still
        raise."""
        root = RngStream(2357)
        repeated = 0
        for key in range(150):
            pairs, _counter = rng._rational_walk(root.split(key).seed, 0, height, 3)
            a, d = identities._cleared_pairs(pairs)
            vals = [F(*pair) for pair in pairs]
            pqr = ((1, 1, 2), (1, 2, 1), (2, 1, 1))[key % 3]
            if len(set(a)) < 3:
                with pytest.raises(ValueError, match="distinct"):
                    g3_kernel(*pqr, vals)
                repeated += 1
                continue
            assert g3_kernel(*pqr, vals) == identities._g3_kernel_cleared(*pqr, a) == 0
            assert matrix_rank(_g3_matrix(*pqr, vals)) == 3
            for bad in ((0, 2, 2), (1, 1, 1), (2, 2, 1), (-1, 3, 2)):
                with pytest.raises(ValueError, match="multiplicit"):
                    g3_kernel(*bad, vals)
        if height < 4:
            assert repeated > 20


def _cofactor_residues():
    """The cofactor certificate, expanded over Z[a0..a3] with
    P = identities._cofactors(A) on symbols: the moment sums
    sum_i a_i^m prod_{j != i} P_j for m = 0, 1, 2, and
    P_i - prod_{j != i} (a_j - a_i) for each i."""
    P = [sympy.Poly(p, *A) for p in identities._cofactors(A)]
    rest = [math.prod(P[j] for j in range(4) if j != i) for i in range(4)]
    moments = [sum(A[i] ** m * rest[i] for i in range(4)) for m in range(3)]
    true = [math.prod(A[j] - A[i] for j in range(4) if j != i) for i in range(4)]
    return [r.as_expr() for r in moments], [(p - t).as_expr() for p, t in zip(P, true)]


class TestDiagonalTable:
    def test_cofactors_are_certified(self):
        """Certificate for diag_from_K and the vandermonde trial: P_i is
        prod_{j != i} (a_j - a_i), and sum_i a_i^m prod_{j != i} P_j = 0 for
        m = 0, 1, 2, as polynomials in a0..a3. Divided by prod(P), nonzero
        for distinct values, that is sum_i a_i^m / P_i = 0, so every column
        k_l d^3 / (k_den P_i) meets the three moment constraints."""
        assert _cofactor_residues() == ([0, 0, 0], [0, 0, 0, 0])

    def test_frozen_column(self):
        diag = diag_from_K(LAM_1234, (F(1), F(0), F(0), F(0)))
        col0 = tuple(diag[i][0] for i in range(4))
        assert col0 == (F(1, 6), F(-1, 2), F(1, 2), F(-1, 6))
        for l in (1, 2, 3):
            assert all(diag[i][l] == 0 for i in range(4))

    def test_moment_constraints_hold(self):
        ls = (F(-2), F(-1, 3), F(1), F(5, 2))
        quad = Quadruple(ls)
        diag = diag_from_K(quad, (F(3), F(-1), F(2, 7), F(5)))
        for l in range(4):
            col = [diag[i][l] for i in range(4)]
            assert sum(col) == 0
            assert sum(ls[i] * col[i] for i in range(4)) == 0
            assert sum(ls[i] ** 2 * col[i] for i in range(4)) == 0

    def test_agrees_with_first_principles_solve(self):
        quad = Quadruple((F(-3, 2), F(0), F(2, 3), F(4)))
        for l in range(4):
            K_l = F(l + 1, 3)
            K = tuple(K_l if m == l else F(0) for m in range(4))
            expected = tuple(diag_from_K(quad, K)[i][l] for i in range(4))
            assert diag_from_system(quad, K_l, l) == expected

    def test_system_column_validation(self):
        with pytest.raises(ValueError):
            diag_from_system(LAM_1234, F(1), 4)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_each_moment_sum_is_checked(self, m, monkeypatch):
        """A planted P that breaks moment sum m alone at a = (0, 1, 2, 3),
        sum_i a_i^m prod_{j != i} P_j, fails the cofactor certificate at
        sum m there. P_i = L / w_i for an integer w with sum_i a_i^k w_i = 0
        at the two other k and not at m, since prod_{j != i} P_j is then
        prod(P) w_i / L."""
        a = [0, 1, 2, 3]
        broken = [k == m for k in range(3)]
        w = next(
            w
            for w in itertools.product([v for v in range(-4, 5) if v], repeat=4)
            if [sum(x**k * v for x, v in zip(a, w)) != 0 for k in range(3)] == broken
        )
        P = [math.lcm(*w) // v for v in w]
        rest = [math.prod(P[j] for j in range(4) if j != i) for i in range(4)]
        assert [sum(x**k * r for x, r in zip(a, rest)) != 0 for k in range(3)] == broken
        monkeypatch.setattr(identities, "_cofactors", lambda a: list(P))
        moments, cofactors = _cofactor_residues()
        assert [r.subs(dict(zip(A, a))) != 0 for r in moments] == broken
        assert all(cofactors)

    @pytest.mark.parametrize("height", [2, 1000, 2**70])
    def test_system_matches_math_prod_reference(self, height, monkeypatch):
        """_diag_system_cleared hands _solve_cleared the moment system as
        built with math.prod, and returns its (y, det), on seeded drawn
        quadruples."""
        systems = []
        solve = identities._solve_cleared
        monkeypatch.setattr(
            identities, "_solve_cleared", lambda aug: systems.append([r[:] for r in aug]) or solve(aug)
        )
        root = RngStream(25)
        for n in range(300):
            seed = root.split(n).seed
            a, d, counter, _tail = identities._draw_distinct_quadruple(seed, height, identities._ranges(height, 4))
            [(k, _k_den)], _counter = rng._rational_walk(seed, counter, height, 1)
            prods = [math.prod(a[j] for j in range(4) if j != i) for i in range(4)]
            ref = [[1, 1, 1, 1, 0], [*a, 0], [v * v for v in a] + [0], [*prods, k * d**3]]
            got = identities._diag_system_cleared(a, d, k)
            assert systems.pop() == ref
            assert got == solve(ref)

    def test_k_arity_validation(self):
        with pytest.raises(ValueError):
            diag_from_K(LAM_1234, (F(1), F(0), F(0)))


def _fraction_I_closed(lam, K):
    """The closed form written out over Fraction, as it was before the
    integer kernel; kept as the reference the kernel must equal."""
    l1, l2, l3, l4 = lam.lam
    D = (l2 - l1) * (l3 - l1) * (l4 - l1) * (l3 - l2) * (l4 - l2) * (l4 - l3)
    brackets = (
        (l4 - l3) * (l4 - l2) * (l4 - l1) ** 2
        + (l3 - l4) * (l3 - l2) * (l3 - l1) ** 2
        + (l2 - l4) * (l2 - l3) * (l2 - l1) ** 2,
        (l4 - l3) * (l4 - l2) ** 2 * (l4 - l1)
        + (l3 - l4) * (l3 - l2) ** 2 * (l3 - l1)
        + (l1 - l4) * (l1 - l3) * (l1 - l2) ** 2,
        (l4 - l3) ** 2 * (l4 - l2) * (l4 - l1)
        + (l2 - l4) * (l2 - l3) ** 2 * (l2 - l1)
        + (l1 - l4) * (l1 - l3) ** 2 * (l1 - l2),
        (l3 - l4) ** 2 * (l3 - l2) * (l3 - l1)
        + (l2 - l4) ** 2 * (l2 - l3) * (l2 - l1)
        + (l1 - l4) ** 2 * (l1 - l3) * (l1 - l2),
    )
    return tuple(-K[l] * K[l] * brackets[l] / (D * D) for l in range(4))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: g2_solve(True, 4), "k"),
        (lambda: g2_solve(2.0, 4), "k"),
        (lambda: g3_kernel(True, True, 2, (F(0), F(1), F(2))), "p"),
        (lambda: g3_kernel(1, 2, True, (F(0), F(1), F(2))), "r"),
        (lambda: diag_from_system(LAM_1234, F(1), True), "l"),
        (lambda: diag_from_system(LAM_1234, F(1), 3.0), "l"),
    ],
    ids=["g2-k-bool", "g2-k-float", "g3-p-bool", "g3-r-bool", "system-l-bool", "system-l-float"],
)
def test_counts_and_indices_must_be_ints(call, name):
    """A bool or an integral float passes the range checks, as 1 or 3 would;
    it is a TypeError naming the argument, as in the draws."""
    with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
        call()


class TestInteractionSums:
    K_ONES = (F(1), F(1), F(1), F(1))

    def test_integer_kernel_matches_fraction_reference(self):
        """I_closed equals the Fraction closed form. The integer numerators
        of the sweep's own path, the drawn pairs cleared over the lcm of
        their unreduced denominators, are the same values over their
        positive denominator and carry the same signs, zero included, which
        is all sign_lemma and the i-sign trial read. On the same ints every
        int core of the definition side (_cofactors, _diag_system_cleared,
        _I_def_cleared fed the trial's product-form columns, _dpsi_cleared,
        _gauss_R_cleared) equals its public Fraction function and the
        Fraction reference. Every third quadruple is rotated out of order;
        the sums only permute under relabelling, so every bracket stays
        nonnegative and no real input makes the lemma fail."""
        root = RngStream(2024)
        zeros = 0
        for i in range(2400):
            seed = root.split(i).seed
            height = (2, 3, 50, 1000, 10**6, 2**70)[i % 6]
            a, d, counter, _tail = identities._draw_distinct_quadruple(seed, height, identities._ranges(height, 4))
            pairs, _counter = rng._rational_walk(seed, counter, height, 8)
            if i % 7 == 0:
                pairs[2] = (0, pairs[2][1])
            if i % 3 == 0:
                a = a[1:] + a[:1]
            quad = Quadruple(tuple(sorted(F(x, d) for x in a)))
            object.__setattr__(quad, "lam", tuple(F(x, d) for x in a))
            K = tuple(F(*p) for p in pairs[:4])
            ref = _fraction_I_closed(quad, K)
            assert I_closed(quad, K) == ref
            ks, k_den = identities._cleared_pairs(pairs[:4])
            nums, den = identities._I_cleared(a, d, ks, k_den)
            assert den > 0
            assert tuple(F(n, den) for n in nums) == ref
            assert [(n > 0) - (n < 0) for n in nums] == [(v > 0) - (v < 0) for v in ref]
            lemma = all(v <= 0 for v in ref)
            assert sign_lemma(quad, K) == all(n <= 0 for n in nums) == lemma
            zeros += ref.count(0)

            ref_diag = _fraction_diag_from_K(quad, K)
            assert diag_from_K(quad, K) == ref_diag
            P = identities._cofactors(a)
            d3 = d**3
            assert all(F(ks[l] * d3, k_den * P[x]) == ref_diag[x][l] for x in range(4) for l in range(4))
            l = i % 4
            y, det = identities._diag_system_cleared(a, d, ks[l])
            column = tuple(ref_diag[x][l] for x in range(4))
            assert tuple(F(v, det * k_den) for v in y) == diag_from_system(quad, K[l], l) == column
            cols = []
            for c, (u, v, w) in enumerate(identities._OTHERS):
                n = ks[c] * d3
                nums_c = (n * P[v] * P[w], n * P[u] * P[w], n * P[u] * P[v])
                cols.append((nums_c, k_den * P[u] * P[v] * P[w]))
            ref_def = _fraction_I_def(quad, ref_diag)
            direct = tuple(F(*v) for v in identities._I_def_cleared(a, d, cols))
            assert direct == I_def(quad, ref_diag) == ref_def == ref
            mixed = tuple(F(*p) for p in pairs[4:])
            ms, m_den = identities._cleared_pairs(pairs[4:])
            coeff = F(*identities._dpsi_cleared(a, d, ks, k_den, ms, m_den))
            ref_coeff = _fraction_dpsi_coeff(quad, K, mixed)
            assert coeff == dpsi_coeff(DerivativeTable(quad, K, mixed)) == ref_coeff
            R = F(identities._gauss_R_cleared(a, d), d * d)
            assert R == gauss_R(quad) == _fraction_gauss_R(quad)
        assert zeros > 300

    def test_frozen_value(self):
        assert I_closed(LAM_1234, self.K_ONES) == (F(-1, 9),) * 4

    def test_closed_matches_definition(self):
        cases = [
            (LAM_1234, self.K_ONES),
            (LAM_1234, (F(2), F(-1), F(1, 3), F(0))),
            (Quadruple((F(-5, 2), F(-1), F(0), F(7, 3))), (F(1, 2), F(3), F(-2), F(1))),
        ]
        for quad, K in cases:
            assert I_closed(quad, K) == I_def(quad, diag_from_K(quad, K))

    def test_scale_covariance(self):
        K = (F(2), F(-1), F(1, 3), F(5))
        base = I_closed(LAM_1234, K)
        for c in (F(3), F(-1, 2), F(7, 4)):
            scaled = I_closed(LAM_1234, tuple(c * v for v in K))
            assert scaled == tuple(c * c * v for v in base)

    def test_sign_lemma_on_samples(self):
        assert sign_lemma(LAM_1234, self.K_ONES)
        assert sign_lemma(LAM_1234, (F(-7), F(0), F(2, 3), F(100)))
        stream = RngStream(5)
        for _ in range(50):
            vals = []
            for _ in range(4):
                v, stream = draw_rational(stream, 50)
                vals.append(v)
            if len(set(vals)) < 4:
                continue
            quad = Quadruple(tuple(sorted(vals)))
            K = []
            for _ in range(4):
                v, stream = draw_rational(stream, 50)
                K.append(v)
            assert sign_lemma(quad, tuple(K))

    def test_zero_k_gives_zero_sums(self):
        zeros = (F(0),) * 4
        assert I_closed(LAM_1234, zeros) == zeros

    @pytest.mark.parametrize("n", [3, 5])
    def test_k_arity_validation(self, n):
        K = (F(1),) * n
        with pytest.raises(ValueError, match="K has four entries"):
            I_closed(LAM_1234, K)
        with pytest.raises(ValueError, match="K has four entries"):
            sign_lemma(LAM_1234, K)


def _fraction_diag_from_K(lam, K):
    """h_iil = K_l / prod_{j != i} (lam_j - lam_i) over Fraction, as the
    kernel was before it moved to ints."""
    ls = lam.lam
    denom = []
    for i in range(4):
        d = F(1)
        for j in range(4):
            if j != i:
                d *= ls[j] - ls[i]
        denom.append(d)
    return tuple(tuple(K[l] / denom[i] for l in range(4)) for i in range(4))


def _fraction_I_def(lam, diag):
    ls = lam.lam
    out = []
    for l in range(4):
        others = [i for i in range(4) if i != l]
        acc = F(0)
        for a in range(3):
            for b in range(a + 1, 3):
                i, j = others[a], others[b]
                acc += diag[i][l] * diag[j][l] / ((ls[l] - ls[i]) * (ls[l] - ls[j]))
        out.append(acc)
    return tuple(out)


def _fraction_gauss_R(lam):
    ls = lam.lam
    return sum(1 + ls[i] * ls[j] for i in range(4) for j in range(4) if i != j)


# Each triple product omega_i ^ omega_j ^ omega_kl of the closed 3-form uses
# an even permutation (i, j, k, l) of (1, 2, 3, 4), so one coefficient formula
# serves all six terms.
_PSI_TERMS = ((0, 1, 2, 3), (1, 2, 0, 3), (2, 0, 1, 3), (0, 3, 1, 2), (1, 3, 2, 0), (2, 3, 0, 1))
_TRIPLES = list(itertools.combinations(range(4), 3))  # the order of DerivativeTable.mixed


def _fraction_dpsi_coeff(lam, K, mixed):
    """The six terms' three blocks each, over Fraction."""
    ls = lam.lam
    diag = _fraction_diag_from_K(lam, K)
    table = DerivativeTable(lam, K, mixed)
    total = F(0)
    for i, j, k, l in _PSI_TERMS:
        dki, dli, dkj, dlj = ls[k] - ls[i], ls[l] - ls[i], ls[k] - ls[j], ls[l] - ls[j]
        dkl = ls[k] - ls[l]
        m_ikl = table.mixed[_TRIPLES.index(tuple(sorted((i, k, l))))]
        m_jkl = table.mixed[_TRIPLES.index(tuple(sorted((j, k, l))))]
        block_a = -(
            diag[i][k] * diag[l][k] / (dki * dkl)
            + diag[i][l] * diag[k][l] / (dli * -dkl)
            + m_ikl * m_ikl / (dki * dli)
        )
        block_b = (
            diag[j][k] * diag[l][k] / (dkj * dkl)
            + diag[j][l] * diag[k][l] / (dlj * -dkl)
            + m_jkl * m_jkl / (dkj * dlj)
        )
        block_c = (
            diag[k][i] * diag[l][i] / (dki * dli)
            + diag[k][j] * diag[l][j] / (dkj * dlj)
            - m_ikl * m_ikl / (dki * dli)
            - m_jkl * m_jkl / (dkj * dlj)
            + 1 + ls[k] * ls[l]
        )
        total += block_a - block_b + block_c
    return total


def _definition_side_inputs(count):
    """Seeded (lam, K, mixed) at heights 2, 1000 and 10^6. Every fifth
    quadruple contains a zero curvature, and zero K and mixed entries are
    planted on a cycle of their own (height 2 draws many more)."""
    root = RngStream(3141)
    for n in range(count):
        stream = root.split(n)
        height = (2, 1000, 10**6)[n % 3]
        while True:
            vals, stream = draw_rationals(stream, height, 4)
            if len(set(vals)) == 4:
                break
        if n % 5 == 0 and F(0) not in vals:
            vals = (F(0),) + vals[1:]
        K, stream = draw_rationals(stream, height, 4)
        mixed, stream = draw_rationals(stream, height, 4)
        if n % 7 == 0:
            K = K[:n % 4] + (F(0),) + K[n % 4 + 1:]
        if n % 4 == 1:
            mixed = mixed[:n % 3] + (F(0),) + mixed[n % 3 + 1:]
        yield Quadruple(tuple(sorted(vals))), K, mixed


def test_definition_side_kernels_match_fraction_reference():
    """diag_from_K, I_def, gauss_R and dpsi_coeff run on ints; each equals
    its Fraction reference on 2100 seeded inputs."""
    zero_lam = zero_k = zero_mixed = 0
    for lam, K, mixed in _definition_side_inputs(2100):
        diag = diag_from_K(lam, K)
        ref_diag = _fraction_diag_from_K(lam, K)
        assert diag == ref_diag
        assert I_def(lam, diag) == _fraction_I_def(lam, ref_diag)
        assert gauss_R(lam) == _fraction_gauss_R(lam)
        assert dpsi_coeff(DerivativeTable(lam, K, mixed)) == _fraction_dpsi_coeff(lam, K, mixed)
        zero_lam += F(0) in lam.lam
        zero_k += F(0) in K
        zero_mixed += F(0) in mixed
    assert min(zero_lam, zero_k, zero_mixed) > 300


def test_wrong_moment_or_cofactor_fails_the_certificate(monkeypatch):
    """A P_i off by one breaks the cofactor certificate's moment sums.
    Scaling every P_i by one prime keeps the moment sums at zero, but not
    P_i = prod_{j != i} (a_j - a_i). Either P gives a vandermonde
    counterexample, which compares y_i P_i with k_l d^3 det."""
    cofactors = identities._cofactors
    assert run_identity_sweep("vandermonde", 20, seed=3).failures == 0
    monkeypatch.setattr(
        identities, "_cofactors", lambda a: [p + int(i == 2) for i, p in enumerate(cofactors(a))]
    )
    moments, wrong = _cofactor_residues()
    assert all(moments) and wrong == [0, 0, 1, 0]
    assert run_identity_sweep("vandermonde", 20, seed=3).failures > 0
    monkeypatch.setattr(identities, "_cofactors", lambda a: [(2**61 - 1) * p for p in cofactors(a)])
    moments, wrong = _cofactor_residues()
    assert moments == [0, 0, 0] and all(wrong)
    assert run_identity_sweep("vandermonde", 20, seed=3).failures > 0


def _complement_residues():
    """The i-closed certificate, expanded over Z[a0..a3] with
    P = identities._cofactors(A) and (Q, D) = identities._complements(A) on
    symbols: D - prod_{i<j} (a_j - a_i), then P_x Q_x - D for each x."""
    P = identities._cofactors(A)
    Q, D = identities._complements(A)
    vandermonde = sympy.Mul(*(A[j] - A[i] for i, j in itertools.combinations(range(4), 2)))
    return [sympy.expand(D - vandermonde)] + [sympy.expand(p * q - D) for p, q in zip(P, Q)]


def test_i_closed_columns_are_certified():
    """Certificate for the i-closed trial's columns: D is
    prod_{i<j} (a_j - a_i), nonzero for distinct values, and P_x Q_x = D
    for every x, as polynomials in a0..a3. So n_x = k_l d^3 Q_x over k_den D
    is h_xl = k_l d^3 / (k_den P_x), the entry of diag_from_K."""
    assert _complement_residues() == [0] * 5


def test_wrong_cofactors_fail_the_i_closed_certificate(monkeypatch):
    """A P off by one at index 2 breaks P_x Q_x = D at x = 2, and a P
    scaled by one prime, whose moment sums hold, breaks it at every x."""
    cofactors = identities._cofactors
    monkeypatch.setattr(
        identities, "_cofactors", lambda a: [p + int(i == 2) for i, p in enumerate(cofactors(a))]
    )
    assert [r != 0 for r in _complement_residues()] == [False, False, False, True, False]
    monkeypatch.setattr(identities, "_cofactors", lambda a: [(2**61 - 1) * p for p in cofactors(a)])
    assert [r != 0 for r in _complement_residues()] == [False, True, True, True, True]


def test_gauss_r_frozen():
    assert gauss_R(LAM_1234) == 82


def test_gauss_r_small_cases():
    # 12 + 2*e2 with e2 = -5 and e2 = 11 respectively
    assert gauss_R(Quadruple((F(-2), F(-1), F(1), F(2)))) == 2
    assert gauss_R(Quadruple((F(0), F(1), F(2), F(3)))) == 34


class TestDerivativeTable:
    LAM = LAM_1234
    K = (F(1), F(2), F(3), F(4))

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            DerivativeTable(self.LAM, (F(1),) * 3, (F(0),) * 4)
        with pytest.raises(ValueError):
            DerivativeTable(self.LAM, (F(1),) * 4, (F(0),) * 5)

    def test_plain_sequence_lam_goes_through_quadruple(self):
        table = DerivativeTable((F(1), F(2), 3, "4"), (F(1),) * 4, (F(0),) * 4)
        assert table.lam == self.LAM
        assert dpsi_coeff(table) == F(373, 9)
        with pytest.raises(ValueError, match="strictly increasing"):
            DerivativeTable((F(2), F(1), F(3), F(4)), self.K, (F(0),) * 4)
        with pytest.raises(ValueError, match="a quadruple has four entries"):
            DerivativeTable((F(1), F(2), F(3)), self.K, (F(0),) * 4)
        with pytest.raises(TypeError, match="exactness"):
            DerivativeTable((1.0, 2.0, 3.0, 4.0), self.K, (F(0),) * 4)


class TestDivergenceCoefficient:
    def test_frozen_value_zero_mixed(self):
        table = DerivativeTable(LAM_1234, (F(1),) * 4, (F(0),) * 4)
        assert dpsi_coeff(table) == F(373, 9)

    def test_equals_curvature_minus_interactions(self):
        """The mixed second-form entries must cancel from the total."""
        stream = RngStream(9)
        for _ in range(25):
            vals = []
            for _ in range(4):
                v, stream = draw_rational(stream, 40)
                vals.append(v)
            if len(set(vals)) < 4:
                continue
            quad = Quadruple(tuple(sorted(vals)))
            K, mixed = [], []
            for _ in range(4):
                v, stream = draw_rational(stream, 40)
                K.append(v)
            for _ in range(4):
                v, stream = draw_rational(stream, 40)
                mixed.append(v)
            table = DerivativeTable(quad, tuple(K), tuple(mixed))
            expected = gauss_R(quad) / 2 - sum(I_closed(quad, tuple(K)))
            assert dpsi_coeff(table) == expected

    def test_mixed_data_does_not_change_total(self):
        base = DerivativeTable(LAM_1234, (F(1),) * 4, (F(0),) * 4)
        bumped = DerivativeTable(LAM_1234, (F(1),) * 4, (F(5), F(-3), F(1, 7), F(2)))
        assert dpsi_coeff(base) == dpsi_coeff(bumped)


# The three blocks of one psi term (i, j, k, l) as _fraction_dpsi_coeff
# reads them: (sign of the block in the total, its entries as (sign, kind,
# c p q) in the term's letters). hh c p q is h_pc h_qc / ((lam_c - lam_p)
# (lam_c - lam_q)), mixed x k l is h_xkl^2 / ((lam_k - lam_x)(lam_l - lam_x));
# block_c's curvature term is left out.
_FRACTION_PSI_BLOCKS = (
    (-1, ((1, "hh", "kil"), (1, "hh", "lik"), (1, "mixed", "ikl"))),
    (-1, ((1, "hh", "kjl"), (1, "hh", "ljk"), (1, "mixed", "jkl"))),
    (1, ((1, "hh", "ikl"), (1, "hh", "jkl"), (-1, "mixed", "ikl"), (-1, "mixed", "jkl"))),
)


def _expanded_psi_weights():
    """{(c, p, q): weight} for h h and {(x, k, l): weight} for mixed, p < q
    and k < l, summed over the six terms' blocks, zero weights dropped."""
    hh, mixed = {}, {}
    for term in _PSI_TERMS:
        at = dict(zip("ijkl", term))
        for block_sign, entries in _FRACTION_PSI_BLOCKS:
            for sign, kind, letters in entries:
                c, p, q = (at[x] for x in letters)
                table = hh if kind == "hh" else mixed
                key = (c, min(p, q), max(p, q))
                table[key] = table.get(key, 0) + block_sign * sign
    return ({key: w for key, w in t.items() if w} for t in (hh, mixed))


# The expanded weights as the loop form's tables, keys sorted: (c, p, q,
# weight) for h h and (x, k, l, position in DerivativeTable.mixed, weight)
# for mixed.
_HH_WEIGHTS, _MIXED_WEIGHTS = _expanded_psi_weights()
_DPSI_HH = tuple((*key, w) for key, w in sorted(_HH_WEIGHTS.items()))
_DPSI_MIXED = tuple((*key, _TRIPLES.index(tuple(sorted(key))), w) for key, w in sorted(_MIXED_WEIGHTS.items()))


class TestCollectedPsiTerms:
    def test_tables_match_the_expanded_blocks(self):
        """The loop form's tables hold the expanded weights, each mixed key
        with its position in mixed, in the order the written-out kernel
        binds their quotients."""
        hh, mixed = _expanded_psi_weights()
        assert len(_DPSI_HH) == len(hh) == 12
        assert {(c, p, q): w for c, p, q, w in _DPSI_HH} == hh
        assert len(_DPSI_MIXED) == len(mixed) == 12
        assert {(x, k, l): w for x, k, l, _n, w in _DPSI_MIXED} == mixed
        for x, k, l, n, _w in _DPSI_MIXED:
            assert n == _TRIPLES.index(tuple(sorted((x, k, l))))
        named = re.findall(r"# (hh|mixed) (\(.*\))\n", inspect.getsource(identities._dpsi_cleared))
        keys = [("hh", str((c, p, q))) for c, p, q, _w in _DPSI_HH]
        assert named == keys + [("mixed", str((x, k, l))) for x, k, l, _n, _w in _DPSI_MIXED]

    @pytest.mark.parametrize("kind", ["hh", "mixed"], ids=["_DPSI_HH", "_DPSI_MIXED"])
    def test_sweep_catches_every_wrong_weight(self, monkeypatch, kind):
        """An h h weight set to 0, or a mixed weight moved by one, in the
        loop form's table makes the dpsi sweep fail once that loop form
        stands in for the kernel; tried on every key in turn."""
        rows = _DPSI_HH if kind == "hh" else _DPSI_MIXED
        assert run_identity_sweep("dpsi", 200, seed=5).failures == 0
        monkeypatch.setattr(identities, "_dpsi_cleared", _loop_dpsi_cleared)
        assert run_identity_sweep("dpsi", 200, seed=5).failures == 0
        for r, row in enumerate(rows):
            w = row[-1]
            bad = rows[:r] + ((*row[:-1], 0 if kind == "hh" else w + 1),) + rows[r + 1:]
            monkeypatch.setattr(identities, "_dpsi_cleared", functools.partial(_loop_dpsi_cleared, **{kind: bad}))
            assert run_identity_sweep("dpsi", 200, seed=5).failures > 0, row

    def test_hh_keys_are_the_pairs_of_I_def(self):
        """The h h part is minus the I_def sums: one key per (l, {p, q}) with
        p, q the pairs of indices other than l, each of weight -1."""
        pairs = {
            (l, p, q) for l, others in enumerate(identities._OTHERS) for p, q in itertools.combinations(others, 2)
        }
        assert len(pairs) == 12
        assert all(c not in (p, q) for c, p, q in pairs)
        assert {(c, p, q): w for c, p, q, w in _DPSI_HH} == dict.fromkeys(pairs, -1)

    @pytest.mark.parametrize("height", [2, 1000, 2**70])
    def test_mixed_terms_cancel_by_the_three_point_identity(self, height):
        """Certificate for the mixed part. Each 3-set {x, k, l} has the keys
        (x, {k, l}) for all three of its points, with one weight, -2, and the
        same component of mixed, so the set contributes
        -2 m^2 sum_x D / ((a_k - a_x)(a_l - a_x)). That sum is 0 on ints:
        sum_x 1 / ((a_k - a_x)(a_l - a_x)) = 0 for any three distinct values."""
        by_set = {}
        for x, k, l, n, w in _DPSI_MIXED:
            by_set.setdefault(n, []).append((x, k, l, w))
        assert sorted(by_set) == [0, 1, 2, 3]
        for n, keys in by_set.items():
            assert sorted(x for x, _k, _l, _w in keys) == list(_TRIPLES[n])
            assert all({x, k, l} == set(_TRIPLES[n]) for x, k, l, _w in keys)
            assert {w for _x, _k, _l, w in keys} == {-2}
        root = RngStream(6007)
        for i in range(300):
            a, _d, _counter, _tail = identities._draw_distinct_quadruple(
                root.split(i).seed, height, identities._ranges(height, 4)
            )
            D = math.prod(a[q] - a[p] for p, q in itertools.combinations(range(4), 2))
            for n, keys in by_set.items():
                total = 0
                for x, k, l, w in keys:
                    cof, rem = divmod(D, (a[k] - a[x]) * (a[l] - a[x]))
                    assert rem == 0
                    total += w * cof
                assert total == 0


def _loop_dpsi_cleared(a, d, ks, k_den, ms, m_den, hh=_DPSI_HH, mixed=_DPSI_MIXED):
    """identities._dpsi_cleared as a loop over the tables hh and mixed, by
    default those of the expanded weights, with one checked division per
    key. The reference for the written-out kernel."""
    P = identities._cofactors(a)
    diff = [[x - y for y in a] for x in a]  # diff[x][y] = (lam_x - lam_y) d
    D = diff[1][0] * diff[2][0] * diff[3][0] * diff[2][1] * diff[3][1] * diff[3][2]
    D2 = D * D
    acc_hh = 0
    for c, p, q, w in hh:
        # h_pc h_qc / ((lam_c - lam_p)(lam_c - lam_q))
        #   = k_c^2 d^8 / (k_den^2 P_p P_q diff_cp diff_cq)
        cof, rem = divmod(D2, P[p] * P[q] * diff[c][p] * diff[c][q])
        if rem:
            raise RuntimeError("h h denominator does not divide D^2 (unreachable)")
        acc_hh += w * ks[c] * ks[c] * cof
    acc_mixed = 0
    for x, k, l, n, w in mixed:
        # m^2 / ((lam_k - lam_x)(lam_l - lam_x)) = m^2 d^2 / (m_den^2 diff_kx diff_lx)
        cof, rem = divmod(D, diff[k][x] * diff[l][x])
        if rem:
            raise RuntimeError("mixed denominator does not divide D (unreachable)")
        acc_mixed += w * ms[n] * ms[n] * cof
    acc_curv = sum(d * d + a[k] * a[l] for _i, _j, k, l in _PSI_TERMS)
    d2 = d * d
    kd, md = k_den * k_den, m_den * m_den
    num = acc_hh * d2**5 * md + acc_mixed * d2 * d2 * kd * D + acc_curv * kd * md * D2
    return num, kd * md * D2 * d2


def _dpsi_quotient_failures(source):
    """The keys, as (kind, key), at which the quotient certificate fails
    for the dpsi kernel written in source; none for a sound kernel.

    As polynomials in a0..a3: for every key, its divisor times its quotient,
    with the sign the kernel gives it in the weighted sums, is D^2 (h h) or
    D (mixed), where D = prod_{i<j} (a_j - a_i). The quotients and their
    signs are read from the source; the weights come from _DPSI_HH and
    _DPSI_MIXED, so a wrong weight fails too.
    """
    a = A
    ks, ms = sympy.symbols("k0:4"), sympy.symbols("m0:4")
    qs = sympy.symbols("q0:24")
    values = {f"e{i}{j}": a[i] - a[j] for i in range(4) for j in range(i)}
    sums = {**{f"k{i}": ks[i] for i in range(4)}, **{f"m{i}": ms[i] for i in range(4)}}
    sums.update({f"q{i}": qs[i] for i in range(24)})
    keyed = {}
    lines = iter(source.splitlines())
    for line in lines:
        name, _, rest = line.strip().partition(" = ")
        if rest == "(":
            # a sum written over the lines up to its closing parenthesis
            rest = " ".join(iter(lambda: next(lines).strip(), ")"))
        if re.fullmatch(r"e\d\d_e\d\d", name):
            values[name] = eval(rest, {}, values)
        elif re.fullmatch(r"q\d+", name):
            expr, kind, key = re.fullmatch(r"(.*)  # (hh|mixed) (\(.*\))", rest).groups()
            values[name] = eval(expr, {}, values)
            keyed[kind, eval(key)] = sympy.Symbol(name)
        elif name in ("acc_hh", "acc_mixed"):
            sums[name] = sympy.expand(eval(rest, {}, sums))
    assert len(keyed) == 24

    def P(i):
        return sympy.Mul(*(a[j] - a[i] for j in range(4) if j != i))

    D = sympy.Mul(*(a[j] - a[i] for i, j in itertools.combinations(range(4), 2)))
    checks = [
        ("hh", (c, p, q), w, ks[c], P(p) * P(q) * (a[c] - a[p]) * (a[c] - a[q]), D**2)
        for c, p, q, w in _DPSI_HH
    ] + [
        ("mixed", (x, k, l), w, ms[n], (a[k] - a[x]) * (a[l] - a[x]), D)
        for x, k, l, n, w in _DPSI_MIXED
    ]
    failures = []
    for kind, key, w, v, divisor, dividend in checks:
        q = keyed[kind, key]
        sign = sympy.cancel(sums[f"acc_{kind}"].coeff(q) / (w * v * v))
        if sign not in (1, -1) or sympy.expand(divisor * sign * values[q.name] - dividend) != 0:
            failures.append((kind, key))
    return failures


class TestGeneratedDpsiKernel:
    @pytest.mark.parametrize("height", [2, 1000, 10**9, 2**70])
    def test_matches_the_loop_form_on_drawn_input(self, height):
        """(num, den) equals the loop form's exactly, with some K and mixed
        entries 0 and every third quadruple rotated out of order, so some
        differences a_x - a_y with x > y are negative."""
        root = RngStream(26026)
        for i in range(400):
            seed = root.split(i).seed
            a, d, counter, _tail = identities._draw_distinct_quadruple(seed, height, identities._ranges(height, 4))
            pairs, _counter = rng._rational_walk(seed, counter, height, 8)
            if i % 5 == 0:
                pairs[i % 8] = (0, pairs[i % 8][1])
            if i % 3 == 0:
                a = a[1:] + a[:1]
            ks, k_den = identities._cleared_pairs(pairs[:4])
            ms, m_den = identities._cleared_pairs(pairs[4:])
            args = (a, d, ks, k_den, ms, m_den)
            assert identities._dpsi_cleared(*args) == _loop_dpsi_cleared(*args)

    @pytest.mark.parametrize("base", [(0, 1, 2, 3), (-2, -1, 0, 1), (-1, 0, 1, 2), (5, 6, 7, 8)])
    def test_matches_the_loop_form_at_unit_differences(self, base):
        """Consecutive integers, whose differences are +-1, in every order."""
        for a in itertools.permutations(base):
            for d, ks, k_den, ms, m_den in [
                (1, [1, 1, 1, 1], 1, [1, 1, 1, 1], 1),
                (3, [2, -1, 0, 5], 7, [-1, 4, 0, 3], 2),
                (1, [0, 0, 0, 0], 1, [0, 0, 0, 0], 1),
            ]:
                args = (list(a), d, ks, k_den, ms, m_den)
                assert identities._dpsi_cleared(*args) == _loop_dpsi_cleared(*args)

    def test_source_names_each_shipped_key_once(self):
        source = inspect.getsource(identities._dpsi_cleared)
        keys = [f"# hh {(c, p, q)}\n" for c, p, q, _w in _DPSI_HH]
        keys += [f"# mixed {(x, k, l)}\n" for x, k, l, _n, _w in _DPSI_MIXED]
        assert len(set(keys)) == 24
        assert all(source.count(key) == 1 for key in keys)
        assert source.count("divmod(") == 0

    def test_each_quotient_times_its_divisor_is_D_squared_or_D(self):
        """Certificate of the written-out kernel (_dpsi_quotient_failures),
        read from its own source, so this is what the kernel computes."""
        assert _dpsi_quotient_failures(inspect.getsource(identities._dpsi_cleared)) == []

    @pytest.mark.parametrize(
        "old, new, key",
        [
            # a quotient with one factor swapped, e32 for e31
            ("q13 = e20_e21 * e31_e32", "q13 = e20_e21 * e31_e31", ("mixed", (0, 1, 3))),
            # one weight's sign flipped in acc_hh, and one in acc_mixed
            ("(q0 - q1 + q2)", "(q0 + q1 + q2)", ("hh", (0, 1, 3))),
            ("(-2 * q12 + 2 * q15", "(2 * q12 + 2 * q15", ("mixed", (0, 1, 2))),
        ],
        ids=["quotient-factor", "hh-sign", "mixed-sign"],
    )
    def test_planted_kernel_edits_fail_the_certificate(self, old, new, key):
        """Each edit to a copy of the kernel's source fails the certificate
        at the key it touches, and only there."""
        source = inspect.getsource(identities._dpsi_cleared)
        assert source.count(old) == 1
        assert _dpsi_quotient_failures(source.replace(old, new)) == [key]


class TestRecoverCurvatures:
    def test_symmetric_double_pair(self, monkeypatch):
        """Roots {+-(sqrt(2)+1), +-(sqrt(2)-1)} give p1=p3=0, p2=12, e4=1;
        they come back correctly rounded without mpmath root finding."""
        with mp.workdps(100):
            r2 = mp.sqrt(2)
            expected = sorted(float(x) for x in (-(r2 + 1), -(r2 - 1), r2 - 1, r2 + 1))
        _forbid_mpmath_roots(monkeypatch)
        assert recover_curvatures(F(0), F(12), F(0), F(1)) == tuple(expected)

    def test_triple_root_with_high_precision_input(self):
        """Triple root -1/sqrt(3) next to sqrt(3) needs precise p3."""
        with mp.workdps(60):
            p3 = 8 * mp.sqrt(3) / 3
            roots = recover_curvatures(F(0), F(4), p3, F(-1, 3))
        s3 = math.sqrt(3)
        assert roots == pytest.approx([-1 / s3, -1 / s3, -1 / s3, s3], abs=1e-9)

    def test_rational_roundtrip(self):
        stream = RngStream(13)
        for _ in range(20):
            vals = []
            for _ in range(4):
                v, stream = draw_rational(stream, 30)
                vals.append(v)
            vals.sort()
            p1 = sum(vals)
            p2 = sum(v * v for v in vals)
            p3 = sum(v**3 for v in vals)
            e4 = vals[0] * vals[1] * vals[2] * vals[3]
            roots = recover_curvatures(p1, p2, p3, e4)
            assert roots == pytest.approx([float(v) for v in vals], abs=1e-9)

    def test_complex_roots_rejected(self):
        with pytest.raises(ValueError):
            recover_curvatures(F(0), F(0), F(0), F(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_input_is_rejected(self, position, bad):
        """Each once raised TypeError: unsupported operand type(s) for //
        from mp.mag of a non-finite coefficient in _scaled_roots."""
        sums = [0.0, 4.0, 0.0, -1.0]
        sums[position] = bad
        with pytest.raises(ValueError, match="^power sums must be finite"):
            recover_curvatures(*sums)

    @pytest.mark.parametrize("eps", [F(1, 10**6), F(1, 10**11), F(1, 10**20)])
    def test_tiny_complex_pair_rejected(self, eps):
        """Roots +-1 and +-i eps give (x^2 - 1)(x^2 + eps^2). The input is
        exact, so the pair is rejected however small eps is; a tolerance on
        the imaginary parts of numerical roots took it for two real zeros."""
        with pytest.raises(ValueError, match="not real"):
            recover_curvatures(F(0), 2 - 2 * eps * eps, F(0), -eps * eps)

    @pytest.mark.parametrize(
        "f, count",
        [
            ([1, 0, -5, 0, 6], 4),  # +-sqrt(2), +-sqrt(3)
            ([1, 0, 0, 0, 1], 0),
            ([-1, 0, 1], 2),
            ([1, -6, 11, -6], 3),
            ([-2, 0, 0, 5], 1),
            ([1, 0, -1, 0, 0], 3),  # x^2 (x^2 - 1): distinct roots only
            ([10**22, 0, 10**22 - 1, 0, -1], 2),  # +-10^-11 and +-i
            ([3, 7], 1),
        ],
    )
    def test_real_root_count_is_exact(self, f, count):
        """f has count distinct real roots: the Sturm fallback rejects it
        exactly when it has a non-real one, else returns count distinct
        floats."""
        assert _reference_real_root_count(f) == count
        _check_real_roots_count(f, count)

    def test_zero_root_deflation(self):
        roots = recover_curvatures(F(3), F(5), F(9), F(0))
        assert roots == pytest.approx([0.0, 0.0, 1.0, 2.0], abs=1e-9)

    def test_all_zero(self):
        assert recover_curvatures(F(0), F(0), F(0), F(0)) == (0.0, 0.0, 0.0, 0.0)

    REPEATED = [(-1, -1, -1, -1), (-1, -1, -1, 0), (0, 1, 1, 1), (1, 1, 1, 1), (F(1, 2),) * 4]

    @pytest.mark.parametrize("vals", REPEATED)
    def test_triple_and_quadruple_roots(self, vals):
        """Triple and quadruple roots come back well inside the sweep's 1e-9."""
        vals = [F(v) for v in vals]
        p1 = sum(vals)
        p2 = sum(v * v for v in vals)
        p3 = sum(v**3 for v in vals)
        e4 = vals[0] * vals[1] * vals[2] * vals[3]
        roots = recover_curvatures(p1, p2, p3, e4)
        assert roots == pytest.approx([float(v) for v in vals], abs=1e-9)

    @pytest.mark.parametrize("vals", REPEATED + [(-2, F(1, 3), F(1, 3), 5), (0, 0, 7, 7)])
    def test_rational_repeated_roots_are_split_exactly(self, vals, monkeypatch):
        """Exact input with repeated roots is solved on ints, so the
        companion-matrix fallback is never taken."""

        def no_fallback(*args, **kwargs):
            raise AssertionError("companion-matrix fallback taken")

        monkeypatch.setattr(mp, "eig", no_fallback)
        vals = [F(v) for v in vals]
        p1 = sum(vals)
        p2 = sum(v * v for v in vals)
        p3 = sum(v**3 for v in vals)
        e4 = vals[0] * vals[1] * vals[2] * vals[3]
        assert recover_curvatures(p1, p2, p3, e4) == pytest.approx([float(v) for v in vals], abs=1e-12)

    # 10^9 is beyond what float estimates resolve alone: the leading
    # coefficient of a factor reaches about 10^36 there.
    @pytest.mark.parametrize("height", [1, 2, 1000, 10**6, 10**9, 10**11])
    def test_rational_input_is_solved_exactly(self, height, monkeypatch):
        """Rational curvatures, repeats included, come back as the correctly
        rounded floats of the exact values without any mpmath root finding."""

        def no_mpmath(*args, **kwargs):
            raise AssertionError("mpmath root finding reached")

        monkeypatch.setattr(mp, "polyroots", no_mpmath)
        monkeypatch.setattr(mp, "eig", no_mpmath)
        for i in range(80):
            vals = sorted(draw_rationals(RngStream(606).split(i), height, 4)[0])
            if i % 4 == 0:
                vals[1 + i % 3] = vals[i % 3]
            p1 = sum(vals)
            p2 = sum(v * v for v in vals)
            p3 = sum(v**3 for v in vals)
            e4 = vals[0] * vals[1] * vals[2] * vals[3]
            assert recover_curvatures(p1, p2, p3, e4) == tuple(float(v) for v in sorted(vals))

    @pytest.mark.parametrize(
        "vals",
        [
            (F(999998, 999999), F(999999, 10**6), F(-3, 7), F(5, 2)),
            (F(-123457, 999983), F(500001, 999979), F(999998, 999999), F(999999, 10**6)),
            # a pair next to 0 and 2: float deflation by the root 2 buries it
            (F(0), F(1, 10**6), F(1, 999999), F(2)),
        ],
    )
    def test_close_rational_pair_is_solved_exactly(self, vals, monkeypatch):
        """Two roots 1/(d1 d2) apart at height 10^6 are closer than float
        estimates resolve; each is found exactly all the same."""

        def no_mpmath(*args, **kwargs):
            raise AssertionError("mpmath root finding reached")

        monkeypatch.setattr(mp, "polyroots", no_mpmath)
        monkeypatch.setattr(mp, "eig", no_mpmath)
        p1 = sum(vals)
        p2 = sum(v * v for v in vals)
        p3 = sum(v**3 for v in vals)
        assert recover_curvatures(p1, p2, p3, math.prod(vals)) == tuple(float(v) for v in sorted(vals))

    @pytest.mark.parametrize("f", [[1, 0, 1], [1, -2, 5], [1, 0, 0, 0, 1]])
    def test_complex_factor_has_no_rational_roots(self, f):
        assert identities._rational_roots(f) is None

    def test_rational_roots_are_verified_exactly(self):
        """Roots are kept only where the factor vanishes exactly: the
        irrational roots +-sqrt(2), +-sqrt(3) round to four distinct
        integers, and none of them is accepted; on the grid of 10^-30 the
        refinement of +-sqrt(2 + 10^-30) moves before it stalls."""
        assert identities._rational_roots([1, 0, -5, 0, 6]) is None
        assert identities._rational_roots([1, 0, -2]) is None
        assert identities._rational_roots([10**30, 0, -(2 * 10**30 + 1)]) is None
        assert sorted(F(p, q) for p, q in identities._rational_roots([6, -5, -8, 3])) == [F(-1), F(1, 3), F(3, 2)]

    @pytest.mark.parametrize(
        "f, roots",
        [
            ([1, -2, 1], [1, 1]),  # (t - 1)^2
            ([81, -108, 54, -12, 1], [F(1, 3)] * 4),  # (3t - 1)^4
            ([1, 0, 0, 0, 0], [0] * 4),  # t^4: the quotient is a constant
            ([2, 5, 0, 0, 0], [F(-5, 2), 0, 0, 0]),  # t^3 (2t + 5)
            ([1, 2, -3, -4, 4], [-2, -2, 1, 1]),  # (t - 1)^2 (t + 2)^2
            ([4, -4, 1], [F(1, 2)] * 2),  # a quadratic with discriminant 0
        ],
    )
    def test_rational_roots_keep_multiplicity(self, f, roots):
        """The whole polynomial needs no square-free split: zero roots are
        read off, and each repeated root is found and divided out once for
        each time it divides f. Each comes back as a reduced int pair."""
        pairs = identities._rational_roots(f)
        assert all(math.gcd(p, q) == 1 for p, q in pairs)
        assert sorted(F(p, q) for p, q in pairs) == roots

    @pytest.mark.parametrize(
        "f",
        [
            [1, 1, -1],  # discriminant 5
            [3, 0, -1],  # discriminant 12
            [2, 1, 3],  # discriminant -23
            [1, -9, 18, 18, -40],  # (t - 5)(t - 4)(t^2 - 2): the tail is t^2 - 2
        ],
    )
    def test_quadratic_tail_needs_a_square_discriminant(self, f):
        assert identities._rational_roots(f) is None

    @pytest.mark.parametrize("height", [1, 2, 3, 1000, 2**70])
    def test_sweep_needs_no_square_free_split(self, height, monkeypatch):
        """Drawn quadruples, repeated values included at small heights, are
        recovered exactly from the whole quartic, without the Sturm
        fallback."""

        def no_fallback(*args):
            raise AssertionError("Sturm fallback reached")

        monkeypatch.setattr(identities, "_real_roots", no_fallback)
        assert run_identity_sweep("recover", 300, 19, height).failures == 0

    def test_partly_irrational_quartic_is_split(self, monkeypatch):
        """(t - 1)^2 (t^2 - 2) has no full rational factorisation. Its
        square-free part (t - 1)(t^2 - 2) and gcd(f, f') = t - 1 are solved
        on ints, without mpmath root finding."""
        _forbid_mpmath_roots(monkeypatch)
        r2 = math.sqrt(2)
        assert recover_curvatures(2, 6, 2, -2) == (-r2, 1.0, 1.0, r2)

    @pytest.mark.parametrize("p, builds", [((0, 12, 0, 1), 1), ((0, 10, 0, 6), 1), ((2, 6, 2, -2), 3)])
    def test_one_sturm_pass_per_square_free_part(self, p, builds, monkeypatch):
        """The Sturm fallback builds one sequence per square-free part s,
        and one for f where gcd(f, f') is not constant (else f's is s's).
        Terms other than s are evaluated only at +-b and at the midpoints of
        intervals holding two roots or more: once a root has an interval of
        its own, each halving evaluates s alone. The roots are those of a
        100-digit reference, rounded."""
        sturm, value = identities._sturm, identities._value
        # each Sturm sequence built, and (polynomial, point) of each evaluation
        # made, by _real_roots; the exact search's, by _rational_roots, are
        # left out
        events = []

        def by_fallback():
            return sys._getframe(2).f_code is not identities._rational_roots.__code__

        def recording_sturm(f):
            seq = sturm(f)
            if by_fallback():
                events.append(seq)
            return seq

        def recording_value(q, num, den):
            if by_fallback():
                events.append((q, F(num, den)))
            return value(q, num, den)

        monkeypatch.setattr(identities, "_sturm", recording_sturm)
        monkeypatch.setattr(identities, "_value", recording_value)
        got = recover_curvatures(*p)
        assert sum(isinstance(ev, list) for ev in events) == builds
        others = {}  # part s -> points where a term other than s is evaluated
        for ev in events:
            if isinstance(ev, list):
                s = ev[0]
            else:
                points = others.setdefault(tuple(s), set())
                if ev[0] != s:
                    points.add(ev[1])
        ref = []
        for s, points in others.items():
            with mp.workdps(100):
                roots = [float(mp.re(rt)) for rt in mp.polyroots(s)]
            b = max(points)
            assert points == {-b, b} | _multi_root_midpoints(roots, b)
            ref += roots
        assert got == tuple(sorted(ref))

    @pytest.mark.parametrize("f", [[1, 0, -6, 0, 1], [1, 0, -5, 0, 6], [1, -1, -2, 2], [1, 0, -4, 0, 4]])
    def test_one_value_call_per_halving(self, f, monkeypatch):
        """Once a root has an interval of its own, each halving evaluates s
        once, at the midpoint, and carries the sign at hi from the step
        before; the first sign at hi comes from the Sturm count that
        isolated the interval. Within one Sturm pass no (polynomial, point)
        pair is then evaluated twice. The roots are those of a 100-digit
        reference, rounded."""
        sturm, value = identities._sturm, identities._value
        passes = []  # the evaluations after each Sturm sequence is built

        def recording_value(q, num, den):
            passes[-1].append((tuple(q), F(num, den)))
            return value(q, num, den)

        monkeypatch.setattr(identities, "_sturm", lambda g: passes.append([]) or sturm(g))
        monkeypatch.setattr(identities, "_value", recording_value)
        got = identities._real_roots(f)
        assert sum(len(calls) - len(set(calls)) for calls in passes) == 0
        with mp.workdps(100):
            ref = [float(mp.re(rt)) for p in _square_free_parts(f) for rt in mp.polyroots(p)]
        assert sorted(got) == sorted(ref)

    with mp.workdps(60):
        P3_TRIPLE = 8 * mp.sqrt(3) / 3

    @pytest.mark.parametrize(
        "p, dps, raises",
        [
            ((F(0), F(12), F(0), F(1)), 50, False),  # +-(sqrt(2) +- 1)
            ((F(0), F(10), F(0), F(6)), 50, False),  # +-sqrt(2), +-sqrt(3)
            ((F(0), F(0), F(0), F(1)), 50, True),  # the fourth roots of -1
            ((F(0), F(4), P3_TRIPLE, F(-1, 3)), 60, False),  # mpf input, a triple root
        ],
    )
    def test_fallback_reaches_mpmath(self, p, dps, raises, monkeypatch):
        """mpmath finds the roots of mpf input and names a non-real root.
        Rational input with irrational real roots never reaches it and
        returns the roots of a 100-digit reference, rounded."""
        calls = itertools.count()
        polyroots = mp.polyroots

        def counted(*args, **kwargs):
            next(calls)
            return polyroots(*args, **kwargs)

        monkeypatch.setattr(mp, "polyroots", counted)
        with mp.workdps(dps):
            if raises:
                with pytest.raises(ValueError, match="not real"):
                    recover_curvatures(*p)
            else:
                got = recover_curvatures(*p)
        rational = all(isinstance(v, F) for v in p)
        assert (next(calls) >= 1) == (raises or not rational)
        if rational and not raises:
            e1, e2, e3 = identities._elementary(*p[:3])
            with mp.workdps(100):
                ref = polyroots([identities._to_mpf(c) for c in (1, -e1, e2, -e3, p[3])])
            assert got == tuple(sorted(float(mp.re(rt)) for rt in ref))

    @pytest.mark.parametrize("roots", sorted(check_golden.RECOVER))
    def test_far_apart_and_tie_roots_are_correctly_rounded(self, roots, monkeypatch):
        """Rational input whose roots span hundreds of orders of magnitude,
        lie beyond the double range or sit halfway between two doubles (1 +
        3 2^-53, rounded half to even) comes back correctly rounded, on
        ints; the table tests/check_golden.py checks on other interpreters
        holds the same floats."""
        inputs, want = check_golden.RECOVER[roots]
        with mp.workdps(250):
            r2, r3 = mp.sqrt(2), mp.sqrt(3)
            exact = {
                "+-sqrt2 +- 1": [-(r2 + 1), -(r2 - 1), r2 - 1, r2 + 1],
                "1 twice, +-sqrt2": [-r2, 1, 1, r2],
                "+-sqrt2, +-sqrt3": [-r3, -r2, r2, r3],
                "+-sqrt2 twice": [-r2, -r2, r2, r2],
                "+-sqrt2, +-sqrt2 10^100": [-r2 * 10**100, -r2, r2, r2 * 10**100],
                "+-1, +-sqrt2 10^-60": [-1, -r2 / 10**60, r2 / 10**60, 1],
                "the tie, 3, +-sqrt2": [-r2, float(check_golden.TIE), r2, 3],
                "1, 2, 3, 10^400": [1, 2, 3, mp.mpf(10) ** 400],
                "-445/363, -707/879 twice, 193/15": [F(-445, 363), F(-707, 879), F(-707, 879), F(193, 15)],
                "1/3 four times": [F(1, 3)] * 4,
            }[roots]
            assert tuple(float(x).hex() for x in exact) == want
        _forbid_mpmath_roots(monkeypatch)
        assert tuple(x.hex() for x in recover_curvatures(*inputs)) == want

    @pytest.mark.parametrize("height, trials", [(1, 20), (2, 40)])
    def test_sweep_at_small_heights(self, height, trials):
        """Small heights draw repeated curvatures (seed 0 reaches a triple
        root by trial 2 at height 1 and trial 33 at height 2)."""
        verdict = run_identity_sweep("recover", trials, 0, height)
        assert verdict.failures == 0



def _square_free_parts(f: list[int]) -> list[list[int]]:
    """Square-free primitive polynomials, each possibly negated, whose roots,
    taken together, are the roots of the integer polynomial f counted with
    multiplicity.

    f / gcd(f, f') has each root of f once and gcd(f, f') has every root with
    its multiplicity lowered by one, so repeating on the gcd, the last term
    of the Sturm sequence, peels one layer of each repeated root at a time.
    A constant gcd means f is square-free, and f itself is the last part.
    """
    parts = []
    while len(f) > 1:
        g = identities._sturm(f)[-1]
        if len(g) == 1:
            return parts + [identities._primitive(f)]
        parts.append(identities._primitive(identities._pseudo_divmod(f, g)[0]))
        f = g
    return parts


def _reference_square_free_parts(f):
    """The square-free split with a gcd loop of its own and no sign
    correction; the split must equal it up to the sign of each part."""
    parts = []
    while len(f) > 1:
        n = len(f) - 1
        g, r = f, identities._primitive([c * (n - i) for i, c in enumerate(f[:-1])])
        while r:
            g, r = r, identities._primitive(identities._pseudo_divmod(g, r)[1])
        parts.append(identities._primitive(identities._pseudo_divmod(f, g)[0]))
        f = g
    return parts


def _reference_real_root_count(f):
    """Sturm's count with a remainder loop of its own."""
    n = len(f) - 1
    seq = [f, identities._primitive([c * (n - i) for i, c in enumerate(f[:-1])])]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        r = identities._pseudo_divmod(a, b)[1]
        if not r:
            break
        sign = -1 if b[0] < 0 and (len(a) - len(b)) % 2 == 0 else 1
        seq.append(identities._primitive([-sign * c for c in r]))

    def changes(signs):
        return sum(x * y < 0 for x, y in zip(signs, signs[1:]))

    return changes([p[0] * (-1) ** (len(p) - 1) for p in seq]) - changes([p[0] for p in seq])


def _multi_root_midpoints(roots, b):
    """The midpoints of the dyadic intervals (lo, hi] that bisection of
    (-b, b] splits while they hold two of the distinct roots or more."""
    out, todo = set(), [(F(-b), F(b))]
    while todo:
        lo, hi = todo.pop()
        if sum(lo < r <= hi for r in roots) > 1:
            mid = (lo + hi) / 2
            out.add(mid)
            todo += [(lo, mid), (mid, hi)]
    return out


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _seeded_factor(r):
    """A rational root, a zero root, a real pair (mostly irrational) or a
    complex pair, as an integer factor."""
    kind = r.randrange(4)
    if kind == 0:
        return [r.randint(1, 4), r.randint(-6, 6)]
    if kind == 1:
        return [1, 0]
    b = r.randint(-3, 3)
    if kind == 2:
        return [1, b, -r.choice((1, 2, 3, 5, 7))]
    return [1, b, b * b // 4 + r.randint(1, 5)]


def _seeded_polynomial(r, degree):
    """An integer polynomial of the given degree from seeded factors, each
    repeated up to three times, with a leading coefficient of either sign."""
    f = [r.choice((-3, -2, -1, 1, 2, 3))]
    while len(f) <= degree:
        factor = _seeded_factor(r)
        for _ in range(r.randint(1, 3)):
            if len(f) + len(factor) - 2 <= degree:
                f = _poly_mul(f, factor)
    return f


def _check_real_roots_count(f, count):
    """_real_roots(f) raises "not real" when fewer than all the distinct
    roots of f are real, count being how many are, and else returns count
    distinct floats."""
    distinct = len(_reference_square_free_parts(f)[0]) - 1
    if count < distinct:
        with pytest.raises(ValueError, match="not real"):
            identities._real_roots(f)
    else:
        assert count == distinct and len(set(identities._real_roots(f))) == count


def test_square_free_parts_and_root_count_match_reference():
    """On seeded polynomials of degree 1 to 8 the Sturm fallback on the
    polynomial and on each part of the reference split agrees with the
    reference's real-root count."""
    r = random.Random(1829)
    repeated = 0
    for i in range(1500):
        f = _seeded_polynomial(r, 1 + i % 8)
        parts = _reference_square_free_parts(f)
        for g in [f, *parts]:
            _check_real_roots_count(g, _reference_real_root_count(g))
        repeated += len(parts) > 1
    assert repeated > 300


def _recover_outcomes(quartics, recover=recover_curvatures):
    out = []
    for f in quartics:
        a1, a2, a3, a4 = (F(c, f[0]) for c in f[1:])
        e1, e2, e3 = -a1, a2, -a3
        try:
            out.append(recover(e1, e1 * e1 - 2 * e2, e1**3 - 3 * e1 * e2 + 3 * e3, a4))
        except ValueError as exc:
            out.append(str(exc))
    return out


def test_recover_matches_reference_split_and_count():
    """recover_curvatures returns the floats, or raises the ValueError, of
    the square-free split with mpmath that it replaced, run on the
    reference split and count."""
    r = random.Random(4711)
    quartics = [_seeded_polynomial(r, 4) for _ in range(400)]
    got = _recover_outcomes(quartics)
    split = functools.partial(_fraction_recover_front_end, split=_reference_square_free_parts)
    assert got == _recover_outcomes(quartics, split)
    assert 50 < sum(isinstance(v, str) for v in got) < 350


def _fraction_recover_front_end(p1, p2, p3, e4, dps=50, split=_square_free_parts):
    """recover_curvatures on rational input as it was, with the quartic
    built from Fraction power sums, split into square-free parts and solved
    by mpmath where a part's roots are not all rational; kept as the
    reference its int core and the Sturm fallback must equal."""
    out = []
    polys = []
    e1, e2, e3 = identities._elementary(*(F(v) for v in (p1, p2, p3)))
    for poly in split(identities._primitive(clear_denominators([1, -e1, e2, -e3, e4])[0])):
        exact = identities._rational_roots(poly)
        if exact is None:
            polys.append(poly)
        else:
            out += (p / q for p, q in exact)
    if polys:
        with mp.workdps(dps):
            for poly in polys:
                roots = identities._roots([identities._to_mpf(c) for c in poly])
                worst = max(roots, key=lambda rt: abs(mp.im(rt)))
                if _reference_real_root_count(poly) != len(poly) - 1:
                    raise ValueError(f"curvature root is not real: {worst}")
                out += (float(mp.re(rt)) for rt in roots)
    return tuple(sorted(out))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_recover_core_matches_fraction_front_end(monkeypatch):
    """On seeded rational quadruples up to height 2**70, a quarter of them
    with a repeated value, and on seeded quartics with irrational and
    complex roots, recover_curvatures returns the floats, or raises the
    ValueError, of the Fraction front end. The recover trial hands its int
    core the primitive quartic of the Fraction power sums."""
    handed = []
    core = identities._recover_cleared
    monkeypatch.setattr(identities, "_recover_cleared", lambda f, *dps: handed.append(f) or core(f, *dps))
    cases = []
    for i in range(240):
        height = (1, 2, 3, 1000, 10**6, 2**70)[i % 6]
        stream = RngStream(8128).split(i)
        assert identities._trial_recover(stream.seed, height) is None
        vals = sorted(draw_rationals(stream, height, 4)[0])
        e1, e2, e3 = identities._elementary(sum(vals), sum(v * v for v in vals), sum(v**3 for v in vals))
        assert handed.pop() == identities._primitive(clear_denominators([1, -e1, e2, -e3, math.prod(vals)])[0])
        if i % 4 == 0:
            vals[1 + i % 3] = vals[i % 3]
        cases.append((sum(vals), sum(v * v for v in vals), sum(v**3 for v in vals), math.prod(vals)))
    r = random.Random(6174)
    for f in [_seeded_polynomial(r, 4) for _ in range(150)]:
        a1, a2, a3, a4 = (F(c, f[0]) for c in f[1:])
        cases.append((-a1, a1 * a1 - 2 * a2, -(a1**3) + 3 * a1 * a2 - 3 * a3, a4))
    outcomes = [_outcome(recover_curvatures, *case) for case in cases]
    assert outcomes == [_outcome(_fraction_recover_front_end, *case) for case in cases]
    errors = sum(isinstance(v, str) for v in outcomes)
    assert all(isinstance(v, tuple) for v in outcomes[:240]) and 20 < errors < 130


def test_real_roots_are_correctly_rounded():
    """On seeded real-rooted polynomials of degree 1 to 8, many with a
    repeated irrational factor, the Sturm fallback returns the roots of a
    100-digit reference (mpmath on each square-free part), rounded."""
    r = random.Random(2029)
    checked = repeated_irrational = 0
    for i in range(800):
        f = _seeded_polynomial(r, 1 + i % 8)
        parts = _square_free_parts(f)
        if any(_reference_real_root_count(p) != len(p) - 1 for p in parts):
            with pytest.raises(ValueError, match="not real"):
                identities._real_roots(f)
            continue
        with mp.workdps(100):
            ref = sorted(float(mp.re(rt)) for p in parts for rt in identities._roots([mp.mpf(c) for c in p]))
        assert sorted(identities._real_roots(f)) == ref
        checked += 1
        repeated_irrational += any(identities._rational_roots(p) is None for p in parts[1:])
    assert checked > 300 and repeated_irrational > 50


def _no_fallback(*args):
    raise AssertionError("Sturm fallback reached")


def _float_newton_evaluations(run):
    """(searches, polynomial evaluations) of _largest_root while run() runs,
    counted by a line tracer on the first statement of its Newton loop."""
    lines, first = inspect.getsourcelines(identities._largest_root)
    [evaluation] = [first + i for i, line in enumerate(lines) if line.strip() == "v, dv = 1.0, 0.0"]
    code = identities._largest_root.__code__
    counts = [0, 0]

    def local(frame, event, arg):
        counts[1] += event == "line" and frame.f_lineno == evaluation
        return local

    def calls(frame, event, arg):
        if frame.f_code is code:
            counts[0] += 1
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return counts


class TestRootSearch:
    """The exact search of _rational_roots: its float start, its exact check
    and the square-free retry that keeps repeated rational roots off the
    Sturm fallback."""

    @pytest.mark.parametrize("height", [1, 2, 3, 4, 10])
    def test_drawn_trials_never_reach_the_fallback(self, height, monkeypatch):
        """Small heights draw many repeated curvatures; each stalled search
        is split into f / gcd(f, f') and gcd(f, f') and solved exactly."""
        monkeypatch.setattr(identities, "_real_roots", _no_fallback)
        assert run_identity_sweep("recover", 2000, 27, height).failures == 0

    @pytest.mark.parametrize("height", [10**3, 10**6, 10**9, 10**11])
    def test_repeated_rational_roots_need_no_fallback(self, height, monkeypatch):
        """The 80 quadruples of test_rational_input_is_solved_exactly, a
        quarter of them with a repeated value, are all solved by the exact
        search, and come back as the correctly rounded floats."""
        monkeypatch.setattr(identities, "_real_roots", _no_fallback)
        for i in range(80):
            vals = sorted(draw_rationals(RngStream(606).split(i), height, 4)[0])
            if i % 4 == 0:
                vals[1 + i % 3] = vals[i % 3]
            sums = sum(vals), sum(v * v for v in vals), sum(v**3 for v in vals), math.prod(vals)
            assert recover_curvatures(*sums) == tuple(float(v) for v in vals)

    def test_float_newton_steps_per_search(self):
        """From the Laguerre-Samuelson start a search evaluates the
        polynomial 7.7 times on average over these trials; from Fujiwara's
        bound it took 11.87."""
        searches, evaluations = _float_newton_evaluations(lambda: run_identity_sweep("recover", 3000, 7, 1000))
        assert searches > 5900 and searches <= evaluations <= 8.5 * searches

    def test_start_is_at_or_above_every_root(self):
        """On seeded integer polynomials of degree 2 to 8 with known rational
        roots, repeats included, the start is at or above the float of the
        largest root, even where the bound is tight (degree 2, or all roots
        but the largest equal), and the search recovers every root. The
        square root in the bound rounds up: for t^2 - 2 it is sqrt 2 itself."""
        assert identities._samuelson_bound([1, 0, -2]) >= math.sqrt(2)
        r = random.Random(1968)
        tight = 0
        for i in range(700):
            degree = 2 + i % 7
            f, roots = [r.choice((-3, -2, -1, 1, 2, 3))], []
            while len(roots) < degree:
                root = F(r.randint(-20, 20), r.randint(1, 6))
                for _ in range(min(r.randint(1, 3), degree - len(roots))):
                    roots.append(root)
                    f = _poly_mul(f, [root.denominator, -root.numerator])
            roots.sort()
            start = identities._samuelson_bound(f)
            assert start >= float(roots[-1])
            tight += start == float(roots[-1])
            assert sorted(F(p, q) for p, q in identities._rational_roots(f)) == roots
        assert tight > 100

    @pytest.mark.parametrize("f", [[1, 0, 1], [1, 0, 0, 0, 1], [2, 1, 1, 5, 3]])
    def test_negative_variance_shows_a_complex_pair(self, f):
        """(n - 1) f_1^2 < 2 n lc f_2 makes the roots' variance negative, so
        they cannot all be real; x^4 + 1 has variance 0 and is caught by the
        exact check instead."""
        n = len(f) - 1
        if (n - 1) * f[1] ** 2 < 2 * n * f[0] * f[2]:
            with pytest.raises(ValueError):
                identities._samuelson_bound(f)
        assert identities._rational_roots(f) is None

    def test_complex_pair_at_1e300_is_named_off_the_axis(self):
        """Power sums all 1e300 leave three roots near 1e300 y, y a root of
        y^3 - y^2 + y/2 - 1/6, and one near 6e-600. At 50 digits mpmath read
        the pair's imaginary part as 0.0, so the message named a real-looking
        root; the retry at more digits names the pair's 1e300 Im(y)."""
        with pytest.raises(ValueError, match="not real") as info:
            recover_curvatures(*(F(1e300),) * 4)
        imag = float(re.fullmatch(r"curvature root is not real: \(\S+ [-+] (\S+)j\)", str(info.value))[1])
        with mp.workdps(30):
            y = max(mp.polyroots([1, -1, mp.mpf(1) / 2, -mp.mpf(1) / 6]), key=lambda rt: abs(mp.im(rt)))
        assert imag / 1e300 == pytest.approx(abs(float(mp.im(y))), rel=1e-12)

    def test_float_power_sums_at_1e300_name_a_complex_root(self):
        """The float input returned (0.0, 0.0, 0.0, 1e300), which are not its
        roots: mpmath's absolute tolerance at the 1e300 scale stopped on
        points that are not roots. The re-check sends it to the scaled
        solve, which names the pair at 1e300 y, as the Fraction input does."""
        with pytest.raises(ValueError, match="not real") as info:
            recover_curvatures(1e300, 1e300, 1e300, 1e300)
        imag = float(re.fullmatch(r"curvature root is not real: \(\S+ [-+] (\S+)j\)", str(info.value))[1])
        with mp.workdps(30):
            y = max(mp.polyroots([1, -1, mp.mpf(1) / 2, -mp.mpf(1) / 6]), key=lambda rt: abs(mp.im(rt)))
        assert imag / 1e300 == pytest.approx(abs(float(mp.im(y))), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e-300])
    def test_tiny_complex_roots_are_named_as_roots(self, scale):
        """Power sums all `scale` leave four roots of modulus about
        scale^(1/4), off the axis at 45 degrees. At 50 digits mpmath named
        (-1.7e-601 + 9.1e-301j) for 1e-300, which is not a root; the name
        fails the re-check, and the scaled solve names one of the four."""
        p = (F(scale),) * 4
        with pytest.raises(ValueError, match="not real") as info:
            recover_curvatures(*p)
        root = complex(str(info.value).removeprefix("curvature root is not real: ").replace(" ", ""))
        e1, e2, e3 = identities._elementary(*p[:3])
        with mp.workdps(1000):
            roots = mp.polyroots([identities._to_mpf(c) for c in (1, -e1, e2, -e3, p[3])],
                                 maxsteps=500, extraprec=2000)
        assert min(abs(complex(r) - root) for r in roots) <= 1e-12 * abs(root)
        assert abs(root.real) == pytest.approx(abs(root.imag), rel=1e-9)

    @pytest.mark.parametrize("context_dps", [15, 50, 80])
    def test_solve_precision_ignores_the_mpmath_context(self, context_dps, monkeypatch):
        """Float input is solved, and a non-real root of rational input is
        named, at 50 digits whatever the context, so no result or message
        follows the caller's mp.dps."""
        seen = []
        roots = identities._roots
        monkeypatch.setattr(identities, "_roots", lambda coeffs: seen.append(mp.mp.dps) or roots(coeffs))
        with mp.workdps(context_dps):
            recover_curvatures(0.0, 12.0, 0.0, 1.0)
            with pytest.raises(ValueError, match="not real") as info:
                recover_curvatures(F(0), F(0), F(0), F(1))
        assert seen == [50, 50]
        assert str(info.value) == ("curvature root is not real: (-0.70710678118654752440084436210484903928483593768847"
                                   " + 0.70710678118654752440084436210484903928483593768847j)")

    @pytest.mark.parametrize("scale", [1e-300, 1e-250, 1e-200])
    def test_tiny_float_complex_roots_are_not_real(self, scale):
        """Float power sums all `scale` have four roots of modulus about
        scale^(1/4), off the axis at 45 degrees. Judged by an absolute 1e-10
        bound their imaginary parts read as real, and the real parts came
        back, (-7.07e-76, -7.07e-76, 7.07e-76, 7.07e-76) for 1e-300; the bound
        relative to the largest root modulus names one of the four."""
        with pytest.raises(ValueError, match="not real") as info:
            recover_curvatures(scale, scale, scale, scale)
        root = complex(str(info.value).removeprefix("curvature root is not real: ").replace(" ", ""))
        assert abs(root.real) == pytest.approx(abs(root.imag), rel=1e-9)
        assert abs(root) == pytest.approx(scale ** 0.25, rel=0.5)

    @pytest.mark.parametrize("f", [[1, 0, -6, 0, 1], [1, 0, -5, 0, 6]], ids=["x^4-6x^2+1", "x^4-5x^2+6"])
    def test_fallback_builds_its_own_sturm_sequence(self, f, monkeypatch):
        """Integer Newton stalls on these square-free quartics. The search
        builds f's Sturm sequence for gcd(f, f'), a constant, and gives up;
        the fallback builds its own and isolates the roots with it. Each
        build takes one pseudo-remainder per term after f'."""
        terms = len(identities._sturm(f))
        sturm, pseudo_divmod = identities._sturm, identities._pseudo_divmod
        built, divisions = [], []
        monkeypatch.setattr(identities, "_sturm", lambda p: built.append(p) or sturm(p))
        monkeypatch.setattr(identities, "_pseudo_divmod", lambda a, b: divisions.append(a) or pseudo_divmod(a, b))
        got = identities._recover_cleared(f)
        assert len(built) == 2 and len(divisions) == 2 * (terms - 2)
        with mp.workdps(100):
            assert got == tuple(sorted(float(mp.re(r)) for r in mp.polyroots(f)))

    @pytest.mark.parametrize(
        "p, root",
        [
            ((F(0), F(0), F(0), F(1)), "-0.70710678118654752440084436210484903928483593768847 + "
             "0.70710678118654752440084436210484903928483593768847j"),
            ((F(0), F(12), F(0), F(-1)), "0.0 - 0.40283701439711238630270863972505619513387084074359j"),
        ],
        ids=["x^4 + 1", "x^4 - 6x^2 - 1"],
    )
    def test_message_with_a_nonzero_imaginary_part_is_unchanged(self, p, root):
        with pytest.raises(ValueError) as info:
            recover_curvatures(*p)
        assert str(info.value) == f"curvature root is not real: ({root})"


class TestSweeps:
    def test_identity_names(self):
        assert IDENTITY_NAMES == (
            "g2",
            "g3",
            "vandermonde",
            "i-closed",
            "i-sign",
            "dpsi",
            "recover",
        )

    def test_verdict_consistency_enforced(self):
        with pytest.raises(ValueError):
            IdentityVerdict("g2", 10, 0, True, {"k": "1"})
        with pytest.raises(ValueError):
            IdentityVerdict("g2", 10, 2, True, None)
        ok = IdentityVerdict("g2", 10, 0, True, None)
        assert ok.failures == 0

    def test_unknown_name_and_bad_trials(self):
        with pytest.raises(ValueError):
            run_identity_sweep("nope", 10, seed=0)
        with pytest.raises(ValueError):
            run_identity_sweep("g2", 0, seed=0)

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_small_sweep_passes(self, name):
        verdict = run_identity_sweep(name, 40, seed=3)
        assert verdict.identity == name
        assert verdict.trials == 40
        assert verdict.failures == 0
        assert verdict.first_counterexample is None
        assert verdict.exact is (name != "recover")

    @pytest.mark.parametrize("height", [0, -5])
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_height_below_one_rejected(self, name, height):
        with pytest.raises(ValueError, match=f"^height must be >= 1, got {height}$"):
            run_identity_sweep(name, 5, seed=0, height=height)

    @pytest.mark.parametrize("value", [1e3, 2.5, True])
    @pytest.mark.parametrize("arg", ["height", "trials"])
    def test_height_and_trials_must_be_plain_ints(self, arg, value):
        """A float height once drew floats, and g2 still reported exact: true
        with 0 failures; the other identities raised an internal TypeError
        from math.lcm. A bool passed as 1."""
        kwargs = {"trials": 5, "height": 1000, arg: value}
        with pytest.raises(TypeError, match=f"^{arg} must be an int, got {value!r}$"):
            run_identity_sweep("g2", seed=0, **kwargs)

    @pytest.mark.parametrize(
        "seed, workers, error, message",
        [
            (1.5, 1, TypeError, "^seed must be an int, got 1.5$"),
            (True, 1, TypeError, "^seed must be an int, got True$"),
            (0, 0, ValueError, "^workers must be at least 1, got 0$"),
            (0, 2.5, TypeError, "^workers must be an int, got 2.5$"),
            (0, True, TypeError, "^workers must be an int, got True$"),
        ],
    )
    def test_seed_and_workers_are_checked_before_any_trial(self, seed, workers, error, message, monkeypatch):
        """A float seed once raised an internal TypeError from rng._child_seed,
        and workers 0, 2.5 or True ran as if valid."""
        def never(*args):
            raise AssertionError("a trial ran before the arguments were checked")

        monkeypatch.setitem(identities._TRIALS, "g2", (never, True, 0))
        with pytest.raises(error, match=message):
            run_identity_sweep("g2", 5, seed, workers=workers)

    @pytest.mark.parametrize("name", ["vandermonde", "i-closed", "i-sign", "dpsi"])
    def test_height_without_four_distinct_values_rejected(self, name):
        with pytest.raises(ValueError, match="distinct"):
            run_identity_sweep(name, 5, seed=0, height=1)

    def test_height_one_supplies_three_distinct_values(self):
        assert run_identity_sweep("g3", 5, seed=0, height=1).failures == 0

    def test_worker_count_does_not_change_verdict(self):
        solo = run_identity_sweep("i-closed", 60, seed=11, workers=1)
        pooled = run_identity_sweep("i-closed", 60, seed=11, workers=2)
        assert solo == pooled

    def test_seed_controls_reproducibility(self):
        a = run_identity_sweep("dpsi", 30, seed=4)
        b = run_identity_sweep("dpsi", 30, seed=4)
        assert a == b


def _reference_distinct_quadruple(stream, height):
    """The quadruple draw as it was on Fractions: four draw_rationals values,
    all redrawn until no two are equal, then sorted."""
    while True:
        vals, stream = draw_rationals(stream, height, 4)
        if len(set(vals)) == 4:
            return Quadruple(tuple(sorted(vals))), stream


@pytest.mark.parametrize("height", [2, 3, 1000, 10**6, 2**63, 2**70])
def test_int_quadruple_draw_matches_fraction_draw(height):
    """The cleared quadruple, the stream after it and the K draw that
    follows equal the Fraction draw's; at heights 2 and 3 many quadruples
    are redrawn for a repeated value."""
    root = RngStream(2718)
    redrawn = 0
    for key in range(350):
        seed = root.split(key).seed
        a, d, counter, _tail = identities._draw_distinct_quadruple(seed, height, identities._ranges(height, 4))
        ref, ref_stream = _reference_distinct_quadruple(root.split(key), height)
        assert tuple(F(x, d) for x in a) == ref.lam
        assert (seed, counter) == (ref_stream.seed, ref_stream.counter)
        pairs, _counter = rng._rational_walk(seed, counter, height, 4)
        assert tuple(F(*p) for p in pairs) == draw_rationals(ref_stream, height, 4)[0]
        redrawn += counter > 8
    if height < 4:
        assert redrawn > 100


def _sequential_inputs(name, stream, height):
    """The inputs of one g3 or four-curvature trial drawn one step at a time
    through the public draws, as its counterexample names them, and whether
    the first triple or quadruple repeated a value, so that it was redrawn."""
    if name == "g3":
        choice, stream = rng.draw_int(stream, 0, 2)
        lams, stream = draw_rationals(stream, height, 3)
        repeated = len(set(lams)) < 3
        while len(set(lams)) < 3:
            lams, stream = draw_rationals(stream, height, 3)
        p, q, r = ((1, 1, 2), (1, 2, 1), (2, 1, 1))[choice]
        return repeated, {"p": str(p), "q": str(q), "r": str(r), "lams": [str(v) for v in lams]}
    repeated = len(set(draw_rationals(stream, height, 4)[0])) < 4
    quad, stream = _reference_distinct_quadruple(stream, height)
    found = {"lam": [str(v) for v in quad.lam]}
    if name == "vandermonde":
        K_l, stream = draw_rational(stream, height)
        l, stream = rng.draw_int(stream, 0, 3)
        return repeated, dict(found, K_l=str(K_l), l=str(l))
    K, stream = draw_rationals(stream, height, 4)
    found["K"] = [str(v) for v in K]
    if name == "dpsi":
        mixed, stream = draw_rationals(stream, height, 4)
        found["mixed"] = [str(v) for v in mixed]
    return repeated, found


# identity -> (the core its trial compares, that core's result spoiled so the
# trial fails on every input and names all it drew): the kernel dimension
# 1; the first system entry off by one, against a nonzero cofactor; every
# closed sum off by one, against a nonzero denominator; a positive I_1; the
# divergence numerator off by its nonzero denominator.
_ALWAYS_WRONG = {
    "g3": ("_g3_kernel_cleared", lambda r: 1),
    "vandermonde": ("_diag_system_cleared", lambda r: ([r[0][0] + 1, *r[0][1:]], r[1])),
    "i-closed": ("_I_cleared", lambda r: ([c + 1 for c in r[0]], r[1])),
    "i-sign": ("_I_cleared", lambda r: ((abs(r[0][0]) + 1, *r[0][1:]), r[1])),
    "dpsi": ("_dpsi_cleared", lambda r: (r[0] + r[1], r[1])),
}


@pytest.mark.parametrize("name", sorted(_ALWAYS_WRONG))
def test_one_walk_trials_draw_the_sequential_inputs(name, monkeypatch):
    """Each trial reads its inputs in one walk; when the first triple or
    quadruple repeats a value, it falls back to redrawing it step by step.
    Height 2 offers 7 distinct values, so both paths run, and on both the
    trial names exactly the inputs of the step-by-step draws."""
    attr, spoil = _ALWAYS_WRONG[name]
    core = getattr(identities, attr)
    monkeypatch.setattr(identities, attr, lambda *args: spoil(core(*args)))
    trial = identities._TRIALS[name][0]
    root = RngStream(31)
    repeats = 0
    for key in range(200):
        repeated, expected = _sequential_inputs(name, root.split(key), 2)
        assert trial(root.split(key).seed, 2) == expected
        repeats += repeated
    assert 20 < repeats < 180


def _fraction_trial_vandermonde(stream, height):
    """The vandermonde trial as it was on Fractions, through the public
    functions; kept as the reference the int trial must equal."""
    quad, stream = _reference_distinct_quadruple(stream, height)
    K_l, stream = draw_rational(stream, height)
    l, stream = rng.draw_int(stream, 0, 3)
    K = tuple(K_l if m == l else F(0) for m in range(4))
    diag = diag_from_K(quad, K)
    if diag_from_system(quad, K_l, l) != tuple(diag[i][l] for i in range(4)):
        return {"lam": [str(v) for v in quad.lam], "K_l": str(K_l), "l": str(l)}
    return None


def _fraction_trial_i_closed(stream, height):
    quad, stream = _reference_distinct_quadruple(stream, height)
    K, stream = draw_rationals(stream, height, 4)
    if I_def(quad, diag_from_K(quad, K)) != I_closed(quad, K):
        return {"lam": [str(v) for v in quad.lam], "K": [str(v) for v in K]}
    return None


def _fraction_trial_i_sign(stream, height):
    quad, stream = _reference_distinct_quadruple(stream, height)
    K, stream = draw_rationals(stream, height, 4)
    if not sign_lemma(quad, K):
        return {"lam": [str(v) for v in quad.lam], "K": [str(v) for v in K]}
    return None


def _fraction_trial_dpsi(stream, height):
    quad, stream = _reference_distinct_quadruple(stream, height)
    K, stream = draw_rationals(stream, height, 4)
    mixed, stream = draw_rationals(stream, height, 4)
    if dpsi_coeff(DerivativeTable(quad, K, mixed)) != gauss_R(quad) / 2 - sum(I_closed(quad, K)):
        return {
            "lam": [str(v) for v in quad.lam],
            "K": [str(v) for v in K],
            "mixed": [str(v) for v in mixed],
        }
    return None


def _fraction_trial_g2(stream, height):
    """The g2 trial as it was on Fractions and Surds, through g2_solve."""
    k, stream = rng.draw_int(stream, 1, 3)
    num, stream = rng.draw_int(stream, 1, height)
    den, stream = rng.draw_int(stream, 1, height)
    S = F(num, den)
    for lam, mu in g2_solve(k, S):
        linear = k * lam + (4 - k) * mu
        quadratic = k * lam.squared() + (4 - k) * mu.squared()
        if not linear.is_zero() or quadratic != S:
            return {"k": str(k), "S": str(S)}
    return None


def _fraction_trial_g3(stream, height):
    choice, stream = rng.draw_int(stream, 0, 2)
    p, q, r = ((1, 1, 2), (1, 2, 1), (2, 1, 1))[choice]
    while True:
        vals, stream = draw_rationals(stream, height, 3)
        if len(set(vals)) == 3:
            break
    if g3_kernel(p, q, r, vals) != 0:
        return {"p": str(p), "q": str(q), "r": str(r), "lams": [str(v) for v in vals]}
    return None


def _fraction_trial_recover(stream, height):
    vals = sorted(draw_rationals(stream, height, 4)[0])
    p1 = sum(vals)
    p2 = sum(v * v for v in vals)
    p3 = sum(v**3 for v in vals)
    e4 = vals[0] * vals[1] * vals[2] * vals[3]
    roots = recover_curvatures(p1, p2, p3, e4)
    worst = max(abs(r - float(v)) for r, v in zip(roots, vals))
    if worst > 1e-9:
        return {"lam": [str(v) for v in vals], "max_error": repr(worst)}
    return None


def _wrong_when_positive(core, pick, spoil):
    """core, made wrong by spoil on the calls where pick(args) is positive."""
    return lambda *args: spoil(core(*args)) if pick(args) > 0 else core(*args)


# identity -> (Fraction trial, the core both trials reach, the drawn value
# that picks the calls to spoil, the spoiled result). The value is S - 1
# (num - den), the first curvature, K_l, K_1, the first mixed component or
# minus the sum of the curvatures (the quartic's second coefficient), whose
# sign clearing denominators keeps, so both trials see the same fault. For
# i-sign the spoiled I_1 numerator is made positive, so the lemma fails.
_FRACTION_TRIALS = {
    "g2": (
        _fraction_trial_g2,
        "_g2_cleared",
        lambda args: args[1] - args[2],
        lambda r: (r[0], r[1], r[2] + 1, r[3]),
    ),
    "g3": (_fraction_trial_g3, "_g3_kernel_cleared", lambda args: args[3][0], lambda r: r + 1),
    "recover": (
        _fraction_trial_recover,
        "_recover_cleared",
        lambda args: -args[0][1],
        lambda r: tuple(1.25 * x for x in r),
    ),
    "vandermonde": (
        _fraction_trial_vandermonde,
        "_diag_system_cleared",
        lambda args: args[2],
        lambda r: ([r[0][0] + 1, *r[0][1:]], r[1]),
    ),
    "i-closed": (
        _fraction_trial_i_closed,
        "_I_cleared",
        lambda args: args[2][0],
        lambda r: ((r[0][0] + 1, *r[0][1:]), r[1]),
    ),
    "i-sign": (
        _fraction_trial_i_sign,
        "_I_cleared",
        lambda args: args[2][0],
        lambda r: ((abs(r[0][0]) + 1, *r[0][1:]), r[1]),
    ),
    "dpsi": (_fraction_trial_dpsi, "_dpsi_cleared", lambda args: args[4][0], lambda r: (r[0] + 1, r[1])),
}


@pytest.mark.parametrize("height", [2, 3, 1000, 10**6, 2**70])
@pytest.mark.parametrize("name", sorted(_FRACTION_TRIALS))
def test_int_trials_match_fraction_trials(name, height, monkeypatch):
    """With one core planted wrong on about half the inputs, the int trial
    and the Fraction trial return the same verdict and the same
    counterexample dict on every stream; the other half run the true core
    and both pass. The int trial gets the child stream as an int seed, as
    map_chunks hands it; the Fraction trial draws through the public
    RngStream API, so this also checks the int walks against it."""
    reference, attr, pick, spoil = _FRACTION_TRIALS[name]
    monkeypatch.setattr(identities, attr, _wrong_when_positive(getattr(identities, attr), pick, spoil))
    trial = identities._TRIALS[name][0]
    root = RngStream(1729)
    failed = 0
    for key in range(300):
        found = trial(root.split(key).seed, height)
        assert found == reference(root.split(key), height)
        failed += found is not None
    assert 60 < failed < 240


def test_recover_sweep_fails_on_a_root_off_by_a_millionth(monkeypatch):
    """Correct roots come back correctly rounded, so the trial's 1e-9 bound
    is never reached by a working core; one root moved by 1e-6 must fail
    every trial and report its error, or a loosened bound would pass."""
    core = identities._recover_cleared
    monkeypatch.setattr(identities, "_recover_cleared", lambda *args: (lambda r: (r[0] + 1e-6, *r[1:]))(core(*args)))
    verdict = run_identity_sweep("recover", 20, seed=5)
    assert verdict.failures == 20
    assert 0.9e-6 < float(verdict.first_counterexample["max_error"]) < 1.1e-6


_TRIAL2_LAM = ["-1", "0", "1/2", "1"]
_TRIAL2_K = ["1", "1/2", "0", "1"]

# identity -> (checked function, value it returns when planted to fail, the
# counterexample of trial 2 at seed 7). Height 2 offers 7 distinct values, so
# the distinct draws are often redrawn; recover keeps its repeated -1/2.
_PLANTED = {
    "g2": ("_g2_cleared", (((1, 1), (-1, -1)), 1, 1, 1), {"k": "3", "S": "2"}),
    "g3": ("_g3_kernel_cleared", 1, {"p": "2", "q": "1", "r": "1", "lams": ["1", "0", "-2"]}),
    "vandermonde": ("_diag_system_cleared", ([1, 0, 0, 0], 1), {"lam": _TRIAL2_LAM, "K_l": "1", "l": "1"}),
    "i-closed": ("_I_def_cleared", [(1, 1)] * 4, {"lam": _TRIAL2_LAM, "K": _TRIAL2_K}),
    "i-sign": ("_I_cleared", ((1, 1, 1, 1), 1), {"lam": _TRIAL2_LAM, "K": _TRIAL2_K}),
    "dpsi": ("_dpsi_cleared", (0, 1), {"lam": _TRIAL2_LAM, "K": _TRIAL2_K, "mixed": ["2", "-1", "1", "2"]}),
    "recover": ("_recover_cleared", (0.0,) * 4, {"lam": ["-1/2", "-1/2", "0", "2"], "max_error": "2.0"}),
}


@pytest.mark.parametrize("name", sorted(_PLANTED))
def test_planted_failure_pins_first_counterexample(name, monkeypatch):
    """The checked function fails from its third call on, so trial 2 is the
    first counterexample; its drawn values pin the order of the RNG draws."""
    attr, bad, expected = _PLANTED[name]
    original = getattr(identities, attr)
    calls = itertools.count()
    monkeypatch.setattr(
        identities, attr, lambda *a, **k: bad if next(calls) >= 2 else original(*a, **k)
    )
    verdict = run_identity_sweep(name, 4, seed=7, height=2)
    assert verdict.failures == 2
    assert verdict.first_counterexample == dict(expected, trial="2")
