"""Exact rational verification of the curvature-constraint algebra.

Context: a minimal hypersurface of S^5 with constant scalar invariants and
four principal curvature functions lambda_1 < ... < lambda_4. The classifying
argument runs through a chain of algebraic identities in the curvatures and
the symmetric derivative components h_abc; each identity is implemented here
in exact arithmetic so it can be checked with zero rounding error at random
rational inputs. Values go in and come out as Fractions. Inside, each
public function (g2_solve, g3_kernel, the rational path of
recover_curvatures, and diag_from_K, diag_from_system, I_def, I_closed,
sign_lemma, gauss_R, dpsi_coeff of the four-curvature identities) is a thin
wrapper over an int core: the curvatures are scaled by a common denominator
d to integers a_i = lam_i d, K and the mixed components are cleared the
same way, and Fractions are built only for the returned values. The
definition side never calls the closed forms. Each trial of the random
sweeps gets its child stream as an int seed and reads all its inputs in
one rng._walk from counter 0: bounded ints that it clears straight into
the arguments of the int cores, so it stays on ints from draw to verdict
and builds Fractions only to name a counterexample. The facts the int cores
rest on (g3's determinant, the cofactors' moment sums, P_x Q_x = D and the
dpsi quotients) are certified over Z[a] in the tests, not checked per call.

Index conventions (0-based internally, matching the docstrings' 1-based math):

  diag[i][l]  = h_iil, the repeated-index components; column l satisfies
                sum_i h_iil = sum_i lam_i h_iil = sum_i lam_i^2 h_iil = 0
  mixed       = (h_123, h_124, h_134, h_234), the fully mixed components
  K_l         = sum_i h_iil prod_{j != i} lam_j, the derivative of the
                Gauss-Kronecker product along direction l
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

# draw_int, draw_rational, solve_linear and matrix_rank are no longer called
# here (the trials draw through _walk); they stay bound
# under these names because the per-layer tracer in bench/layers.py wraps them.
from .exact import (
    RationalLike,
    Surd,
    _reduce,
    _solve_cleared,
    _values,
    as_rational,
    clear_denominators,
    matrix_rank,
    solve_linear,
)
from .rng import _rational_pairs, _require_int, _require_real, _walk, draw_int, draw_rational, map_chunks

Quad = tuple[Fraction, Fraction, Fraction, Fraction]
_RECOVER_DPS = 50  # digits of the float solve and of naming a non-real rational root


def _four(name: str, vals: Sequence[RationalLike]) -> Quad:
    """vals as a tuple of four Fractions; ValueError for any other length."""
    out = tuple(as_rational(v) for v in _values(vals, name))
    if len(out) != 4:
        raise ValueError(f"{name} has four entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class Quadruple:
    """Strictly increasing quadruple of exact curvature values."""

    lam: Quad

    def __post_init__(self) -> None:
        vals = _four("a quadruple", self.lam)
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"values must be strictly increasing: {vals}")
        object.__setattr__(self, "lam", vals)


@dataclass(frozen=True)
class DerivativeTable:
    """Curvatures plus the free derivative data (K column gains and mixed h).

    lam given as a plain sequence is passed through Quadruple, so its
    exactness and ordering checks apply.
    """

    lam: Quadruple
    K: Quad
    mixed: Quad  # h_123, h_124, h_134, h_234

    def __post_init__(self) -> None:
        if not isinstance(self.lam, Quadruple):
            object.__setattr__(self, "lam", Quadruple(self.lam))
        object.__setattr__(self, "K", _four("K", self.K))
        object.__setattr__(self, "mixed", _four("mixed", self.mixed))


# ---------------------------------------------------------------------------
# Two distinct curvatures


def _g2_cleared(k: int, num: int, den: int) -> tuple[tuple[tuple[int, int], ...], int, int, int]:
    """(branches, c, rad_num, rad_den) for S = num / den with num, den > 0.

    Both curvatures are rational multiples of sqrt(rad), rad = k(4-k)S =
    rad_num / rad_den: lam = sqrt(rad) / (2k) and mu = -sqrt(rad) / (2(4-k)).
    Branch (l, m) is lam = (l / c) sqrt(rad), mu = (m / c) sqrt(rad) over
    their one denominator c = 2k(4-k).
    """
    return ((4 - k, -k), (k - 4, k)), 2 * k * (4 - k), k * (4 - k) * num, den


def g2_solve(k: int, S: RationalLike) -> tuple[tuple[Surd, Surd], tuple[Surd, Surd]]:
    """Exact solutions of {k lam + (4-k) mu = 0, k lam^2 + (4-k) mu^2 = S}.

    k is the multiplicity of lam. Returns the two sign branches
    ((lam, mu), (-lam, -mu)) as surds sharing the radicand k(4-k)S, with
    lam > 0 in the first branch. S = 0 would force lam = mu = 0, a
    degenerate pair, and is rejected. The values come from _g2_cleared.
    """
    _require_int(k=k)
    if k not in (1, 2, 3):
        raise ValueError(f"multiplicity k must be 1, 2 or 3, got {k}")
    S = as_rational(S)
    if S == 0:
        raise ValueError("S = 0 collapses both curvatures to zero (degenerate)")
    if S < 0:
        raise ValueError(f"S must be positive, got {S}")
    branches, c, rad_num, rad_den = _g2_cleared(k, S.numerator, S.denominator)
    rad = Fraction(rad_num, rad_den)
    return tuple((Surd(Fraction(l, c), rad), Surd(Fraction(m, c), rad)) for l, m in branches)


# ---------------------------------------------------------------------------
# Three distinct curvatures


def g3_kernel(p: int, q: int, r: int, lams: Sequence[RationalLike]) -> int:
    """Kernel dimension of the three-curvature differential constraint system.

    Multiplicities p, q, r are positive with p + q + r = 4, and lams holds
    three distinct curvature values. The determinant factors as
    p q r (mu-la)(sig-la)(sig-mu), which is nonzero exactly when the values
    are distinct, so the kernel dimension is always 0 for admissible input;
    the tests certify that factorisation, and each call reads the rank.
    """
    _require_int(p=p, q=q, r=r)
    for name, m in (("p", p), ("q", q), ("r", r)):
        if m < 1:
            raise ValueError(f"multiplicity {name} must be a positive integer, got {m}")
    if p + q + r != 4:
        raise ValueError(f"multiplicities must sum to 4, got {p}+{q}+{r}")
    vals = tuple(as_rational(v) for v in _values(lams, "lams"))
    if len(vals) != 3:
        raise ValueError(f"lams has three entries, got {len(vals)}")
    la, mu, sig = vals
    if la == mu or la == sig or mu == sig:
        raise ValueError("curvature values must be pairwise distinct")
    return _g3_kernel_cleared(p, q, r, clear_denominators((la, mu, sig))[0])


def _g3_kernel_cleared(p: int, q: int, r: int, a: Sequence[int]) -> int:
    """g3_kernel for the values a_i / d, from the integers a alone.

    Row m of the system's matrix, (p la^m, q mu^m, r sig^m), scaled by d^m
    is the integer moment row (p a1^m, q a2^m, r a3^m) of the same rank.
    """
    a1, a2, a3 = a
    x1, x2, x3 = p * a1, q * a2, r * a3
    m = [[p, q, r], [x1, x2, x3], [x1 * a1, x2 * a2, x3 * a3]]
    return 3 - len(_reduce(m, 3))


# ---------------------------------------------------------------------------
# Four distinct curvatures: repeated-index components


def _cofactors(a: Sequence[int]) -> list[int]:
    """P_i = prod_{j != i} (a_j - a_i) for the integer quadruple a; for
    lam_i = a_i / d, prod_{j != i} (lam_j - lam_i) = P_i / d^3."""
    a1, a2, a3, a4 = a
    d21, d31, d41, d32, d42, d43 = a2 - a1, a3 - a1, a4 - a1, a3 - a2, a4 - a2, a4 - a3
    return [d21 * d31 * d41, -d21 * d32 * d42, d31 * d32 * d43, -d41 * d42 * d43]


def _cleared_lam(lam: Quadruple) -> tuple[list[int], int]:
    """clear_denominators(lam.lam); TypeError when lam is not a Quadruple."""
    if not isinstance(lam, Quadruple):
        raise TypeError(f"lam must be a Quadruple, got {type(lam).__name__}")
    return clear_denominators(lam.lam)


def diag_from_K(lam: Quadruple, K: Sequence[RationalLike]) -> tuple[tuple[Fraction, ...], ...]:
    """h_iil = K_l / prod_{j != i} (lam_j - lam_i), for all i, l.

    Each column is the unique solution of the three moment constraints with
    the prescribed K_l: sum_i a_i^m / P_i = 0 for m = 0, 1, 2, which the
    tests certify over Z[a] for the cofactors P of _cofactors. Computed on
    Python ints, with one Fraction per entry at the end.
    """
    a, d = _cleared_lam(lam)
    ks, k_den = clear_denominators(_four("K", K))
    d3 = d**3
    return tuple(tuple(Fraction(k * d3, k_den * p) for k in ks) for p in _cofactors(a))


def _diag_system_cleared(a: Sequence[int], d: int, k: int) -> tuple[list[int], int]:
    """(y, det) with h_il = y_i / (det k_den) for lam_i = a_i / d and
    K_l = k / k_den, from the moment system alone.

    Equation m is multiplied through by d^m (d^3 for the K equation) and the
    K equation by k_den, which leaves the matrix integer and scales the
    solution by k_den.
    """
    a0, a1, a2, a3 = a
    squares = [a0 * a0, a1 * a1, a2 * a2, a3 * a3, 0]
    k_row = [a1 * a2 * a3, a0 * a2 * a3, a0 * a1 * a3, a0 * a1 * a2, k * d**3]
    return _solve_cleared([[1, 1, 1, 1, 0], [a0, a1, a2, a3, 0], squares, k_row])


def diag_from_system(lam: Quadruple, K_l: RationalLike, l: int) -> tuple[Fraction, ...]:
    """Column l of the repeated-index table, from first principles.

    Solves the 4x4 system {three moment constraints} + {K equation} by exact
    fraction-free elimination, with no reference to the closed form.
    Agreement with diag_from_K is the correctness check for both.
    """
    _require_int(l=l)
    if l not in (0, 1, 2, 3):
        raise ValueError(f"column index must be 0..3, got {l}")
    a, d = _cleared_lam(lam)
    K_l = as_rational(K_l)
    y, det = _diag_system_cleared(a, d, K_l.numerator)
    return tuple(Fraction(v, det * K_l.denominator) for v in y)


# ---------------------------------------------------------------------------
# The interaction sums I_l


# _OTHERS[l] = the three indices other than l, ascending
_OTHERS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _I_def_cleared(
    a: Sequence[int], d: int, cols: Sequence[tuple[Sequence[int], int]]
) -> list[tuple[int, int]]:
    """I_l from its definition as (numerator, denominator), l = 0..3.

    With lam_i = a_i / d and cols[l] = ((n_i, n_j, n_k), c), column l's
    three entries h_il = n_i / c over one nonzero integer c for the indices
    i < j < k other than l, the pair (i, j) contributes
    d^2 n_i n_j (a_l - a_k) / (c^2 prod_{x != l} (a_l - a_x)).
    """
    out = []
    for l, ((ni, nj, nk), c) in enumerate(cols):
        i, j, k = _OTHERS[l]
        ei, ej, ek = a[l] - a[i], a[l] - a[j], a[l] - a[k]
        out.append((d * d * (ni * nj * ek + ni * nk * ej + nj * nk * ei), c * c * ei * ej * ek))
    return out


def I_def(lam: Quadruple, diag: Sequence[Sequence[Fraction]]) -> Quad:
    """I_l = sum over pairs i < j (both != l) of
    h_iil h_jjl / ((lam_l - lam_i)(lam_l - lam_j)).

    diag[i][l] = h_iil is a 4x4 table of exact values. Each column's three
    entries are cleared over one integer and summed by _I_def_cleared.
    """
    a, d = _cleared_lam(lam)
    if len(diag) != 4:
        raise ValueError(f"diag has four rows, got {len(diag)}")
    rows = [_four(f"diag row {i}", row) for i, row in enumerate(diag)]
    cols = [clear_denominators([rows[x][l] for x in _OTHERS[l]]) for l in range(4)]
    return tuple(Fraction(n, den) for n, den in _I_def_cleared(a, d, cols))


def _I_cleared(
    a: Sequence[int], d: int, ks: Sequence[int], k_den: int
) -> tuple[tuple[int, ...], int]:
    """Numerators of the four closed-form I_l over one positive common denominator.

    The curvatures are lam_i = a_i / d and K_l = k_l / k_den, for any
    positive d and k_den. The brackets and D have degrees 4 and 6 in the
    integer quadruple a, so I_l = -k_l^2 bracket_l(a) d^8 / (k_den^2 D(a)^2).
    Everything is Python int arithmetic.
    """
    a1, a2, a3, a4 = a
    d21, d31, d41, d32, d42, d43 = a2 - a1, a3 - a1, a4 - a1, a3 - a2, a4 - a2, a4 - a3
    brackets = (
        d43 * d42 * d41 * d41 - d43 * d32 * d31 * d31 + d42 * d32 * d21 * d21,
        d43 * d42 * d42 * d41 - d43 * d32 * d32 * d31 + d41 * d31 * d21 * d21,
        d43 * d43 * d42 * d41 - d42 * d32 * d32 * d21 + d41 * d31 * d31 * d21,
        d43 * d43 * d32 * d31 - d42 * d42 * d32 * d21 + d41 * d41 * d31 * d21,
    )
    scale = d**8
    D = d21 * d31 * d41 * d32 * d42 * d43
    return tuple(-k * k * b * scale for k, b in zip(ks, brackets)), (k_den * D) ** 2


def I_closed(lam: Quadruple, K: Sequence[RationalLike]) -> Quad:
    """The same four sums in closed form: -K_l^2 / D^2 times a difference
    bracket, D = prod_{i<j} (lam_j - lam_i)."""
    a, d = _cleared_lam(lam)
    nums, den = _I_cleared(a, d, *clear_denominators(_four("K", K)))
    return tuple(Fraction(n, den) for n in nums)


def sign_lemma(lam: Quadruple, K: Sequence[RationalLike]) -> bool:
    """True when every interaction sum I_l is nonpositive.

    The closed forms share a positive denominator, so this reads the signs
    of their integer numerators.
    """
    a, d = _cleared_lam(lam)
    nums, _den = _I_cleared(a, d, *clear_denominators(_four("K", K)))
    return all(n <= 0 for n in nums)


def _gauss_R_cleared(a: Sequence[int], d: int) -> int:
    """gauss_R times d^2 for lam_i = a_i / d: 12 + (sum lam)^2 - sum lam^2
    over the common denominator d^2."""
    return 12 * d * d + sum(a) ** 2 - sum(x * x for x in a)


def gauss_R(lam: Quadruple) -> Fraction:
    """Scalar curvature sum over ordered pairs: sum_{i != j} (1 + lam_i lam_j)."""
    a, d = _cleared_lam(lam)
    return Fraction(_gauss_R_cleared(a, d), d * d)


# ---------------------------------------------------------------------------
# The divergence-form coefficient


def _dpsi_cleared(
    a: Sequence[int], d: int, ks: Sequence[int], k_den: int, ms: Sequence[int], m_den: int
) -> tuple[int, int]:
    """dpsi_coeff as (numerator, denominator) for lam_i = a_i / d,
    K_l = k_l / k_den and mixed = m / m_den, with d, k_den, m_den positive.

    With h_il = k_l d^3 / (k_den P_i) and D = prod_{i<j} (a_j - a_i), the
    h h keys (c, p, q), h_pc h_qc / ((lam_c - lam_p)(lam_c - lam_q)), sum
    over k_den^2 D^2 / d^8, the mixed keys (x, k, l),
    h_xkl^2 / ((lam_k - lam_x)(lam_l - lam_x)), over m_den^2 D / d^2, and
    the curvature terms over d^2. A key's quotient, its sum's denominator
    over its own, is the product of the differences its divisor lacks,
    signed: for an h h key, r the fourth index, it is +-(a_p - a_r)(a_q - a_r)
    (a_c - a_r)^2 = D^2 / (P_p P_q (a_c - a_p)(a_c - a_q)), and for a mixed
    one the product of the four other differences, so nothing is divided.
    The tests derive the weights from the six terms and certify each
    quotient times its divisor as D^2 or D over Z[a].
    """
    a0, a1, a2, a3 = a
    e10, e20, e30 = a1 - a0, a2 - a0, a3 - a0
    e21, e31, e32 = a2 - a1, a3 - a1, a3 - a2
    D = e10 * e20 * e30 * e21 * e31 * e32
    D2 = D * D
    e30_e30 = e30 * e30
    e31_e32 = e31 * e32
    q0 = e30_e30 * e31_e32  # hh (0, 1, 2)
    e20_e20 = e20 * e20
    e21_e32 = e21 * e32
    q1 = e20_e20 * e21_e32  # hh (0, 1, 3)
    e10_e10 = e10 * e10
    e21_e31 = e21 * e31
    q2 = e10_e10 * e21_e31  # hh (0, 2, 3)
    e30_e31 = e30 * e31
    q3 = e30_e31 * e31_e32  # hh (1, 0, 2)
    e20_e21 = e20 * e21
    q4 = e20_e21 * e21_e32  # hh (1, 0, 3)
    e20_e30 = e20 * e30
    q5 = e10_e10 * e20_e30  # hh (1, 2, 3)
    e32_e32 = e32 * e32
    q6 = e30_e31 * e32_e32  # hh (2, 0, 1)
    e10_e21 = e10 * e21
    q7 = e10_e21 * e21_e31  # hh (2, 0, 3)
    e10_e20 = e10 * e20
    q8 = e10_e20 * e20_e30  # hh (2, 1, 3)
    q9 = e20_e21 * e32_e32  # hh (3, 0, 1)
    e31_e31 = e31 * e31
    q10 = e10_e21 * e31_e31  # hh (3, 0, 2)
    q11 = e10_e20 * e30_e30  # hh (3, 1, 2)
    e21_e30 = e21 * e30
    q12 = e21_e30 * e31_e32  # mixed (0, 1, 2)
    q13 = e20_e21 * e31_e32  # mixed (0, 1, 3)
    q14 = e10_e21 * e31_e32  # mixed (0, 2, 3)
    q15 = e20_e30 * e31_e32  # mixed (1, 0, 2)
    e30_e32 = e30 * e32
    q16 = e20_e21 * e30_e32  # mixed (1, 0, 3)
    q17 = e10_e20 * e30_e32  # mixed (1, 2, 3)
    e10_e30 = e10 * e30
    q18 = e10_e30 * e31_e32  # mixed (2, 0, 1)
    q19 = e10_e21 * e30_e31  # mixed (2, 0, 3)
    q20 = e10_e20 * e30_e31  # mixed (2, 1, 3)
    q21 = e10_e20 * e21_e32  # mixed (3, 0, 1)
    q22 = e10_e20 * e21_e31  # mixed (3, 0, 2)
    q23 = e10_e20 * e21_e30  # mixed (3, 1, 2)
    k0, k1, k2, k3 = ks
    acc_hh = (
        k0 * k0 * (q0 - q1 + q2) + k1 * k1 * (q3 - q4 + q5)
        + k2 * k2 * (q6 - q7 + q8) + k3 * k3 * (q9 - q10 + q11)
    )
    m0, m1, m2, m3 = ms
    acc_mixed = (
        m0 * m0 * (-2 * q12 + 2 * q15 - 2 * q18) + m1 * m1 * (-2 * q13 + 2 * q16 - 2 * q21)
        + m2 * m2 * (-2 * q14 + 2 * q19 - 2 * q22) + m3 * m3 * (-2 * q17 + 2 * q20 - 2 * q23)
    )
    d2 = d * d
    acc_curv = 6 * d2 + a2 * a3 + a0 * a3 + a1 * a3 + a1 * a2 + a2 * a0 + a0 * a1
    kd, md = k_den * k_den, m_den * m_den
    num = acc_hh * d2**5 * md + acc_mixed * d2 * d2 * kd * D + acc_curv * kd * md * D2
    return num, kd * md * D2 * d2


def dpsi_coeff(table: DerivativeTable) -> Fraction:
    """Volume-form coefficient of the exterior derivative of the 3-form
    psi = sum over the six index pairings of omega_i ^ omega_j ^ omega_kl.

    Each term contributes three blocks (derivative on the first leg, on the
    second leg, on the connection form); sectional curvature enters as
    R_klkl = 1 + lam_k lam_l. Like terms of the six terms' blocks are
    collected in the written-out kernel _dpsi_cleared, whose weights the
    tests derive from the six terms. The h h part is then
    minus the sums of I_def: weight -1 on each of the 12 values with c not
    in {p, q}. Each fully mixed component h_xkl enters as
    -2 h_xkl^2 sum_x 1/((lam_k-lam_x)(lam_l-lam_x)), the sum running over
    the three indices of the component; that is 0 by the three-point
    partial-fraction identity, and the exact sweep checks it rather than
    assuming it. Everything runs on Python ints in _dpsi_cleared.
    """
    if not isinstance(table, DerivativeTable):
        raise TypeError(f"table must be a DerivativeTable, got {type(table).__name__}")
    a, d = _cleared_lam(table.lam)
    ks, k_den = clear_denominators(table.K)
    ms, m_den = clear_denominators(table.mixed)
    return Fraction(*_dpsi_cleared(a, d, ks, k_den, ms, m_den))


# ---------------------------------------------------------------------------
# Inverting the invariants


def _to_mpf(x):
    import mpmath as mp

    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _primitive(p: list[int]) -> list[int]:
    """The integer polynomial p divided by the gcd of its coefficients, so
    they are coprime; coefficients leading first."""
    g = math.gcd(*p) or 1
    return [c // g for c in p]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """q and r with lc(b)^k a = q b + r and deg r < deg b, for integer
    polynomials (coefficients leading first); k is the number of steps."""
    q = []
    while len(a) >= len(b):
        c = a[0]
        q = [b[0] * x for x in q] + [c]
        a = [b[0] * x - c * y for x, y in zip(a[1:], b[1:])] + [b[0] * x for x in a[len(b):]]
    while a and a[0] == 0:
        a = a[1:]
    return q, a


def _sturm(f: list[int]) -> list[list[int]]:
    """The Sturm sequence f, f', -rem(f, f'), ... of the integer polynomial f
    (Sturm 1829), up to its last nonzero term, which is gcd(f, f') up to sign.

    It runs on ints: _pseudo_divmod gives lc(b)^k a = q b + r, so the true
    remainder r / lc(b)^k has the sign of r times that of lc(b)^k, and each
    term after f is made primitive, which keeps its sign.
    """
    n = len(f) - 1
    seq = [f, _primitive([c * (n - i) for i, c in enumerate(f[:-1])])]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        r = _pseudo_divmod(a, b)[1]
        if not r:
            break
        sign = -1 if b[0] < 0 and (len(a) - len(b)) % 2 == 0 else 1
        seq.append(_primitive([-sign * c for c in r]))
    return seq


def _changes(values) -> int:
    """The sign changes in a sequence of ints, zeros dropped."""
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _samuelson_bound(f: list[int]) -> float:
    """The Laguerre-Samuelson bound on the roots of the integer polynomial f
    of degree n >= 2, rounded up: when all n roots are real, the float it
    returns is at or above the float of each.

    Real roots lie within sigma sqrt(n - 1) of their mean (Samuelson 1968),
    and the mean and variance are read from the two leading coefficients
    alone. On ints, with lc > 0, n^2 lc^2 sigma^2 = D = (n - 1) f_1^2 - 2 n lc
    f_2, and the bound (sqrt((n - 1) D) - f_1) / (n lc) is taken with the
    square root rounded up, then rounded to a float by int / int, which is
    monotone. D < 0 shows a root that is not real: math.isqrt raises
    ValueError.
    """
    lc, f1, f2 = f[0], f[1], f[2]
    if lc < 0:
        lc, f1, f2 = -lc, -f1, -f2
    n = len(f) - 1
    t = (n - 1) * ((n - 1) * f1 * f1 - 2 * n * lc * f2)
    s = math.isqrt(t)
    return (s + (s * s != t) - f1) / (n * lc)


def _largest_root(f: list[int]) -> float:
    """A float estimate of the largest root of the integer polynomial f,
    when all its roots are real.

    Newton's method starts at the Laguerre-Samuelson bound, above every root,
    so on a real-rooted polynomial it falls monotonically to the largest
    one; it stops where it no longer falls, or where the value or the slope
    is 0.0, as on a start that is exactly a multiple root. A complex root is
    not rational, so for a polynomial with one _rational_roots fails its
    exact check whatever value comes back, or at once when the bound's
    ValueError shows the complex pair.
    """
    c = [x / f[0] for x in f[1:]]
    x = _samuelson_bound(f)
    for _ in range(100):
        v, dv = 1.0, 0.0
        for a in c:
            v, dv = v * x + a, dv * x + v
        if not (v and dv):
            break
        lower = x - v / dv
        if not lower < x:
            break
        x = lower
    return x


def _reduced(p: int, q: int) -> tuple[int, int]:
    """p / q in lowest terms."""
    g = math.gcd(p, q)
    return p // g, q // g


def _rational_roots(f: list[int]) -> list[tuple[int, int]] | None:
    """The roots of the integer polynomial f, exactly and with multiplicity,
    as reduced (p, q) int pairs, when all are rational; None when they
    cannot all be found that way.

    Trailing zero coefficients are roots 0, read off first. By the rational
    root theorem a rational root p/q of f has q | lc(f), so it is m / lc for
    an integer m, a root of phi(m) = lc^n f(m / lc). The float estimate of
    the largest root (_largest_root) is rounded to that integer grid, and
    f is tested exactly at the point, reduced to p/q. Only when the test
    misses is the estimate refined on the grid, by Newton's method on phi
    with every step rounded to an integer, until phi(m) is exactly 0. Then
    q t - p divides f over the integers (Gauss's lemma), and the quotient is
    searched next, so a repeated root is found once for each time it
    divides f; an exact division leaves no rounding behind to hide a close
    root. A quadratic quotient is solved in closed form, its roots rational
    exactly when its discriminant is a square; a linear one is read off.

    Newton's steps shrink only linearly at a repeated root, and round to 0
    next to an irrational one. When the refinement stalls, f = s g with g =
    gcd(f, f') and s = f / g, and both parts are searched; a constant g
    means f has no repeated root to blame, and the search fails. g is the
    last term of _sturm(f); _real_roots builds its own sequences.
    """
    roots = []
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
        roots.append((0, 1))
    while len(f) > 3:
        # an infinite or nan estimate raises OverflowError or ValueError here,
        # and so does a bound that shows a complex pair
        try:
            num, den = _largest_root(f).as_integer_ratio()
        except (OverflowError, ValueError):
            return None
        lc = f[0]
        # m = round(num / den * lc), half to even, on ints
        q, r = divmod(num * lc, den)
        m = q + (2 * r > den or (2 * r == den and q % 2 == 1))
        p, q = _reduced(m, lc)
        v = _value(f, p, q)
        if v:
            scaled = [c * lc**k for k, c in enumerate(f)]
            for _ in range(64):
                v = dv = 0
                for c in scaled:
                    dv = dv * m + v
                    v = v * m + c
                if v == 0:
                    break
                # the integer nearest to the Newton step v / dv
                step = (2 * v + dv) // (2 * dv) if dv else 0
                if step == 0:
                    break
                m -= step
            if v:
                g = _sturm(f)[-1]
                if len(g) == 1:
                    return None
                parts = [_rational_roots(h) for h in (_primitive(_pseudo_divmod(f, g)[0]), g)]
                return None if None in parts else roots + parts[0] + parts[1]
            p, q = _reduced(m, lc)
        roots.append((p, q))
        acc = 0
        f = [acc := (c + p * acc) // q for c in f[:-1]]
    if len(f) == 3:
        a, b, c = f
        disc = b * b - 4 * a * c
        s = math.isqrt(max(disc, 0))
        if s * s != disc:
            return None
        return roots + [_reduced(-b - s, 2 * a), _reduced(-b + s, 2 * a)]
    return roots + [_reduced(-c, f[0]) for c in f[1:]]


def _roots(coeffs: list) -> list:
    """Complex roots of an mpf polynomial, coefficients leading first."""
    import mpmath as mp
    from mpmath.libmp import NoConvergence

    zero_roots = 0
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
        zero_roots += 1
    try:
        found = mp.polyroots(coeffs, maxsteps=300, extraprec=300)
    except NoConvergence:
        # Durand-Kerner stalls on triple and quadruple roots; the
        # eigenvalues of the companion matrix do not.
        n = len(coeffs) - 1
        companion = [[-c / coeffs[0] for c in coeffs[1:]]]
        companion += [[int(j == i) for j in range(n)] for i in range(n - 1)]
        found = mp.eig(mp.matrix(companion), left=False, right=False)
    return [mp.mpc(r) for r in found] + [mp.mpc(0)] * zero_roots


def _is_root(coeffs: list, r) -> bool:
    """Whether the mpc r is a root of the mpf polynomial coeffs (leading
    first) up to a relative 1e-10: |f(r)| is at most 1e-10 times the sum of
    |c_k r^(n - k)|, the size of the terms that cancel in it."""
    value = size = 0
    a = abs(r)
    for c in coeffs:
        value, size = value * r + c, size * a + abs(c)
    return abs(value) <= 1e-10 * size


def _scaled_roots(coeffs: list) -> list:
    """_roots of an mpf polynomial with its variable scaled by 2^e, at or
    above Fujiwara's bound 2 max |c_k / c_0|^(1/k) on the roots, so that
    mpmath solves for roots in the unit disc, the largest of them within a
    factor 2n of its rim. mpmath tests convergence, and rounds small parts
    to 0, against an absolute tolerance, so roots far from 1 can come back
    as points that are not roots. Scaling by a power of two is exact."""
    import mpmath as mp

    lead = mp.mag(coeffs[0])
    e = 1 + max(-((lead - mp.mag(c)) // k) for k, c in enumerate(coeffs[1:], 1) if c)
    scale = mp.ldexp(1, e)
    return [r * scale for r in _roots([mp.ldexp(c, -e * k) for k, c in enumerate(coeffs)])]


def _elementary(p1, p2, p3):
    """e1, e2, e3 from the power sums p1, p2, p3 (Newton's identities)."""
    return p1, (p1 * p1 - p2) / 2, (p1**3 - 3 * p1 * p2 + 2 * p3) / 6


def _value(p: list[int], num: int, den: int) -> int:
    """den^deg(p) p(num / den) on ints; for den > 0 it has the sign of p(num / den)."""
    v, w = 0, 1
    for c in p:
        v, w = v * num + c * w, w * den
    return v


def _to_float(num: int, den: int) -> float:
    """num / den correctly rounded, +-inf beyond the double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _real_roots(f: list[int]) -> list[float]:
    """The roots of the integer polynomial f, with multiplicity, as correctly
    rounded floats; ValueError when one is not real.

    s = f / g, g = gcd(f, f') the last term of _sturm(f), has each root of f
    once. Sturm counts of s on dyadic intervals (lo, hi] split (-b, b], b a
    power of two above the roots of every Sturm term, until each root has its
    own; at +-b each term has the sign of its leading term, as at +-infinity,
    so unless (-b, b] holds deg s roots, mpmath at _RECOVER_DPS digits names
    the root farthest off the real axis, found again at more digits when its
    imaginary part reads 0 there, and with s scaled when it is not a root.
    An interval with one root is halved by the sign of s at the midpoint
    against its sign at hi, until hi is the root, as a tie between two floats
    ends, or both ends round to one float: the correctly rounded root, as
    rounding is monotone. The sign at hi comes from the Sturm count that
    isolated the interval, then from the halving before, so s is evaluated
    once per point. g gives the repeated roots. Counts never run on f, all of
    whose Sturm terms vanish at a repeated root.
    """
    roots = []
    while len(f) > 1:
        seq = _sturm(f)
        g, s = seq[-1], f
        if len(g) > 1:
            s = _primitive(_pseudo_divmod(f, g)[0])
            seq = _sturm(s)
        b = 1 << max((max(map(abs, p[1:])) // abs(p[0]) + 2).bit_length() for p in seq if len(p) > 1)
        at_hi = [_value(p, b, 1) for p in seq]
        vlo, vhi = _changes(_value(p, -b, 1) for p in seq), _changes(at_hi)
        if vlo - vhi != len(s) - 1:
            import mpmath as mp

            # When the worst root's imaginary part reads 0 at _RECOVER_DPS,
            # the coefficients' spread hid the pair, so it is named again at
            # as many more digits as the largest coefficient has; either way
            # the message is written at _RECOVER_DPS. A worst root off the
            # axis that fails _is_root is found again scaled (_scaled_roots).
            digits = math.ceil(max(abs(c).bit_length() for c in s) * math.log10(2))
            with mp.workdps(_RECOVER_DPS):
                for prec in (_RECOVER_DPS, _RECOVER_DPS + digits):
                    with mp.workdps(prec):
                        coeffs = [_to_mpf(c) for c in s]
                        worst = max(_roots(coeffs), key=lambda rt: abs(mp.im(rt)))
                        if mp.im(worst) and not _is_root(coeffs, worst):
                            worst = max(_scaled_roots(coeffs), key=lambda rt: abs(mp.im(rt)))
                    if mp.im(worst):
                        break
                raise ValueError(f"curvature root is not real: {worst}")
        # (lo / 2^e, hi / 2^e] with the sign changes at its ends and a value
        # of s at hi with the sign of s(hi / 2^e); seq[0] is s
        todo = [(-b, b, 0, vlo, vhi, at_hi[0])]
        while todo:
            lo, hi, e, vlo, vhi, shi = todo.pop()
            den = 1 << e
            if vlo - vhi == 1:
                while True:
                    x = _to_float(lo if shi else hi, den)
                    if x == _to_float(hi, den):
                        roots.append(x)
                        break
                    mid, den = lo + hi, 2 * den
                    smid = _value(s, mid, den)
                    if smid * shi < 0:
                        lo, hi = mid, 2 * hi
                    else:
                        lo, hi, shi = 2 * lo, mid, smid
                continue
            mid = lo + hi
            at_mid = [_value(p, mid, 2 * den) for p in seq]
            vmid = _changes(at_mid)
            halves = (2 * lo, mid, e + 1, vlo, vmid, at_mid[0]), (mid, 2 * hi, e + 1, vmid, vhi, shi)
            todo += [h for h in halves if h[3] > h[4]]
        f = g
    return roots


def _recover_cleared(f: list[int]) -> tuple[float, ...]:
    """The roots of the primitive integer polynomial f, ascending, as
    correctly rounded floats: the rational path of recover_curvatures."""
    exact = _rational_roots(f)
    # int / int is correctly rounded, as float(Fraction(p, q)) is
    return tuple(sorted(_real_roots(f) if exact is None else (p / q for p, q in exact)))


def recover_curvatures(p1, p2, p3, e4) -> tuple[float, float, float, float]:
    """Curvature quadruple from power sums p1, p2, p3 and product e4.

    Newton's identities convert the power sums to elementary symmetric
    functions of a quartic. Exact rational input (int or Fraction) goes to
    _recover_cleared as a primitive integer quartic, and each root comes
    back correctly rounded: found exactly when all are rational
    (`_rational_roots`), else isolated by Sturm counts and bisected on ints
    (`_real_roots`), which decide exactly whether all are real. Other input
    is solved by mpmath at _RECOVER_DPS digits, whatever the mpmath context,
    keeping repeated roots accurate far beyond double precision; a root is
    real when its imaginary part is at most 1e-10 times the largest root
    modulus; ValueError when the input is not finite. Raises ValueError,
    naming the root farthest off the real axis, if a root is not real. The
    roots returned, or the one named, must pass a re-check (`_is_root`);
    where they fail, the quartic is solved again with its variable scaled by
    a power of two (`_scaled_roots`). Returns the four real roots ascending;
    mpmath is loaded only for input that is not rational or to name one.
    A bool, a str or None raises TypeError naming its argument.
    """
    for name, v in (("p1", p1), ("p2", p2), ("p3", p3), ("e4", e4)):
        _require_real(v, name)
    if all(isinstance(v, (int, Fraction)) for v in (p1, p2, p3, e4)):
        e1, e2, e3 = _elementary(*(Fraction(v) for v in (p1, p2, p3)))
        return _recover_cleared(_primitive(clear_denominators([1, -e1, e2, -e3, e4])[0]))
    import mpmath as mp

    if not all(mp.isfinite(_to_mpf(v)) for v in (p1, p2, p3, e4)):
        raise ValueError(f"power sums must be finite, got p1={p1!r}, p2={p2!r}, p3={p3!r}, e4={e4!r}")
    with mp.workdps(_RECOVER_DPS):
        e1, e2, e3 = _elementary(*(_to_mpf(v) for v in (p1, p2, p3)))
        coeffs = [_to_mpf(c) for c in (1, -e1, e2, -e3, e4)]
        for solve in (_roots, _scaled_roots):
            roots = solve(coeffs)
            worst = max(roots, key=lambda rt: abs(mp.im(rt)))
            # relative to the roots' scale, so tiny complex roots are not real
            real = abs(mp.im(worst)) <= mp.mpf("1e-10") * max(abs(rt) for rt in roots)
            # the roots returned, or the one named, must be roots
            if all(_is_root(coeffs, rt) for rt in (roots if real else [worst])):
                break
        if not real:
            raise ValueError(f"curvature root is not real: {worst}")
        return tuple(sorted(float(mp.re(rt)) for rt in roots))


# ---------------------------------------------------------------------------
# Randomized exact sweeps


@dataclass(frozen=True)
class IdentityVerdict:
    """Outcome of one randomized identity sweep."""

    identity: str
    trials: int
    failures: int
    exact: bool
    first_counterexample: dict | None

    def __post_init__(self) -> None:
        if (self.failures == 0) != (self.first_counterexample is None):
            raise ValueError("failure count and counterexample presence disagree")


def _cleared_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The (numerator, denominator) pairs as integers over the lcm of their
    denominators, with that lcm."""
    d = math.lcm(*(den for _num, den in pairs))
    return [num * (d // den) for num, den in pairs], d


@functools.lru_cache(maxsize=64)
def _ranges(height: int, rationals: int, tail: tuple[int, ...] = ()) -> tuple[int, ...]:
    """The _walk ranges of `rationals` rationals of the given height, each
    a numerator range 2 height + 1 and a denominator range height, followed
    by the ranges of `tail`.

    Cached for the identity of the tuple it returns. A trial's ranges hold
    at most 64 entries, one _walk block, so the block is this same tuple and
    the lru_cache of rng._least_limit matches its key without comparing the
    entries: 0.16 us a lookup, against 0.44 us to build an equal fresh
    tuple and look it up. Without the cache, g3, i-sign and dpsi trials ran
    about 2% slower; g2, which never calls it, did not move."""
    return (2 * height + 1, height) * rationals + tail


def _cleared_drawn(vals: Sequence[int], height: int) -> tuple[list[int], int]:
    """_cleared_pairs of the four rationals that eight values drawn below
    _ranges(height, 4) make, written out: numerator value - height over
    denominator value + 1."""
    n0, e0, n1, e1, n2, e2, n3, e3 = vals
    e0, e1, e2, e3 = e0 + 1, e1 + 1, e2 + 1, e3 + 1
    d = math.lcm(e0, e1, e2, e3)
    return [
        (n0 - height) * (d // e0),
        (n1 - height) * (d // e1),
        (n2 - height) * (d // e2),
        (n3 - height) * (d // e3),
    ], d


def _draw_distinct_quadruple(
    seed: int, height: int, ranges: tuple[int, ...]
) -> tuple[list[int], int, int, list[int]]:
    """Four distinct rationals of the given height, ascending, and the
    values drawn below the rest of ranges after them, as (a, d, counter,
    tail) with lam_i = a_i / d; d is the lcm of the four drawn denominators,
    and counter is that of the last output used.

    ranges is _ranges(height, n, tail) with n >= 4, and one walk from
    counter 0 reads it all. All four are redrawn until no two are equal,
    exactly as redrawing draw_rationals(RngStream(seed), height, 4) would,
    and the tail is then walked again after the accepted four; distinctness
    and order are read on the ints, which share the denominator d.
    """
    vals, counter = _walk(seed, 0, ranges)
    a, d = _cleared_drawn(vals[:8], height)
    tail = vals[8:]
    if len(set(a)) < 4:
        counter = _walk(seed, 0, ranges[:8])[1]
        while len(set(a)) < 4:
            vals, counter = _walk(seed, counter, ranges[:8])
            a, d = _cleared_drawn(vals, height)
        tail, counter = _walk(seed, counter, ranges[8:])
    a.sort()
    return a, d, counter, tail


def _fmt(values) -> list[str]:
    return [str(v) for v in values]


def _fmt_drawn(vals: Sequence[int], height: int) -> list[str]:
    """The reduced rationals that values drawn below _ranges(height, n) make,
    as _fmt strings."""
    return _fmt(Fraction(*p) for p in _rational_pairs(vals, height))


# Each trial draws from the stream (seed, 0) that map_chunks hands it, reading
# all its inputs in one _walk: a value below n is what draw_int(0, n - 1)
# draws there.


def _trial_g2(seed: int, height: int) -> dict | None:
    (k, num, den), _counter = _walk(seed, 0, (3, height, height))
    k, num, den = k + 1, num + 1, den + 1
    # lam = (l / c) sqrt(rad) and mu = (m / c) sqrt(rad), so k lam^2 + (4-k) mu^2
    # is (k l^2 + (4-k) m^2) rad_num / (c^2 rad_den), compared with num / den.
    branches, c, rad_num, rad_den = _g2_cleared(k, num, den)
    for l, m in branches:
        quadratic = (k * l * l + (4 - k) * m * m) * rad_num * den
        if k * l + (4 - k) * m != 0 or quadratic != num * c * c * rad_den:
            return {"k": str(k), "S": str(Fraction(num, den))}
    return None


def _trial_g3(seed: int, height: int) -> dict | None:
    # The choice, then three rationals, in one walk. When two of the three
    # are equal, all three are redrawn from where the walk ended until no two
    # are, read on ints that share d.
    vals, counter = _walk(seed, 0, (3,) + _ranges(height, 3))
    a, d = _cleared_pairs(_rational_pairs(vals[1:], height))
    while len(set(a)) < 3:
        redrawn, counter = _walk(seed, counter, _ranges(height, 3))
        a, d = _cleared_pairs(_rational_pairs(redrawn, height))
    p, q, r = ((1, 1, 2), (1, 2, 1), (2, 1, 1))[vals[0]]
    if _g3_kernel_cleared(p, q, r, a) != 0:
        return {"p": str(p), "q": str(q), "r": str(r), "lams": _fmt(Fraction(x, d) for x in a)}
    return None


# The four-curvature trials run on ints from draw to verdict: the drawn values
# are cleared straight into the int cores, the two sides are compared by
# cross-multiplication, and Fractions are built only to name a counterexample
# (Fraction(num, den) reduces, so the strings are those of the drawn values).


def _trial_vandermonde(seed: int, height: int) -> dict | None:
    # K_l, then l
    a, d, _counter, (k, k_den, l) = _draw_distinct_quadruple(seed, height, _ranges(height, 5, (4,)))
    k, k_den = k - height, k_den + 1
    # The system gives h_il = y_i / (det k_den), the closed form k d^3 / (k_den P_i).
    y, det = _diag_system_cleared(a, d, k)
    scale = k * d**3 * det
    if any(v * p != scale for v, p in zip(y, _cofactors(a))):
        return {"lam": _fmt(Fraction(x, d) for x in a), "K_l": str(Fraction(k, k_den)), "l": str(l)}
    return None


def _complements(a: Sequence[int]) -> tuple[tuple[int, int, int, int], int]:
    """(Q, D): D = prod_{i<j} (a_j - a_i) and Q_x the signed product of the
    three differences without x, with P_x Q_x = D for P = _cofactors(a)."""
    a0, a1, a2, a3 = a
    e10, e20, e30, e21, e31, e32 = a1 - a0, a2 - a0, a3 - a0, a2 - a1, a3 - a1, a3 - a2
    Q = (e21 * e31 * e32, -e20 * e30 * e32, e10 * e30 * e31, -e10 * e20 * e21)
    return Q, e10 * e20 * e30 * Q[0]


def _trial_i_closed(seed: int, height: int) -> dict | None:
    a, d, _counter, vals = _draw_distinct_quadruple(seed, height, _ranges(height, 8))
    ks, k_den = _cleared_drawn(vals, height)
    # h_xl = k_l d^3 / (k_den P_x) = k_l d^3 Q_x / (k_den D), so column l is
    # n_x = k_l d^3 Q_x over k_den D.
    Q, D = _complements(a)
    d3, col_den = d**3, k_den * D
    cols = []
    for l, (i, j, k) in enumerate(_OTHERS):
        n = ks[l] * d3
        cols.append(((n * Q[i], n * Q[j], n * Q[k]), col_den))
    closed, den = _I_cleared(a, d, ks, k_den)
    if any(n * den != c * n_den for (n, n_den), c in zip(_I_def_cleared(a, d, cols), closed)):
        return {"lam": _fmt(Fraction(x, d) for x in a), "K": _fmt_drawn(vals, height)}
    return None


def _trial_i_sign(seed: int, height: int) -> dict | None:
    a, d, _counter, vals = _draw_distinct_quadruple(seed, height, _ranges(height, 8))
    nums, _den = _I_cleared(a, d, *_cleared_drawn(vals, height))
    if max(nums) > 0:
        return {"lam": _fmt(Fraction(x, d) for x in a), "K": _fmt_drawn(vals, height)}
    return None


def _trial_dpsi(seed: int, height: int) -> dict | None:
    # K, then the mixed components
    a, d, _counter, vals = _draw_distinct_quadruple(seed, height, _ranges(height, 12))
    ks, k_den = _cleared_drawn(vals[:8], height)
    num, den = _dpsi_cleared(a, d, ks, k_den, *_cleared_drawn(vals[8:], height))
    # gauss_R / 2 - sum I_l over 2 d^2 i_den
    closed, i_den = _I_cleared(a, d, ks, k_den)
    d2 = d * d
    rhs = _gauss_R_cleared(a, d) * i_den - 2 * d2 * sum(closed)
    if num * 2 * d2 * i_den != rhs * den:
        return {
            "lam": _fmt(Fraction(x, d) for x in a),
            "K": _fmt_drawn(vals[:8], height),
            "mixed": _fmt_drawn(vals[8:], height),
        }
    return None


def _trial_recover(seed: int, height: int) -> dict | None:
    vals, _counter = _walk(seed, 0, _ranges(height, 4))
    a, d = _cleared_drawn(vals, height)
    a.sort()
    a0, a1, a2, a3 = a
    s0, s1, s2, s3 = a0 * a0, a1 * a1, a2 * a2, a3 * a3
    p1 = a0 + a1 + a2 + a3
    p2 = s0 + s1 + s2 + s3
    p3 = s0 * a0 + s1 * a1 + s2 * a2 + s3 * a3
    # Newton's identities for lam_i = a_i / d, times 6 d^4
    d2 = d * d
    q2 = 3 * (p1 * p1 - p2)
    q3 = p1 * p1 * p1 - 3 * p1 * p2 + 2 * p3
    quartic = [6 * d2 * d2, -6 * p1 * d2 * d, q2 * d2, -q3 * d, 6 * a0 * a1 * a2 * a3]
    r0, r1, r2, r3 = _recover_cleared(_primitive(quartic))
    # int / int is correctly rounded, as float(Fraction(x, d)) is
    worst = max(abs(r0 - a0 / d), abs(r1 - a1 / d), abs(r2 - a2 / d), abs(r3 - a3 / d))
    if worst > 1e-9:
        return {"lam": _fmt(Fraction(x, d) for x in a), "max_error": repr(worst)}
    return None


# name -> (trial, exact comparison, distinct rationals one trial draws)
_TRIALS: dict[str, tuple[Callable[[int, int], dict | None], bool, int]] = {
    "g2": (_trial_g2, True, 0),
    "g3": (_trial_g3, True, 3),
    "vandermonde": (_trial_vandermonde, True, 4),
    "i-closed": (_trial_i_closed, True, 4),
    "i-sign": (_trial_i_sign, True, 4),
    "dpsi": (_trial_dpsi, True, 4),
    "recover": (_trial_recover, False, 0),
}

IDENTITY_NAMES = tuple(_TRIALS)


def run_identity_sweep(
    name: str,
    trials: int,
    seed: int,
    height: int = 1000,
    workers: int = 1,
) -> IdentityVerdict:
    """Run `trials` independent random instances of one identity.

    Trial i draws its inputs from child stream i of the seed, handed to it as
    an int seed by rng.map_chunks, so results are identical for any worker
    count.
    """
    if name not in _TRIALS:
        raise ValueError(f"unknown identity {name!r}; choose from {sorted(_TRIALS)}")
    _require_int(trials=trials, height=height)
    if trials < 1:
        raise ValueError("trials must be positive")
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    # Height h offers the 2h + 1 integers -h..h and, from h = 2 on, more; at
    # h = 1 those three are all, so a trial needing four would redraw forever.
    trial, exact, needed = _TRIALS[name]
    if 2 * height + 1 < needed:
        raise ValueError(
            f"identity {name!r} needs {needed} distinct rationals; height {height} offers {2 * height + 1}"
        )
    failed = map_chunks(trial, trials, workers, seed, height)
    return IdentityVerdict(
        identity=name,
        trials=trials,
        failures=len(failed),
        exact=exact,
        first_counterexample=dict(failed[0][1], trial=str(failed[0][0])) if failed else None,
    )
