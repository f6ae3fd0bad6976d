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
sweeps gets its child stream as an int seed and walks the counter as an
int, drawing integers (rng._below) and (numerator, denominator) int pairs
(rng._rational_walk) that it hands to the int cores, so it stays on ints
from draw to verdict and builds Fractions only to name a counterexample.

Index conventions (0-based internally, matching the docstrings' 1-based math):

  diag[i][l]  = h_iil, the repeated-index components; column l satisfies
                sum_i h_iil = sum_i lam_i h_iil = sum_i lam_i^2 h_iil = 0
  mixed       = (h_123, h_124, h_134, h_234), the fully mixed components
  K_l         = sum_i h_iil prod_{j != i} lam_j, the derivative of the
                Gauss-Kronecker product along direction l
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

# draw_int, draw_rational, solve_linear and matrix_rank are no longer called
# here (the trials draw through _below and _rational_walk); they stay bound
# under these names because the per-layer tracer in bench/layers.py wraps them.
from .exact import (
    RationalLike,
    Surd,
    _reduce,
    _solve_cleared,
    as_rational,
    clear_denominators,
    matrix_rank,
    solve_linear,
)
from .rng import _below, _rational_walk, draw_int, draw_rational, map_chunks

Quad = tuple[Fraction, Fraction, Fraction, Fraction]


def _four(name: str, vals: Sequence[RationalLike]) -> Quad:
    """vals as a tuple of four Fractions; ValueError for any other length."""
    out = tuple(as_rational(v) for v in vals)
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


_MIXED_KEYS = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


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


def _mixed_index(a: int, b: int, c: int) -> int:
    return _MIXED_KEYS.index(tuple(sorted((a, b, c))))


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
    both the cofactor determinant and the factored form are computed and
    cross-checked on every call.
    """
    for name, m in (("p", p), ("q", q), ("r", r)):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"multiplicity {name} must be a positive integer, got {m}")
    if p + q + r != 4:
        raise ValueError(f"multiplicities must sum to 4, got {p}+{q}+{r}")
    vals = tuple(as_rational(v) for v in lams)
    if len(vals) != 3:
        raise ValueError(f"lams has three entries, got {len(vals)}")
    la, mu, sig = vals
    if la == mu or la == sig or mu == sig:
        raise ValueError("curvature values must be pairwise distinct")
    return _g3_kernel_cleared(p, q, r, clear_denominators((la, mu, sig))[0])


def _g3_kernel_cleared(p: int, q: int, r: int, a: Sequence[int]) -> int:
    """g3_kernel for the values a_i / d, from the integers a alone.

    Row m of the system's matrix, (p la^m, q mu^m, r sig^m), scaled by d^m
    is the integer moment row (p a1^m, q a2^m, r a3^m) of the same rank; its
    determinant factors as p q r (a2-a1)(a3-a1)(a3-a2), checked on ints.
    """
    a1, a2, a3 = a
    x1, x2, x3 = p * a1, q * a2, r * a3
    y1, y2, y3 = x1 * a1, x2 * a2, x3 * a3
    m = [[p, q, r], [x1, x2, x3], [y1, y2, y3]]
    det = p * (x2 * y3 - x3 * y2) - q * (x1 * y3 - x3 * y1) + r * (x1 * y2 - x2 * y1)
    if det != p * q * r * (a2 - a1) * (a3 - a1) * (a3 - a2):
        raise RuntimeError("determinant factorization mismatch (unreachable)")
    return 3 - len(_reduce(m, 3))


# ---------------------------------------------------------------------------
# Four distinct curvatures: repeated-index components


def _cofactors(a: Sequence[int]) -> list[int]:
    """P_i = prod_{j != i} (a_j - a_i) for the integer quadruple a."""
    a1, a2, a3, a4 = a
    d21, d31, d41, d32, d42, d43 = a2 - a1, a3 - a1, a4 - a1, a3 - a2, a4 - a2, a4 - a3
    return [d21 * d31 * d41, -d21 * d32 * d42, d31 * d32 * d43, -d41 * d42 * d43]


def _diag_cleared(a: Sequence[int]) -> list[int]:
    """The cofactors P of the integer quadruple a, with h_il = k_l d^3 / (k_den P_i).

    With lam_i = a_i / d for any positive d, prod_{j != i} (lam_j - lam_i)
    = P_i / d^3, and K_l = k_l / k_den for any positive k_den. Column l is
    k_l d^3 / k_den times (1 / P_i)_i, so the three moment constraints hold
    for every column exactly when sum_i a_i^m / P_i = 0 for m = 0, 1, 2;
    they are checked on ints as sum_i a_i^m prod_{j != i} P_j = 0. P depends
    on a alone, so d, k and k_den are left to the caller.
    """
    P = _cofactors(a)
    p0, p1, p2, p3 = P
    a0, a1, a2, a3 = a
    r0, r1, r2, r3 = p1 * p2 * p3, p0 * p2 * p3, p0 * p1 * p3, p0 * p1 * p2
    if (
        r0 + r1 + r2 + r3
        or a0 * r0 + a1 * r1 + a2 * r2 + a3 * r3
        or a0 * a0 * r0 + a1 * a1 * r1 + a2 * a2 * r2 + a3 * a3 * r3
    ):
        raise RuntimeError("moment constraints violated (unreachable)")
    return P


def diag_from_K(lam: Quadruple, K: Sequence[RationalLike]) -> tuple[tuple[Fraction, ...], ...]:
    """h_iil = K_l / prod_{j != i} (lam_j - lam_i), for all i, l.

    Each column is the unique solution of the three moment constraints with
    the prescribed K_l; the constraints are re-verified exactly on every
    call. Computed on Python ints, with one Fraction per entry at the end.
    """
    a, d = clear_denominators(lam.lam)
    ks, k_den = clear_denominators(_four("K", K))
    d3 = d**3
    return tuple(tuple(Fraction(k * d3, k_den * p) for k in ks) for p in _diag_cleared(a))


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
    if l not in (0, 1, 2, 3):
        raise ValueError(f"column index must be 0..3, got {l}")
    a, d = clear_denominators(lam.lam)
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

    Each column's three entries are cleared over one integer and summed on
    ints by _I_def_cleared.
    """
    a, d = clear_denominators(lam.lam)
    cols = [clear_denominators([diag[x][l] for x in _OTHERS[l]]) for l in range(4)]
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
    a, d = clear_denominators(lam.lam)
    nums, den = _I_cleared(a, d, *clear_denominators(_four("K", K)))
    return tuple(Fraction(n, den) for n in nums)


def sign_lemma(lam: Quadruple, K: Sequence[RationalLike]) -> bool:
    """True when every interaction sum I_l is nonpositive.

    The closed forms share a positive denominator, so this reads the signs
    of their integer numerators.
    """
    a, d = clear_denominators(lam.lam)
    nums, _den = _I_cleared(a, d, *clear_denominators(_four("K", K)))
    return all(n <= 0 for n in nums)


def _gauss_R_cleared(a: Sequence[int], d: int) -> int:
    """gauss_R times d^2 for lam_i = a_i / d: 12 + (sum lam)^2 - sum lam^2
    over the common denominator d^2."""
    return 12 * d * d + sum(a) ** 2 - sum(x * x for x in a)


def gauss_R(lam: Quadruple) -> Fraction:
    """Scalar curvature sum over ordered pairs: sum_{i != j} (1 + lam_i lam_j)."""
    a, d = clear_denominators(lam.lam)
    return Fraction(_gauss_R_cleared(a, d), d * d)


# ---------------------------------------------------------------------------
# The divergence-form coefficient


# Each triple product omega_i ^ omega_j ^ omega_kl of the closed 3-form uses
# an even permutation (i, j, k, l) of (1, 2, 3, 4), so one coefficient formula
# serves all six terms.
_PSI_TERMS = (
    (0, 1, 2, 3),
    (1, 2, 0, 3),
    (2, 0, 1, 3),
    (0, 3, 1, 2),
    (1, 3, 2, 0),
    (2, 3, 0, 1),
)
# The three blocks of every term as (weight, kind, c p q) in the term's own
# letters. ("hh", c, p, q) stands for h_pc h_qc / ((lam_c - lam_p)(lam_c - lam_q))
# and ("mixed", x, k, l) for h_xkl^2 / ((lam_k - lam_x)(lam_l - lam_x)).
_PSI_BLOCKS = (
    # derivative on the first 1-form leg
    (-1, "hh", "kil"), (-1, "hh", "lik"), (-1, "mixed", "ikl"),
    # derivative on the second 1-form leg (enters the total negatively)
    (-1, "hh", "kjl"), (-1, "hh", "ljk"), (-1, "mixed", "jkl"),
    # derivative on the connection form; its curvature term is added apart
    (1, "hh", "ikl"), (1, "hh", "jkl"), (-1, "mixed", "ikl"), (-1, "mixed", "jkl"),
)


def _collect_psi_terms() -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The blocks of all six terms with like terms collected, as the tables
    ((c, p, q, weight), ...) for h h and ((x, k, l, position in mixed,
    weight), ...) for mixed, with p < q, k < l and no zero weight.

    An h h value depends on c and {p, q} only, and a mixed one on x and
    {k, l} only, so each key sums the weights of every block entry it names.
    """
    tables: dict[str, dict[tuple[int, int, int], int]] = {"hh": {}, "mixed": {}}
    for term in _PSI_TERMS:
        at = dict(zip("ijkl", term))
        for weight, kind, letters in _PSI_BLOCKS:
            c, p, q = (at[s] for s in letters)
            key = (c, min(p, q), max(p, q))
            tables[kind][key] = tables[kind].get(key, 0) + weight
    hh, mixed = (sorted((key, w) for key, w in t.items() if w) for t in tables.values())
    return tuple((*key, w) for key, w in hh), tuple((*key, _mixed_index(*key), w) for key, w in mixed)


_DPSI_HH, _DPSI_MIXED = _collect_psi_terms()


def _dpsi_cleared(
    a: Sequence[int], d: int, ks: Sequence[int], k_den: int, ms: Sequence[int], m_den: int
) -> tuple[int, int]:
    """dpsi_coeff as (numerator, denominator) for lam_i = a_i / d,
    K_l = k_l / k_den and mixed = m / m_den, with d, k_den, m_den positive.

    With h_il = k_l d^3 / (k_den P_i) and D = prod_{i<j} (a_j - a_i), three
    accumulators collect the h h terms over k_den^2 D^2 / d^8, the mixed
    terms over m_den^2 D / d^2 and the curvature terms over d^2. The h h and
    mixed terms are the collected tables _DPSI_HH and _DPSI_MIXED, so each
    distinct value is computed once and enters with its summed weight. Its
    cofactor, the accumulator's denominator divided by the value's own, is
    taken by division checked to leave no remainder, once per key.
    """
    P = _diag_cleared(a)
    diff = [[x - y for y in a] for x in a]  # diff[x][y] = (lam_x - lam_y) d
    D = diff[1][0] * diff[2][0] * diff[3][0] * diff[2][1] * diff[3][1] * diff[3][2]
    D2 = D * D
    acc_hh = 0
    for c, p, q, w in _DPSI_HH:
        # h_pc h_qc / ((lam_c - lam_p)(lam_c - lam_q))
        #   = k_c^2 d^8 / (k_den^2 P_p P_q diff_cp diff_cq)
        cof, rem = divmod(D2, P[p] * P[q] * diff[c][p] * diff[c][q])
        if rem:
            raise RuntimeError("h h denominator does not divide D^2 (unreachable)")
        acc_hh += w * ks[c] * ks[c] * cof
    acc_mixed = 0
    for x, k, l, n, w in _DPSI_MIXED:
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


def dpsi_coeff(table: DerivativeTable) -> Fraction:
    """Volume-form coefficient of the exterior derivative of the 3-form
    psi = sum over the six index pairings of omega_i ^ omega_j ^ omega_kl.

    Each term contributes three blocks (derivative on the first leg, on the
    second leg, on the connection form); sectional curvature enters as
    R_klkl = 1 + lam_k lam_l. Like terms of the six terms' blocks are
    collected once, at import (_collect_psi_terms). The h h part is then
    minus the sums of I_def: weight -1 on each of the 12 values with c not
    in {p, q}. Each fully mixed component h_xkl enters as
    -2 h_xkl^2 sum_x 1/((lam_k-lam_x)(lam_l-lam_x)), the sum running over
    the three indices of the component; that is 0 by the three-point
    partial-fraction identity, and the exact sweep checks it rather than
    assuming it. Everything runs on Python ints in _dpsi_cleared.
    """
    a, d = clear_denominators(table.lam.lam)
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


def _largest_root(f: list[int]) -> float:
    """A float estimate of the largest root of the integer polynomial f,
    when all its roots are real.

    Newton's method starts at Fujiwara's bound, above every root, so on a
    real-rooted polynomial it falls monotonically to the largest one; it
    stops where it no longer falls. A complex root is not rational, so for
    a polynomial with one _rational_roots fails its exact check whatever
    value comes back.
    """
    c = [x / f[0] for x in f[1:]]
    x = 2 * max(abs(a) ** (1 / k) for k, a in enumerate(c, 1))
    for _ in range(100):
        v, dv = 1.0, 0.0
        for a in c:
            v, dv = v * x + a, dv * x + v
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
    the largest root (_largest_root) is rounded to that integer grid and
    refined there by Newton's method with every step rounded to an integer,
    until phi(m) is exactly 0. Then q t - p divides f over the integers
    (Gauss's lemma), and the quotient is searched next, so a repeated root
    is found once for each time it divides f; an exact division leaves no
    rounding behind to hide a close root. A quadratic quotient is solved in
    closed form, its roots rational exactly when its discriminant is a
    square; a linear one is read off.
    """
    roots = []
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
        roots.append((0, 1))
    while len(f) > 3:
        # an infinite or nan estimate raises OverflowError or ValueError here
        try:
            num, den = _largest_root(f).as_integer_ratio()
        except (OverflowError, ValueError, ZeroDivisionError):
            return None
        lc = f[0]
        scaled = [c * lc**k for k, c in enumerate(f)]
        # m = round(num / den * lc), half to even, on ints
        q, r = divmod(num * lc, den)
        m = q + (2 * r > den or (2 * r == den and q % 2 == 1))
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
                return None
            m -= step
        else:
            return None
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


def _real_roots(f: list[int], dps: int) -> list[float]:
    """The roots of the integer polynomial f, with multiplicity, as correctly
    rounded floats; ValueError when one is not real.

    s = f / g, g = gcd(f, f') the last term of _sturm(f), has each root of f
    once. Sturm counts of s on dyadic intervals (lo, hi] split (-b, b], b a
    power of two above the roots of every Sturm term, until each root has its
    own; at +-b each term has the sign of its leading term, as at +-infinity,
    so unless (-b, b] holds deg s roots, mpmath at dps digits names the root
    farthest off the real axis. An interval with one root is halved by the
    sign of s at the midpoint against its sign at hi, which is carried to
    the next step, so each halving evaluates s once, until hi is the root,
    as a tie between two floats ends, or both ends round to one float, the
    correctly rounded root since rounding is monotone. g gives the repeated
    roots. Counts never run on f, all of whose Sturm terms vanish at a
    repeated root.
    """
    roots = []
    while len(f) > 1:
        seq = _sturm(f)
        g, s = seq[-1], f
        if len(g) > 1:
            s = _primitive(_pseudo_divmod(f, g)[0])
            seq = _sturm(s)
        b = 1 << max((max(map(abs, p[1:])) // abs(p[0]) + 2).bit_length() for p in seq if len(p) > 1)
        vlo, vhi = (_changes(_value(p, x, 1) for p in seq) for x in (-b, b))
        if vlo - vhi != len(s) - 1:
            import mpmath as mp

            with mp.workdps(dps):
                worst = max(_roots([_to_mpf(c) for c in s]), key=lambda rt: abs(mp.im(rt)))
                raise ValueError(f"curvature root is not real: {worst}")
        # (lo / 2^e, hi / 2^e] with the sign changes at its ends
        todo = [(-b, b, 0, vlo, vhi)]
        while todo:
            lo, hi, e, vlo, vhi = todo.pop()
            den = 1 << e
            if vlo - vhi == 1:
                shi = _value(s, hi, den)
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
            vmid = _changes(_value(p, mid, 2 * den) for p in seq)
            halves = (2 * lo, mid, e + 1, vlo, vmid), (mid, 2 * hi, e + 1, vmid, vhi)
            todo += [h for h in halves if h[3] > h[4]]
        f = g
    return roots


def _recover_cleared(f: list[int], dps: int = 50) -> tuple[float, ...]:
    """The roots of the primitive integer polynomial f, ascending, as
    correctly rounded floats: the rational path of recover_curvatures."""
    exact = _rational_roots(f)
    # int / int is correctly rounded, as float(Fraction(p, q)) is
    return tuple(sorted(_real_roots(f, dps) if exact is None else (p / q for p, q in exact)))


def recover_curvatures(p1, p2, p3, e4, dps: int = 50) -> tuple[float, float, float, float]:
    """Curvature quadruple from power sums p1, p2, p3 and product e4.

    Newton's identities convert the power sums to elementary symmetric
    functions of a quartic. Exact rational input (int or Fraction) goes to
    _recover_cleared as a primitive integer quartic, and each root comes
    back correctly rounded: found exactly when all are rational
    (`_rational_roots`), else isolated by Sturm counts and bisected on ints
    (`_real_roots`), which decide exactly whether all are real. Other input
    is solved by mpmath at `dps` decimal digits, keeping repeated roots
    accurate far beyond double precision; a root is real when its imaginary
    part is at most 1e-10. Raises ValueError, naming the root farthest off
    the real axis, if a root is not real. Returns the four real roots
    ascending. mpmath is loaded only for input that is not rational or to
    name a non-real root.
    """
    if all(isinstance(v, (int, Fraction)) for v in (p1, p2, p3, e4)):
        e1, e2, e3 = _elementary(*(Fraction(v) for v in (p1, p2, p3)))
        return _recover_cleared(_primitive(clear_denominators([1, -e1, e2, -e3, e4])[0]), dps)
    import mpmath as mp

    with mp.workdps(dps):
        e1, e2, e3 = _elementary(*(_to_mpf(v) for v in (p1, p2, p3)))
        roots = _roots([_to_mpf(c) for c in (1, -e1, e2, -e3, e4)])
        worst = max(roots, key=lambda rt: abs(mp.im(rt)))
        if not abs(mp.im(worst)) <= mp.mpf("1e-10"):
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


def _draw_distinct_quadruple(seed: int, counter: int, height: int) -> tuple[list[int], int, int]:
    """Four distinct rationals of the given height, ascending, as (a, d,
    counter) with lam_i = a_i / d; d is the lcm of the four drawn
    denominators, and counter is that of the last output used.

    All four are redrawn until no two are equal, exactly as redrawing
    draw_rationals(RngStream(seed, counter), height, 4) would; distinctness
    and order are read on the ints, which share the denominator d.
    """
    while True:
        pairs, counter = _rational_walk(seed, counter, height, 4)
        a, d = _cleared_pairs(pairs)
        if len(set(a)) == 4:
            a.sort()
            return a, d, counter


def _fmt(values) -> list[str]:
    return [str(v) for v in values]


# Each trial draws from the stream (seed, 0) that map_chunks hands it, walking
# the counter as an int: _below(seed, counter, n) is draw_int(0, n - 1).


def _trial_g2(seed: int, height: int) -> dict | None:
    k, counter = _below(seed, 0, 3)
    num, counter = _below(seed, counter, height)
    den, _counter = _below(seed, counter, height)
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
    choice, counter = _below(seed, 0, 3)
    p, q, r = ((1, 1, 2), (1, 2, 1), (2, 1, 1))[choice]
    # All three are redrawn until no two are equal, read on ints that share d.
    while True:
        pairs, counter = _rational_walk(seed, counter, height, 3)
        a, d = _cleared_pairs(pairs)
        if len(set(a)) == 3:
            break
    if _g3_kernel_cleared(p, q, r, a) != 0:
        return {"p": str(p), "q": str(q), "r": str(r), "lams": _fmt(Fraction(x, d) for x in a)}
    return None


# The four-curvature trials run on ints from draw to verdict: the drawn pairs
# go straight to the int cores, the two sides are compared by
# cross-multiplication, and Fractions are built only to name a counterexample
# (Fraction(num, den) reduces, so the strings are those of the drawn values).


def _trial_vandermonde(seed: int, height: int) -> dict | None:
    a, d, counter = _draw_distinct_quadruple(seed, 0, height)
    [(k, k_den)], counter = _rational_walk(seed, counter, height, 1)
    l, _counter = _below(seed, counter, 4)
    # The system gives h_il = y_i / (det k_den), the closed form k d^3 / (k_den P_i).
    y, det = _diag_system_cleared(a, d, k)
    scale = k * d**3 * det
    if any(v * p != scale for v, p in zip(y, _diag_cleared(a))):
        return {"lam": _fmt(Fraction(x, d) for x in a), "K_l": str(Fraction(k, k_den)), "l": str(l)}
    return None


def _trial_i_closed(seed: int, height: int) -> dict | None:
    a, d, counter = _draw_distinct_quadruple(seed, 0, height)
    pairs, _counter = _rational_walk(seed, counter, height, 4)
    ks, k_den = _cleared_pairs(pairs)
    # Column l of h over k_den P_i P_j P_k: n_x = k_l d^3 prod_{y not in {x, l}} P_y.
    P = _diag_cleared(a)
    d3 = d**3
    cols = []
    for l, (i, j, k) in enumerate(_OTHERS):
        n = ks[l] * d3
        cols.append(((n * P[j] * P[k], n * P[i] * P[k], n * P[i] * P[j]), k_den * P[i] * P[j] * P[k]))
    closed, den = _I_cleared(a, d, ks, k_den)
    if any(n * den != c * n_den for (n, n_den), c in zip(_I_def_cleared(a, d, cols), closed)):
        return {"lam": _fmt(Fraction(x, d) for x in a), "K": _fmt(Fraction(*p) for p in pairs)}
    return None


def _trial_i_sign(seed: int, height: int) -> dict | None:
    a, d, counter = _draw_distinct_quadruple(seed, 0, height)
    pairs, _counter = _rational_walk(seed, counter, height, 4)
    nums, _den = _I_cleared(a, d, *_cleared_pairs(pairs))
    if any(n > 0 for n in nums):
        return {"lam": _fmt(Fraction(x, d) for x in a), "K": _fmt(Fraction(*p) for p in pairs)}
    return None


def _trial_dpsi(seed: int, height: int) -> dict | None:
    a, d, counter = _draw_distinct_quadruple(seed, 0, height)
    # K, then the mixed components
    pairs, _counter = _rational_walk(seed, counter, height, 8)
    ks, k_den = _cleared_pairs(pairs[:4])
    num, den = _dpsi_cleared(a, d, ks, k_den, *_cleared_pairs(pairs[4:]))
    # gauss_R / 2 - sum I_l over 2 d^2 i_den
    closed, i_den = _I_cleared(a, d, ks, k_den)
    d2 = d * d
    rhs = _gauss_R_cleared(a, d) * i_den - 2 * d2 * sum(closed)
    if num * 2 * d2 * i_den != rhs * den:
        return {
            "lam": _fmt(Fraction(x, d) for x in a),
            "K": _fmt(Fraction(*p) for p in pairs[:4]),
            "mixed": _fmt(Fraction(*p) for p in pairs[4:]),
        }
    return None


def _trial_recover(seed: int, height: int) -> dict | None:
    pairs, _counter = _rational_walk(seed, 0, height, 4)
    a, d = _cleared_pairs(pairs)
    a.sort()
    p1 = sum(a)
    p2 = sum(x * x for x in a)
    p3 = sum(x**3 for x in a)
    # Newton's identities for lam_i = a_i / d, times 6 d^4
    d2 = d * d
    s3 = p1**3 - 3 * p1 * p2 + 2 * p3
    quartic = [6 * d2 * d2, -6 * p1 * d2 * d, 3 * (p1 * p1 - p2) * d2, -s3 * d, 6 * math.prod(a)]
    roots = _recover_cleared(_primitive(quartic))
    # int / int is correctly rounded, as float(Fraction(x, d)) is
    worst = max(abs(rt - x / d) for rt, x in zip(roots, a))
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
