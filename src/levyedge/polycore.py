"""Exact sparse multivariate polynomial algebra.

A polynomial keeps its exact coefficients as integer numerators over one
common denominator, in lowest terms, in a dict keyed by exponent tuples.
Every kernel (sums, scalar and polynomial products, derivatives, the
Hermite step, the diagonal degree solve, Gaussian moments) works on those
integers and raises PolynomialError for a float; a `fractions.Fraction`
is made only where a caller reads the coefficients, prints or evaluates
exactly, and a polynomial holds floats only to be evaluated.  On top of
the carrier type this module provides probabilists' Hermite polynomials
and their counterparts H^Sigma_alpha for a general covariance, small
linear solves (Gauss-Jordan), Gaussian moments (one memoised table per
covariance) and truncated formal power series in an auxiliary small
parameter, with polynomial coefficients.

All values are treated as immutable after construction; every operation
returns a fresh object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, ge, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Coeff = Union[Fraction, float]

#: hard cap on total degree, to bound combinatorial blowup
MAX_DEGREE = 64

#: most bits in a printed numerator or denominator: about 4200 digits,
#: inside the interpreter's default limit on int-to-str conversion
MAX_PRINT_BITS = 14_000


class PolynomialError(ValueError):
    pass


def _as_coeff(c) -> Coeff:
    if isinstance(c, (Fraction, float)):
        return c
    if isinstance(c, (int, np.integer)):
        return Fraction(int(c))
    if isinstance(c, np.floating):
        return float(c)
    raise PolynomialError(f"unsupported coefficient type {type(c)!r}")


def multi_indices(q: int, total: int):
    """All exponent tuples of length q with |alpha| = total."""
    if q == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in multi_indices(q - 1, total - first):
            yield (first,) + rest


def grlex_key(alpha: tuple) -> tuple:
    """Graded-lexicographic sort key for exponent tuples."""
    return (sum(alpha), tuple(-a for a in alpha))


def _rational(c) -> Fraction:
    """c as a Fraction for an exact kernel; a float raises PolynomialError."""
    c = _as_coeff(c)
    if isinstance(c, float):
        raise PolynomialError(f"exact arithmetic needs rational input, not the float {c!r}")
    return c


def _integer_row(values: Sequence) -> tuple:
    """([v * l for v in values], l) for l the lcm of the denominators of
    the rational values."""
    values = [_rational(v) for v in values]
    l = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (l // v.denominator) for v in values], l


def coefficient_text(c: Coeff) -> str:
    """str(c); a Fraction over MAX_PRINT_BITS raises PolynomialError."""
    if isinstance(c, Fraction) and max(c.numerator.bit_length(),
                                       c.denominator.bit_length()) > MAX_PRINT_BITS:
        raise PolynomialError(f"a coefficient has over {MAX_PRINT_BITS} bits, too long to print")
    return str(c)


class Polynomial:
    """Sparse multivariate polynomial over exponent tuples.

    Exact coefficients are the integers _num[alpha] over the one
    denominator _den, with the gcd of _den and every numerator 1, so
    equal polynomials have equal integers.  A polynomial with a float
    coefficient has _den None and keeps its coefficients as given in _num.
    Zero coefficients are never stored; the dict order is the order the
    terms were made in, and __call__ sums in it.
    """

    __slots__ = ("dimension", "_num", "_den", "_terms")

    def __init__(self, dimension: int, terms: Mapping[tuple, Coeff] | None = None):
        if dimension < 1:
            raise PolynomialError("dimension must be >= 1")
        clean = {}
        if terms:
            for alpha, c in terms.items():
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != dimension or any(a < 0 for a in alpha):
                    raise PolynomialError(f"bad exponent tuple {alpha} for dimension {dimension}")
                c = _as_coeff(c)
                if c != 0:
                    clean[alpha] = c
        Polynomial._init(self, dimension, clean)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def _init(p: "Polynomial", dimension: int, coeffs: dict, den=None) -> "Polynomial":
        """Set p from nonzero coefficients: Fractions and floats (den None;
        all-Fraction ones are brought to integers over their lcm) or
        integer numerators over den, in lowest terms."""
        if den is None and not any(isinstance(c, float) for c in coeffs.values()):
            den = math.lcm(*(c.denominator for c in coeffs.values()))
            coeffs = {a: c.numerator * (den // c.denominator) for a, c in coeffs.items()}
        for name, value in (("dimension", dimension), ("_num", coeffs), ("_den", den),
                            ("_terms", None)):
            object.__setattr__(p, name, value)
        return p

    @staticmethod
    def _exact(dimension: int, num: dict, den: int) -> "Polynomial":
        """The polynomial of the integer numerators num over den > 0 that
        this module's kernels made: zeros are dropped, the dict order is
        kept, and numerators and denominator are divided by their gcd."""
        num = {a: n for a, n in num.items() if n}
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {a: n // g for a, n in num.items()}
            den //= g
        return Polynomial._init(object.__new__(Polynomial), dimension, num, den)

    @staticmethod
    def _mixed(dimension: int, coeffs: dict) -> "Polynomial":
        """The polynomial of Fraction and float coefficients that this
        module's evaluation-only arithmetic made; zeros are dropped."""
        return Polynomial._init(object.__new__(Polynomial), dimension,
                                {a: c for a, c in coeffs.items() if c})

    def _integers(self) -> tuple:
        """(numerators, denominator) for an exact kernel; a float
        coefficient raises PolynomialError."""
        if self._den is None:
            raise PolynomialError("exact arithmetic needs rational coefficients, not floats")
        return self._num, self._den

    @property
    def terms(self) -> Mapping[tuple, Coeff]:
        """Read-only view exponent tuple -> coefficient (Fraction, or as
        given where a float is), in term order; made on first read."""
        if self._terms is None:
            den = self._den
            object.__setattr__(self, "_terms", MappingProxyType(
                self._num if den is None else {a: Fraction(n, den) for a, n in self._num.items()}))
        return self._terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(dimension: int, c) -> "Polynomial":
        return Polynomial(dimension, {(0,) * dimension: c})

    @staticmethod
    def zero(dimension: int) -> "Polynomial":
        return Polynomial(dimension, {})

    @staticmethod
    def variable(dimension: int, j: int) -> "Polynomial":
        e = [0] * dimension
        e[j] = 1
        return Polynomial(dimension, {tuple(e): Fraction(1)})

    # -- basic queries ------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._num), default=-1)

    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, alpha: Sequence[int]) -> Coeff:
        if self._den is None:
            return self._num.get(tuple(alpha), Fraction(0))
        return Fraction(self._num.get(tuple(alpha), 0), self._den)

    def constant_term(self) -> Coeff:
        return self.coefficient((0,) * self.dimension)

    def __eq__(self, other):
        if not isinstance(other, Polynomial) or self.dimension != other.dimension:
            return False
        if self._den is None or other._den is None:
            return self.terms == other.terms
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._den is None:  # as the polynomial of the floats' exact values
            return hash(Polynomial(self.dimension, {a: Fraction(c) for a, c in self._num.items()}))
        return hash((self.dimension, self._den, frozenset(self._num.items())))

    # -- arithmetic ---------------------------------------------------

    def _check_dim(self, other: "Polynomial"):
        if self.dimension != other.dimension:
            raise PolynomialError("dimension mismatch")

    def _combine(self, other, op) -> "Polynomial":
        """op(self, other) termwise in one pass: self's terms, then
        other's new ones, those that cancel dropped."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dimension, other)
        self._check_dim(other)
        if self._den is None or other._den is None:
            terms = dict(self.terms)
            for alpha, c in other.terms.items():
                terms[alpha] = op(terms.get(alpha, 0), c)
            return Polynomial._mixed(self.dimension, terms)
        den = math.lcm(self._den, other._den)
        f, g = den // self._den, den // other._den
        terms = {a: n * f for a, n in self._num.items()} if f != 1 else dict(self._num)
        for alpha, n in other._num.items():
            terms[alpha] = op(terms.get(alpha, 0), n * g)
        return Polynomial._exact(self.dimension, terms, den)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        if self._den is None:
            return Polynomial._mixed(self.dimension, {a: -c for a, c in self._num.items()})
        return Polynomial._exact(self.dimension, {a: -n for a, n in self._num.items()}, self._den)

    def __sub__(self, other):
        """self + (-other) in one pass: the same terms, in the same order."""
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_dim(other)
            return sum_of_products(self.dimension, [(self, other)])
        c = _as_coeff(other)
        if c == 0:
            return Polynomial.zero(self.dimension)
        if self._den is None or isinstance(c, float):  # evaluation only
            return Polynomial._mixed(self.dimension, {a: v * c for a, v in self.terms.items()})
        n = c.numerator
        return Polynomial._exact(self.dimension, {a: v * n for a, v in self._num.items()},
                                 self._den * c.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolynomialError("negative power")
        out = Polynomial.constant(self.dimension, Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n > 1
            if base_needed:
                base = base * base
            n >>= 1
        return out

    # -- calculus -----------------------------------------------------

    def partial(self, j: int) -> "Polynomial":
        num, den = self._integers()
        terms = {}
        for alpha, n in num.items():
            k = alpha[j]
            if k:
                key = alpha[:j] + (k - 1,) + alpha[j + 1:]
                terms[key] = terms.get(key, 0) + n * k
        return Polynomial._exact(self.dimension, terms, den)

    def gradient(self) -> list:
        return [self.partial(j) for j in range(self.dimension)]

    def laplacian(self) -> "Polynomial":
        """sum_j d_j d_j, in closed form: x^alpha -> alpha_j (alpha_j - 1) x^(alpha - 2 e_j)."""
        num, den = self._integers()
        terms: dict = {}
        for j in range(self.dimension):
            for alpha, n in num.items():
                k = alpha[j]
                if k > 1:
                    key = alpha[:j] + (k - 2,) + alpha[j + 1:]
                    terms[key] = terms.get(key, 0) + n * (k * (k - 1))
        return Polynomial._exact(self.dimension, terms, den)

    # -- evaluation / substitution ------------------------------------

    def _floats(self):
        """(alpha, float coefficient) in term order."""
        den = self._den
        if den is None:
            return [(a, float(c)) for a, c in self._num.items()]
        return [(a, n / den) for a, n in self._num.items()]  # int / int rounds as float(Fraction)

    def __call__(self, x):
        """Evaluate at a point or along the last axis of an array."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise PolynomialError("point dimension mismatch")
        out = np.zeros(x.shape[:-1])
        for alpha, c in self._floats():
            mono = np.ones(x.shape[:-1])
            for j, e in enumerate(alpha):
                if e:
                    mono = mono * x[..., j] ** e
            out = out + c * mono
        return out if out.shape else float(out)

    def evaluate_into(self, x: np.ndarray, out: np.ndarray, mono: np.ndarray,
                      power: np.ndarray) -> np.ndarray:
        """self(x) for a float (n, dimension) array x, written to out.

        out, mono and power are distinct C-contiguous float (n,) arrays;
        mono and power hold each monomial and each power on the way, so
        nothing is allocated.  The float operations and their order are
        those of __call__, so the values are the same bit for bit.
        """
        out.fill(0.0)
        for alpha, c in self._floats():
            first = True
            for j, e in enumerate(alpha):
                if e:
                    if first:
                        np.power(x[:, j], e, out=mono)
                        first = False
                    else:
                        np.multiply(mono, np.power(x[:, j], e, out=power), out=mono)
            if first:
                mono.fill(1.0)
            np.multiply(mono, c, out=mono)
            np.add(out, mono, out=out)
        return out

    def evaluate_exact(self, point: Sequence) -> Coeff:
        """Evaluate with Fraction arithmetic (point entries rational)."""
        total: Coeff = Fraction(0)
        for alpha, c in self.terms.items():
            v = c
            for j, e in enumerate(alpha):
                if e:
                    v = v * (point[j] ** e)
            total = total + v
        return total

    def substitute(self, coords: Sequence) -> "Polynomial":
        """Substitute each variable by a polynomial (same dimension)."""
        if len(coords) != self.dimension:
            raise PolynomialError("substitution arity mismatch")
        one = Polynomial.constant(coords[0].dimension, Fraction(1))
        powers = [[one, u] for u in coords]  # powers[j][e] = coords[j]^e
        out = one * 0
        for alpha, c in self.terms.items():
            term = one * c
            for j, e in enumerate(alpha):
                if e:
                    while len(powers[j]) <= e:
                        powers[j].append(powers[j][-1] * coords[j])
                    term = term * powers[j][e]
            out = out + term
        return out

    def compose_affine(self, A) -> "Polynomial":
        """Return self(A x) for a square rational matrix A (rows index the
        old variables)."""
        q = self.dimension
        coords = []
        for j in range(q):
            row = {}
            for i in range(q):
                c = _as_coeff(A[j][i])
                if c != 0:
                    e = [0] * q
                    e[i] = 1
                    row[tuple(e)] = c
            coords.append(Polynomial(q, row))
        return self.substitute(coords)

    # -- output -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def to_text(self) -> str:
        """Deterministic form: graded-lex terms, exact fractions; a
        coefficient too long to print raises PolynomialError."""
        if not self._num:
            return "0"
        parts = []
        for alpha, c in self.sorted_terms():
            mono = " ".join(
                f"x{j + 1}^{e}" if e > 1 else f"x{j + 1}"
                for j, e in enumerate(alpha)
                if e
            )
            parts.append(f"{coefficient_text(c)} {mono}".strip())
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.dimension}, {self.to_text()})"


def sum_of_products(dimension: int, pairs: Iterable, scale=1) -> Polynomial:
    """scale * sum_i a_i b_i over the pairs (a_i, b_i), in `dimension`
    variables; each a_i is a Polynomial, each b_i a Polynomial or a scalar.

    Each pair's integer numerators are convolved over one common
    denominator of all the pairs.  A float coefficient, b_i or scale
    raises PolynomialError, as does a pair of polynomials whose degrees
    add up to more than MAX_DEGREE.
    """
    const = (0,) * dimension
    nums, den = [], 1
    for a, b in pairs:
        if isinstance(b, Polynomial):
            if not (a._num and b._num):
                continue
            if a.degree() + b.degree() > MAX_DEGREE:
                raise PolynomialError(f"product degree exceeds cap {MAX_DEGREE}")
            (n1, l1), (n2, l2) = a._integers(), b._integers()
        else:
            b = _rational(b)
            if not (a._num and b):
                continue
            (n1, l1), (n2, l2) = a._integers(), ({const: b.numerator}, b.denominator)
        nums.append((n1, n2, l1 * l2))
        den = math.lcm(den, l1 * l2)
    scale = _rational(scale)
    acc: dict = {}
    for n1, n2, l in nums:
        f = den // l
        for a1, c1 in n1.items():
            c1 *= f
            for a2, c2 in n2.items():
                key = tuple(map(add, a1, a2))
                acc[key] = acc.get(key, 0) + c1 * c2
    num = scale.numerator
    if num != 1:
        acc = {a: n * num for a, n in acc.items()}
    return Polynomial._exact(dimension, acc, den * scale.denominator)


def x_dot_inv_grad(u: Polynomial, inv) -> Polynomial:
    """x . Sigma^{-1} grad u, given inv = Sigma^{-1}, in closed form:
    x . Sigma^{-1} grad x^beta = sum_ij (Sigma^{-1})_ij beta_j x^(beta - e_j + e_i).

    A float entry of inv gives the float polynomial of the product form
    sum_ij x_i (d_j u) (Sigma^{-1})_ij, for evaluation only."""
    q = u.dimension
    if any(isinstance(s, (float, np.floating)) for row in inv for s in row):
        out = Polynomial.zero(q)
        for i in range(q):
            for j in range(q):
                if inv[i][j] != 0:
                    out = out + Polynomial.variable(q, i) * u.partial(j) * inv[i][j]
        return out
    num, den = u._integers()
    s, l = _integer_row([c for row in inv for c in row])
    terms: dict = {}
    for i in range(q):
        for j in range(q):
            sij = s[i * q + j]
            if sij:
                for beta, n in num.items():
                    k = beta[j]
                    if k:
                        a = list(beta)
                        a[j] -= 1
                        a[i] += 1
                        a = tuple(a)
                        terms[a] = terms.get(a, 0) + n * k * sij
    return Polynomial._exact(q, terms, den * l)


def taylor_terms(S: Polynomial, top: int) -> list:
    """(beta, d^beta S / beta!) for 1 <= |beta| <= top, nonzero ones only:
    the coefficient of S(x + d) on d^beta.  d^beta S / beta! has the terms
    c_alpha prod_j C(alpha_j, beta_j) x^(alpha - beta)."""
    num, den = S._integers()
    q = S.dimension
    out = []
    for m in range(1, min(top, S.degree()) + 1):
        for beta in multi_indices(q, m):
            terms = {
                tuple(map(sub, alpha, beta)): n * math.prod(map(math.comb, alpha, beta))
                for alpha, n in num.items()
                if all(map(ge, alpha, beta))
            }
            if terms:
                out.append((beta, Polynomial._exact(q, terms, den)))
    return out


def diagonal_degree_solve(parts: Sequence[Polynomial], monos: Sequence[tuple],
                          diag: Sequence) -> Polynomial:
    """The u_d with x . diag(diag) grad u_d = b on the span of monos, for
    b_a the sum over parts of their coefficients of x^a: each x^a is an
    eigenvector, of eigenvalue sum_i diag_i a_i (nonzero), so u_d has the
    coefficients b_a / (sum_i diag_i a_i), in the order of monos."""
    ints = [p._integers() for p in parts]
    den = math.lcm(*(d for _, d in ints))
    scaled = [(n, den // d) for n, d in ints]
    w, l = _integer_row(diag)
    b = {}
    for a in monos:
        v = sum(n.get(a, 0) * f for n, f in scaled)
        if v:
            b[a] = (v * l, sum(map(math.prod, zip(w, a))))
    m = math.lcm(*(lam for _, lam in b.values()))
    return Polynomial._exact(len(monos[0]), {a: v * (m // lam) for a, (v, lam) in b.items()},
                             den * m)


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def hermite_1d(j: int) -> Polynomial:
    """Probabilists' Hermite polynomial H_j in one variable, exact:
    H^Sigma_(j) for Sigma = 1, so H_(j+1) = x H_j - j H_(j-1)."""
    return hermite_sigma((j,), [[Fraction(1)]])


def hermite_sigma(alpha: Sequence[int], sigma_inv, memo: dict | None = None) -> Polynomial:
    """Hermite polynomial H^Sigma_alpha = phi_Sigma^(-1) (-d)^alpha phi_Sigma.

    sigma_inv is Sigma^(-1), rational; the result is exact.  Built by the
    recurrence H_(alpha+e_j) = (Sigma^(-1) x)_j H_alpha - d_j H_alpha; a
    dict passed as memo shares the lower orders between calls with the
    same sigma_inv.  For Sigma = diag(lam) this is
    prod_j lam_j^(-alpha_j/2) H_(alpha_j)(lam_j^(-1/2) x_j), and
    E[H_alpha H_beta] = [alpha == beta] alpha! prod_j lam_j^(-alpha_j).
    """
    alpha = tuple(alpha)
    q = len(alpha)
    if len(sigma_inv) != q or any(a < 0 for a in alpha):
        raise PolynomialError(f"bad Hermite index {alpha} for dimension {len(sigma_inv)}")
    if sum(alpha) > MAX_DEGREE:
        raise PolynomialError(f"product degree exceeds cap {MAX_DEGREE}")
    if memo is None:
        memo = {}
    if alpha not in memo:
        j = next((i for i, a in enumerate(alpha) if a), None)
        if j is None:
            memo[alpha] = Polynomial.constant(q, Fraction(1))
        else:
            lower = list(alpha)
            lower[j] -= 1
            memo[alpha] = _hermite_step(hermite_sigma(lower, sigma_inv, memo), sigma_inv[j], j)
    return memo[alpha]


def _hermite_step(h: Polynomial, row: Sequence, j: int) -> Polynomial:
    """y_j h - d_j h for y_j = sum_i row[i] x_i, row = (Sigma^(-1))_j, in
    one pass.  The terms come in the order of `y_j * h - h.partial(j)`:
    the product's, less those that cancel, then the derivative's new ones.
    They are summed as integer numerators over one common denominator."""
    hn, lh = h._integers()
    row, ly = _integer_row(row)
    terms: dict = {}
    for i, s in enumerate(row):
        if s:
            for a, n in hn.items():
                key = a[:i] + (a[i] + 1,) + a[i + 1:]
                terms[key] = terms.get(key, 0) + s * n
    terms = {a: n for a, n in terms.items() if n}
    for a, n in hn.items():
        k = a[j]
        if k:
            key = a[:j] + (k - 1,) + a[j + 1:]
            terms[key] = terms.get(key, 0) - n * k * ly
    return Polynomial._exact(h.dimension, terms, ly * lh)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def solve_linear(a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    """Solve a X = b exactly by Gauss-Jordan elimination; a is n x n, b is
    n x m.

    Both are lists of rows of Fractions or ints; a float raises
    PolynomialError.  The pivot is the first nonzero entry of its column:
    exact arithmetic needs no stability pivot.
    """
    n = len(a)
    a = [[_rational(v) for v in row] for row in a]
    x = [[_rational(v) for v in row] for row in b]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise PolynomialError("singular matrix")
        p = a[piv][col]
        a[col], a[piv] = a[piv], a[col]
        x[col], x[piv] = x[piv], x[col]
        a[col] = [v / p if v else v for v in a[col]]
        x[col] = [v / p if v else v for v in x[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and f != 0:
                a[r] = [v - f * w if w else v for v, w in zip(a[r], a[col])]
                x[r] = [v - f * w if w else v for v, w in zip(x[r], x[col])]
    return x


def rational_inverse(mat: Sequence[Sequence]) -> list:
    """Inverse of a small matrix, exact on Fractions."""
    n = len(mat)
    return solve_linear(mat, [[int(i == j) for j in range(n)] for i in range(n)])


def positive_definite(mat: Sequence[Sequence], semi: bool = False) -> bool:
    """Whether a symmetric rational matrix is positive definite (or, with
    semi, positive semi-definite), by the pivots of its exact LDL^T
    factorisation, with no tolerance.

    Symmetric elimination without exchanges makes the k-th pivot the k-th
    diagonal entry of the Schur complement of the leading k - 1 rows.  The
    matrix is definite iff every pivot is positive (Sylvester's criterion),
    and semi-definite iff every pivot is nonnegative and each zero pivot's
    column below it is zero (else a 2 x 2 principal minor is negative); a
    zero pivot then eliminates nothing.  A float raises PolynomialError.
    """
    n = len(mat)
    a = [[_rational(v) for v in row] for row in mat]
    for k in range(n):
        d = a[k][k]
        if d < 0 or (d == 0 and (not semi or any(a[i][k] for i in range(k + 1, n)))):
            return False
        if d:
            for i in range(k + 1, n):
                f = a[i][k] / d
                if f:
                    a[i][k + 1:] = [v - f * w for v, w in zip(a[i][k + 1:], a[k][k + 1:])]
    return True


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------


class GaussianMoments:
    """The moments E[x^gamma] under N(0, sigma), for one sigma.

    sigma is rational (a float raises PolynomialError).  It is checked
    once, when the table is made: symmetric, and positive semi-definite by
    the exact pivots of positive_definite.  Calling the table with an
    exponent tuple gives its moment, memoised for the life of the table
    and built by Gaussian integration by parts,

        E[x_i x^gamma] = sum_j sigma_ij gamma_j E[x^(gamma - e_j)].

    sigma is S / D with S an integer matrix, and the table keeps the
    integers N(gamma) = D^(|gamma|/2) E[x^gamma], which follow the same
    recurrence with S for sigma.
    """

    __slots__ = ("sigma", "_s", "_den", "_memo")

    def __init__(self, sigma, q: int):
        self.sigma = tuple(tuple(_rational(sigma[i][j]) for j in range(q)) for i in range(q))
        for i in range(q):
            for j in range(i):
                if self.sigma[i][j] != self.sigma[j][i]:
                    raise PolynomialError("sigma must be symmetric")
        if not positive_definite(self.sigma, semi=True):
            raise PolynomialError("sigma must be positive semi-definite")
        self._den = math.lcm(*(c.denominator for r in self.sigma for c in r))
        self._s = tuple(tuple(c.numerator * (self._den // c.denominator) for c in r)
                        for r in self.sigma)
        self._memo = {(0,) * q: 1}

    def _numerator(self, gamma: tuple) -> int:
        """N(gamma)."""
        n = self._memo.get(gamma)
        if n is None:
            n = 0
            if sum(gamma) % 2 == 0:
                i = next(i for i, g in enumerate(gamma) if g)
                low = list(gamma)
                low[i] -= 1
                for j, s in enumerate(self._s[i]):
                    g = low[j]
                    if g and s:
                        low[j] -= 1
                        n += s * g * self._numerator(tuple(low))
                        low[j] += 1
            self._memo[gamma] = n
        return n

    def __call__(self, gamma: tuple) -> Fraction:
        return Fraction(self._numerator(gamma), self._den ** (sum(gamma) // 2))

    def expectation(self, p: Polynomial) -> Fraction:
        """E[p(x)]."""
        return self.expectations(p, [(0,) * len(self.sigma)])[0]

    def expectations(self, p: Polynomial, alphas: Iterable[tuple]) -> list:
        """[E[x^alpha p(x)] for alpha in alphas], each the sum over the
        terms p_beta x^beta of p of p_beta E[x^(alpha+beta)].

        p's integer numerators n_beta over its denominator l are read
        as they are (a float coefficient raises PolynomialError), and each
        moment is one Fraction,
        sum_beta n_beta N(alpha+beta) D^((top-|beta|)/2) / (l D^((|alpha|+top)/2)),
        over the terms with |beta| of the parity of |alpha| (the others meet
        odd moments), top the largest such |beta|.
        """
        nums, l = p._integers()
        den, memo, num = self._den, self._memo, self._numerator
        by_parity = []  # (top, [(beta, n_beta D^((top - |beta|)/2))]) per parity of |beta|
        for parity in (0, 1):
            part = [(b, n, sum(b)) for b, n in nums.items() if sum(b) % 2 == parity]
            top = max((d for _, _, d in part), default=0)
            by_parity.append((top, [(b, n * den ** ((top - d) // 2)) for b, n, d in part]))
        out = []
        for alpha in alphas:
            top, part = by_parity[sum(alpha) % 2]
            total = 0
            for b, n in part:
                g = tuple(map(add, alpha, b))
                m = memo[g] if g in memo else num(g)
                total += n * m
            out.append(Fraction(total, l * den ** ((sum(alpha) + top) // 2)))
        return out


def gaussian_moment(alpha: Sequence[int], sigma) -> Fraction:
    """E[x^alpha] under N(0, sigma), exact.

    sigma is rational, symmetric and positive semi-definite (exact pivot
    test).
    """
    return gaussian_expectation(Polynomial(len(alpha), {tuple(alpha): Fraction(1)}), sigma)


def gaussian_expectation(p: Polynomial, sigma) -> Fraction:
    """Integral of p against the N(0, sigma) density; sigma is checked
    as in gaussian_moment, once per call."""
    return GaussianMoments(sigma, p.dimension).expectation(p)


# ---------------------------------------------------------------------------
# Truncated formal power series in a small parameter
# ---------------------------------------------------------------------------


class EpsSeries:
    """Polynomial-coefficient power series, truncated at a fixed order.

    coeffs[k] is the polynomial coefficient of eps^k; all coefficients
    share one ambient dimension.  A product truncates to the smaller of
    the two orders.
    """

    __slots__ = ("dimension", "order", "coeffs")

    def __init__(self, coeffs: Iterable[Polynomial], order: int | None = None):
        coeffs = list(coeffs)
        if not coeffs:
            raise PolynomialError("EpsSeries needs at least the order-0 coefficient")
        dim = coeffs[0].dimension
        if any(c.dimension != dim for c in coeffs):
            raise PolynomialError("EpsSeries coefficients must share dimension")
        if order is None:
            order = len(coeffs) - 1
        coeffs = coeffs[: order + 1]
        while len(coeffs) < order + 1:
            coeffs.append(Polynomial.zero(dim))
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("EpsSeries is immutable")

    def __getitem__(self, k: int) -> Polynomial:
        return self.coeffs[k]

    def __eq__(self, other):
        return (
            isinstance(other, EpsSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __mul__(self, other):
        if not isinstance(other, EpsSeries):
            # scalar or Polynomial multiplier
            return EpsSeries([c * other for c in self.coeffs], self.order)
        r = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return EpsSeries(
            [sum_of_products(self.dimension, [(a[i], b[n - i]) for i in range(n + 1)])
             for n in range(r + 1)],
            r,
        )

    __rmul__ = __mul__

    def exp(self) -> "EpsSeries":
        """Series exponential; requires zero order-0 coefficient (see
        exp_coefficient): O(order^2) polynomial products."""
        if not self.coeffs[0].is_zero():
            raise PolynomialError("exp needs zero constant-in-eps part")
        ia = [c * i for i, c in enumerate(self.coeffs)]
        out = [Polynomial.constant(self.dimension, Fraction(1))]
        for n in range(1, self.order + 1):
            out.append(exp_coefficient(ia, out, n))
        return EpsSeries(out, self.order)

    def __repr__(self):
        parts = [f"eps^{k}*({c.to_text()})" for k, c in enumerate(self.coeffs)]
        return "EpsSeries[" + " + ".join(parts) + "]"


def exp_coefficient(ia: Sequence[Polynomial], f: Sequence[Polynomial], n: int) -> Polynomial:
    """The eps^n coefficient F_n of F = exp(G), given ia[i] = i G_i for
    1 <= i <= n and F_0..F_(n-1): F' = G' F gives
    n F_n = sum_(i=1..n) i G_i F_(n-i), with F_0 = 1 when G_0 = 0."""
    return sum_of_products(f[0].dimension, [(ia[i], f[n - i]) for i in range(1, n + 1)],
                           Fraction(1, n))
