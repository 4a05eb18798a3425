"""Exact sparse multivariate polynomial algebra.

Polynomials are stored as a dict mapping exponent tuples to coefficients.
Every kernel (products, the Hermite step, the linear solve, Gaussian
moments) takes `fractions.Fraction` coefficients, keeps the arithmetic in
integers until the last step and raises PolynomialError for a float; a
polynomial holds floats only to be evaluated.  On top of the carrier type
this module provides probabilists' Hermite polynomials and their
counterparts H^Sigma_alpha for a general covariance, small linear solves
(Gauss-Jordan), Gaussian moments (one memoised table per covariance) and
truncated formal power series in an auxiliary small parameter, with
polynomial coefficients.

All values are treated as immutable after construction; every operation
returns a fresh object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add
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


def grlex_key(alpha: tuple) -> tuple:
    """Graded-lexicographic sort key for exponent tuples."""
    return (sum(alpha), tuple(-a for a in alpha))


def _rational(c) -> Fraction:
    """c as a Fraction for an exact kernel; a float raises PolynomialError."""
    c = _as_coeff(c)
    if isinstance(c, float):
        raise PolynomialError(f"exact arithmetic needs rational input, not the float {c!r}")
    return c


def _integer_numerators(terms: dict):
    """([(alpha, c * l)], l) for l the lcm of the Fraction denominators."""
    try:
        l = math.lcm(*(c.denominator for c in terms.values()))
    except AttributeError:
        raise PolynomialError("exact arithmetic needs rational coefficients, not floats") from None
    return [(a, c.numerator * (l // c.denominator)) for a, c in terms.items()], l


def coefficient_text(c: Coeff) -> str:
    """str(c); a Fraction over MAX_PRINT_BITS raises PolynomialError."""
    if isinstance(c, Fraction) and max(c.numerator.bit_length(),
                                       c.denominator.bit_length()) > MAX_PRINT_BITS:
        raise PolynomialError(f"a coefficient has over {MAX_PRINT_BITS} bits, too long to print")
    return str(c)


class Polynomial:
    """Sparse multivariate polynomial over exponent tuples.

    Zero coefficients are never stored, so equality of term dicts is
    equality of polynomials.
    """

    __slots__ = ("dimension", "terms")

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
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def _of(dimension: int, terms: dict) -> "Polynomial":
        """Wrap terms that this class's own arithmetic made from checked
        polynomials: the exponent tuples and coefficient types are already
        valid, so only zero coefficients are dropped.  The dict order is
        kept, as __call__ sums in that order."""
        p = object.__new__(Polynomial)
        object.__setattr__(p, "dimension", dimension)
        object.__setattr__(p, "terms", {a: c for a, c in terms.items() if c})
        return p

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
        return max((sum(a) for a in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, alpha: Sequence[int]) -> Coeff:
        return self.terms.get(tuple(alpha), Fraction(0))

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.dimension, Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dimension, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------

    def _check_dim(self, other: "Polynomial"):
        if self.dimension != other.dimension:
            raise PolynomialError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + Polynomial.constant(self.dimension, other)
        self._check_dim(other)
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = terms.get(alpha, 0) + c
        return Polynomial._of(self.dimension, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.dimension, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        """self + (-other) in one pass: the same terms, in the same order."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dimension, other)
        self._check_dim(other)
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            terms[alpha] = terms.get(alpha, 0) - c
        return Polynomial._of(self.dimension, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _as_coeff(other)
            if c == 0:
                return Polynomial.zero(self.dimension)
            return Polynomial._of(self.dimension, {a: v * c for a, v in self.terms.items()})
        self._check_dim(other)
        return sum_of_products(self.dimension, [(self, other)])

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
        terms = {}
        for alpha, c in self.terms.items():
            if alpha[j] == 0:
                continue
            a = list(alpha)
            k = a[j]
            a[j] -= 1
            key = tuple(a)
            terms[key] = terms.get(key, 0) + c * k
        return Polynomial._of(self.dimension, terms)

    def gradient(self) -> list:
        return [self.partial(j) for j in range(self.dimension)]

    def laplacian(self) -> "Polynomial":
        """sum_j d_j d_j, in closed form: x^alpha -> alpha_j (alpha_j - 1) x^(alpha - 2 e_j)."""
        terms: dict = {}
        for j in range(self.dimension):
            for alpha, c in self.terms.items():
                k = alpha[j]
                if k > 1:
                    key = alpha[:j] + (k - 2,) + alpha[j + 1:]
                    terms[key] = terms.get(key, 0) + c * k * (k - 1)
        return Polynomial._of(self.dimension, terms)

    # -- evaluation / substitution ------------------------------------

    def __call__(self, x):
        """Evaluate at a point or along the last axis of an array."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise PolynomialError("point dimension mismatch")
        out = np.zeros(x.shape[:-1])
        for alpha, c in self.terms.items():
            mono = np.ones(x.shape[:-1])
            for j, e in enumerate(alpha):
                if e:
                    mono = mono * x[..., j] ** e
            out = out + float(c) * mono
        return out if out.shape else float(out)

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
        if not self.terms:
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
    denominator of all the pairs, and each output term becomes one
    Fraction.  A float coefficient, b_i or scale raises PolynomialError, as
    does a pair of polynomials whose degrees add up to more than MAX_DEGREE.
    """
    const = (0,) * dimension
    nums, den = [], 1
    for a, b in pairs:
        if isinstance(b, Polynomial):
            bt = b.terms
            if a.terms and bt and max(map(sum, a.terms)) + max(map(sum, bt)) > MAX_DEGREE:
                raise PolynomialError(f"product degree exceeds cap {MAX_DEGREE}")
        else:
            b = _rational(b)
            bt = {const: b} if b else {}
        if a.terms and bt:
            n1, l1 = _integer_numerators(a.terms)
            n2, l2 = _integer_numerators(bt)
            nums.append((n1, n2, l1 * l2))
            den = math.lcm(den, l1 * l2)
    scale = _rational(scale)
    acc: dict = {}
    for n1, n2, l in nums:
        f = den // l
        for a1, c1 in n1:
            c1 *= f
            for a2, c2 in n2:
                key = tuple(map(add, a1, a2))
                acc[key] = acc.get(key, 0) + c1 * c2
    num, den = scale.numerator, den * scale.denominator
    return Polynomial._of(dimension, {a: Fraction(n * num, den) for a, n in acc.items() if n})


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
    They are summed as integer numerators over one common denominator,
    one Fraction per term."""
    hn, lh = _integer_numerators(h.terms)
    row = [_rational(c) for c in row]
    ly = math.lcm(*(c.denominator for c in row))
    row = [c.numerator * (ly // c.denominator) for c in row]
    terms: dict = {}
    for i, s in enumerate(row):
        if s:
            for a, n in hn:
                key = a[:i] + (a[i] + 1,) + a[i + 1:]
                terms[key] = terms.get(key, 0) + s * n
    terms = {a: n for a, n in terms.items() if n}
    for a, n in hn:
        k = a[j]
        if k:
            key = a[:j] + (k - 1,) + a[j + 1:]
            terms[key] = terms.get(key, 0) - n * k * ly
    den = ly * lh
    return Polynomial._of(h.dimension, {a: Fraction(n, den) for a, n in terms.items() if n})


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


# ---------------------------------------------------------------------------
# Gaussian moments
# ---------------------------------------------------------------------------


class GaussianMoments:
    """The moments E[x^gamma] under N(0, sigma), for one sigma.

    sigma is rational (a float raises PolynomialError).  It is checked
    once, when the table is made: symmetric, and positive semi-definite by
    a numeric eigenvalue test.  Calling the table with an exponent tuple
    gives its moment, memoised for the life of the table and built by
    Gaussian integration by parts,

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
        w = np.linalg.eigvalsh(np.array([[float(c) for c in r] for r in self.sigma]))
        if w.min() < -1e-12 * max(1.0, w.max()):
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

        The terms of p become integer numerators n_beta over their lcm l
        once (a float coefficient raises PolynomialError), and each moment
        is one Fraction,
        sum_beta n_beta N(alpha+beta) D^((top-|beta|)/2) / (l D^((|alpha|+top)/2)),
        over the terms with |beta| of the parity of |alpha| (the others meet
        odd moments), top the largest such |beta|.
        """
        nums, l = _integer_numerators(p.terms)
        den, memo, num = self._den, self._memo, self._numerator
        by_parity = []  # (top, [(beta, n_beta D^((top - |beta|)/2))]) per parity of |beta|
        for parity in (0, 1):
            part = [(b, n, sum(b)) for b, n in nums if sum(b) % 2 == parity]
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

    sigma is rational, symmetric and positive semi-definite (numeric
    eigenvalue test).
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
