"""Exact sparse multivariate polynomial algebra.

A polynomial keeps its exact coefficients as integer numerators over one
common denominator, in lowest terms, in a dict keyed by packed monomials:
one integer per monomial, with the exponent of each variable in its own
fixed-width bit field and the total degree above them, so that a product
of monomials is one integer addition and a derivative one subtraction.
Every kernel (sums, scalar and polynomial products, derivatives, the
Hermite step, the diagonal degree solve, Gaussian moments) works on those
integers and keys; exponent tuples and `fractions.Fraction`s are made
only where a caller reads the coefficients.  Coefficients are rational
only: a float coefficient, scalar factor or matrix entry raises
PolynomialError, and floats exist only as the results of evaluation.
On top of the carrier type this module provides
probabilists' Hermite polynomials and their counterparts H^Sigma_alpha
for a general covariance, small linear solves (Gauss-Jordan), Gaussian
moments (one memoised table per covariance) and truncated formal power
series in an auxiliary small parameter, with polynomial coefficients.

All values are treated as immutable after construction; every operation
returns a fresh object.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import ge, index
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

Coeff = Fraction

#: hard cap on total degree, to bound combinatorial blowup
MAX_DEGREE = 64

#: bits of one exponent field in a packed monomial
_FIELD_BITS = 8

#: largest exponent of one variable that a polynomial may hold: a packed
#: field never carries into the next, because every kernel that raises an
#: exponent checks MAX_DEGREE first
MAX_EXPONENT = (1 << _FIELD_BITS) - 1

#: most bits in a printed numerator or denominator: about 4200 digits,
#: inside the interpreter's default limit on int-to-str conversion
MAX_PRINT_BITS = 14_000


class PolynomialError(ValueError):
    pass


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


class _Layout:
    """The packed monomials in q variables.

    The exponent of x_j sits in bits [shifts[j], shifts[j] + _FIELD_BITS),
    x_1 highest, and the total degree in the bits from `top` up, so a key
    k has degree k >> top, units[j] is the key of x_j, the key of
    x^alpha x^beta is the sum of theirs, and keys of one degree compare
    as their exponent tuples do; k ^ low is therefore a graded-lex sort key.
    """

    __slots__ = ("q", "shifts", "units", "top", "low", "_texts")

    def __init__(self, q: int):
        self.q = q
        self.top = q * _FIELD_BITS
        self.shifts = tuple((q - 1 - j) * _FIELD_BITS for j in range(q))
        self.units = tuple((1 << s) + (1 << self.top) for s in self.shifts)
        self.low = (1 << self.top) - 1
        self._texts: dict = {}

    def pack(self, alpha) -> int:
        """The key of an exponent tuple whose entries are in [0, MAX_EXPONENT]."""
        return sum(a * u for a, u in zip(alpha, self.units))

    def find(self, alpha) -> int:
        """The key of alpha, or -1 (no key) if alpha is not an exponent
        tuple in q variables."""
        try:
            alpha = tuple(map(index, alpha))
        except TypeError:
            return -1
        if len(alpha) != self.q or not all(0 <= a <= MAX_EXPONENT for a in alpha):
            return -1
        return self.pack(alpha)

    def unpack(self, key: int) -> tuple:
        return tuple(key >> s & MAX_EXPONENT for s in self.shifts)

    def text(self, key: int) -> str:
        """The monomial as printed: "x1^2 x3", "" for the constant; kept
        once made, as the same monomials recur in every printed
        polynomial of a build."""
        mono = self._texts.get(key)
        if mono is None:
            mono = self._texts[key] = " ".join(
                f"x{j + 1}^{e}" if e > 1 else f"x{j + 1}"
                for j, e in enumerate(self.unpack(key)) if e)
        return mono


@lru_cache(maxsize=None)
def _layout(q: int) -> _Layout:
    return _Layout(q)


def _rational(c) -> Fraction:
    """c, a Fraction or an integer, as a Fraction; a float or any other
    type raises PolynomialError."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, np.integer)):
        return Fraction(int(c))
    if isinstance(c, (float, np.floating)):
        raise PolynomialError(f"exact arithmetic needs rational input, not the float {c!r}")
    raise PolynomialError(f"unsupported coefficient type {type(c)!r}")


def _integer_row(values: Sequence) -> tuple:
    """([v * l for v in values], l) for l the lcm of the denominators of
    the rational values."""
    values = [_rational(v) for v in values]
    l = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (l // v.denominator) for v in values], l


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, from the integers; a reduced
    numerator or denominator over MAX_PRINT_BITS raises PolynomialError."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    if max(n.bit_length(), d.bit_length()) > MAX_PRINT_BITS:
        raise PolynomialError(f"a coefficient has over {MAX_PRINT_BITS} bits, too long to print")
    return str(n) if d == 1 else f"{n}/{d}"


def coefficient_text(c) -> str:
    """str(Fraction(c)) for a rational c; one over MAX_PRINT_BITS raises
    PolynomialError."""
    c = _rational(c)
    return _ratio_text(c.numerator, c.denominator)


class Polynomial:
    """Sparse multivariate polynomial over packed monomials.

    The coefficients are the integers _num[key] over the one
    denominator _den, with the gcd of _den and every numerator 1, so
    equal polynomials have equal integers.  The keys are those of
    _layout(dimension), each exponent at most MAX_EXPONENT.  Zero
    coefficients are never stored; the dict order is the order the terms
    were made in, and __call__ sums in it.
    """

    __slots__ = ("dimension", "_num", "_den", "_terms", "_evals")

    def __init__(self, dimension: int, terms: Mapping[tuple, Coeff] | None = None):
        if dimension < 1:
            raise PolynomialError("dimension must be >= 1")
        find = _layout(dimension).find
        coeffs = {}
        if terms:
            for alpha, c in terms.items():
                alpha = tuple(int(a) for a in alpha)
                key = find(alpha)
                if key < 0:
                    raise PolynomialError(f"bad exponent tuple {alpha} for dimension {dimension}: "
                                          f"each exponent must lie in [0, {MAX_EXPONENT}]")
                coeffs[key] = c
        nums, den = _integer_row(coeffs.values())
        Polynomial._init(self, dimension, {a: n for a, n in zip(coeffs, nums) if n}, den)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def _init(p: "Polynomial", dimension: int, num: dict, den: int) -> "Polynomial":
        """Set p from nonzero integer numerators over den, in lowest terms."""
        for name, value in (("dimension", dimension), ("_num", num), ("_den", den),
                            ("_terms", None), ("_evals", None)):
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

    @property
    def terms(self) -> Mapping[tuple, Coeff]:
        """Read-only view exponent tuple -> Fraction coefficient, in term
        order; made on first read."""
        if self._terms is None:
            unpack, den = _layout(self.dimension).unpack, self._den
            object.__setattr__(self, "_terms", MappingProxyType(
                {unpack(a): Fraction(n, den) for a, n in self._num.items()}))
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
        return max(self._num) >> _layout(self.dimension).top if self._num else -1

    def is_zero(self) -> bool:
        return not self._num

    def _at(self, key: int) -> Coeff:
        return Fraction(self._num.get(key, 0), self._den)

    def coefficient(self, alpha: Sequence[int]) -> Coeff:
        return self._at(_layout(self.dimension).find(alpha))

    def constant_term(self) -> Coeff:
        return self._at(0)

    def __eq__(self, other):
        if not isinstance(other, Polynomial) or self.dimension != other.dimension:
            return False
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self.dimension, self._den, frozenset(self._num.items())))

    # -- arithmetic ---------------------------------------------------

    def _check_dim(self, other: "Polynomial"):
        if self.dimension != other.dimension:
            raise PolynomialError("dimension mismatch")

    def _combine(self, other, sign: int) -> "Polynomial":
        """self + sign * other termwise in one pass: self's terms, then
        other's new ones, those that cancel dropped."""
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.dimension, other)
        self._check_dim(other)
        den = math.lcm(self._den, other._den)
        f, g = den // self._den, (den // other._den) * sign
        terms = {a: n * f for a, n in self._num.items()} if f != 1 else dict(self._num)
        get = terms.get
        for a, n in other._num.items():
            terms[a] = get(a, 0) + n * g
        return Polynomial._exact(self.dimension, terms, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._exact(self.dimension, {a: -n for a, n in self._num.items()}, self._den)

    def __sub__(self, other):
        """self + (-other) in one pass: the same terms, in the same order."""
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_dim(other)
            return sum_of_products(self.dimension, [(self, other)])
        c = _rational(other)
        if c == 0:
            return Polynomial.zero(self.dimension)
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
        num, den = self._num, self._den
        lay = _layout(self.dimension)
        s, unit = lay.shifts[j], lay.units[j]
        terms: dict = {}
        for a, n in num.items():
            k = a >> s & MAX_EXPONENT
            if k:
                key = a - unit
                terms[key] = terms.get(key, 0) + n * k
        return Polynomial._exact(self.dimension, terms, den)

    def gradient(self) -> list:
        return [self.partial(j) for j in range(self.dimension)]

    def laplacian(self) -> "Polynomial":
        """sum_j d_j d_j, in closed form: x^alpha -> alpha_j (alpha_j - 1) x^(alpha - 2 e_j)."""
        num, den = self._num, self._den
        lay = _layout(self.dimension)
        terms: dict = {}
        for s, unit in zip(lay.shifts, lay.units):
            two = 2 * unit
            for a, n in num.items():
                k = a >> s & MAX_EXPONENT
                if k > 1:
                    key = a - two
                    terms[key] = terms.get(key, 0) + n * (k * (k - 1))
        return Polynomial._exact(self.dimension, terms, den)

    # -- evaluation / substitution ------------------------------------

    def _floats(self) -> tuple:
        """(alpha, float coefficient) in term order; made on first evaluation."""
        if self._evals is None:
            unpack, den = _layout(self.dimension).unpack, self._den
            object.__setattr__(self, "_evals", tuple(
                (unpack(a), n / den) for a, n in self._num.items()))  # rounds as float(Fraction)
        return self._evals

    def __call__(self, x):
        """Evaluate at a point or along the last axis of an array, by
        evaluate_into on the points as (n, dimension) rows."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dimension:
            raise PolynomialError("point dimension mismatch")
        rows = x.reshape(-1, self.dimension)
        out = self.evaluate_into(rows, *np.empty((3, len(rows)))).reshape(x.shape[:-1])
        return out if out.shape else float(out)

    def evaluate_into(self, x: np.ndarray, out: np.ndarray, mono: np.ndarray,
                      power: np.ndarray) -> np.ndarray:
        """self(x) for a float (n, dimension) array x, written to out.

        out, mono and power are distinct C-contiguous float (n,) arrays;
        mono and power hold each monomial and each power on the way, so
        nothing is allocated.
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
        units = [tuple(int(k == i) for k in range(q)) for i in range(q)]
        return self.substitute([Polynomial(q, {units[i]: A[j][i] for i in range(q)})
                                for j in range(q)])

    # -- output -------------------------------------------------------

    def to_text(self) -> str:
        """Deterministic form: graded-lex terms, exact fractions printed
        from the integer numerators; a coefficient too long to print
        raises PolynomialError."""
        if not self._num:
            return "0"
        lay, num, den = _layout(self.dimension), self._num, self._den
        parts = []
        for a in sorted(num, key=lay.low.__xor__):
            c = _ratio_text(num[a], den)
            mono = lay.text(a)
            parts.append(f"{c} {mono}" if mono else c)
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.dimension}, {self.to_text()})"


def truncate(p: Polynomial, n: int) -> Polynomial:
    """The terms of p of total degree at most n, in p's order."""
    top = _layout(p.dimension).top
    return Polynomial._exact(p.dimension, {a: c for a, c in p._num.items() if a >> top <= n},
                             p._den)


def sum_of_products(dimension: int, pairs: Iterable, scale=1) -> Polynomial:
    """scale * sum_i a_i b_i over the pairs (a_i, b_i), in `dimension`
    variables; each a_i is a Polynomial, each b_i a Polynomial or a scalar.

    Each pair's integer numerators are convolved over one common
    denominator of all the pairs, a product of monomials being the sum of
    their keys.  A float b_i or scale raises PolynomialError, as does a
    pair of polynomials whose degrees add up to more than MAX_DEGREE,
    before any key is added.
    """
    nums, den = [], 1
    for a, b in pairs:
        if isinstance(b, Polynomial):
            if not (a._num and b._num):
                continue
            if a.degree() + b.degree() > MAX_DEGREE:
                raise PolynomialError(f"product degree exceeds cap {MAX_DEGREE}")
            n1, l1, n2, l2 = a._num, a._den, b._num, b._den
        else:
            if not isinstance(b, (int, Fraction)):  # an int is its own numerator
                b = _rational(b)
            if not (a._num and b):
                continue
            n1, l1, n2, l2 = a._num, a._den, {0: b.numerator}, b.denominator
        nums.append((n1, n2, l1 * l2))
        den = math.lcm(den, l1 * l2)
    if not isinstance(scale, (int, Fraction)):
        scale = _rational(scale)
    acc: dict = {}
    get = acc.get
    for n1, n2, l in nums:
        f = den // l
        for a1, c1 in n1.items():
            c1 *= f
            for a2, c2 in n2.items():
                key = a1 + a2
                acc[key] = get(key, 0) + c1 * c2
    num = scale.numerator
    if num != 1:
        acc = {a: n * num for a, n in acc.items()}
    return Polynomial._exact(dimension, acc, den * scale.denominator)


def x_dot_inv_grad(u: Polynomial, inv) -> Polynomial:
    """x . Sigma^{-1} grad u, given inv = Sigma^{-1}, in closed form:
    x . Sigma^{-1} grad x^beta = sum_ij (Sigma^{-1})_ij beta_j x^(beta - e_j + e_i).

    Each x_i d_j u is a product of degree deg u, so a u over MAX_DEGREE
    raises PolynomialError, as does a float entry of inv."""
    q = u.dimension
    num, den = u._num, u._den
    if u.degree() > MAX_DEGREE:
        raise PolynomialError(f"product degree exceeds cap {MAX_DEGREE}")
    s, l = _integer_row([c for row in inv for c in row])
    shifts = _layout(q).shifts
    terms: dict = {}
    for i in range(q):
        for j in range(q):
            sij = s[i * q + j]
            if sij:
                sj = shifts[j]
                step = (1 << shifts[i]) - (1 << sj)  # x_i d_j keeps the degree
                for beta, n in num.items():
                    k = beta >> sj & MAX_EXPONENT
                    if k:
                        a = beta + step
                        terms[a] = terms.get(a, 0) + n * k * sij
    return Polynomial._exact(q, terms, den * l)


def taylor_terms(S: Polynomial, top: int) -> list:
    """(beta, d^beta S / beta!) for 1 <= |beta| <= top, nonzero ones only:
    the coefficient of S(x + d) on d^beta.  d^beta S / beta! has the terms
    c_alpha prod_j C(alpha_j, beta_j) x^(alpha - beta)."""
    num, den = S._num, S._den
    q = S.dimension
    lay = _layout(q)
    items = [(lay.unpack(a), a, n) for a, n in num.items()]
    out = []
    for m in range(1, min(top, S.degree()) + 1):
        for beta in multi_indices(q, m):
            b = lay.pack(beta)
            terms = {
                a - b: n * math.prod(map(math.comb, alpha, beta))
                for alpha, a, n in items
                if all(map(ge, alpha, beta))
            }
            if terms:
                out.append((beta, Polynomial._exact(q, terms, den)))
    return out


def diagonal_degree_solve(parts: Sequence[Polynomial], d: int, diag: Sequence) -> Polynomial:
    """The u_d with x . diag(diag) grad u_d = b on the degree-d monomials,
    for b_a the sum over parts of their coefficients of x^a: each x^a is
    an eigenvector, of eigenvalue sum_i diag_i a_i (nonzero), so u_d has
    the coefficients b_a / (sum_i diag_i a_i), in the order of
    multi_indices(q, d), which is that of the keys."""
    ints = [(p._num, p._den) for p in parts]
    den = math.lcm(*(l for _, l in ints))
    scaled = [(n, den // l) for n, l in ints]
    w, l = _integer_row(diag)
    q = parts[0].dimension
    lay = _layout(q)
    top, shifts = lay.top, lay.shifts
    b = {}
    for a in sorted({a for n, _ in scaled for a in n if a >> top == d}):
        v = sum(n.get(a, 0) * f for n, f in scaled)
        if v:
            b[a] = (v * l, sum(wi * (a >> s & MAX_EXPONENT) for wi, s in zip(w, shifts)))
    m = math.lcm(*(lam for _, lam in b.values()))
    return Polynomial._exact(q, {a: v * (m // lam) for a, (v, lam) in b.items()}, den * m)


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
    dict passed as memo shares the lower orders, by packed alpha, and the
    integer rows of sigma_inv between calls with the same sigma_inv.
    For Sigma = diag(lam) this is
    prod_j lam_j^(-alpha_j/2) H_(alpha_j)(lam_j^(-1/2) x_j), and
    E[H_alpha H_beta] = [alpha == beta] alpha! prod_j lam_j^(-alpha_j).
    """
    alpha = tuple(alpha)
    q = len(alpha)
    if len(sigma_inv) != q or any(a < 0 for a in alpha):
        raise PolynomialError(f"bad Hermite index {alpha} for dimension {len(sigma_inv)}")
    if sum(alpha) > MAX_DEGREE:
        raise PolynomialError(f"product degree exceeds cap {MAX_DEGREE}")
    lay = _layout(q)
    return _hermite(lay, lay.pack(alpha), *_hermite_table(sigma_inv, memo))


def hermite_sum(p: Polynomial, sigma_inv, memo: dict | None = None) -> Polynomial:
    """sum_alpha b_alpha H^Sigma_alpha over the terms b_alpha x^alpha of p,
    exact, in the order of p's terms; memo as for hermite_sigma."""
    num, den = p._num, p._den
    q = p.dimension
    if len(sigma_inv) != q:
        raise PolynomialError(f"bad Hermite dimension {q} for dimension {len(sigma_inv)}")
    if p.degree() > MAX_DEGREE:
        raise PolynomialError(f"product degree exceeds cap {MAX_DEGREE}")
    lay, (rows, memo) = _layout(q), _hermite_table(sigma_inv, memo)
    return sum_of_products(q, [(_hermite(lay, a, rows, memo), n) for a, n in num.items()],
                           Fraction(1, den))


def _hermite_table(sigma_inv, memo: dict | None) -> tuple:
    """(the integer rows of sigma_inv, memo): the rows are made once per
    memo and kept in it under the key None."""
    if memo is None:
        memo = {}
    rows = memo.get(None)
    if rows is None:
        rows = memo[None] = [_integer_row(row) for row in sigma_inv]
    return rows, memo


def _hermite(lay: _Layout, key: int, rows: list, memo: dict) -> Polynomial:
    """H^Sigma of the packed index key, by its first nonzero exponent."""
    h = memo.get(key)
    if h is None:
        if not key:
            h = Polynomial.constant(lay.q, Fraction(1))
        else:
            j = next(j for j, s in enumerate(lay.shifts) if key >> s & MAX_EXPONENT)
            h = _hermite_step(_hermite(lay, key - lay.units[j], rows, memo), rows[j], j)
        memo[key] = h
    return h


def _hermite_step(h: Polynomial, row: tuple, j: int) -> Polynomial:
    """y_j h - d_j h for y_j = sum_i s_i x_i / l, row = (s, l) the
    integer row of (Sigma^(-1))_j, in one pass.  The terms come in the
    order of `y_j * h - h.partial(j)`: the product's, less those that
    cancel, then the derivative's new ones.  They are summed as integer
    numerators over one common denominator."""
    hn, lh = h._num, h._den
    s_row, ly = row
    lay = _layout(h.dimension)
    terms: dict = {}
    get = terms.get
    for s, unit in zip(s_row, lay.units):
        if s:
            for a, n in hn.items():
                key = a + unit
                terms[key] = get(key, 0) + s * n
    terms = {a: n for a, n in terms.items() if n}
    get = terms.get
    sj, unit = lay.shifts[j], lay.units[j]
    for a, n in hn.items():
        k = a >> sj & MAX_EXPONENT
        if k:
            key = a - unit
            terms[key] = get(key, 0) - n * k * ly
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
    """The exact Gaussian N(0, sigma): its moments E[x^gamma] and
    Sigma^(-1), for one sigma.

    sigma is rational (a float raises PolynomialError).  It is checked
    once, when the table is made: square, symmetric, and positive
    semi-definite by the exact pivots of positive_definite, whose
    verdict on definiteness the table keeps as `definite` (one pass for
    a definite sigma, a second, semi-definite one only if not).  inv is
    Sigma^(-1) by rational_inverse, made on first read (a singular sigma
    raises PolynomialError there).  Calling the table with an exponent
    tuple gives its moment, memoised by packed gamma for the life of the
    table and built by Gaussian integration by parts,

        E[x_i x^gamma] = sum_j sigma_ij gamma_j E[x^(gamma - e_j)].

    sigma is S / D with S an integer matrix, and the table keeps the
    integers N(gamma) = D^(|gamma|/2) E[x^gamma], which follow the same
    recurrence with S for sigma.
    """

    __slots__ = ("sigma", "definite", "_s", "_den", "_memo", "_lay", "_inv")

    def __init__(self, sigma):
        q = len(sigma)
        self.sigma = tuple(tuple(_rational(c) for c in row) for row in sigma)
        if any(len(row) != q or any(row[j] != self.sigma[j][i] for j in range(i))
               for i, row in enumerate(self.sigma)):
            raise PolynomialError("sigma must be a symmetric square matrix")
        self.definite = positive_definite(self.sigma)
        if not (self.definite or positive_definite(self.sigma, semi=True)):
            raise PolynomialError("sigma must be positive semi-definite")
        self._den = math.lcm(*(c.denominator for r in self.sigma for c in r))
        self._s = tuple(tuple(c.numerator * (self._den // c.denominator) for c in r)
                        for r in self.sigma)
        self._lay = _layout(q)
        self._memo = {0: 1}
        self._inv = None

    @property
    def inv(self) -> list:
        if self._inv is None:
            self._inv = rational_inverse(self.sigma)
        return self._inv

    def _numerator(self, gamma: int) -> int:
        """N(gamma), gamma a packed key."""
        n = self._memo.get(gamma)
        if n is None:
            n = 0
            lay = self._lay
            if not gamma >> lay.top & 1:
                shifts, units = lay.shifts, lay.units
                i = next(i for i, s in enumerate(shifts) if gamma >> s & MAX_EXPONENT)
                low = gamma - units[i]
                for s, shift, unit in zip(self._s[i], shifts, units):
                    if s:
                        g = low >> shift & MAX_EXPONENT
                        if g:
                            n += s * g * self._numerator(low - unit)
            self._memo[gamma] = n
        return n

    def __call__(self, gamma: tuple) -> Fraction:
        key = self._lay.find(gamma)
        if key < 0:
            raise PolynomialError(f"bad exponent tuple {tuple(gamma)} for dimension {self._lay.q}")
        return Fraction(self._numerator(key), self._den ** (sum(gamma) // 2))

    def expectation(self, p: Polynomial) -> Fraction:
        """E[p(x)]."""
        return self.expectations(p, [(0,) * len(self.sigma)])[0]

    def expectations(self, p: Polynomial, alphas: Iterable[tuple]) -> list:
        """[E[x^alpha p(x)] for alpha in alphas], each the sum over the
        terms p_beta x^beta of p of p_beta E[x^(alpha+beta)].

        p's integer numerators n_beta over its denominator l are read
        as they are, and each moment is one Fraction,
        sum_beta n_beta N(alpha+beta) D^((high-|beta|)/2) / (l D^((|alpha|+high)/2)),
        over the terms with |beta| of the parity of |alpha| (the others meet
        odd moments), high the largest such |beta|; alpha + beta is the sum
        of the packed keys.
        """
        if p.dimension != self._lay.q:
            raise PolynomialError("dimension mismatch")
        nums, l = p._num, p._den
        den, memo, num = self._den, self._memo, self._numerator
        pack, top = self._lay.pack, self._lay.top
        by_parity = []  # (high, [(beta, n_beta D^((high - |beta|)/2))]) per parity of |beta|
        for parity in (0, 1):
            part = [(b, n, b >> top) for b, n in nums.items() if b >> top & 1 == parity]
            high = max((d for _, _, d in part), default=0)
            by_parity.append((high, [(b, n * den ** ((high - d) // 2)) for b, n, d in part]))
        out = []
        for alpha in alphas:
            a = pack(alpha)
            d = a >> top
            high, part = by_parity[d & 1]
            total = 0
            for b, n in part:
                g = a + b
                m = memo.get(g)
                total += n * (num(g) if m is None else m)
            out.append(Fraction(total, l * den ** ((d + high) // 2)))
        return out


def gaussian_moment(alpha: Sequence[int], sigma) -> Fraction:
    """E[x^alpha] under N(0, sigma), exact.

    sigma is rational, symmetric and positive semi-definite (exact pivot
    test).
    """
    return gaussian_expectation(Polynomial(len(alpha), {tuple(alpha): Fraction(1)}), sigma)


def gaussian_expectation(p: Polynomial, sigma) -> Fraction:
    """Integral of p against the N(0, sigma) density; sigma is checked
    as in gaussian_moment, once per table."""
    return as_gaussian(sigma).expectation(p)


def as_gaussian(sigma) -> GaussianMoments:
    """sigma as its GaussianMoments: a table is itself, rows make one."""
    return sigma if isinstance(sigma, GaussianMoments) else GaussianMoments(sigma)


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
