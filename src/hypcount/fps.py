"""Truncated formal power series with exact rational coefficients.

A Series holds the coefficients of ``q**n`` for ``n = 0..order``.  Every
exponent is a whole number; a series in fractional powers is written as a
whole-power series times an explicit prefactor (see
``qforms.theta2_fourth``).  Coefficients are exact rationals, never floats.
They are stored as FLINT's fmpq_poly stores them: integer numerators over
one positive denominator, in lowest terms, so every kernel operation runs
on ints and equal series store equal integers.  ``coeffs``, the tuple of
ints and Fractions that callers read, is built from them on first read.

Truncation discipline: binary operations truncate the result to the
minimum order of the operands.  A Series is never silently re-extended; a
zero tail means "known zero up to order", not "unknown".
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import mul

from .errors import DomainError, NonzeroConstantTerm, ZeroConstantTerm

Rational = int | Fraction


def _norm(c) -> Rational:
    """Canonical coefficient: integral Fractions collapse to int."""
    if type(c) is int:  # skips the slow ABC isinstance check on the hot path
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses become plain int
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


# -- integer kernel ------------------------------------------------------------
#
# Products and inverses run on integer numerators over one common coefficient
# denominator.  When the sparser operand has fewer than KRONECKER_MIN
# nonzero terms, the product takes the zero-skipping schoolbook loop;
# otherwise it takes Kronecker substitution: pack each operand into one big
# int with fields wide enough for any product coefficient, do one bigint
# multiply, unpack the signed fields (D. Harvey, J. Symbolic Comput. 44
# (2009)).  Crossover measured on a 2-vCPU x86-64 VM with Python 3.11 and
# 4-bit coefficients: dense operands of 13 / 20 / 33 terms took 16 / 31 /
# 73 us by schoolbook against 16 / 26 / 30 us by Kronecker; a 1024-term
# operand against one with 10 / 20 / 30 nonzero terms took 0.67 / 0.68 /
# 1.44 ms against 0.80 / 0.70 / 0.72 ms.
#
# A negative power of a series whose tail has at most one nonzero term in
# _SPARSE_SPAN runs J.C.P. Miller's power recurrence over those terms only;
# an inverse is its k = -1 case.  A denser series is inverted by one dense
# sum per term, then raised by binary powering.  Same machine, order 1024:
# random tails with 1/4, 1/3, 1/2 nonzero invert in 84 / 94 / 160 ms dense
# against 45 / 60 / 130 ms by the recurrence; (q;q) (51 nonzero terms) in 40
# against 7 ms.  A loop written for k = -1 alone was 1-17% faster on (q;q)
# at orders 1024-8192 (0.8 ms at 1024), too little for a second recurrence.
# q/Delta = (q;q)^-24 takes 12 ms, against 95 ms for the dense inverse of
# (q;q)^24.
# Positive powers keep binary powering: the recurrence took 10 against 2.4
# ms for theta2_fourth's fourth power at 1024 (a constant term of 2 inflates
# the normalised coefficients) and 37 against 13 ms for (q^2;q^2)^3 at 4096.
KRONECKER_MIN = 20
_SPARSE_SPAN = 4
_LEAF = 16  # fields packed or unpacked one at a time below this


def _clear(coeffs) -> tuple:
    """(numerators, den) with coeffs[i] == numerators[i] / den."""
    if set(map(type, coeffs)) <= {int}:
        return coeffs, 1
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _valuation(c) -> int:
    """Index of the first nonzero entry of c, or len(c) if there is none."""
    return next(compress(count(), c), len(c))


def _school_mul(a, b, n: int) -> list[int]:
    """Coefficients 0..n of a*b by the zero-skipping schoolbook loop."""
    a, b = a[: n + 1], b[: n + 1]
    if len(a) - a.count(0) > len(b) - b.count(0):  # sparser operand outside
        a, b = b, a
    if len(b) <= n:
        b = list(b) + [0] * (n + 1 - len(b))
    # skip leading zero runs; partial products in nested sums start high
    alo, blo = _valuation(a), _valuation(b)
    out = [0] * (n + 1)
    for i in range(alo, min(len(a), n + 1 - blo)):
        ai = a[i]
        if ai:
            for j in range(blo, n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
    return out


def _pack(c, lo: int, hi: int, w: int) -> int:
    """sum of c[lo + i] * 2**(w*i) for lo <= lo + i < hi."""
    if hi - lo <= _LEAF:
        x = 0
        for v in reversed(c[lo:hi]):
            x = (x << w) + v
        return x
    mid = (lo + hi) // 2
    return _pack(c, lo, mid, w) + (_pack(c, mid, hi, w) << (w * (mid - lo)))


def _split(x: int, bits: int) -> tuple[int, int]:
    """(low, high) with x == low + high * 2**bits and |low| < 2**(bits-1)."""
    low = x & ((1 << bits) - 1)
    x >>= bits
    if low >> (bits - 1):
        return low - (1 << bits), x + 1
    return low, x


def _unpack(x: int, fields: int, w: int, out: list) -> None:
    """Append the signed w-bit fields of x, lowest first."""
    if fields <= _LEAF:
        mask, sign = (1 << w) - 1, 1 << (w - 1)
        for _ in range(fields - 1):
            low = x & mask
            x >>= w
            if low & sign:
                low -= mask + 1
                x += 1
            out.append(low)
        out.append(x)
        return
    half = fields // 2
    low, high = _split(x, w * half)
    _unpack(low, half, w, out)
    _unpack(high, fields - half, w, out)


def _kron_mul(a: list, b: list, n: int) -> list[int]:
    """Coefficients 0..n of a*b by Kronecker substitution; a and b are
    lists and are consumed."""
    alo, blo = _valuation(a), _valuation(b)
    top = n - alo - blo  # highest index needed of the shifted product
    if top < 0 or alo == len(a) or blo == len(b):
        return [0] * (n + 1)
    del a[: alo], a[top + 1 :], b[: blo], b[top + 1 :]
    while not a[-1]:
        a.pop()
    while not b[-1]:
        b.pop()
    # every product coefficient is below 2**(w-1) in magnitude
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    w = bound.bit_length() + 1
    x = _pack(a, 0, len(a), w) * _pack(b, 0, len(b), w)
    out = [0] * (alo + blo)
    _unpack(_split(x, w * (top + 1))[0], top + 1, w, out)
    return out


def _int_mul(a, b, n: int) -> list[int]:
    """Coefficients 0..n of the product of the integer sequences a and b."""
    if n < KRONECKER_MIN:  # neither operand can reach the crossover
        return _school_mul(a, b, n)
    a, b = list(a[: n + 1]), list(b[: n + 1])
    if min(len(a) - a.count(0), len(b) - b.count(0)) < KRONECKER_MIN:
        return _school_mul(a, b, n)
    return _kron_mul(a, b, n)


def _miller(pairs, k: int, order: int) -> list[int]:
    """C_0..C_order of Ahat**k for Ahat = 1 + sum c x^j over (j, c) in pairs,
    by J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7):
    n C_n = sum_j ((k+1) j - n) c_j C_(n-j), over the nonzero c_j only.
    C is integral, so each division by n is exact."""
    terms = [(j, c, (k + 1) * j * c) for j, c in pairs]
    out, live = [1], 0
    for n in range(1, order + 1):
        while live < len(terms) and terms[live][0] <= n:  # terms[:live]: j <= n
            live += 1
        out.append(sum([(d - n * c) * out[n - j] for j, c, d in terms[:live]]) // n)
    return out


class Series:
    """Immutable truncated power series: numerators ``_num`` over ``_den > 0``
    with gcd(*_num, _den) == 1.  Safe to share across threads: two threads
    may both build ``coeffs`` on first read, but build equal tuples."""

    __slots__ = ("_num", "_den", "order", "_coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if not set(map(type, coeffs)) <= {int}:  # int lists skip the per-entry check
            coeffs = [_norm(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1 if coeffs else 0
        if order < 0:
            raise DomainError("order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [0] * (order + 1 - len(coeffs))
        else:
            coeffs = coeffs[: order + 1]
        self._fill(*_clear(coeffs), order)

    def _fill(self, num, den: int, order: int) -> None:
        object.__setattr__(self, "_num", tuple(num))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "order", order)

    @staticmethod
    def _of(num, den: int, order: int) -> "Series":
        """Kernel result: the order + 1 integers num over den != 0, put in
        lowest terms with a positive denominator; skips ``_norm``."""
        if den != 1:
            g = gcd(den, *num) if den > 0 else -gcd(den, *num)
            if g != 1:
                num, den = [c // g for c in num], den // g
        s = object.__new__(Series)
        s._fill(num, den, order)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def coeffs(self) -> tuple:
        """Coefficients of q**0..q**order as ints and Fractions, built once."""
        den = self._den
        if den == 1:
            return self._num
        try:
            return self._coeffs
        except AttributeError:
            c = tuple(Fraction(x, den) if x % den else x // den for x in self._num)
            object.__setattr__(self, "_coeffs", c)
            return c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Series":
        return Series([0], order)

    @staticmethod
    def one(order: int) -> "Series":
        return Series([1], order)

    @staticmethod
    def from_terms(terms, order: int) -> "Series":
        """Build from {exponent: coefficient}; exponents above order drop."""
        coeffs = [0] * (order + 1)
        for n, c in terms.items():
            if 0 <= n <= order:
                coeffs[n] = _norm(coeffs[n] + c)
        return Series(coeffs, order)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series([other], self.order)
        elif not isinstance(other, Series):
            return NotImplemented
        order = min(self.order, other.order)
        a, b, da, db = self._num, other._num, self._den, other._den
        if da == db:
            return Series._of([x + y for x, y in zip(a, b)], da, order)
        den = lcm(da, db)
        fa, fb = den // da, den // db
        return Series._of([x * fa + y * fb for x, y in zip(a, b)], den, order)

    __radd__ = __add__

    def __neg__(self):
        return Series._of([-c for c in self._num], self._den, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            order = min(self.order, other.order)
            num = _int_mul(self._num, other._num, order)
            return Series._of(num, self._den * other._den, order)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return Series._of([c * p for c in self._num], self._den * q, self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int):
            raise DomainError("series power must be an integer")
        if k < 0:
            return self._negative_power(k)
        result = Series.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def invert(self) -> "Series":
        """Multiplicative inverse up to truncation; needs a nonzero constant."""
        return self._negative_power(-1)

    def _negative_power(self, k: int) -> "Series":
        """self**k for k < 0.  self = N/den for integer N; with n0 = N_0,
        Ahat(x) = N(n0 x)/n0 = 1 + sum tail[j-1] x^j has integer coefficients
        N_j n0^(j-1) and constant term 1, so C = Ahat**k is integral, and
        [q^n] self**k = den^(-k) C_n n0^(k-n) = den^(-k) C_n n0^(order-n) /
        n0^(order-k)."""
        num, den, order = self._num, self._den, self.order
        n0 = num[0]
        if n0 == 0:
            raise ZeroConstantTerm("cannot invert a series with zero constant term")
        tail, p = [], 1
        for c in num[1:]:
            tail.append(c * p)
            p *= n0
        pairs = [(j, c) for j, c in enumerate(tail, 1) if c]
        if len(pairs) * _SPARSE_SPAN <= len(tail):
            c, j = _miller(pairs, k, order), k
        else:
            c, j = [1], -1
            for _ in range(order):
                c.append(-sum(map(mul, tail, reversed(c))))
        d = 1
        if den != 1 or n0 != 1:
            d, p = n0 ** (order - j), den ** -j
            for n in range(order, -1, -1):
                c[n] *= p
                p *= n0
        power = Series._of(c, d, order)
        return power if j == k else power ** -k

    # -- structural operations ----------------------------------------------

    def compose_monomial(self, m: int) -> "Series":
        """Substitute q -> q**m.  Output keeps this order; the tail of the
        input beyond order//m cannot contribute and is dropped."""
        if m < 1:
            raise DomainError("monomial exponent must be >= 1")
        out = [0] * (self.order + 1)
        out[::m] = self._num[: self.order // m + 1]
        return Series._of(out, self._den, self.order)

    def qderiv(self) -> "Series":
        """The operator q d/dq (multiplies the q**n coefficient by n)."""
        return Series._of([n * c for n, c in enumerate(self._num)], self._den, self.order)

    def deriv(self) -> "Series":
        """Plain d/dq; order drops by one."""
        if self.order == 0:
            return Series([0], 0)
        num = [n * c for n, c in enumerate(self._num)]
        return Series._of(num[1:], self._den, self.order - 1)

    def shift(self, m: int) -> "Series":
        """Multiply by q**m; top m entries fall off."""
        if m < 0:
            raise DomainError("shift must be >= 0")
        return Series._of(((0,) * m + self._num)[: self.order + 1], self._den, self.order)

    def substitute(self, inner: "Series") -> "Series":
        """Formal composition self(inner); inner must have no constant term."""
        if inner.coeffs[0] != 0:
            raise NonzeroConstantTerm("inner series must have zero constant term")
        # Horner from the top: only the first inner.order outer terms matter and
        # those past self.order are unknown, so the result has order top
        top = min(self.order, inner.order)
        result = Series([self.coeffs[top]], top)
        for n in range(top - 1, -1, -1):
            result = result * inner + self.coeffs[n]
        return result

    def truncate(self, order: int) -> "Series":
        if order < 0:
            raise DomainError("order must be >= 0")
        if order >= self.order:
            return self
        return Series._of(self._num[: order + 1], self._den, order)

    # -- queries -------------------------------------------------------------

    def __getitem__(self, n: int) -> Rational:
        """Coefficient of q**n; zero above the truncation order is a
        phantom, so reads past order raise instead of returning 0."""
        if not 0 <= n <= self.order:
            raise IndexError(f"exponent index {n} outside stored order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return _valuation(self._num) == len(self._num)

    def valuation(self) -> int | None:
        """Lowest exponent with a nonzero coefficient, or None for 0."""
        n = _valuation(self._num)
        return n if n < len(self._num) else None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series([other], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"cannot compare series of orders {self.order} and {other.order}")
        return self._den == other._den and self._num == other._num

    __hash__ = None

    def __repr__(self):
        return f"Series(order={self.order}, {self.format()!r})"

    def format(self, var: str = "q") -> str:
        """Human-readable sum, e.g. ``1 + 24q + 324q^2``."""
        parts = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "" if n == 0 else var if n == 1 else f"{var}^{n}"
            mag = abs(c)
            coef = "" if (mag == 1 and mono) else str(mag)
            sign = "-" if c < 0 else "+"
            parts.append((sign, f"{coef}{mono}"))
        if not parts:
            return "0"
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    # -- serialization (cache / golden-file format) ---------------------------

    def to_json(self) -> dict:
        # the first key, once an exponent denominator, stays so that existing
        # cache files and output digests remain valid
        # coefficients are ints or Fractions with denominator > 1, so str writes n/d
        return {"denom": 1, "order": self.order, "coeffs": list(map(str, self.coeffs))}
