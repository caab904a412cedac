"""The named q-series: MacMahon A_k / C_k (two independent constructions),
the odd-divisor series E, the discriminant-inverse series, q-Pochhammer
products, the fourth power of the half-integer theta function, and the
weight-2 Eisenstein normalization used by the genus-2 remark.

Every builder returns an immutable Series.  A builder is memoized only where a
caller asks for the same arguments twice; no result depends on a memo.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, isqrt

from .errors import DomainError
from .fps import Series, _unpack
from .numtheory import sigma1_table

# ---------------------------------------------------------------------------
# sigma-based series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def series_A1(order: int) -> Series:
    """A_1(q) = sum sigma_1(n) q^n."""
    table = sigma1_table(order)
    return Series([0] + [table[n] for n in range(1, order + 1)], order)


@lru_cache(maxsize=None)
def series_E(order: int) -> Series:
    """E(q) = sum sigma_1(2k+1) q^(2k+1), the odd-exponent divisor series."""
    table = sigma1_table(order)
    return Series(
        [table[n] if n % 2 == 1 else 0 for n in range(order + 1)], order
    )


def series_E2(order: int) -> Series:
    """Weight-2 Eisenstein series normalized as -1/24 + sum sigma_1(n) q^n,
    so that the genus-2 divisor series equals E2 + 1/24 verbatim."""
    return (series_A1(order) * 24 - 1) / 24


# ---------------------------------------------------------------------------
# MacMahon sums: direct nested-tuple construction
# ---------------------------------------------------------------------------


def _nested_sums(k: int, order: int, odd_steps: bool) -> tuple:
    """The levels S_0 = 1, S_1, ..., S_k, each to the full order: S_r sums,
    over strictly increasing r-tuples of indices m (every positive integer,
    or only the odd ones), the products of the factors
    q^m/(1-q^m)^2 = sum_{j>=1} j q^(jm), all built in one pass over m.

    At each m the factor times S_(r-1) is added into S_r for r = k down to
    1, so S_r gains exactly the tuples whose last index is m and no index
    repeats.  S_r has valuation r + step r(r-1)/2 (the indices 1, 1+step,
    ...), so the levels past the order are zero and left off the tuple, and
    a step is skipped when q^m S_(r-1) starts past the order.

    Each S_r is one big int of w-bit fields (Kronecker substitution, as in
    the fps kernel): q^m S_(r-1) is a shift, and a division by 1 - q^m is
    doubling steps t (1 + q^m)(1 + q^2m)(1 + q^4m)...  Every field is a
    nonnegative sub-sum of [q^n] A_1^r <= C(n-1, r-1) sigma_max^r (a sum over
    the compositions of n into r parts), so no field at or below the order
    overflows; fields above it only carry upward, and the mask drops them.
    """
    step = 2 if odd_steps else 1
    low = [r + step * r * (r - 1) // 2 for r in range(k + 1)]
    top = sum(1 for v in low[1:] if v <= order)  # the valuations increase with r
    sums = [1] + [0] * top
    if top:
        sigma_max = max(sigma1_table(order)[1 : order + 1])
        # one spare bit: fps._unpack reads signed fields
        w = max(comb(order - 1, r - 1) * sigma_max**r for r in range(1, top + 1)).bit_length() + 1
        mask = (1 << (w * (order + 1))) - 1
        for m in range(1, order + 1, step):
            # (1 + q^m)(1 + q^2m)... over the spans is sum_(j < 2^i) q^(jm), past q^(order - m)
            spans = [w * m << i for i in range((order // m - 1).bit_length())]
            for r in range(top, 0, -1):
                if m + low[r - 1] > order:
                    continue
                term = sums[r - 1] << (w * m)  # q^m S_(r-1)
                for _ in range(2):  # divide by 1 - q^m twice
                    for span in spans:
                        term += term << span
                    term &= mask
                sums[r] += term
    levels = [Series.one(order)]
    for total in sums[1:]:
        coeffs = []
        _unpack(total, order + 1, w, coeffs)
        levels.append(Series(coeffs, order))
    return tuple(levels)


def macmahon_A_direct(k: int, order: int) -> Series:
    """A_k(q) = sum over 0<m_1<...<m_k of
    q^(m_1+...+m_k) / prod (1-q^(m_i))^2, truncated at ``order``."""
    if k < 0 or order < 0:
        raise DomainError("k and order must be >= 0")
    levels = _nested_sums(k, order, odd_steps=False)
    return levels[k] if k < len(levels) else Series.zero(order)


def macmahon_C_direct(k: int, order: int) -> Series:
    """C_k(q) = sum over 0<m_1<...<m_k of
    q^(2m_1+...+2m_k-k) / prod (1-q^(2m_i-1))^2; equivalently the nested
    divisor sum over strictly increasing odd indices."""
    if k < 0 or order < 0:
        raise DomainError("k and order must be >= 0")
    levels = _nested_sums(k, order, odd_steps=True)
    return levels[k] if k < len(levels) else Series.zero(order)


# ---------------------------------------------------------------------------
# MacMahon sums: differential recursions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def macmahon_A_recursive(k: int, order: int) -> Series:
    """A_k via the quasi-modular recursion
    A_k = ((6 A_1 + k(k-1)) A_{k-1} - 2 q dA_{k-1}/dq) / ((2k+1) 2k),
    seeded by A_1 = sum sigma_1(n) q^n."""
    if k < 1:
        raise DomainError("recursion defined for k >= 1 (A_0 = 1 by convention)")
    if k == 1:
        return series_A1(order)
    prev = macmahon_A_recursive(k - 1, order)
    numerator = series_A1(order) * prev * 6 + prev * (k * (k - 1)) - prev.qderiv() * 2
    return numerator / ((2 * k + 1) * 2 * k)


@lru_cache(maxsize=None)
def macmahon_C_recursive(k: int, order: int) -> Series:
    """C_k via C_1 = A_1(q) - A_1(q^2) and
    C_k = ((2 C_1 + (k-1)^2) C_{k-1} - q dC_{k-1}/dq) / (2k (2k-1))."""
    if k < 1:
        raise DomainError("recursion defined for k >= 1 (C_0 = 1 by convention)")
    if k == 1:
        a1 = series_A1(order)
        return a1 - a1.compose_monomial(2)
    prev = macmahon_C_recursive(k - 1, order)
    numerator = macmahon_C_recursive(1, order) * prev * 2 + prev * (k - 1) ** 2 - prev.qderiv()
    return numerator / (2 * k * (2 * k - 1))


def macmahon_A(k: int, order: int) -> Series:
    """A_k with the empty-product convention A_0 = 1.  A_k has valuation
    1 + 2 + ... + k, so past the order it is zero without recursing."""
    if k == 0:
        return Series.one(order)
    if k * (k + 1) // 2 > order:
        return Series.zero(order)
    return macmahon_A_recursive(k, order)


def macmahon_C(k: int, order: int) -> Series:
    """C_k with the empty-product convention C_0 = 1.  C_k has valuation
    1 + 3 + ... + (2k-1) = k^2, so past the order it is zero."""
    if k == 0:
        return Series.one(order)
    if k * k > order:
        return Series.zero(order)
    return macmahon_C_recursive(k, order)


# ---------------------------------------------------------------------------
# Pochhammer products, discriminant, theta
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def pochhammer(sign: int, scale: int, order: int) -> Series:
    """The product prod_{k>=1} (1 - sign * q^(k*scale)).

    (q;q)oo is (sign=+1, scale=1); (-q;q)oo is (sign=-1, scale=1);
    (q^2;q^2)oo is (sign=+1, scale=2), and so on.

    (q;q)oo = sum_{k in Z} (-1)^k q^(k(3k-1)/2) by Euler's pentagonal number
    theorem, and (-q;q)oo = (q^2;q^2)oo / (q;q)oo.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    if scale < 1:
        raise DomainError("scale must be >= 1")
    if sign == -1:
        return pochhammer(1, 2 * scale, order) * pochhammer(1, scale, order).invert()
    terms, k = {0: 1}, 1
    while scale * k * (3 * k - 1) // 2 <= order:
        terms[scale * k * (3 * k - 1) // 2] = terms[scale * k * (3 * k + 1) // 2] = (-1) ** k
        k += 1
    return Series.from_terms(terms, order)


@lru_cache(maxsize=None)
def delta_inv_times_q(order: int) -> Series:
    """q/Delta(q) = prod (1-q^k)^(-24): the rational-curve count series for
    K3 surfaces, with prefix 1 + 24q + 324q^2 + 3200q^3.

    (q;q)oo has O(sqrt(order)) nonzero terms, so its -24th power by Miller's
    recurrence takes O(order^1.5) coefficient products, against O(order^2)
    for the dense inverse of (q;q)oo^24 (see the fps kernel comment)."""
    return pochhammer(1, 1, order) ** -24


def legendre_series(order: int) -> Series:
    """((q;q)oo (-q;q)oo^2)^4 = sum sigma_1(2k+1) q^k, built as psi(q)^4: by the
    Jacobi triple product (q;q)oo (-q;q)oo^2 = psi(q) = sum_{n>=0} q^(n(n+1)/2)."""
    return Series.from_terms({n * (n + 1) // 2: 1 for n in range(isqrt(2 * order) + 1)}, order) ** 4


def theta2_fourth(order: int) -> Series:
    """Fourth power of the half-integer theta sum_{k in Z} q^((k+1/2)^2).

    The sum is two-sided: k and -k-1 contribute the same exponent
    (k+1/2)^2 = k^2+k+1/4, so theta = 2 q^(1/4) sum_{k>=0} q^(k^2+k) and its
    fourth power is 16 q (sum_{k>=0} q^(k^2+k))^4, in whole powers of q.
    (The one-sided sum fails the required sixteenth-of-E identity by a
    factor 16 already at q^1.)
    """
    return (Series.from_terms({k * k + k: 2 for k in range(isqrt(order) + 1)}, order) ** 4).shift(1)


# ---------------------------------------------------------------------------
# named-form envelope (CLI / cache surface)
# ---------------------------------------------------------------------------

# the builder of each form that takes no index, in cache-roster order; each entry
# calls the module global, so a builder rebound on the module (a tracer) is called
UNINDEXED_FORMS = {
    "E": lambda order: series_E(order),
    "delta_inv": lambda order: delta_inv_times_q(order),
    "legendre": lambda order: legendre_series(order),
    "theta2_4": lambda order: theta2_fourth(order),
    "E2": lambda order: series_E2(order),
}
FORM_NAMES = ("A", "C", *UNINDEXED_FORMS)


class NamedForm(namedtuple("NamedForm", "name params series")):
    __slots__ = ()

    def to_json(self) -> dict:
        data = {"name": self.name, "params": list(self.params)}
        data.update(self.series.to_json())
        return data

    def key(self) -> str:
        params = "_".join(str(p) for p in self.params)
        params = f"_{params}" if params else ""
        return f"{self.name}{params}_o{self.series.order}"


def named_form(name: str, k: int | None = None, order: int = 32) -> NamedForm:
    """Build one of the exported named series by name."""
    if name in ("A", "C"):
        if k is None or k < 0:
            raise DomainError(f"form {name} requires k >= 0")
        build = macmahon_A if name == "A" else macmahon_C
        return NamedForm(name, (k,), build(k, order))
    if name not in UNINDEXED_FORMS:
        raise DomainError(f"unknown form name {name!r}; expected one of {FORM_NAMES}")
    if k is not None:
        raise DomainError(f"form {name} takes no index")
    return NamedForm(name, (), UNINDEXED_FORMS[name](order))
