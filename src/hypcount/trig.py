"""Chebyshev polynomials, the per-point theta blocks h and g, their
series expansions (Chebyshev form and raw truncated lattice-sum form),
the Andrews-Rose product expansions, and the sine substitution calculus.

Two formal variables are in play: the per-point marking variable x, tied to
the angle variable z by x = 2 sin(z/2), and the counting variable q.  Every
block is built in q (the counting series read it as q = u^2): its term
2 T_m(x/2) sits at q^(m*m // 4), odd m for h and even m >= 2 for g.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt

from .errors import BoundTooSmall, DomainError
from .fps import Series
from .numtheory import odd_split_count
from . import qforms

# ---------------------------------------------------------------------------
# Chebyshev polynomials (first kind), exact integer coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chebyshev(n: int) -> tuple:
    """T_n by T_n = 2x T_(n-1) - T_(n-2); entry i is the x^i coefficient."""
    if n < 0:
        raise DomainError("Chebyshev index must be >= 0")
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 1)
    coeffs = [0] * (n + 1)
    for i, c in enumerate(chebyshev(n - 1)):
        coeffs[i + 1] += 2 * c
    for i, c in enumerate(chebyshev(n - 2)):
        coeffs[i] -= c
    return tuple(coeffs)


@lru_cache(maxsize=None)
def cheb_half_doubled(n: int) -> tuple:
    """Integer coefficients of 2 T_n(x/2) (these are always integral)."""
    out = []
    for i, c in enumerate(chebyshev(n)):
        num = 2 * c
        if num % (1 << i):
            raise DomainError("2 T_n(x/2) failed integrality")
        out.append(num >> i)
    return tuple(out)


def cheb_even_identity_exact(n: int) -> bool:
    """T_n(1 - 2x^2) == (-1)^n T_(2n)(x) as an exact polynomial identity."""
    inner = Series([1, 0, -2], 2 * n)  # 1 - 2x^2
    power, composed = Series.one(2 * n), Series.zero(2 * n)
    for c in chebyshev(n):
        composed, power = composed + power * c, power * inner
    return composed == Series(chebyshev(2 * n), 2 * n) * (-1) ** n


# ---------------------------------------------------------------------------
# theta blocks, Chebyshev form
# ---------------------------------------------------------------------------


def _block_degrees(kind: str, order: int) -> range:
    """Chebyshev degrees m of the block's terms 2 T_m(x/2) q^(m*m // 4) up to
    order: odd m for h, even m >= 2 for g.  m*m // 4 <= order exactly when
    m*m <= 4 order + 3."""
    if kind not in ("h", "g"):
        raise DomainError("block kind must be 'h' or 'g'")
    return range(1 if kind == "h" else 2, isqrt(4 * order + 3) + 1, 2)


@lru_cache(maxsize=None)
def theta_block_q(kind: str, order: int, xdeg: int | None = None) -> tuple:
    """The per-point block as a tuple of q-series indexed by x-degree:
    entry i is the coefficient of x^i, every entry has the given order, and
    degrees above xdeg (default: the largest with a nonzero entry) are cut off.

    h = 2 sum_n T_(2n+1)(x/2) q^(n^2+n)   (odd x-degrees only)
    g = 1 + 2 sum_(n>=1) T_(2n)(x/2) q^(n^2)   (even x-degrees only)
    """
    degrees = _block_degrees(kind, order)
    if xdeg is None:
        xdeg = max(degrees, default=0)
    cols = [dict() for _ in range(xdeg + 1)]
    for m in degrees:  # m*m // 4 grows with m, so each (i, exponent) is written once
        for i, c in enumerate(cheb_half_doubled(m)[: xdeg + 1]):
            if c:
                cols[i][m * m // 4] = c
    if kind == "g":
        cols[0][0] = 1  # bare constant term; the sum starts at m = 2, at q^1
    return tuple(Series.from_terms(col, order) for col in cols)


# ---------------------------------------------------------------------------
# Andrews-Rose expansions (q-convention)
# ---------------------------------------------------------------------------


def andrews_rose_H(order: int, xdeg: int) -> tuple:
    """H(x,q) = (q^2;q^2)oo^3 * sum_k A_k(q^2) x^(2k+1); the prefactor is Jacobi's
    (q;q)oo^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2) at q^2."""
    terms = {n * n + n: (-1) ** n * (2 * n + 1) for n in range(isqrt(order) + 1)}
    prefac = Series.from_terms(terms, order)
    cols = [Series.zero(order) for _ in range(xdeg + 1)]
    for k in range(0, (xdeg - 1) // 2 + 1):
        cols[2 * k + 1] = prefac * qforms.macmahon_A(k, order // 2).compose_monomial(2, order)
    return tuple(cols)


def andrews_rose_G(order: int, xdeg: int) -> tuple:
    """G(x,q) = ((q;q)oo / (-q;q)oo) * sum_k C_k(q) x^(2k); the prefactor is Gauss's
    phi(-q) = (q;q)oo^2 / (q^2;q^2)oo = 1 + 2 sum_{n>=1} (-1)^n q^(n^2)."""
    terms = {n * n: (-1) ** n * (2 if n else 1) for n in range(isqrt(order) + 1)}
    prefac = Series.from_terms(terms, order)
    cols = [Series.zero(order) for _ in range(xdeg + 1)]
    for k in range(0, xdeg // 2 + 1):
        cols[2 * k] = prefac * qforms.macmahon_C(k, order)
    return tuple(cols)


# ---------------------------------------------------------------------------
# exact trig series and the x <-> z change of variable
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def two_sin_half(order: int) -> Series:
    """2 sin(z/2) = sum_l (-1/4)^l z^(2l+1) / (2l+1)!."""
    return scaled_sin(Fraction(1, 2), order) * 2


def scaled_sin(m: Fraction, order: int) -> Series:
    """sin(m z) for rational m, as an exact z-series."""
    terms = {}
    for j in range(0, (order - 1) // 2 + 1):
        terms[2 * j + 1] = Fraction((-1) ** j) * m ** (2 * j + 1) / factorial(2 * j + 1)
    return Series.from_terms(terms, order)


def scaled_cos(m: Fraction, order: int) -> Series:
    """cos(m z) for rational m."""
    terms = {0: 1}
    for j in range(1, order // 2 + 1):
        terms[2 * j] = Fraction((-1) ** j) * m ** (2 * j) / factorial(2 * j)
    return Series.from_terms(terms, order)


def z_of_x(order: int) -> Series:
    """Inverse of x = 2 sin(z/2): z = 2 arcsin(x/2) as an x-series."""
    terms = {}
    for n in range(0, (order - 1) // 2 + 1):
        terms[2 * n + 1] = Fraction(comb(2 * n, n), 16 ** n * (2 * n + 1))
    return Series.from_terms(terms, order)


# ---------------------------------------------------------------------------
# theta blocks, raw truncated lattice-sum form
# ---------------------------------------------------------------------------


def theta_block_from_lattice_sum(kind: str, bound: int, order: int) -> tuple:
    """Rebuild a block from the truncated two-sided exponential sums.

    g-points carry sum_{|k|<=bound} (-1)^k q^(k^2) e^(ikz); conjugate terms
    pair into 2 cos(kz).  h-points carry e^(iz/2) sum (-1)^k q^(k^2+k) e^(ikz);
    the k and -k-1 terms pair into 2 sin((2k+1)z/2) factors (the unpaired
    k = bound term sits above q^order once bound^2 > order).  With m = 2k
    or 2k + 1, each pair is (-1)^(m//2) 2 cos(mz/2) or 2 sin(mz/2) at
    q^(m*m // 4).  Each exact z-series is then rewritten in x through
    z = 2 arcsin(x/2), as a linear combination of the powers of that
    x-series, built once per block.

    This route never touches Chebyshev polynomials, so comparing it with
    theta_block_q checks the closed Chebyshev forms end to end.
    """
    if bound < 1 or bound * bound <= order:
        raise BoundTooSmall(f"need bound^2 > order (bound={bound}, order={order})")
    if kind not in ("h", "g"):
        raise DomainError("block kind must be 'h' or 'g'")
    wave = scaled_sin if kind == "h" else scaled_cos
    degrees = [m for m in range(1 if kind == "h" else 2, 2 * bound + 1, 2) if m * m // 4 <= order]
    xdeg = max(degrees, default=0)
    zx = z_of_x(xdeg)
    powers = [Series.one(xdeg)]  # z^j as x-series, j = 0..xdeg, shared by every term
    for _ in range(xdeg):
        powers.append(powers[-1] * zx)
    cols = [dict() for _ in range(xdeg + 1)]
    if kind == "g":
        cols[0][0] = 1
    for m in degrees:
        zser = wave(Fraction(m, 2), xdeg)
        xser = sum((p * c for p, c in zip(powers, zser.coeffs) if c), Series.zero(xdeg))
        for i, c in enumerate(xser.coeffs):
            if c:
                cols[i][m * m // 4] = 2 * (-1) ** (m // 2) * c
    return tuple(Series.from_terms(col, order) for col in cols)


# ---------------------------------------------------------------------------
# sine substitution (marked-point collapse calculus)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _transfer(k_out: int, k_in: int) -> Fraction | int:
    """Exponential-coefficient transfer: k_out!/k_in! times the z^k_out
    coefficient of (2 sin(z/2))^k_in."""
    if k_out < k_in or (k_out - k_in) % 2:
        return 0
    power = two_sin_half(k_out) ** k_in if k_in else Series.one(k_out)
    c = power[k_out]
    return c * Fraction(factorial(k_out), factorial(k_in)) if c else 0


@lru_cache(maxsize=None)
def _split_transfer(k_out: int, k_in: int) -> Fraction:
    """The closed sum's per-point weight (-1/4)^l s(k_out, k_in), k_out = k_in + 2l."""
    return odd_split_count(k_out, k_in) * Fraction(-1, 4) ** ((k_out - k_in) // 2)


def _push(coeffs: dict, order: int, transfer) -> dict:
    """The walker both routes share: each nonzero base within the order spreads
    over even per-point shifts, weighted by transfer(k_out, k_in) per point."""
    out: dict = {}
    for base, gw in coeffs.items():
        if gw == 0 or sum(base) > order:
            continue
        support = [v for v, kv in enumerate(base) if kv > 0]

        def extend(idx: int, shifted: tuple, weight, budget: int):
            if idx == len(support):
                out[shifted] = out.get(shifted, 0) + weight
                return
            v = support[idx]
            for l in range(0, budget // 2 + 1):
                t = transfer(base[v] + 2 * l, base[v])
                if t:
                    nxt = shifted[:v] + (base[v] + 2 * l,) + shifted[v + 1:]
                    extend(idx + 1, nxt, weight * t, budget - 2 * l)

        extend(0, base, gw, order - sum(base))
    return {k: w for k, w in out.items() if w}  # drop the entries that cancelled


def sine_substitute(coeffs: dict, order: int) -> dict:
    """Push exponential coefficients through x_v = 2 sin(z_v/2).

    ``coeffs`` maps marking tuples (one nonnegative entry per point) to
    rational coefficients of prod x_v^k(v) / k(v)!; the result maps tuples
    k' to the coefficients of prod z_v^k'(v) / k'(v)! after substitution,
    keeping |k'| <= order.  The substitution expands each variable
    independently, so the transfer factorizes over points.
    """
    return _push(coeffs, order, _transfer)


def sine_substitute_combinatorial(coeffs: dict, order: int) -> dict:
    """The same pushforward via the closed sum: the coefficient at k' is
    sum over shifts l of coeffs[k'-2l] * (-1/4)^|l| * prod s(k'(v), (k'-2l)(v)),
    with s the odd-block split count."""
    return _push(coeffs, order, _split_transfer)


# ---------------------------------------------------------------------------
# the h-function differential identities
# ---------------------------------------------------------------------------


def ode_residuals(h: Series):
    """Residuals (h'' + h/4, h' h'' + h h'/4) for a candidate h-series."""
    d1 = h.deriv()
    d2 = d1.deriv()
    r1 = d2 + h.truncate(d2.order) * Fraction(1, 4)
    r2 = d1.truncate(d2.order) * d2 + h.truncate(d2.order) * d1.truncate(d2.order) * Fraction(1, 4)
    return r1, r2


def ode_holds(h: Series, order: int) -> bool:
    """h'' + h/4 = 0 and h' h'' + h h'/4 = 0 to the given order, in scaled
    divided powers (Wilf, generatingfunctionology, Ch. 2); h needs order + 2.

    With H_n = 2^n n! [z^n] h, h = sum H_n (z/2)^n / n!: a derivative shifts
    H and halves, and a product of two such series is the binomial
    convolution of their sequences.  So the residuals at z^n scale to
    H_(n+2) + H_n and sum_k C(n,k) (H_(k+1) H_(n-k+2) + H_k H_(n-k+1)), with
    small integer entries where the Series route multiplies coefficients
    over a denominator near (order)!.  Every H_n of 2 sin(z/2) is 0 or +-2,
    and any other value fails.  The convolution pairs k with n - k, which
    share a running binomial, and skips each n whose terms are all zero."""
    H, scale = [], 1
    for n, c in enumerate(h.coeffs[: order + 3]):
        H.append(c * scale)
        scale *= 2 * (n + 1)
    if not all(c in (0, 2, -2) for c in H):
        return False
    H = list(map(int, H))  # from Fractions of denominator 1
    for n in range(order + 1):
        if H[n + 2] + H[n]:
            return False
        terms = [H[k + 1] * H[n - k + 2] + H[k] * H[n - k + 1] for k in range(n + 1)]
        if any(terms):
            total, binom = 0, 1
            for k in range(n // 2 + 1):
                total += binom * (terms[k] + terms[n - k] if 2 * k < n else terms[k])
                binom = binom * (n - k) // (k + 1)
            if total:
                return False
    return True


def h_ode_check(order: int) -> bool:
    """True iff h = 2 sin(z/2) satisfies h'' + h/4 = 0 and
    h' h'' + h h'/4 = 0 as formal series to the given order."""
    return ode_holds(two_sin_half(order + 2), order)
