from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from hypcount.errors import DomainError
from hypcount.fps import Series
from hypcount import qforms
from hypcount.numtheory import sigma1, sigma1_table


# -- brute-force oracles, independent of the package internals ---------------


def geom_sq(m, order):
    # q^m / (1-q^m)^2 = sum_j j q^(jm)
    c = [0] * (order + 1)
    for j in range(1, order // m + 1):
        c[j * m] = j
    return c


def listmul(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai:
            for j in range(0, order + 1 - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def macmahon_brute(k, order, odd):
    indices = [m for m in range(1, order + 1) if not odd or m % 2 == 1]
    total = [0] * (order + 1)
    for tup in combinations(indices, k):
        if sum(tup) > order:
            continue
        prod = [1] + [0] * order
        for m in tup:
            prod = listmul(prod, geom_sq(m, order), order)
        total = [x + y for x, y in zip(total, prod)]
    return Series(total, order)


def delta_inv_brute(order):
    # prod (1-q^k)^(-24) by colored-partition DP
    dp = [0] * (order + 1)
    dp[0] = 1
    for part in range(1, order + 1):
        new = [0] * (order + 1)
        for j in range(0, order // part + 1):
            c = comb(j + 23, 23)
            for n in range(0, order + 1 - j * part):
                new[n + j * part] += c * dp[n]
        dp = new
    return Series(dp, order)


# -- A_k ----------------------------------------------------------------------


def test_A1_is_divisor_series():
    table = sigma1_table(128)
    want = Series([0] + table[1:129], 128)
    assert qforms.macmahon_A_direct(1, 128) == want
    assert qforms.macmahon_A_recursive(1, 128) == want


def test_A2_prefix_hand_expansion():
    # tuples (1,2),(1,3),(1,4),(2,3) are the only ones reaching order 5
    assert qforms.macmahon_A_direct(2, 5) == Series([0, 0, 0, 1, 3, 9], 5)


def test_A0_is_one():
    assert qforms.macmahon_A_direct(0, 8) == Series.one(8)
    assert qforms.macmahon_A(0, 8) == Series.one(8)


def test_A_recursive_rejects_zero():
    with pytest.raises(DomainError):
        qforms.macmahon_A_recursive(0, 8)


def test_A_direct_matches_bruteforce():
    for k in (1, 2, 3):
        assert qforms.macmahon_A_direct(k, 18) == macmahon_brute(k, 18, odd=False)


def test_A_cross_construction_order64():
    for k in range(1, 6):
        assert qforms.macmahon_A_direct(k, 64) == qforms.macmahon_A_recursive(k, 64)


def test_A_lowest_term_is_triangular():
    for k in range(1, 6):
        s = qforms.macmahon_A_recursive(k, 40)
        assert s.valuation() == k * (k + 1) // 2


def test_A_past_valuation_is_zero_without_recursing():
    # A_k vanishes below q^(k(k+1)/2); check the short cut against the
    # recursion where both run, on both sides of the cut
    for k in range(1, 11):
        for order in (4, k * (k + 1) // 2 - 1, k * (k + 1) // 2):
            want = qforms.macmahon_A_recursive(k, order)
            assert qforms.macmahon_A(k, order) == qforms.macmahon_A_direct(k, order) == want
    assert qforms.macmahon_A(1000, 4) == qforms.macmahon_A_direct(1000, 4) == Series.zero(4)


# -- C_k ----------------------------------------------------------------------


def test_C1_values():
    want = Series([0, 1, 2, 4, 4, 6, 8], 6)
    assert qforms.macmahon_C_direct(1, 6) == want
    assert qforms.macmahon_C_recursive(1, 6) == want


def test_C1_is_A1_difference():
    a1 = qforms.series_A1(128)
    assert qforms.macmahon_C_recursive(1, 128) == a1 - a1.compose_monomial(2)


def test_C2_prefix():
    assert qforms.macmahon_C_direct(2, 6) == Series([0, 0, 0, 0, 1, 2, 4], 6)


def test_C0_is_one():
    assert qforms.macmahon_C_direct(0, 8) == Series.one(8)


def test_C_direct_matches_bruteforce():
    for k in (1, 2, 3):
        assert qforms.macmahon_C_direct(k, 18) == macmahon_brute(k, 18, odd=True)


def test_C_cross_construction_order64():
    for k in range(1, 6):
        assert qforms.macmahon_C_direct(k, 64) == qforms.macmahon_C_recursive(k, 64)


def test_C_lowest_term_is_square():
    for k in range(1, 6):
        s = qforms.macmahon_C_recursive(k, 40)
        assert s.valuation() == k * k


def test_C_past_valuation_is_zero_without_recursing():
    for k in range(1, 11):
        for order in (4, k * k - 1, k * k):
            want = qforms.macmahon_C_recursive(k, order)
            assert qforms.macmahon_C(k, order) == qforms.macmahon_C_direct(k, order) == want
    assert qforms.macmahon_C(1000, 4) == qforms.macmahon_C_direct(1000, 4) == Series.zero(4)


# -- nested sums: packed big ints against the coefficient loop ---------------


def nested_sums_by_coefficients(k, order, odd_steps):
    # the same pass over m as qforms._nested_sums, one coefficient at a time,
    # every level to the full order
    step = 2 if odd_steps else 1
    sums = [[1] + [0] * order] + [[0] * (order + 1) for _ in range(k)]
    for m in range(1, order + 1, step):
        for r in range(k, 0, -1):
            term = [0] * m + sums[r - 1][: order + 1 - m]  # q^m S_(r-1)
            for _ in range(2):  # divide by 1 - q^m twice
                for e in range(m, order + 1):
                    term[e] += term[e - m]
            dst = sums[r]
            for e in range(m, order + 1):
                dst[e] += term[e]
    return [Series(s, order) for s in sums]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(0, 400), st.booleans())
@example(4, 10, False)  # order = valuation 4 + 6 of A_4's nested sum
@example(4, 9, False)  # one short of it
@example(4, 16, True)  # order = valuation 4 + 12 of C_4's
@example(4, 15, True)
@example(7, 28, False)
@example(7, 27, False)
@example(7, 49, True)
@example(7, 48, True)
@example(5, 1024, False)
@example(5, 1024, True)
def test_packed_nested_sum_matches_coefficient_loop(k, order, odd_steps):
    # every level the pass returns is the oracle's; the levels it leaves off
    # are the zero ones past the order
    got = qforms._nested_sums(k, order, odd_steps)
    want = nested_sums_by_coefficients(k, order, odd_steps)
    assert list(got) == want[: len(got)]
    assert all(s.is_zero() for s in want[len(got) :])
    assert all(set(map(type, s.coeffs)) <= {int} for s in got)


# -- E, E2, delta, pochhammer, theta ------------------------------------------


def test_E_prefix():
    assert qforms.series_E(9) == Series([0, 1, 0, 4, 0, 6, 0, 8, 0, 13], 9)


def test_E_squared_table_row():
    e2 = qforms.series_E(12) ** 2
    values = {2: 1, 4: 8, 6: 28, 8: 64, 10: 126, 12: 224}
    for n, c in values.items():
        assert e2[n] == c


def test_E_times_C1_u2_table_row():
    e = qforms.series_E(12)
    c1u2 = qforms.macmahon_C(1, 12).compose_monomial(2)
    prod = e * c1u2
    assert prod[7] == 18 and prod[3] == 1 and prod[11] == 75


def test_A1u4_times_C1u2_at_u10():
    prod = qforms.macmahon_A(1, 12).compose_monomial(4) * qforms.macmahon_C(
        1, 12
    ).compose_monomial(2)
    assert prod[10] == 7


def test_delta_inv_prefix_and_oracle():
    d = qforms.delta_inv_times_q(8)
    assert [d[n] for n in range(4)] == [1, 24, 324, 3200]
    assert d == delta_inv_brute(8)
    assert d[4] == 25650


def test_delta_inv_brute_order_64():
    assert qforms.delta_inv_times_q(64) == delta_inv_brute(64)


def test_delta_inv_matches_dense_inverse_of_eta24():
    # the dense route, (q;q)^24 inverted term by term, is the oracle
    order = 400
    assert qforms.delta_inv_times_q(order) == (qforms.pochhammer(1, 1, order) ** 24).invert()


def test_delta_inverse_pair():
    order = 24
    eta24 = qforms.pochhammer(1, 1, order) ** 24
    assert eta24 * qforms.delta_inv_times_q(order) == Series.one(order)


def finite_product(sign, scale, order):
    """prod_{k>=1} (1 - sign q^(k*scale)) to order, one factor at a time."""
    c = [1] + [0] * order
    for s in range(scale, order + 1, scale):
        for n in range(order, s - 1, -1):
            c[n] -= sign * c[n - s]
    return c


# each order is a generalized pentagonal number k(3k-1)/2, so (q;q)oo has a
# nonzero coefficient at the truncation order
@pytest.mark.parametrize(
    "sign, scale, order", list(product((1, -1), (1, 2, 3), (0, 1, 2, 5, 7, 12, 26, 70)))
)
def test_pochhammer_pentagonal(sign, scale, order):
    got = qforms.pochhammer(sign, scale, order)
    assert list(got.coeffs) == finite_product(sign, scale, order)
    assert all(type(c) is int for c in got.coeffs)


def test_legendre_fourth_power():
    order = 64
    got = qforms.legendre_series(order)
    assert [got[k] for k in range(5)] == [1, 4, 6, 8, 13]
    want = Series([sigma1(2 * k + 1) for k in range(order + 1)], order)
    assert got == want


def legendre_by_products(order):
    # the Pochhammer route, ((q;q)(-q;q)^2)^4, as an oracle for psi(q)^4
    minus = qforms.pochhammer(-1, 1, order)
    return (qforms.pochhammer(1, 1, order) * minus * minus) ** 4


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 300))
@example(0)
@example(1)
@example(2)
@example(1024)
def test_legendre_matches_pochhammer_route(order):
    assert qforms.legendre_series(order) == legendre_by_products(order)


@pytest.mark.parametrize("build", [qforms.macmahon_A, qforms.macmahon_C], ids=["A", "C"])
def test_recursions_return_int_coefficients(build):
    # every division in the recursion step is exact, so no Fraction survives
    for k in range(7):
        assert set(map(type, build(k, 256).coeffs)) == {int}


def test_theta2_fourth_leading():
    assert qforms.theta2_fourth(4)[1] == 16  # 2^4 sign choices at exponent 1


def test_one_sided_theta_fails_by_factor_16():
    # the half sum k >= 0 is q^(1/4) sum q^(k^2+k); its fourth power, a whole
    # power series, misses the (1/16) identity at q^1 by a factor 16
    order = 4
    half = Series.from_terms({k * k + k: 1 for k in range(order + 1)}, order)
    one_sided = (half ** 4).shift(1)
    assert one_sided[1] * 16 == qforms.theta2_fourth(order)[1]


def test_E2_normalization():
    e2 = qforms.series_E2(16)
    assert e2[0] == Fraction(-1, 24)
    assert qforms.series_A1(16) == e2 + Fraction(1, 24)


# -- named forms ---------------------------------------------------------------


def test_named_form_roundtrip():
    form = qforms.named_form("A", k=1, order=6)
    data = form.to_json()
    assert data["name"] == "A" and data["params"] == [1]
    assert data["coeffs"][1] == "1" and data["coeffs"][2] == "3"


def test_named_form_unknown_rejected():
    with pytest.raises(DomainError):
        qforms.named_form("B", order=4)
