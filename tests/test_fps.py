import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hypcount.errors import DomainError, NonzeroConstantTerm, ZeroConstantTerm
from hypcount.fps import KRONECKER_MIN, Series, _int_mul, _kron_mul, _school_mul
from hypcount.qforms import pochhammer


def S(*coeffs, order=None):
    return Series(list(coeffs), order)


def random_series(rng, order, invertible=False):
    coeffs = [rng.randint(-4, 4) for _ in range(order + 1)]
    if rng.random() < 0.4:
        coeffs[rng.randrange(order + 1)] = Fraction(rng.randint(-5, 5), rng.choice((2, 3)))
    if invertible:
        coeffs[0] = rng.choice((1, -1, 2))
    return Series(coeffs, order)


# -- add ---------------------------------------------------------------------


def test_equality_needs_equal_orders():
    assert S(1, 5, 7, order=2) == S(1, 5, 7, order=2)
    assert S(1, 5, 7, order=2) != S(1, 5, 8, order=2)
    assert S(3, order=4) == 3 and 3 == S(3, order=4)
    assert S(3, 1, order=4) != 3
    assert S(1, 0, 2, order=2) == Series([1, 0, 2, 0, 4], 2)  # tail past order drops
    with pytest.raises(ValueError, match="orders 0 and 2"):
        Series([1], 0) == S(1, 5, 7, order=2)
    with pytest.raises(ValueError, match="orders 2 and 3"):
        S(1, order=2) != S(1, order=3)


def test_add_cancellation():
    assert S(1, 1, order=4) + S(1, -1, order=4) == S(2, order=4)


def test_add_identity():
    s = S(0, 1, 3, order=5)
    assert Series.zero(5) + s == s


def test_add_direct():
    assert S(0, 1, 3, order=3) + S(0, 0, 2, order=3) == S(0, 1, 5, order=3)


@pytest.mark.parametrize(
    "op",
    [lambda s: s * 1.5, lambda s: 1.5 * s, lambda s: s + "x"],
    ids=["series*float", "float*series", "series+str"],
)
def test_foreign_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op(Series.one(3))


def test_add_truncates_to_min_order():
    out = S(1, 1, 1, 1, order=3) + S(1, 1, order=1)
    assert out.order == 1
    assert out.coeffs == (2, 2)


# -- mul ---------------------------------------------------------------------


def test_mul_difference_of_squares():
    assert S(1, 1, order=4) * S(1, -1, order=4) == S(1, 0, -1, order=4)


def test_mul_exactness_with_fractions():
    a = S(Fraction(1, 3), Fraction(1, 7), order=2)
    b = S(3, 0, 21, order=2)
    assert (a * b).coeffs == (1, Fraction(3, 7), 7)


def test_mul_bigint_no_overflow():
    big = 10 ** 40
    a = S(big, big, order=2)
    assert (a * a).coeffs == (big * big, 2 * big * big, big * big)


# -- invert ------------------------------------------------------------------


def test_invert_geometric():
    assert S(1, -1, order=6).invert() == Series([1] * 7, 6)


def test_invert_identity():
    assert Series.one(5).invert() == Series.one(5)


def test_invert_zero_constant_raises():
    with pytest.raises(ZeroConstantTerm):
        S(0, 1, order=3).invert()


def test_invert_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        a = random_series(rng, 64, invertible=True)
        assert a * a.invert() == Series.one(64)


# -- integer kernel: Kronecker multiply, integer-numerator inverse -------------

derandomized = settings(derandomize=True, max_examples=150, deadline=None)


def random_ints(rng, length, mag):
    """Signed entries with zero runs; the leading entry may be negative."""
    out = []
    while len(out) < length:
        if rng.random() < 0.2:
            out += [0] * rng.randint(1, 8)
        else:
            out.append(rng.randint(-mag, mag))
    return out[:length]


def both_products(a, b, n):
    """_int_mul and the Kronecker path forced at every size."""
    return _int_mul(a, b, n), _kron_mul(list(a), list(b), n)


def test_int_mul_matches_schoolbook_fixed_seed():
    rng = random.Random(41)
    for _ in range(300):
        la, lb = rng.randint(1, 3 * KRONECKER_MIN), rng.randint(1, 3 * KRONECKER_MIN)
        a = random_ints(rng, la, rng.choice((1, 9, 10 ** 40)))
        b = random_ints(rng, lb, rng.choice((1, 9, 10 ** 40)))
        # truncation below, equal to and above the operand lengths
        for n in (min(la, lb) // 2, la - 1, lb - 1, la + lb - 2, la + lb + 5):
            want = _school_mul(a, b, n)
            assert both_products(a, b, n) == (want, want)


def test_int_mul_edge_shapes():
    big = 10 ** 40
    cases = [
        ([0] * 30, [1] * 30),                   # zero operand
        ([-big] + [0] * 40 + [big], [big] * 45),  # negative lead, long zero run
        ([0] * 25 + [-1] * 30, [0] * 20 + [3] * 30),  # valuations past the order
        ([-1] * 60, [-1] * 2),                  # unequal lengths
    ]
    for a, b in cases:
        for n in (0, 10, 40, 60, 120):
            want = _school_mul(a, b, n)
            assert both_products(a, b, n) == (want, want)


coefficient = st.integers(-(10 ** 40), 10 ** 40) | st.integers(-3, 3)


@derandomized
@given(st.lists(coefficient, max_size=70), st.lists(coefficient, max_size=70),
       st.integers(0, 150))
def test_int_mul_matches_schoolbook_hypothesis(a, b, n):
    want = _school_mul(a, b, n)
    assert both_products(a, b, n) == (want, want)


sparse_ints = st.builds(
    lambda terms, n: [terms.get(k, 0) for k in range(n)],
    st.dictionaries(st.integers(0, 69), coefficient, max_size=5),
    st.integers(0, 70),
)


@derandomized
@given(sparse_ints, st.lists(coefficient, max_size=70), st.integers(0, 150))
def test_school_mul_is_symmetric_on_sparse_dense(a, b, n):
    want = _kron_mul(list(a), list(b), n)
    assert _school_mul(a, b, n) == _school_mul(b, a, n) == want


@pytest.mark.parametrize(
    "scalar", [Fraction(0), Fraction(3), Fraction(-7, 1), Fraction(-2, 3), Fraction(5, 12)]
)
def test_series_times_fraction_matches_termwise(scalar):
    rng = random.Random(59)
    for _ in range(20):
        s = random_series(rng, rng.randint(0, 30))
        want = [c * scalar for c in s.coeffs]
        for got in (s * scalar, scalar * s):
            assert list(got.coeffs) == want
            # integral coefficients are plain ints, so to_json never writes "3/1"
            assert all(type(c) is int for c in got.coeffs if Fraction(c).denominator == 1)
            assert not any(c.endswith("/1") for c in got.to_json()["coeffs"])


def test_series_times_exact_fraction_stays_in_ints():
    # every c * p divisible by the denominator: int coefficients, no Fractions
    for s, scalar, want in [
        (S(6, -12, 0, 30, order=3), Fraction(1, 6), [1, -2, 0, 5]),
        (S(Fraction(3, 2), 3, order=1), Fraction(2, 3), [1, 2]),
        (S(4, 2, order=1), Fraction(-3, 2), [-6, -3]),
    ]:
        got = s * scalar
        assert list(got.coeffs) == want
        assert all(type(c) is int for c in got.coeffs)
    mixed = S(6, 3, order=1) * Fraction(1, 6)
    assert list(mixed.coeffs) == [1, Fraction(1, 2)] and type(mixed[0]) is int


def fraction_product(a, b, order):
    """Schoolbook product of two coefficient lists, one Fraction at a time."""
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += Fraction(a[i]) * b[j]
    return out


def test_series_mul_matches_rational_oracle():
    rng = random.Random(43)
    for _ in range(40):
        order = rng.randint(0, 3 * KRONECKER_MIN)
        a = random_series(rng, order)
        b = random_series(rng, rng.randint(order, order + 5))
        got = a * b
        assert list(got.coeffs) == fraction_product(a.coeffs, b.coeffs, order)
        # integral results collapse to int
        assert all(type(c) is int for c in got.coeffs if Fraction(c).denominator == 1)


def rational_inverse(coeffs, order):
    """Reference recursion in Fractions: out_n = -sum a_k out_(n-k) / a_0."""
    a = [Fraction(c) for c in coeffs]
    out = [1 / a[0]]
    for n in range(1, order + 1):
        out.append(-sum(a[k] * out[n - k] for k in range(1, n + 1)) / a[0])
    return out


def sparse_tail(rng, order):
    """A tail of 2 to 5 nonzero terms below order; the inverse follows them."""
    tail = [0] * order
    for k in rng.sample(range(order), rng.randint(2, 5)):
        tail[k] = rng.choice((rng.randint(-9, 9) or 1, Fraction(rng.randint(1, 9), 4)))
    return tail


@pytest.mark.parametrize("a0", [1, -1, 2, 3, -5, Fraction(3, 2)])
def test_invert_matches_rational_recursion(a0):
    rng = random.Random(53)
    tails = [list(random_series(rng, 40).coeffs[1:]) for _ in range(10)]
    tails += [sparse_tail(rng, 40) for _ in range(10)]
    tails += [list(pochhammer(1, scale, 40).coeffs[1:]) for scale in (1, 2)]
    for tail in tails:
        s = Series([a0] + tail, 40)
        got = s.invert()
        assert list(got.coeffs) == rational_inverse(s.coeffs, 40)
        assert all(type(c) is int for c in got.coeffs if Fraction(c).denominator == 1)


fraction = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 7))
sparse_tails = st.builds(
    lambda terms: [terms.get(k, 0) for k in range(1, 31)],
    st.dictionaries(st.integers(1, 30), fraction, min_size=2, max_size=5),
)


@derandomized
@given(st.sampled_from([1, -1, 2, 3, -5, Fraction(3, 2)]),
       st.lists(fraction, max_size=30) | sparse_tails)
def test_invert_matches_rational_recursion_hypothesis(a0, tail):
    s = Series([a0] + tail, len(tail))
    assert list(s.invert().coeffs) == rational_inverse(s.coeffs, s.order)


@derandomized
@given(st.integers(1, 30), st.sampled_from([1, -1, 2, 3, -5, Fraction(3, 2)]),
       st.lists(fraction, max_size=30) | sparse_tails)
def test_negative_power_is_power_of_inverse(k, a0, tail):
    # sparse tails take Miller's recurrence, dense ones the inverse's k-th power
    s = Series([a0] + tail, len(tail))
    assert s ** -k == s.invert() ** k


@derandomized
@given(st.integers(-1000, -1), sparse_tails)
def test_negative_power_of_sparse_zero_constant_raises(k, tail):
    with pytest.raises(ZeroConstantTerm):
        Series([0] + tail, len(tail)) ** k


def test_invert_roundtrip_order_1024():
    a = pochhammer(1, 1, 1024) ** 24
    assert a * a.invert() == Series.one(1024)


# -- the kernel against per-coefficient Fraction arithmetic --------------------


def assert_coeffs(series, want):
    """series.coeffs equals the rationals want, integral entries as int, and
    the series equals the one the public constructor builds from want."""
    want = [int(c) if Fraction(c).denominator == 1 else c for c in want]
    assert list(series.coeffs) == want
    assert list(map(type, series.coeffs)) == list(map(type, want))
    assert series == Series(want)


nonzero_digit = st.integers(-9, 9).filter(bool)
proper_entry = st.builds(Fraction, nonzero_digit, st.integers(2, 9)).filter(
    lambda c: c.denominator != 1)


@st.composite
def oracle_coeffs(draw, dense):
    """Coefficients 0..order, order <= 70: a constant term that is 1, -1, 2,
    3, 5/2 or -7/3, and a tail that is all nonzero (the dense inverse) or
    has at most order // 4 nonzero terms (Miller's recurrence), with 0-3
    Fraction entries."""
    order = draw(st.integers(0, 70))
    if dense:
        tail = draw(st.lists(nonzero_digit, min_size=order, max_size=order))
    else:
        terms = draw(st.dictionaries(st.integers(0, max(order - 1, 0)), nonzero_digit,
                                     max_size=order // 4))
        tail = [terms.get(i, 0) for i in range(order)]
    support = [i for i, c in enumerate(tail) if c]
    if support:
        for i in draw(st.lists(st.sampled_from(support), max_size=3, unique=True)):
            tail[i] = draw(proper_entry)
    a0 = draw(st.sampled_from([1, -1, 2, 3, Fraction(5, 2), Fraction(-7, 3)]))
    return [a0] + tail


@settings(derandomize=True, max_examples=60, deadline=None)
@given(oracle_coeffs(dense=True), oracle_coeffs(dense=True), oracle_coeffs(dense=False),
       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), st.integers(1, 4),
       st.integers(0, 72))
def test_kernel_matches_fraction_oracle(a, b, s, scalar, m, t):
    # two dense operands cross KRONECKER_MIN above order 20; a sparse one
    # keeps the schoolbook loop
    sa, sb, ss = Series(a), Series(b), Series(s)
    order = min(len(a), len(b)) - 1
    assert_coeffs(sa * sb, fraction_product(a, b, order))
    assert_coeffs(sa + sb, [Fraction(x) + y for x, y in zip(a, b)])
    order = min(len(a), len(s)) - 1
    assert_coeffs(sa * ss, fraction_product(a, s, order))
    assert_coeffs(sa * scalar, [Fraction(x) * scalar for x in a])
    n = len(a) - 1
    assert_coeffs(sa.invert(), rational_inverse(a, n))
    assert_coeffs(sa ** 3, fraction_product(fraction_product(a, a, n), a, n))
    assert_coeffs(sa.qderiv(), [i * Fraction(x) for i, x in enumerate(a)])
    assert_coeffs(sa.deriv(), [i * Fraction(x) for i, x in enumerate(a)][1:] or [0])
    assert_coeffs(sa.shift(m), ([0] * m + a)[: n + 1])
    assert_coeffs(sa.truncate(t), a[: t + 1])
    assert_coeffs(sa.compose_monomial(m), [a[i // m] if i % m == 0 else 0 for i in range(n + 1)])
    for coeffs in (a, s):  # a**-3 by the dense inverse cubed, s**-3 by Miller
        n = len(coeffs) - 1
        inv = rational_inverse(coeffs, n)
        assert_coeffs(Series(coeffs) ** -3, fraction_product(fraction_product(inv, inv, n), inv, n))


@pytest.mark.parametrize("got, want, text", [
    (Series([1, Fraction(1, 2)], 1).truncate(0), Series([1], 0), ["1"]),
    (Series([1, 0, Fraction(1, 3)], 2).shift(1), Series([0, 1, 0], 2), ["0", "1", "0"]),
    (Series([Fraction(1, 2), 1], 1).deriv(), Series([1], 0), ["1"]),
    (Series([Fraction(1, 2)], 0) * 2, Series([1], 0), ["1"]),
], ids=["truncate", "shift", "deriv", "times-int"])
def test_results_are_in_lowest_terms(got, want, text):
    # each result drops the entries that carried its denominator, so it
    # equals the integer series and writes "1", never "2/2"
    assert got == want
    assert got.to_json() == {"denom": 1, "order": want.order, "coeffs": text}


def test_truncate_validates_its_order():
    with pytest.raises(DomainError, match="order must be >= 0"):
        Series([1, 2], 1).truncate(-1)


# -- compose_monomial --------------------------------------------------------


def test_compose_monomial_scaling():
    s = S(0, 1, 2, order=4)
    assert s.compose_monomial(2) == S(0, 0, 1, 0, 2, order=4)


def test_compose_monomial_constant_fixed():
    assert Series.one(5).compose_monomial(5) == Series.one(5)


def test_compose_monomial_nesting():
    rng = random.Random(11)
    for _ in range(50):
        a = random_series(rng, 24)
        m, n = rng.choice(((2, 3), (3, 2), (2, 2), (5, 1)))
        assert a.compose_monomial(m).compose_monomial(n) == a.compose_monomial(m * n)


# -- qderiv ------------------------------------------------------------------


def test_qderiv_termwise():
    geo = S(1, -1, order=6).invert()
    assert geo.qderiv() == Series([n for n in range(7)], 6)


def test_qderiv_constant():
    assert Series.one(4).qderiv() == Series.zero(4)


def test_qderiv_is_derivation():
    rng = random.Random(13)
    for _ in range(60):
        a = random_series(rng, 20)
        b = random_series(rng, 20)
        assert (a * b).qderiv() == a.qderiv() * b + a * b.qderiv()


# -- pow ---------------------------------------------------------------------


def test_pow_binomial():
    assert S(1, 1, order=4) ** 2 == S(1, 2, 1, order=4)


def test_pow_zero_is_one():
    rng = random.Random(17)
    assert random_series(rng, 8) ** 0 == Series.one(8)


def test_pow_negative_inverts():
    assert S(1, -1, order=5) ** -2 == (S(1, -1, order=5).invert()) ** 2


def test_pow_negative_zero_constant_raises():
    with pytest.raises(ZeroConstantTerm):
        S(0, 1, order=3) ** -1


# -- substitute --------------------------------------------------------------


def sin_series(order):
    from math import factorial

    return Series.from_terms(
        {2 * j + 1: Fraction((-1) ** j, factorial(2 * j + 1)) for j in range(order)},
        order,
    )


def test_substitute_two_sin_half():
    half = Series.from_terms({1: Fraction(1, 2)}, 6)
    got = sin_series(6).substitute(half) * 2
    assert got == Series.from_terms(
        {1: 1, 3: Fraction(-1, 24), 5: Fraction(1, 1920)}, 6
    )


def test_substitute_identity():
    rng = random.Random(19)
    x = Series.from_terms({1: 1}, 12)
    s = random_series(rng, 12)
    coeffs = list(s.coeffs)
    coeffs[0] = 0
    s = Series(coeffs, 12)
    assert x.substitute(s) == s


def test_substitute_square_of_two_sin_half():
    # oracle: square the Taylor series by hand: z^2 - z^4/12 + ...
    half = Series.from_terms({1: Fraction(1, 2)}, 6)
    two_sin = sin_series(6).substitute(half) * 2
    sq = Series.from_terms({2: 1}, 6).substitute(two_sin)
    assert sq[2] == 1 and sq[4] == Fraction(-1, 12)
    assert sq == two_sin * two_sin


def test_substitute_claims_no_coefficient_past_the_outer_order():
    # f and g agree to order 1 but differ at q^2, so f(x) is known to order 1 only
    f, g = Series([0, 1], 1), Series([0, 1, 5], 2)
    inner = Series([0, 1, 0, 0], 3)
    assert f.substitute(inner).order == 1
    assert f.substitute(inner) == g.substitute(inner).truncate(1)
    assert g.substitute(Series([0, 1], 1)).order == 1  # and past the inner order


def test_substitute_nonzero_constant_raises():
    with pytest.raises(NonzeroConstantTerm):
        S(1, 1, order=3).substitute(S(1, 1, order=3))


# -- valuation and is_zero ----------------------------------------------------


def scanned_valuation(s):
    # reference: the per-coefficient loop these queries once ran
    for n, c in enumerate(s.coeffs):
        if c != 0:
            return n
    return None


coefficient = st.one_of(
    st.just(0), st.just(Fraction(0)), st.integers(-3, 3), st.fractions(-2, 2, max_denominator=5)
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 12), st.lists(coefficient, max_size=14))
@example(0, [])
@example(0, [0])
@example(0, [Fraction(2, 3)])
@example(6, [0, 0, 0])
@example(5, [0, Fraction(0), 0, Fraction(-1, 3)])
def test_valuation_and_is_zero_match_the_scan(order, coeffs):
    s = Series(coeffs, order)
    assert s.valuation() == scanned_valuation(s)
    assert s.is_zero() == (scanned_valuation(s) is None)


# -- ring axioms, serialization ----------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(60):
        a = random_series(rng, 16)
        b = random_series(rng, 16)
        c = random_series(rng, 16)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_json_roundtrip():
    s = S(1, Fraction(-3, 2), 0, 7, order=5)
    assert s.to_json()["coeffs"] == ["1", "-3/2", "0", "7", "0", "0"]
    assert s.to_json()["denom"] == 1  # kept so existing files stay valid


def test_int_subclass_coefficients_become_plain_ints():
    # bool is an int subclass: True must store and write as 1, like Series([1, 2])
    flagged, plain = Series([True, 2]), Series([1, 2])
    assert [type(c) for c in flagged.coeffs] == [int, int]
    assert flagged.coeffs == plain.coeffs
    assert flagged.to_json() == plain.to_json() == {"denom": 1, "order": 1, "coeffs": ["1", "2"]}


proper_fraction = fraction.filter(lambda c: c.denominator != 1)


@derandomized
@given(st.lists(coefficient, max_size=40) | st.lists(proper_fraction, max_size=40)
       | st.lists(coefficient | proper_fraction, max_size=40))
def test_to_json_coeffs_match_rat_str_hypothesis(coeffs):
    # to_json writes str(c); for normalised coefficients that is n, or n/d
    # with d > 1
    s = Series(coeffs)
    oracle = [f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else f"{c}"
              for c in s.coeffs]
    assert s.to_json()["coeffs"] == oracle


def test_getitem_rejects_phantom_tail():
    s = S(1, 2, order=1)
    with pytest.raises(IndexError):
        s[5]


def test_format_rendering():
    assert S(1, -1, 0, Fraction(1, 2), order=3).format() == "1 - q + 1/2q^3"
    assert Series.zero(3).format() == "0"


# -- ring and derivation laws (hypothesis) -------------------------------------

mixed = coefficient | fraction


@st.composite
def series_triples(draw, max_order=16, zero_constant=0):
    """Three series of one order over mixed int/Fraction coefficients, each
    dense or with a few nonzero terms; the last ``zero_constant`` of them
    have constant term 0."""
    order = draw(st.integers(0, max_order))

    def one(low):
        if draw(st.booleans()):
            coeffs = draw(st.lists(mixed, min_size=order + 1, max_size=order + 1))
        else:
            terms = draw(st.dictionaries(st.integers(0, order), mixed, max_size=4))
            coeffs = [terms.get(k, 0) for k in range(order + 1)]
        return Series([0] * low + coeffs[low:], order)

    return tuple(one(int(i >= 3 - zero_constant)) for i in range(3))


@derandomized
@given(series_triples())
def test_ring_axioms_hypothesis(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@derandomized
@given(series_triples())
def test_qderiv_product_rule_hypothesis(abc):
    a, b, _ = abc
    assert (a * b).qderiv() == a.qderiv() * b + a * b.qderiv()


@derandomized
@given(series_triples(max_order=10, zero_constant=2))
def test_substitute_nesting_hypothesis(fgh):
    f, g, h = fgh
    assert f.substitute(g).substitute(h) == f.substitute(g.substitute(h))
