import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from hypcount.errors import BoundTooSmall, DomainError
from hypcount.fps import Series
from hypcount import qforms, trig, verify


# -- Chebyshev polynomials ----------------------------------------------------


def test_T2_and_T3():
    assert trig.chebyshev(2) == (-1, 0, 2)
    assert trig.chebyshev(3) == (0, -3, 0, 4)


def cheb_at(n, x):
    return sum(c * x**i for i, c in enumerate(trig.chebyshev(n)))


def sin_multiple(a, b, m):
    # e^(it) = (a + ib)^2 / (a^2 + b^2), so sin(m t) is exact when sin t = 2ab/(a^2 + b^2)
    re, im = 1, 0
    for _ in range(2 * m):
        re, im = re * a - im * b, re * b + im * a
    return Fraction(im, (a * a + b * b) ** m)


def test_T5_sine_identity_numeric():
    # a, b = 3, 1 gives sin t = 3/5; T_5(sin t) = (-1)^2 sin(5t), exactly
    assert sin_multiple(3, 1, 1) == Fraction(3, 5)
    assert cheb_at(5, Fraction(3, 5)) == sin_multiple(3, 1, 5) == Fraction(-237, 3125)


def test_odd_sine_identity_random():
    rng = random.Random(5)
    for _ in range(20):
        a, b = rng.randint(-40, 40), rng.randint(1, 40)
        sin_t = Fraction(2 * a * b, a * a + b * b)
        for n in range(0, 7):
            want = (-1) ** n * sin_multiple(a, b, 2 * n + 1)
            assert cheb_at(2 * n + 1, sin_t) == want


def test_cheb_half_doubled_integrality():
    assert trig.cheb_half_doubled(1) == (0, 1)  # 2 T_1(x/2) = x
    assert trig.cheb_half_doubled(2) == (-2, 0, 1)  # x^2 - 2
    assert trig.cheb_half_doubled(3) == (0, -3, 0, 1)  # x^3 - 3x


# -- theta blocks --------------------------------------------------------------


def test_h_block_lowest_term():
    h = trig.theta_block_q("h", 6)
    assert h[1][0] == 1  # 2 T_1(x/2) = x at q^0


def test_g_block_constant_and_x2():
    g = trig.theta_block_q("g", 6)
    assert g[0][0] == 1
    assert g[2][1] == 1  # from 2T_2(x/2) = x^2 - 2 at q^1


def test_h_block_x1_is_cube_of_even_pochhammer():
    # the x-coefficient at k=0 must be (q^2;q^2)^3 (Jacobi cube)
    h = trig.theta_block_q("h", 12)
    assert h[1] == qforms.pochhammer(1, 2, 12) ** 3


@pytest.mark.parametrize("kind", ["h", "g"])
def test_block_is_its_sum_over_n(kind):
    # h = 2 sum_n T_(2n+1)(x/2) q^(n^2+n) and g = 1 + 2 sum_(n>=1) T_(2n)(x/2) q^(n^2),
    # written out term by term; cut at x^13 and at the highest degree written
    for order in range(201):
        cols = [[0] * (order + 1) for _ in range(30)]
        if kind == "g":
            cols[0][0] = 1
        top = 0
        for n in range(0 if kind == "h" else 1, order + 1):
            deg, e = (2 * n + 1, n * n + n) if kind == "h" else (2 * n, n * n)
            if e > order:
                break
            top = deg
            for i, c in enumerate(trig.cheb_half_doubled(deg)):
                cols[i][e] += c
        want = tuple(Series(col, order) for col in cols)
        assert trig.theta_block_q(kind, order, 13) == want[:14]
        assert trig.theta_block_q(kind, order) == want[: top + 1]


@pytest.mark.parametrize(
    "build",
    [
        lambda order: trig.theta_block_q("h", order),
        lambda order: trig.theta_block_q("g", order, 7),
        lambda order: trig.andrews_rose_H(order, 7),
        lambda order: trig.andrews_rose_G(order, 6),
        lambda order: trig.theta_block_from_lattice_sum("g", 5, order),
    ],
    ids=["theta_block_q_h", "theta_block_q", "andrews_rose_H", "andrews_rose_G", "lattice_sum"],
)
def test_block_builders_return_series_of_the_requested_order(build):
    block = build(20)
    assert type(block) is tuple and block
    assert all(isinstance(s, Series) and s.order == 20 for s in block)


# -- Andrews-Rose expansions ----------------------------------------------------


def over_prefactor_orders(test):
    # A_0 = C_0 = 1 leave each prefactor in the lowest column; the Pochhammer
    # routes are the oracles for its sparse theta sum, at orders 0, 1, 2, 16,
    # 64 and 1024 and a derandomized sample up to 300
    for order in (0, 1, 2, 16, 64, 1024):
        test = example(order)(test)
    return settings(derandomize=True, max_examples=30, deadline=None)(
        given(st.integers(0, 300))(test)
    )


@over_prefactor_orders
def test_H_x1_coefficient(order):
    H = trig.andrews_rose_H(order, 3)
    assert H[1] == qforms.pochhammer(1, 2, order) ** 3  # A_0 = 1 term


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 300))
@example(127)
@example(1023)
def test_H_columns_equal_full_order_compose(order):
    # oracle: A_k built to the full q-order, then composed with q^2
    H = trig.andrews_rose_H(order, 13)
    prefac = qforms.pochhammer(1, 2, order) ** 3
    for k in range(7):
        assert H[2 * k + 1] == prefac * qforms.macmahon_A(k, order).compose_monomial(2)


@over_prefactor_orders
def test_G_x0_coefficient_is_pochhammer_quotient(order):
    # C_0 = 1 leaves the prefactor (q;q) / (-q;q), here by the dense inverse
    want = qforms.pochhammer(1, 1, order) * qforms.pochhammer(-1, 1, order).invert()
    assert trig.andrews_rose_G(order, 2)[0] == want


# -- lattice-sum route -----------------------------------------------------------


def test_lattice_sums_rebuild_blocks():
    # the power-table route against the Chebyshev blocks, at the least bound
    # (bound^2 > order) and past it
    for order, bounds in ((0, (1, 3)), (1, (2,)), (2, (2,)), (4, (3, 4)), (12, (4,)),
                          (16, (5, 9)), (63, (8, 12)), (256, (17,))):
        for kind in ("h", "g"):
            for bound in bounds:
                direct = trig.theta_block_from_lattice_sum(kind, bound, order)
                assert direct == trig.theta_block_q(kind, order)


def test_lattice_sum_bound_guard():
    with pytest.raises(BoundTooSmall):
        trig.theta_block_from_lattice_sum("h", 3, 32)  # 9 <= 32
    with pytest.raises(BoundTooSmall):
        trig.theta_block_from_lattice_sum("g", 4, 16)  # 16 <= 16


@pytest.mark.parametrize("kind", ["x", "H", ""])
def test_lattice_sum_rejects_unknown_block_kind(kind):
    with pytest.raises(DomainError, match="block kind must be 'h' or 'g'"):
        trig.theta_block_from_lattice_sum(kind, 5, 24)


# -- exact trig series ------------------------------------------------------------


def wave_by_terms(m, order, odd):
    # sum of (-1)^(n//2) m^n / n! over the n <= order of the wave's parity, one
    # Fraction per term
    terms = {n: (-1) ** (n // 2) * Fraction(m) ** n / factorial(n)
             for n in range(order + 1) if n % 2 == odd}
    return Series.from_terms(terms, order)


RATIONALS = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(RATIONALS, st.integers(0, 80), st.booleans())
@example(Fraction(1, 2), 0, True)
@example(Fraction(1, 2), 0, False)
@example(0, 0, False)
@example(0, 0, True)
@example(0, 17, False)
@example(Fraction(0), 17, True)
@example(-3, 80, False)
@example(Fraction(-2, 3), 80, True)
def test_scaled_wave_is_its_series(m, order, odd):
    # sin(m z) if odd, else cos(m z), built on integer numerators over one
    # denominator, against its definition term by term
    assert trig.scaled_wave(m, order, odd) == wave_by_terms(m, order, odd)


@pytest.mark.parametrize("odd", [True, False])
@pytest.mark.parametrize("order", [-1, -7])
def test_scaled_wave_rejects_a_negative_order(order, odd):
    with pytest.raises(DomainError, match="order must be >= 0"):
        trig.scaled_wave(Fraction(1, 2), order, odd)


def test_change_of_variable_roundtrip():
    # z(x(z)) = z as formal series
    order = 13
    x_of_z = trig.two_sin_half(order)
    z_of_x = trig.z_of_x(order)
    assert z_of_x.substitute(x_of_z) == Series.from_terms({1: 1}, order)
    assert x_of_z.substitute(z_of_x) == Series.from_terms({1: 1}, order)


# -- sine substitution ------------------------------------------------------------


def test_substitute_low_order_fixed_point():
    # with every multiplicity <= 1 and no room for shifts, coefficients pass through
    data = {(1, 1, 0): Fraction(5, 3), (0, 1, 1): 2}
    out = trig.sine_substitute(data, 2)
    assert out == data


def test_substitute_single_variable_shift():
    # one point of multiplicity 1: the z^3 output picks up -1/4 * s(3,1) = -1/4
    out = trig.sine_substitute({(1,): 1}, 5)
    assert out[(1,)] == 1
    assert out[(3,)] == Fraction(-1, 4)
    assert out[(5,)] == Fraction(1, 16) * 1  # (-1/4)^2 s(5,1)


def test_substitute_drops_cancelled_zero_and_over_order_entries():
    # the z^3 terms of (1,) and (3,) cancel; the zero base and the base of
    # total 4 > order are skipped, so only (1,) is left on both routes
    data = {(1,): 1, (3,): Fraction(1, 4), (5,): 0, (2, 2): 7}
    for route in (trig.sine_substitute, trig.sine_substitute_combinatorial):
        assert route(data, 3) == {(1,): 1}


def test_substitute_routes_agree_randomized():
    rng = random.Random(404)
    for _ in range(8):
        data = {}
        for _ in range(rng.randint(1, 3)):
            profile = [0, 0, 0, 0]
            for _ in range(rng.randint(1, 6)):
                profile[rng.randrange(4)] += 1
            data[tuple(profile)] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        order = rng.randint(6, 9)
        assert trig.sine_substitute(data, order) == trig.sine_substitute_combinatorial(
            data, order
        )


def test_substitute_sixteen_point_profiles():
    profile = [0] * 16
    for v in (0, 4, 8, 12):
        profile[v] = 1
    data = {tuple(profile): 1}
    out = trig.sine_substitute(data, 6)
    combo = trig.sine_substitute_combinatorial(data, 6)
    assert out == combo
    shifted = list(profile)
    shifted[0] = 3
    assert out[tuple(shifted)] == Fraction(-1, 4)


# -- differential identities -------------------------------------------------------


def test_h_ode_small_and_default():
    assert trig.h_ode_check(2)
    assert trig.h_ode_check(16)


def test_h_ode_perturbed_fails():
    h = trig.two_sin_half(18)
    coeffs = list(h.coeffs)
    coeffs[3] += Fraction(1, 7)
    r1, r2 = trig.ode_residuals(Series(coeffs, 18))
    assert not (r1.truncate(16).is_zero() and r2.truncate(16).is_zero())


def ode_holds_by_series(h, order):
    # h(0) = 0 and h'(0) = 1 pin 2 sin(z/2) among the solutions
    r1, r2 = trig.ode_residuals(h)
    return h.coeffs[:2] == (0, 1) and r1.truncate(order).is_zero() and r2.truncate(order).is_zero()


PERTURBATIONS = {
    "none": lambda c, i: c,
    "flip": lambda c, i: -c,
    "zero": lambda c, i: 0,
    "1/7!": lambda c, i: c + Fraction(1, factorial(7)),
    "H+2": lambda c, i: c + Fraction(2, 2**i * factorial(i)),  # H_i grows by 2
}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 256), st.integers(0, 258), st.sampled_from(sorted(PERTURBATIONS)))
@example(0, 0, "none")
@example(0, 2, "H+2")
@example(1, 3, "1/7!")
@example(256, 0, "none")
@example(256, 258, "flip")
@example(256, 257, "zero")
@example(0, 1, "flip")
def test_h_ode_divided_powers_agree_with_series_route(order, index, how):
    # one coefficient of 2 sin(z/2) changed at or below z^(order + 2), the
    # range both routes read; the divided-power route also fails every H_n
    # outside {0, 2, -2}, which a one-coefficient change never reaches alone
    coeffs = list(trig.two_sin_half(order + 2).coeffs)
    i = index % (order + 3)
    coeffs[i] = PERTURBATIONS[how](coeffs[i], i)
    h = Series(coeffs, order + 2)
    assert trig.ode_holds(h, order) == ode_holds_by_series(h, order)
    assert trig.ode_holds(h, order) == (h == trig.two_sin_half(order + 2))


@pytest.mark.parametrize("order", [16, 64])
def test_h_ode_mutants_fail_both_routes(order):
    sines = (trig.scaled_wave(1, order + 2, True), trig.scaled_wave(Fraction(1, 3), order + 2, True) * 2)
    for h in sines:
        assert not trig.ode_holds(h, order)
        assert not ode_holds_by_series(h, order)


@pytest.mark.parametrize("h_order, order", [(3, 4), (0, 0), (1, 0), (5, 4), (17, 16)])
def test_ode_holds_rejects_a_short_h(h_order, order):
    # the identities to z^order read h to z^(order + 2)
    with pytest.raises(DomainError, match=f"h needs order {order + 2}"):
        trig.ode_holds(trig.two_sin_half(h_order), order)


@pytest.mark.parametrize("h_order, order", [(0, -2), (2, -1), (5, -3)])
def test_ode_holds_rejects_a_negative_order(h_order, order):
    with pytest.raises(DomainError, match="order must be >= 0"):
        trig.ode_holds(trig.two_sin_half(h_order), order)


OTHER_SOLUTIONS = {
    "zero": Series.zero,
    "2cos(z/2)": lambda o: trig.scaled_wave(Fraction(1, 2), o, False) * 2,
    "-2sin(z/2)": lambda o: trig.scaled_wave(Fraction(1, 2), o, True) * -2,
}


@pytest.mark.parametrize("name", sorted(OTHER_SOLUTIONS))
def test_h_ode_fails_on_another_solution_of_the_ode(monkeypatch, name):
    # each solves both identities; only h(0) = 0 and h'(0) = 1 tell it from 2 sin(z/2)
    r1, r2 = trig.ode_residuals(OTHER_SOLUTIONS[name](34))
    assert r1.is_zero() and r2.is_zero()
    monkeypatch.setattr(trig, "two_sin_half", OTHER_SOLUTIONS[name])
    assert not verify.check_h_ode(32, random.Random(0))[0]


def binomial_convolution(H, n):
    # sum_k C(n,k) (H_(k+1) H_(n-k+2) + H_k H_(n-k+1)): h' h'' + h h'/4 at
    # z^n in scaled divided powers, pairing k with n - k by one running binomial
    terms = [H[k + 1] * H[n - k + 2] + H[k] * H[n - k + 1] for k in range(n + 1)]
    total, binom = 0, 1
    for k in range(n // 2 + 1):
        total += binom * (terms[k] + terms[n - k] if 2 * k < n else terms[k])
        binom = binom * (n - k) // (k + 1)
    return total


def two_identity_ode_holds(h, order):
    # both identities term by term, each H_n in {0, 2, -2}, no initial
    # values: ode_holds, which sums no convolution, must agree with it once
    # H_0 = 0 and H_1 = 2
    H = [c * 2**n * factorial(n) for n, c in enumerate(h.coeffs[: order + 3])]
    if any(value not in (0, 2, -2) for value in H):
        return False
    return not any(H[n + 2] + H[n] or binomial_convolution(H, n) for n in range(order + 1))


def solution(H0, H1, length):
    H = [H0, H1]
    while len(H) < length:
        H.append(-H[-2])
    return H


@pytest.mark.parametrize("H0, H1", [(a, b) for a in (0, 2, -2) for b in (0, 2, -2)])
def test_second_identity_vanishes_on_every_solution_of_the_first(H0, H1):
    # its residual is the convolution of h' with the first residual
    H = solution(H0, H1, 123)
    assert not any(binomial_convolution(H, n) for n in range(121))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 40), st.sampled_from([0, 2, -2]), st.sampled_from([0, 2, -2]),
       st.lists(st.tuples(st.integers(0, 42), st.sampled_from([0, 2, -2, 1, 4, Fraction(2, 3)])),
                min_size=1, max_size=2))
@example(0, 0, 2, [(1, -2)])
@example(3, 2, 0, [(0, 0)])
@example(5, 0, 2, [(4, -2), (6, 2)])
def test_ode_holds_is_the_two_identity_loop_with_initial_values(order, H0, H1, changes):
    # a solution of H_(n+2) = -H_n from any (H_0, H_1), one or two entries changed
    H = solution(H0, H1, order + 3)
    for i, value in changes:
        H[i % (order + 3)] = value
    h = Series([Fraction(v, 2**n * factorial(n)) for n, v in enumerate(H)], order + 2)
    assert trig.ode_holds(h, order) == (two_identity_ode_holds(h, order) and H[:2] == [0, 2])
