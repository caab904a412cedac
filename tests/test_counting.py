import json

import pytest
from hypothesis import example, given, settings, strategies as st

from hypcount.errors import DomainError
from hypcount.fps import Series
from hypcount import cli, counting, kummer, qforms, trig


def profile(ones=(), extra=()):
    p = [0] * 16
    for v in ones:
        p[v] = 1
    for v, add in extra:
        p[v] += add
    return tuple(p)


ROW0 = (0, 4, 8, 12)
EPS1 = (1, 2, 3, 4, 8, 12)
COLUMN0 = (0, 1, 2, 3)


# -- f_gk -----------------------------------------------------------------------


def test_fgk_genus1_row():
    assert counting.f_gk(profile(ROW0), 8).series == Series.one(8)


def test_fgk_triple_point_is_A1u4():
    got = counting.f_gk(profile(ROW0, extra=[(0, 2)]), 16)
    assert got.series == qforms.macmahon_A(1, 16).compose_monomial(4)
    assert got.shape == "A1(u^4)"


def test_fgk_eps1_is_E():
    got = counting.f_gk(profile(EPS1), 16)
    assert got.series == qforms.series_E(16)
    assert got.coset == "odd"


def test_fgk_column_is_zero():
    got = counting.f_gk(profile(COLUMN0), 8)
    assert got.coset is None and got.series.is_zero()


def test_fgk_rejects_odd_total():
    with pytest.raises(DomainError):
        counting.f_gk(profile((0, 4, 8)), 8)


def test_fgk_rejects_small_total():
    with pytest.raises(DomainError):
        counting.f_gk(profile((0, 4)), 8)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: counting.f_gk(profile(ROW0)[:15], 8), "each of 16 points"),
        (lambda: counting.genus_total(0, 8), "genus must be >= 1"),
    ],
    ids=["15-entry-profile", "genus-0"],
)
def test_bad_argument_is_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_fgk_double_triple_is_A1_squared():
    got = counting.f_gk(profile(ROW0, extra=[(0, 2), (4, 2)]), 16)
    a1u4 = qforms.macmahon_A(1, 16).compose_monomial(4)
    assert got.series == a1u4 * a1u4
    assert got.shape == "A1(u^4)^2"


# -- factors built at the order they feed ----------------------------------------------


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(0, 300))
@example(127)
@example(1023)
def test_factors_equal_full_order_compose(order):
    # oracle: each MacMahon function built to the full order, then composed
    for j in range(7):
        assert counting._factor(2 * j + 1, order) == qforms.macmahon_A(j, order).compose_monomial(4)
        assert counting._factor(2 * j, order) == qforms.macmahon_C(j, order).compose_monomial(2)


def test_factors_are_requested_at_the_order_they_feed(monkeypatch):
    requested = {"A": [], "C": [], "delta": []}

    def recording(key, build):
        def wrapper(*args):
            requested[key].append(args[-1])
            return build(*args)

        return wrapper

    monkeypatch.setattr(qforms, "macmahon_A", recording("A", qforms.macmahon_A))
    monkeypatch.setattr(qforms, "macmahon_C", recording("C", qforms.macmahon_C))
    monkeypatch.setattr(qforms, "delta_inv_times_q", recording("delta", qforms.delta_inv_times_q))
    # a product or term cached by an earlier test would hide a request
    for cached in (counting._factor, counting._product, counting._potential_term):
        cached.cache_clear()
    config = profile(ROW0, extra=[(0, 2), (4, 4), (1, 2)])  # A1(u^4) A2(u^4) C1(u^2)
    counting.f_gk(config, 400)
    counting.f_gk_via_potential(config, 40)
    assert requested["A"] and max(requested["A"]) <= 100
    assert requested["C"] and max(requested["C"]) <= 200
    assert requested["delta"] and max(requested["delta"]) <= 20


def test_fgk_builds_one_product_per_profile_type():
    # f_gk keys the product formula on the sorted values: 12 types at degrees 4, 6, 8
    counting._product.cache_clear()
    types = set()
    for degree in (4, 6, 8):
        for cfg in kummer.admissible_profiles(degree):
            counting.f_gk(cfg, 12)
            types.add(tuple(sorted(cfg)))
    assert counting._product.cache_info().misses == len(types) == 12


# -- the potential route -----------------------------------------------------------


def test_potential_route_builds_one_term_per_class_key():
    # a point picks the h block exactly when its value is odd, so the term is
    # keyed on the profile type: 12 keys among the 908 profiles of degrees 4, 6, 8
    counting._potential_term.cache_clear()
    count = 0
    for degree in (4, 6, 8):
        for cfg in kummer.admissible_profiles(degree):
            counting.f_gk_via_potential(cfg, 12)
            count += 1
    info = counting._potential_term.cache_info()
    assert (count, info.misses, info.hits) == (908, 12, 896)


def test_routes_agree_on_samples():
    for cfg in (
        profile(ROW0),
        profile(ROW0, extra=[(0, 2)]),
        profile(EPS1),
        profile(EPS1, extra=[(5, 2)]),
        profile(ROW0, extra=[(0, 4)]),
    ):
        assert counting.f_gk(cfg, 14).series == counting.f_gk_via_potential(cfg, 14)


def test_potential_route_zero_for_inadmissible():
    assert counting.f_gk_via_potential(profile(COLUMN0), 10).is_zero()


@pytest.mark.parametrize("point, kv", [(0, 5), (1, 4)])  # an h point, a g point
def test_potential_reads_multiplicity_past_block_degree_as_zero(point, kv):
    # at u-order 4 (q-order 2) the h block stops at x^3 and the g block at x^2
    cfg = list(profile(ROW0))
    cfg[point] = kv
    block = trig.theta_block_q("h" if point in ROW0 else "g", 2)
    assert kv >= len(block)
    assert counting.f_gk_via_potential(cfg, 4).is_zero()
    assert counting.f_gk(cfg, 4).series.is_zero()


@pytest.mark.parametrize("order", [0, 1, 10, 11, 127])
def test_routes_agree_exhaustively_small(order):
    # odd orders round the potential term's q-order down before the one q -> u^2 step
    for degree in (4, 6, 8):
        for cfg in kummer.admissible_profiles(degree):
            assert counting.f_gk(cfg, order).series == counting.f_gk_via_potential(cfg, order)


def potential_per_point(config, order):
    """The potential route with one series product per point: the reference
    for the grouped products of f_gk_via_potential."""
    config = tuple(config)
    counting._check_profile(config)
    P = kummer.odd_support(config)
    h_block = [s.compose_monomial(2, order) for s in trig.theta_block_q("h", order // 2)]
    g_block = [s.compose_monomial(2, order) for s in trig.theta_block_q("g", order // 2)]
    yz = qforms.delta_inv_times_q(order).compose_monomial(2)
    acc = Series.zero(order)
    for eps in (kummer.EPS0_MASK, kummer.EPS1_MASK):
        if P ^ eps not in kummer.pi3_members():
            continue
        term = yz.shift(kummer.mask_size(P) // 2 - 2)
        for v, kv in enumerate(config):
            block = h_block if P >> v & 1 else g_block
            if kv >= len(block) or block[kv].is_zero():
                term = Series.zero(order)
                break
            term = term * block[kv]
        acc = acc + term
    return acc


ADMISSIBLE = sorted(kummer.coset_members("even") + kummer.coset_members("odd"))


@st.composite
def admissible_profiles(draw):
    """Entries 0..7 whose odd ones sit exactly on an admissible support, with
    at most two points raised past 1 so that most series are nonzero."""
    P = draw(st.sampled_from(ADMISSIBLE))
    raised = draw(st.dictionaries(st.integers(0, 15), st.integers(1, 3), max_size=2))
    return tuple((P >> v & 1) + 2 * raised.get(v, 0) for v in range(16))


def potential_or_rejection(route, config, order):
    try:
        return route(config, order)
    except DomainError:
        return "rejected"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.one_of(st.tuples(*[st.integers(0, 7)] * 16), admissible_profiles()),
    st.integers(4, 14),
)
@example(profile((0, 4, 8)), 10)  # odd total
@example(profile(COLUMN0), 10)  # inadmissible
@example(profile(ROW0, extra=[(0, 6), (1, 6)]), 4)  # past both blocks' last columns
@example(profile(EPS1, extra=[(5, 6), (6, 6), (1, 2), (2, 2)]), 14)  # repeated picks
def test_grouped_potential_route_matches_per_point_products(config, order):
    got = potential_or_rejection(counting.f_gk_via_potential, config, order)
    assert got == potential_or_rejection(potential_per_point, config, order)


# -- minimal genus and bounds --------------------------------------------------------


def test_min_genus_examples():
    assert counting.min_arith_genus(profile(ROW0)) == 1
    assert counting.min_arith_genus(profile(EPS1)) == 2
    assert counting.min_arith_genus(profile(ROW0, extra=[(0, 2)])) == 5


def test_min_genus_rejects_inadmissible():
    with pytest.raises(DomainError):
        counting.min_arith_genus(profile(COLUMN0))


def test_min_genus_matches_valuation():
    for degree in (4, 6, 8):
        for cfg in kummer.admissible_profiles(degree):
            h = counting.min_arith_genus(cfg)
            series = counting.f_gk(cfg, h + 1).series
            assert series.valuation() == h - 1, cfg


def test_profiles_with_the_same_values_share_shape_and_series():
    # the product formula reads only the value multiset of an admissible profile
    first = {}
    for degree in (4, 6, 8):
        for cfg in kummer.admissible_profiles(degree):
            got = (counting.shape_label(cfg), counting.f_gk(cfg, 12).series)
            assert first.setdefault(tuple(sorted(cfg)), got) == got, cfg
    assert len(first) == 12


def test_smooth_genus_bound():
    assert counting.smooth_genus_bound() == 5
    # maximal case: the complement of eps0 (P + eps0 is everything)
    comp = kummer.FULL_MASK ^ kummer.EPS0_MASK
    assert kummer.mask_size(comp) == 12
    assert kummer.admissible(comp) == "even"
    assert not any(
        kummer.mask_size(P) in (14, 16)
        for w in ("even", "odd")
        for P in kummer.coset_members(w)
    )


# -- genus aggregation -----------------------------------------------------------------


def test_genus1_report():
    report = counting.genus_total(1, 8)
    assert len(report.orbits) == 1
    assert report.orbits[0].size == 4
    assert report.total == Series.one(8)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_genus_total_equals_sum_over_enumerated_orbits(g):
    order = 16
    report = counting.genus_total(g, order)
    want = Series.zero(order)
    for orbit in report.orbits:
        series = counting.f_gk(orbit.rep, order).series
        assert report.shapes[counting.shape_label(orbit.rep)][1] == series
        want = want + series
    assert report.total == want
    assert len(report.orbits) == sum(report.shape_multiplicities().values())


def test_genus_total_enumerates_orbits_only_on_access(monkeypatch):
    def no_enumeration(degree):
        raise AssertionError("translation_orbits called")

    monkeypatch.setattr(kummer, "translation_orbits", no_enumeration)
    report = counting.genus_total(3, 12)
    assert report.shape_multiplicities()["A1(u^4)^2"] == 3
    assert list(cli._table_cells(report, "mult"))[-1][0] == "F_3(u)"
    with pytest.raises(AssertionError):
        report.orbits


def test_genus2_equals_gottsche_combination():
    # E + 3 A_1(u^2) - 2 A_1(u^4) written with C_1 matches the report total
    order = 32
    a1 = qforms.series_A1(order)
    combo = qforms.series_E(order) + a1.compose_monomial(2) * 3 - a1.compose_monomial(4) * 2
    assert counting.genus_total(2, order).total == combo


def test_genus3_report_structure():
    report = counting.genus_total(3, 12)
    counts = report.shape_multiplicities()
    assert counts == {
        "E^2": 3,
        "E*C1(u^2)": 10,
        "C1(u^2)^2": 21,
        "E*A1(u^4)": 6,
        "A1(u^4)*C1(u^2)": 12,
        "C2(u^2)": 3,
        "A2(u^4)": 1,
        "A1(u^4)^2": 3,
    }
    assert sum(o.size for o in report.orbits) == 824


def test_genus3_total_decomposition():
    # the aggregate equals the seven-shape combination plus the two-triple term
    report = counting.genus_total(3, 12)
    a1sq = qforms.macmahon_A(1, 12).compose_monomial(4) ** 2
    combo = Series.zero(12)
    weights = {
        "A2(u^4)": 1,
        "C2(u^2)": 3,
        "A1(u^4)*C1(u^2)": 12,
        "C1(u^2)^2": 21,
        "E*C1(u^2)": 10,
        "E*A1(u^4)": 6,
        "E^2": 3,
    }
    for shape, weight in weights.items():
        combo = combo + report.shapes[shape][1] * weight
    assert report.total == combo + a1sq * 3
    assert [combo[n] for n in range(2, 13)] == [3, 10, 45, 66, 180, 204, 471, 454, 972, 870, 1729]


def test_parity_separation_small_degrees():
    for degree, orbits in ((4, kummer.translation_orbits(4)), (6, kummer.translation_orbits(6))):
        even_exps, odd_exps = set(), set()
        for orbit in orbits:
            series = counting.f_gk(orbit.rep, 16).series
            exps = {n for n in range(17) if series[n] != 0}
            (even_exps if orbit.coset == "even" else odd_exps).update(exps)
        assert all(n % 2 == 0 for n in even_exps)
        assert all(n % 2 == 1 for n in odd_exps)
        assert not even_exps & odd_exps


# -- report serialization -----------------------------------------------------------------


def test_report_json_schema():
    report = counting.genus_total(2, 8)
    data = report.to_json()
    assert data["genus"] == 2 and data["order"] == 8
    assert len(data["orbits"]) == 5
    entry = data["orbits"][0]
    assert set(entry) >= {"rep", "orbit_size", "coset", "shape", "coeffs"}
    json.dumps(data)  # serializable
