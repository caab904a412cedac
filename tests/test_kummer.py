import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from hypcount.errors import DomainError, HypcountError
from hypcount import kummer


ROW0 = kummer.EPS0_MASK
COLUMN0 = kummer.mask_from_points((0, 1, 2, 3))


# -- affine planes -------------------------------------------------------------


def test_row_is_a_2plane():
    assert kummer.is_affine_plane(ROW0, 2)


def test_singleton_is_a_0plane():
    assert kummer.is_affine_plane(1 << 5, 0)


def test_wrong_cardinality_is_no_plane():
    m = kummer.mask_from_points((0, 1, 2))
    assert not any(kummer.is_affine_plane(m, k) for k in range(5))


def test_threeplane_count():
    planes = kummer.affine_threeplanes()
    assert len(planes) == 30
    assert all(kummer.is_affine_plane(p, 3) for p in planes)


def _affine_plane_oracle(mask, k):
    # the three-point definition: size 2^k and x + y + z in S for all x, y, z in S
    pts = [v for v in range(16) if mask >> v & 1]
    return len(pts) == 1 << k and all(
        mask >> (x ^ y ^ z) & 1 for x in pts for y in pts for z in pts
    )


@pytest.mark.parametrize("size", [1, 2, 4, 16])
def test_affine_plane_matches_three_point_oracle(size):
    for mask in range(1 << 16):
        if mask.bit_count() == size:
            for k in range(5):
                assert kummer.is_affine_plane(mask, k) == _affine_plane_oracle(mask, k)


def test_affine_plane_matches_three_point_oracle_on_8_sets():
    rng = random.Random(15)
    masks = kummer.affine_threeplanes() + [
        kummer.mask_from_points(rng.sample(range(16), 8)) for _ in range(300)
    ]
    for mask in masks:
        for k in range(5):
            assert kummer.is_affine_plane(mask, k) == _affine_plane_oracle(mask, k)
    assert sum(_affine_plane_oracle(m, 3) for m in masks) >= 30


# -- Pi_3 -----------------------------------------------------------------------


def test_pi3_examples():
    assert kummer.in_Pi3(0)
    assert kummer.in_Pi3(kummer.FULL_MASK)
    assert all(kummer.in_Pi3(p) for p in kummer.affine_threeplanes())
    assert not kummer.in_Pi3(ROW0)


def test_pi3_closure_matches_indicator_everywhere():
    members = kummer.pi3_members()
    assert len(members) == 32
    hits = {m for m in range(1 << 16) if kummer.in_Pi3(m)}
    assert hits == set(members)


def test_pi3_sizes():
    sizes = sorted(kummer.mask_size(m) for m in kummer.pi3_members())
    assert sizes == [0] + [8] * 30 + [16]


def _closure_oracle(gens):
    # breadth-first walk: XOR every generator onto each newly found member
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                c = m ^ g
                if c not in members:
                    members.add(c)
                    nxt.append(c)
        frontier = nxt
    return members


MASKS = st.one_of(st.integers(0, kummer.FULL_MASK), st.integers(0, 15), st.just(0))


@st.composite
def generator_lists(draw):
    """0..14 masks: random 16-bit values, small values and 0, some repeated."""
    gens = draw(st.lists(MASKS, max_size=10))
    repeats = draw(st.lists(st.sampled_from(gens), max_size=4)) if gens else []
    return draw(st.permutations(gens + repeats))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(generator_lists())
def test_xor_closure_matches_frontier_walk(gens):
    assert kummer.xor_closure(gens) == _closure_oracle(gens)


def test_xor_closure_of_the_plane_families():
    twoplanes = [
        m
        for m in map(kummer.mask_from_points, combinations(range(16), 4))
        if kummer.is_affine_plane(m, 2)
    ]
    assert len(twoplanes) == 140
    assert kummer.xor_closure([]) == {0}
    assert kummer.xor_closure([kummer.FULL_MASK]) == {0, kummer.FULL_MASK}  # Pi_4
    for gens, size in ((kummer.affine_threeplanes(), 32), (twoplanes, 2048)):
        closure = kummer.xor_closure(gens)
        assert len(closure) == size and closure == _closure_oracle(gens)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-7, 7)] * 16))
def test_odd_support_matches_per_entry_loop(vector):
    # half-lattice vectors have negative numerators; kv % 2 is 1 for odd kv
    want = 0
    for v, kv in enumerate(vector):
        if kv % 2:
            want |= 1 << v
    assert kummer.odd_support(vector) == want


# -- half-lattice vectors and pairing --------------------------------------------


def test_pairing_reference_values():
    e0 = kummer.subset_hat(kummer.EPS0_MASK)
    e1 = kummer.subset_hat(kummer.EPS1_MASK)
    assert kummer.pairing(e0, e0) == -2
    assert kummer.pairing(e0, e1) == Fraction(-3, 2)  # overlap {4, 8, 12}
    v = kummer.basis_vector(7)
    assert kummer.pairing(v, v) == -2


def test_pairing_bilinear_symmetric():
    rng = random.Random(3)
    for _ in range(50):
        w1 = tuple(rng.randint(-3, 3) for _ in range(16))
        w2 = tuple(rng.randint(-3, 3) for _ in range(16))
        w3 = tuple(rng.randint(-3, 3) for _ in range(16))
        assert kummer.pairing(w1, w2) == kummer.pairing(w2, w1)
        s = tuple(a + b for a, b in zip(w2, w3))
        assert kummer.pairing(w1, s) == kummer.pairing(w1, w2) + kummer.pairing(w1, w3)


# -- admissibility -----------------------------------------------------------------


def test_admissible_reference_sets():
    assert kummer.admissible(kummer.EPS0_MASK) == "even"
    assert kummer.admissible(kummer.EPS1_MASK) == "odd"
    assert kummer.admissible(COLUMN0) is None


def test_coset_tables():
    even = kummer.coset_members("even")
    odd = kummer.coset_members("odd")
    assert len(even) == len(odd) == 32
    assert not set(even) & set(odd)
    esizes = sorted(map(kummer.mask_size, even))
    osizes = sorted(map(kummer.mask_size, odd))
    assert esizes == [4] * 4 + [8] * 24 + [12] * 4
    assert osizes == [6] * 16 + [10] * 16
    assert max(esizes + osizes) == 12


def test_coset_members_rejects_unknown_coset():
    with pytest.raises(DomainError, match="coset must be 'even' or 'odd'"):
        kummer.coset_members("bogus")


def test_admissible_matches_affine_indicator_on_every_mask():
    for m in range(1 << 16):
        if kummer.in_Pi3(m ^ kummer.EPS0_MASK):
            want = "even"
        elif kummer.in_Pi3(m ^ kummer.EPS1_MASK):
            want = "odd"
        else:
            want = None
        assert kummer.admissible(m) == want, hex(m)


@pytest.mark.parametrize("which", ["even", "odd"])
def test_cosets_are_closed_under_translation(which):
    members = set(kummer.coset_members(which))
    for t in range(16):
        assert {translate_pointwise(m, t) for m in members} == members


def translate_pointwise(mask, t):
    return sum(1 << (v ^ t) for v in range(16) if mask >> v & 1)


def orbit_of(config):
    # the sixteen translates of a profile: entry v of the translate by t is config[v ^ t]
    return {tuple(config[v ^ t] for v in range(16)) for t in range(16)}


def test_support_classes_equal_pointwise_construction():
    # one support per class, the first met, with its coset and stabilizer,
    # built as the least translate keyed them
    classes = {}
    for which in ("even", "odd"):
        for P in kummer.coset_members(which):
            key = min(translate_pointwise(P, t) for t in range(16))
            if key not in classes:
                stab = tuple(t for t in range(1, 16) if translate_pointwise(P, t) == P)
                classes[key] = (P, which, stab)
    assert kummer._support_classes() == tuple(classes.values())


def test_size4_even_sets_are_the_rows():
    rows = {translate_pointwise(ROW0, t) for t in (0, 1, 2, 3)}
    small = {m for m in kummer.coset_members("even") if kummer.mask_size(m) == 4}
    assert small == rows


# -- translation orbits --------------------------------------------------------------


def profile_from(mask, extra=()):
    profile = [1 if mask >> v & 1 else 0 for v in range(16)]
    for v, add in extra:
        profile[v] += add
    return tuple(profile)


def test_orbits_degree4():
    orbits = kummer.translation_orbits(4)
    assert len(orbits) == 1
    assert orbits[0].size == 4
    # the orbit is the four rows; its lex-least member marks row 3
    assert profile_from(ROW0) in orbit_of(orbits[0].rep)
    assert orbits[0].rep == min(orbit_of(profile_from(ROW0)))
    assert orbits[0].coset == "even"


def test_orbits_degree6():
    orbits = kummer.translation_orbits(6)
    assert len(orbits) == 5
    from hypcount.counting import shape_label

    shapes = sorted(shape_label(o.rep) for o in orbits)
    assert shapes == ["A1(u^4)", "C1(u^2)", "C1(u^2)", "C1(u^2)", "E"]
    assert sum(o.size for o in orbits) == 80


def test_orbits_degree8_shape_multiplicities():
    from hypcount.counting import shape_label

    orbits = kummer.translation_orbits(8)
    counts = {}
    for o in orbits:
        label = shape_label(o.rep)
        counts[label] = counts.get(label, 0) + 1
    assert counts["A2(u^4)"] == 1
    assert counts["C2(u^2)"] == 3
    assert counts["A1(u^4)*C1(u^2)"] == 12
    assert counts["C1(u^2)^2"] == 21
    assert counts["E*C1(u^2)"] == 10
    assert counts["E*A1(u^4)"] == 6
    assert counts["E^2"] == 3
    # the full enumeration also contains the two-triple classes
    assert counts["A1(u^4)^2"] == 3
    assert len(orbits) == 59


def test_orbit_sizes_partition_configs():
    # independent recount of all admissible profiles at degrees 4 and 6
    def brute_count(degree):
        count = 0

        def scan(v, remaining, profile):
            nonlocal count
            if v == 15:
                profile.append(remaining)
                if kummer.admissible(kummer.odd_support(profile)) is not None:
                    count += 1
                profile.pop()
                return
            for kv in range(remaining + 1):
                profile.append(kv)
                scan(v + 1, remaining - kv, profile)
                profile.pop()

        scan(0, degree, [])
        return count

    for degree in (4, 6):
        orbits = kummer.translation_orbits(degree)
        assert sum(o.size for o in orbits) == brute_count(degree)
    assert sum(o.size for o in kummer.translation_orbits(8)) == 824


def test_orbit_rep_is_lex_least():
    rng = random.Random(77)
    orbits = kummer.translation_orbits(8)
    for o in rng.sample(orbits, 10):
        assert o.rep == min(orbit_of(o.rep))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(0, 3)] * 16))
@example((0,) * 16)
@example((2,) * 16)
@example((0,) * 9 + (5,) + (0,) * 6)
@example((3, 3, 1, 3, 0, 3, 0, 3, 0, 3, 1, 1, 0, 1, 2, 1))  # four tied minima, the last one least
def test_orbit_rep_is_least_of_all_translates(config):
    # orbit_rep compares only the translates that start with min(config)
    assert kummer.orbit_rep(config) == min(orbit_of(config))


@pytest.mark.parametrize("degree", [4, 6, 8, 10, 12])
def test_translation_orbits_equal_brute_force(degree):
    # oracle: every admissible profile, its 16 translates taken point by point
    orbits = {}
    for config in kummer.admissible_profiles(degree):
        translates = {tuple(config[v ^ t] for v in range(16)) for t in range(16)}
        rep = min(translates)
        P = kummer.odd_support(rep)
        coset = "even" if kummer.in_Pi3(P ^ kummer.EPS0_MASK) else "odd"
        orbits[rep] = kummer.Orbit(rep, len(translates), coset)
    assert kummer.translation_orbits(degree) == [orbits[rep] for rep in sorted(orbits)]


@pytest.mark.parametrize("degree", [4, 6, 8, 10, 12])
def test_admissible_profiles_are_complete(degree):
    # each translation class holds orbit_size profiles, so the classes count them all
    profiles = list(kummer.admissible_profiles(degree))
    assert len(set(profiles)) == len(profiles)
    for config in profiles:
        assert len(config) == 16 and min(config) >= 0 and sum(config) == degree
        assert kummer.admissible(kummer.odd_support(config)) is not None
    assert len(profiles) == sum(o.size for o in kummer.translation_orbits(degree))


def test_orbits_reject_bad_degree():
    for degree in (5, 2):
        with pytest.raises(DomainError):
            kummer.translation_orbits(degree)
        with pytest.raises(DomainError):
            kummer.orbit_counts_by_type(degree)
        with pytest.raises(DomainError):
            next(kummer.admissible_profiles(degree))


def test_orbit_rows_reject_a_degree_past_a_byte():
    # a packed row holds each entry in one byte
    for enumerate_classes in (kummer.orbit_rows, kummer.translation_orbits):
        with pytest.raises(DomainError, match="degree must be <= 255"):
            enumerate_classes(256)


# -- Burnside class counts --------------------------------------------------------------


@pytest.mark.parametrize("degree", [4, 6, 8, 10, 12])
def test_burnside_counts_equal_enumeration(degree):
    # a profile type is its sorted value tuple; the counts are keyed by it
    burnside = kummer.orbit_counts_by_type(degree)
    assert Counter(tuple(sorted(o.rep)) for o in kummer.translation_orbits(degree)) == burnside
    for values in burnside:
        assert list(values) == sorted(values) and sum(values) == degree
        # the odd values sit on an admissible support, of size 4..12 and even
        assert sum(kv % 2 for kv in values) in {4, 6, 8, 10, 12}


def nested_orbit_counts_by_type(degree):
    """The per-type Burnside walk split by support size, then by how the
    spread splits on and off P, then by partition on P and off P."""
    supports = {}  # |P| -> [number of P, sum over P of #{t != 0 fixing P}]
    for P, _, stab in kummer._support_classes():
        n_class = 16 // (len(stab) + 1)
        entry = supports.setdefault(kummer.mask_size(P), [0, 0])
        entry[0] += n_class
        entry[1] += n_class * len(stab)
    counts = {}
    for size, (n_supports, n_fixing) in sorted(supports.items()):
        spread = (degree - size) // 2
        for on_spread in range(spread + 1):
            for on in kummer._partitions(on_spread, size):
                for off in kummer._partitions(spread - on_spread, 16 - size):
                    on_values = [1 + 2 * a for a in on] + [1] * (size - len(on))
                    off_values = [2 * b for b in off] + [0] * (16 - size - len(off))
                    on_mults = list(Counter(on_values).values())
                    off_mults = list(Counter(off_values).values())
                    fixed = n_supports * kummer._multinomial(on_mults) * kummer._multinomial(off_mults)
                    if not any(m % 2 for m in on_mults + off_mults):
                        fixed += (
                            n_fixing
                            * kummer._multinomial([m // 2 for m in on_mults])
                            * kummer._multinomial([m // 2 for m in off_mults])
                        )
                    assert fixed % 16 == 0
                    counts[tuple(sorted(on_values + off_values))] = fixed // 16
    return counts


@pytest.mark.parametrize("degree", range(4, 41, 2))
def test_burnside_walk_matches_nested_walk(degree):
    # one walk over the partitions of the degree against the split by
    # support size and by the values on and off P
    assert kummer.orbit_counts_by_type(degree) == nested_orbit_counts_by_type(degree)


def test_burnside_rejects_indivisible_sum(monkeypatch):
    # drop one translator from the stabiliser of the first size-4 support:
    # the tally of supports and fixing translations no longer sums to 16 per class
    classes = list(kummer._support_classes())
    first = next(i for i, (P, _, _) in enumerate(classes) if kummer.mask_size(P) == 4)
    P, which, stab = classes[first]
    classes[first] = (P, which, stab[1:])
    monkeypatch.setattr(kummer, "_support_classes", lambda: tuple(classes))
    with pytest.raises(HypcountError, match="not divisible by 16"):
        kummer.orbit_counts_by_type(4)


# Burnside/Polya closed form of the total class count (translation group
# (Z/2)^4 acting regularly on the 16 points).  SUPPORTS[s] is the number of
# admissible odd supports P of size s; FIXING[s] sums, over those P, the
# translations t != 0 with P + t = P.  The identity fixes every spread of
# the (d - s)/2 even excess pairs over 16 points; such a t fixes a profile
# only if it is constant on t's 8 two-point orbits, so (d - s)/4 excess
# quadruples go over 8 orbits.
SUPPORTS = {4: 4, 6: 16, 8: 24, 10: 16, 12: 4}
FIXING = {4: 12, 8: 24, 12: 12}
CLASS_COUNTS = {4: 1, 6: 5, 8: 59, 10: 365, 12: 2045, 14: 9116, 16: 35884, 18: 124236, 20: 391446}


def closed_form_class_count(d):
    fixed = sum(n * comb((d - s) // 2 + 15, 15) for s, n in SUPPORTS.items() if s <= d)
    fixed += sum(
        n * comb((d - s) // 4 + 7, 7) for s, n in FIXING.items() if s <= d and (d - s) % 4 == 0
    )
    assert fixed % 16 == 0
    return fixed // 16


@pytest.mark.parametrize("degree", range(4, 27, 2))
def test_class_count_matches_closed_form(degree):
    # past degree 12 no enumeration test reaches the Burnside walk; a
    # support-size slip there first shows at degree 22
    count = sum(kummer.orbit_counts_by_type(degree).values())
    assert count == closed_form_class_count(degree)
    assert count == CLASS_COUNTS.get(degree, count)


@pytest.mark.parametrize("degree", range(4, 17, 2))
def test_slot_scan_meets_every_profile_once(degree):
    # the profiles on the size-s supports are SUPPORTS[s] times the multisets
    # of (d - s)/2 slots over 16 points; a Stab(P) test that keeps two slot
    # multisets of one orbit, or miscounts the translations fixing one,
    # breaks the sum or the class count
    orbits = kummer.translation_orbits(degree)
    sizes = Counter()
    for o in orbits:
        sizes[sum(kv % 2 for kv in o.rep)] += o.size
    assert sizes == {
        s: n * comb((degree - s) // 2 + 15, 15) for s, n in SUPPORTS.items() if s <= degree
    }
    assert len(orbits) == CLASS_COUNTS[degree]
