import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

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


# -- half-lattice vectors and pairing --------------------------------------------


def test_kummer_member_examples():
    assert kummer.kummer_member(kummer.basis_vector(3))  # odd support empty
    plane = kummer.affine_threeplanes()[0]
    assert kummer.kummer_member(kummer.subset_hat(plane))
    assert not kummer.kummer_member(kummer.subset_hat(kummer.mask_from_points((0, 4))))


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
        assert {kummer.translate_mask(m, t) for m in members} == members


def test_size4_even_sets_are_the_rows():
    rows = {kummer.translate_mask(ROW0, t) for t in (0, 1, 2, 3)}
    small = {m for m in kummer.coset_members("even") if kummer.mask_size(m) == 4}
    assert small == rows


def _compositions_oracle(total, slots):
    # the recursion the stars-and-bars enumeration replaced: head first, ascending
    if slots == 1:
        return [(total,)]
    return [
        (head,) + tail
        for head in range(total + 1)
        for tail in _compositions_oracle(total - head, slots - 1)
    ]


@pytest.mark.parametrize("slots", [1, 2, 16])
@pytest.mark.parametrize("total", range(6))
def test_compositions_match_recursive_oracle(total, slots):
    got = list(kummer._compositions(total, slots))
    assert got == _compositions_oracle(total, slots)
    assert len(got) == comb(total + slots - 1, slots - 1)


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
    assert profile_from(ROW0) in kummer.orbit_of(orbits[0].rep)
    assert orbits[0].rep == min(kummer.orbit_of(profile_from(ROW0)))
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
        assert o.rep == min(kummer.orbit_of(o.rep))


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


def test_orbits_reject_bad_degree():
    for degree in (5, 2):
        with pytest.raises(DomainError):
            kummer.translation_orbits(degree)
        with pytest.raises(DomainError):
            kummer.orbit_counts_by_type(degree)
        with pytest.raises(DomainError):
            next(kummer.admissible_profiles(degree))


# -- Burnside class counts --------------------------------------------------------------


@pytest.mark.parametrize("degree", [4, 6, 8, 10, 12])
def test_burnside_counts_equal_enumeration(degree):
    from hypcount.counting import shape_label

    enumerated = Counter(shape_label(o.rep) for o in kummer.translation_orbits(degree))
    burnside = Counter()
    for rep, n in kummer.orbit_counts_by_type(degree).items():
        assert sum(rep) == degree
        assert kummer.admissible(kummer.odd_support(rep)) is not None
        burnside[shape_label(rep)] += n
    assert burnside == enumerated


def test_burnside_rejects_indivisible_sum(monkeypatch):
    fixed = kummer._fixed_by_translation
    monkeypatch.setattr(
        kummer, "_fixed_by_translation", lambda on, off: fixed(on, off) + 1
    )
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
