"""Affine F_2^4 geometry of the sixteen 2-torsion points.

Points are labels 0..15 with coordinates (c, r) packed as 4c + r, where c
and r are 2-bit vectors; the group law is label XOR.  In the reference
grid, column c comes from one elliptic-curve factor and row r from the
other: row 0 is {0, 4, 8, 12}.

Subsets are 16-bit masks under symmetric difference.  The subgroup Pi_k of
the power set is generated by the affine k-planes; Pi_3 (32 elements: the
empty set, the 30 affine 3-planes, everything) governs which half-integer
exceptional-class combinations live in the ambient primitive lattice, and
through that which odd-multiplicity supports P admit curve counts: P must
differ from one of the two reference sets eps0/eps1 by a Pi_3 element.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from operator import attrgetter, itemgetter

from .errors import DomainError, HypcountError

POINTS = tuple(range(16))
FULL_MASK = 0xFFFF

EPS0_MASK = sum(1 << v for v in (0, 4, 8, 12))
EPS1_MASK = sum(1 << v for v in (1, 2, 3, 4, 8, 12))


def mask_from_points(points) -> int:
    m = 0
    for v in points:
        if not 0 <= v <= 15:
            raise DomainError(f"point label {v} outside 0..15")
        m |= 1 << v
    return m


def points_of_mask(mask: int):
    return [v for v in POINTS if mask >> v & 1]


def mask_size(mask: int) -> int:
    return (mask & FULL_MASK).bit_count()


def translate_mask(mask: int, t: int) -> int:
    out = 0
    for v in POINTS:
        if mask >> v & 1:
            out |= 1 << (v ^ t)
    return out


# ---------------------------------------------------------------------------
# affine subspaces and the Pi_k chain
# ---------------------------------------------------------------------------


def is_affine_plane(mask: int, k: int) -> bool:
    """True iff S is an affine k-plane: |S| = 2^k and S + x0 is a subspace
    for its least point x0, i.e. x0 + y + z lies in S for all y, z in S."""
    if not 0 <= k <= 4:
        raise DomainError("plane dimension must be 0..4")
    pts = points_of_mask(mask)
    if len(pts) != 1 << k:
        return False
    x0 = pts[0]
    for y in pts:
        for z in pts:
            if not mask >> (x0 ^ y ^ z) & 1:
                return False
    return True


# _HALVES[i] = {x : x_i = 1}, the support of the linear functional x -> x_i
_HALVES = tuple(sum(1 << x for x in POINTS if x >> i & 1) for i in range(4))


def in_Pi3(mask: int) -> bool:
    """Membership in Pi_3 by the affine-indicator criterion: the indicator
    of the subset must be an affine functional on F_2^4.

    Then lin(x) = 1_S(x) + 1_S(0) is linear, so its support is the XOR of
    the half-masks of the basis points 1, 2, 4 and 8 that lie in it; the
    test compares lin with that XOR.
    """
    mask &= FULL_MASK
    lin = mask ^ (-(mask & 1) & FULL_MASK)
    span = 0
    for i, half in enumerate(_HALVES):
        if lin >> (1 << i) & 1:
            span ^= half
    return lin == span


def affine_threeplanes() -> list:
    """All 30 affine 3-planes, i.e. level sets of nonzero linear functionals."""
    planes = []
    for f in range(1, 16):
        for a in (0, 1):
            m = 0
            for v in POINTS:
                if (f & v).bit_count() % 2 == a:
                    m |= 1 << v
            planes.append(m)
    return planes


def xor_closure(gens) -> set:
    """The subgroup generated by the masks gens under symmetric difference."""
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


# closure-generated Pi_3, cross-checked against the affine-indicator test
_PI3 = frozenset(xor_closure(affine_threeplanes()))
if len(_PI3) != 32 or not all(in_Pi3(m) for m in _PI3):
    raise AssertionError("Pi_3 closure generation disagrees with the affine test")
if in_Pi3(EPS0_MASK ^ EPS1_MASK):
    raise AssertionError("eps0 and eps1 must lie in distinct Pi_3 cosets")


def pi3_members() -> frozenset:
    return _PI3


# ---------------------------------------------------------------------------
# half-lattice vectors and the intersection pairing
# ---------------------------------------------------------------------------


def subset_hat(mask: int) -> tuple:
    """The half-lattice vector with numerator 1 over each member point
    (the vector sum of E_v/2 over the subset)."""
    return tuple(1 if mask >> v & 1 else 0 for v in POINTS)


def basis_vector(v: int) -> tuple:
    """E_v itself, i.e. numerator 2 at v."""
    return tuple(2 if u == v else 0 for u in POINTS)


def kummer_member(w) -> bool:
    """A half-integer combination of the E_v lies in the primitive lattice
    iff its odd-numerator support is in Pi_3."""
    return in_Pi3(odd_support(w))


def pairing(w1, w2):
    """Bilinear extension of <E_u, E_v> = -2 delta_uv to half-integer
    vectors: -(1/2) sum a_v b_v."""
    acc = sum(a * b for a, b in zip(w1, w2))
    out = -Fraction(acc, 2)
    return int(out) if out.denominator == 1 else out


# ---------------------------------------------------------------------------
# admissibility and translation orbits of multiplicity profiles
# ---------------------------------------------------------------------------


# the 64 admissible supports P, each with its coset: 'even' iff P + eps0 is
# in the closure-generated Pi_3, 'odd' iff P + eps1 is (disjoint, as checked)
_COSETS = {
    eta ^ eps: which for which, eps in (("even", EPS0_MASK), ("odd", EPS1_MASK)) for eta in _PI3
}


def admissible(mask: int):
    """Which coset (if either) the odd-multiplicity support lies in: one
    lookup in the table of the 64 admissible supports, else None."""
    return _COSETS.get(mask & FULL_MASK)


def coset_members(which: str) -> tuple:
    """All 32 admissible supports of one coset, sorted by mask."""
    if which not in ("even", "odd"):
        raise DomainError("coset must be 'even' or 'odd'")
    return tuple(sorted(P for P, coset in _COSETS.items() if coset == which))


# configs are plain 16-tuples of nonnegative ints: entry v is the number of
# branch points (Weierstrass-point images) at the torsion point v


def odd_support(config) -> int:
    """Odd-entry support of a profile, or odd-numerator support of a
    half-lattice vector, as a subset mask."""
    m = 0
    for v, kv in enumerate(config):
        if kv % 2:
            m |= 1 << v
    return m


# entry v of the translate by t is the multiplicity at v + t
_TRANSLATORS = tuple(itemgetter(*(v ^ t for v in POINTS)) for t in POINTS)


def orbit_of(config) -> set:
    return {translate(config) for translate in _TRANSLATORS}


def orbit_rep(config):
    """Canonical representative: lexicographically least translate."""
    return min(translate(config) for translate in _TRANSLATORS)


class Orbit(namedtuple("Orbit", "rep size coset")):
    __slots__ = ()

    def to_json(self) -> dict:
        return {"rep": list(self.rep), "orbit_size": self.size, "coset": self.coset}


def _compositions(total: int, slots: int):
    """Compositions of total into `slots` parts >= 0, in lexicographic
    order: stars and bars, slots - 1 bars among total + slots - 1 places."""
    end = total + slots - 1
    for bars in combinations(range(end), slots - 1):
        prev = -1
        parts = []
        for bar in bars:
            parts.append(bar - prev - 1)
            prev = bar
        parts.append(end - prev - 1)
        yield tuple(parts)


def _check_degree(degree: int) -> None:
    if degree < 4 or degree % 2:
        raise DomainError("degree must be an even integer >= 4")


def admissible_profiles(degree: int):
    """Every admissible multiplicity profile of the given total, support by
    support through the two coset tables.

    A profile is odd exactly on its support P, so it decomposes as 1 on P
    plus twice a composition of (degree - |P|)/2 over all sixteen slots;
    admissibility depends only on P.
    """
    _check_degree(degree)
    for which in ("even", "odd"):
        for P in coset_members(which):
            size = mask_size(P)
            if size > degree:
                continue
            base = [1 if P >> v & 1 else 0 for v in POINTS]
            for comp in _compositions((degree - size) // 2, 16):
                yield tuple(base[v] + 2 * comp[v] for v in POINTS)


@lru_cache(maxsize=1)
def _support_classes() -> tuple:
    """(P, coset, translators of Stab(P) other than 0) for one support P of
    each translation class of the 64 admissible supports.  The class holds
    16 / |Stab(P)| supports, all in P's coset, as the coset sizes differ."""
    classes = {}
    for which in ("even", "odd"):
        for P in coset_members(which):
            key = min(translate_mask(P, t) for t in POINTS)
            if key not in classes:
                stab = [_TRANSLATORS[t] for t in POINTS[1:] if translate_mask(P, t) == P]
                classes[key] = (P, which, tuple(stab))
    return tuple(classes.values())


def translation_orbits(degree: int) -> list:
    """All admissible multiplicity profiles of the given total, grouped under
    the sixteen-point translation action; one Orbit per class, sorted by
    representative.

    A translation maps an admissible support P onto another one, so every
    class meets the profiles on one fixed P of each support class in exactly
    one orbit of Stab(P) = {t : P + t = P}.  The scan keeps a profile on P
    only if it is the least of its Stab(P)-images; its class has 16 / #{t in
    Stab(P) fixing it} members.  A profile is 1 on P plus twice a
    composition, and Stab(P) fixes the 1 on P, so the test runs on the
    composition.  Every profile of the class has its support in P's coset.
    """
    _check_degree(degree)
    orbits = []
    for P, which, stab in _support_classes():
        size = mask_size(P)
        if size > degree:
            continue
        base = [1 if P >> v & 1 else 0 for v in POINTS]
        for comp in _compositions((degree - size) // 2, 16):
            fixing = 1
            for translate in stab:
                image = translate(comp)
                if image < comp:
                    break
                fixing += image == comp
            else:
                config = tuple(base[v] + 2 * comp[v] for v in POINTS)
                rep = orbit_rep(config)
                orbits.append(Orbit(rep, 16 // fixing, which))
    orbits.sort(key=attrgetter("rep"))
    return orbits


# ---------------------------------------------------------------------------
# orbit counts per profile type by Burnside's lemma
# ---------------------------------------------------------------------------


def _partitions(total: int, parts: int, cap: int | None = None):
    """Partitions of total into at most `parts` positive parts, each part
    <= cap, as non-increasing tuples."""
    if total == 0:
        yield ()
        return
    if parts == 0:
        return
    top = total if cap is None else min(total, cap)
    for head in range(top, 0, -1):
        for tail in _partitions(total - head, parts - 1, head):
            yield (head,) + tail


def _multinomial(mults) -> int:
    """Orderings of a multiset with the given value multiplicities."""
    n = factorial(sum(mults))
    for m in mults:
        n //= factorial(m)
    return n


def _fixed_by_translation(on_mults, off_mults) -> int:
    """Profiles with the given value multiplicities on P and off P that a
    nonzero translation t fixing P also fixes.  Such a profile is constant
    on the pairs {v, v + t}, so each value must occur an even number of
    times, and the profile is an ordering of the halved multiset over the
    pairs inside P times one over the pairs outside."""
    if any(m % 2 for m in on_mults) or any(m % 2 for m in off_mults):
        return 0
    return _multinomial([m // 2 for m in on_mults]) * _multinomial(
        [m // 2 for m in off_mults]
    )


def orbit_counts_by_type(degree: int) -> dict:
    """Number of translation-orbit classes of admissible profiles of the
    given total, per profile type, without enumerating the profiles.

    A type is the multiset of values (sorted(profile)); since the odd values
    sit exactly on P, it fixes |P|, the values on P and the values off P.
    Burnside's lemma gives its class count as (1/16) sum_t Fix(t), summed
    over the admissible supports P of that size: t = 0 fixes every ordering
    of the two multisets, and t != 0 fixes a profile only if it fixes P.
    Returns {representative profile: class count}, one entry per type.
    """
    _check_degree(degree)
    supports: dict = {}  # |P| -> [first P, number of P, sum over P of #{t != 0 fixing P}]
    for P, _, stab in _support_classes():
        n_class = 16 // (len(stab) + 1)  # supports in the class, each fixed by stab
        entry = supports.setdefault(mask_size(P), [P, 0, 0])
        entry[1] += n_class
        entry[2] += n_class * len(stab)
    counts = {}
    for size, (P, n_supports, n_fixing) in sorted(supports.items()):
        if size > degree:
            continue
        inside = points_of_mask(P)
        outside = points_of_mask(FULL_MASK ^ P)
        spread = (degree - size) // 2
        for on_spread in range(spread + 1):
            for on in _partitions(on_spread, size):
                for off in _partitions(spread - on_spread, 16 - size):
                    on_values = [1 + 2 * a for a in on] + [1] * (size - len(on))
                    off_values = [2 * b for b in off] + [0] * (16 - size - len(off))
                    on_mults = list(Counter(on_values).values())
                    off_mults = list(Counter(off_values).values())
                    fixed = n_supports * _multinomial(on_mults) * _multinomial(off_mults)
                    fixed += n_fixing * _fixed_by_translation(on_mults, off_mults)
                    if fixed % 16:
                        raise HypcountError(
                            f"Burnside sum {fixed} for values {sorted(on_values + off_values)} "
                            "is not divisible by 16"
                        )
                    rep = [0] * 16
                    for v, kv in zip(inside + outside, on_values + off_values):
                        rep[v] = kv
                    counts[tuple(rep)] = fixed // 16
    return counts
