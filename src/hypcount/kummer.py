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

Translation classes of admissible profiles are packed 18-byte rows
(`orbit_rows`); `translation_orbits` gives them as `Orbit`s.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, compress, repeat
from math import factorial
from operator import itemgetter, xor

from .errors import DomainError, HypcountError

POINTS = tuple(range(16))
_BITS = tuple(1 << v for v in POINTS)
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


def mask_size(mask: int) -> int:
    return (mask & FULL_MASK).bit_count()


# ---------------------------------------------------------------------------
# affine subspaces and the Pi_k chain
# ---------------------------------------------------------------------------


def is_affine_plane(mask: int, k: int) -> bool:
    """True iff S is an affine k-plane: |S| = 2^k and S + x0 is a subspace
    for its least point x0, i.e. x0 + y + z lies in S for all y, z in S."""
    if not 0 <= k <= 4:
        raise DomainError("plane dimension must be 0..4")
    pts = [v for v in POINTS if mask >> v & 1]
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


# _LINEAR[j] is the support of the linear functional with values j_i at the
# basis points 2^i: the XOR of the half-masks _HALVES[i] over the bits of j
_LINEAR = tuple(reduce(xor, compress(_HALVES, (j >> i & 1 for i in range(4))), 0) for j in POINTS)


def in_Pi3(mask: int) -> bool:
    """Membership in Pi_3 by the affine-indicator criterion: the indicator
    of the subset must be an affine functional on F_2^4.

    Then lin(x) = 1_S(x) + 1_S(0) is linear, so it is determined by its
    values at the basis points 1, 2, 4 and 8; the test compares lin with
    the table entry those four bits index.
    """
    mask &= FULL_MASK
    lin = mask ^ (-(mask & 1) & FULL_MASK)
    return lin == _LINEAR[lin >> 1 & 3 | lin >> 2 & 4 | lin >> 5 & 8]


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
    """The subgroup generated by the masks gens under symmetric difference,
    doubled once per generator that is not yet a member."""
    members = {0}
    for g in gens:
        if g not in members:
            members |= {m ^ g for m in members}
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


def pairing(w1, w2):
    """Bilinear extension of <E_u, E_v> = -2 delta_uv to half-integer
    vectors: -(1/2) sum a_v b_v."""
    from fractions import Fraction  # only verify reads the pairing
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
    return sum(compress(_BITS, [kv % 2 for kv in config]))


# entry v of the translate by t is the multiplicity at v + t
_TRANSLATORS = tuple(itemgetter(*(v ^ t for v in POINTS)) for t in POINTS)


def orbit_rep(config):
    """Canonical representative: lexicographically least translate.  The
    translate by t starts with config[t], so only a t at a least entry can win."""
    low = min(config)
    return min([_TRANSLATORS[t](config) for t in POINTS if config[t] == low])


Orbit = namedtuple("Orbit", "rep size coset")

_COSET_CODES = ("even", "odd")  # a packed row's last byte indexes its coset


def _check_degree(degree: int) -> None:
    if degree < 4 or degree % 2:
        raise DomainError("degree must be an even integer >= 4")


def _on_support(P: int, degree: int):
    """(base, slot multisets) of the profiles of the given total odd exactly on
    the support P: base is 1 on P, and `_with_slots` adds 2 on each slot of a
    multiset (a sorted tuple) of (degree - |P|)/2 of the sixteen points; no
    multisets when |P| > degree.  Both enumerators below walk them."""
    base = [1 if P >> v & 1 else 0 for v in POINTS]
    half = (degree - mask_size(P)) // 2
    return base, combinations_with_replacement(POINTS, half) if half >= 0 else ()


def _with_slots(base: list, slots) -> tuple:
    config = base.copy()
    for v in slots:
        config[v] += 2
    return tuple(config)


def admissible_profiles(degree: int):
    """Every admissible multiplicity profile of the given total: the slot
    multisets of `_on_support` on each admissible support P, coset by coset."""
    _check_degree(degree)
    for which in ("even", "odd"):
        for P in coset_members(which):
            base, multisets = _on_support(P, degree)
            yield from map(_with_slots, repeat(base), multisets)


@lru_cache(maxsize=1)
def _support_classes() -> tuple:
    """(P, coset, translations t != 0 in Stab(P)) for one support P of each
    translation class of the 64 admissible supports.  The class holds
    16 / |Stab(P)| supports, all in P's coset, as the coset sizes differ."""
    classes, seen = [], set()
    for which in ("even", "odd"):
        for P in coset_members(which):
            if P not in seen:  # P is the first support met of its class
                images = [sum(1 << (v ^ t) for v in POINTS if P >> v & 1) for t in POINTS]
                seen.update(images)
                classes.append((P, which, tuple(t for t in POINTS[1:] if images[t] == P)))
    return tuple(classes)


def orbit_rows(degree: int) -> list:
    """All admissible multiplicity profiles of the given total, grouped under
    the sixteen-point translation action: one packed 18-byte row per class,
    sorted.  A row holds the 16 entries of the class's `orbit_rep`, then the
    class size, then 0 for the even coset or 1 for the odd one; every value
    fits a byte for degrees up to 255, and as the 16-byte prefixes differ,
    the rows sort as their representatives do.

    A translation maps an admissible support P onto another one, so every
    class meets the profiles on one fixed P of each support class in exactly
    one orbit of Stab(P) = {t : P + t = P}.  The scan walks `_on_support`
    as `admissible_profiles` does; Stab(P) fixes the 1 on P, so it acts on
    the slot multiset alone.  A profile is built only if its sorted slots
    are the least of their Stab(P)-images; its class has 16 / #{t in Stab(P)
    fixing the slots} members, all with supports in P's coset.
    """
    _check_degree(degree)
    if degree > 255:
        raise DomainError("degree must be <= 255, the largest entry a packed row holds")
    rows = []
    for P, which, stab in _support_classes():
        code = _COSET_CODES.index(which)
        base, multisets = _on_support(P, degree)
        for slots in multisets:
            fixing = 1
            for t in stab:
                image = tuple(sorted([v ^ t for v in slots]))
                if image < slots:
                    break
                fixing += image == slots
            else:
                rows.append(bytes((*orbit_rep(_with_slots(base, slots)), 16 // fixing, code)))
    rows.sort()
    return rows


def unpack_rows(rows):
    """(rep, size, coset) of each packed row of `orbit_rows`, in order; rep is
    the bytes of the 16 entries, which iterate, sort and join as ints do."""
    for row in rows:
        yield row[:16], row[16], _COSET_CODES[row[17]]


def translation_orbits(degree: int) -> list:
    """The classes of `orbit_rows` as `Orbit`s, each with a tuple rep, sorted
    by representative."""
    return [Orbit(tuple(rep), size, coset) for rep, size, coset in unpack_rows(orbit_rows(degree))]


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


def orbit_counts_by_type(degree: int) -> dict:
    """Number of translation-orbit classes of admissible profiles of the
    given total, per profile type, in one walk over the types.

    A type is the multiset of values (sorted(profile)), a partition of the
    degree into at most 16 parts; the odd values sit exactly on P, so it
    fixes |P|.  Burnside's lemma gives its class count as (1/16) sum_t
    Fix(t), summed over the admissible supports P of that size: t = 0 fixes
    every ordering of the values on P and of those off P, and t != 0 fixes
    a profile only if it fixes P and the profile is constant on the 8 pairs
    {v, v + t}, an ordering of the halved multisets over the pairs.
    Returns {sorted values: class count}, one entry per type.
    """
    _check_degree(degree)
    n0, nt = Counter(), Counter()  # |P| -> number of P, sum over P of #{t != 0 fixing P}
    for P, _, stab in _support_classes():
        n_class = 16 // (len(stab) + 1)  # supports in the class, each fixed by stab
        n0[mask_size(P)] += n_class
        nt[mask_size(P)] += n_class * len(stab)
    counts = {}
    for part in _partitions(degree, 16):
        mults = Counter(part)
        mults[0] = 16 - len(part)  # the zeros; a multiplicity 0 changes no term
        on = [m for v, m in mults.items() if v % 2]
        size = sum(on)
        if size not in n0:  # no admissible support has this size
            continue
        off = [m for v, m in mults.items() if not v % 2]
        fixed = n0[size] * _multinomial(on) * _multinomial(off)
        if not any(m % 2 for m in mults.values()):
            fixed += nt[size] * _multinomial([m // 2 for m in on]) * _multinomial(
                [m // 2 for m in off]
            )
        values = (0,) * mults[0] + part[::-1]
        if fixed % 16:
            raise HypcountError(
                f"Burnside sum {fixed} for values {list(values)} is not divisible by 16"
            )
        counts[values] = fixed // 16
    return counts
