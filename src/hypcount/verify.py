"""Identity-suite driver behind the ``verify`` CLI command.

Each check re-derives one of the library's structural identities and
reports PASS/FAIL with the identity's source anchor.  Randomized checks
draw from a fixed-seed generator so runs are reproducible; golden-file
comparisons report the first mismatched coefficient.
"""

from __future__ import annotations

import json
import random
from collections import Counter, namedtuple
from fractions import Fraction
from importlib import resources
from itertools import combinations_with_replacement
from math import isqrt

from .fps import Series
from . import SUITES, counting, kummer, numtheory, qforms, trig

CheckResult = namedtuple("CheckResult", "suite name source ok detail")


def load_golden(name: str) -> dict:
    path = resources.files("hypcount.golden").joinpath(name)
    return json.loads(path.read_text())


def _first_mismatch(computed, expected, exponents=None):
    """Index and values of the first differing coefficient, or None."""
    for i, (c, e) in enumerate(zip(computed, expected)):
        if c != e:
            label = exponents[i] if exponents else i
            return f"first mismatch at u^{label}: computed {c}, reference {e}"
    if len(computed) != len(expected):
        return f"length mismatch: {len(computed)} vs {len(expected)}"
    return None


# ---------------------------------------------------------------------------
# fps suite
# ---------------------------------------------------------------------------


def _random_series(rng, order, invertible=False):
    coeffs = [rng.randint(-4, 4) for _ in range(order + 1)]
    if rng.random() < 0.3:
        i = rng.randrange(order + 1)
        coeffs[i] = Fraction(rng.randint(-8, 8), rng.choice((2, 3, 5)))
    if invertible:
        coeffs[0] = rng.choice((1, -1, 2, 3))
    return Series(coeffs, order)


def check_ring_axioms(order, rng):
    for _ in range(40):
        a = _random_series(rng, 16)
        b = _random_series(rng, 16)
        c = _random_series(rng, 16)
        if (a + b) * c != a * c + b * c:
            return False, "distributivity failed"
        if a * b != b * a:
            return False, "commutativity failed"
        if (a * b) * c != a * (b * c):
            return False, "associativity failed"
    return True, "40 random triples at order 16"


def check_invert_roundtrip(order, rng):
    n = 200
    for _ in range(n):
        a = _random_series(rng, 64, invertible=True)
        if a * a.invert() != Series.one(64):
            return False, f"a * a^-1 != 1 for {a!r}"
    return True, f"{n} random invertible series at order 64"


def check_qderiv_derivation(order, rng):
    for _ in range(40):
        a = _random_series(rng, 20)
        b = _random_series(rng, 20)
        if (a * b).qderiv() != a.qderiv() * b + a * b.qderiv():
            return False, "product rule failed"
    return True, "product rule on 40 random pairs"


def check_compose_nesting(order, rng):
    for _ in range(40):
        a = _random_series(rng, 24)
        m, n = rng.choice(((2, 2), (2, 3), (3, 2), (1, 5), (4, 2)))
        if a.compose_monomial(m).compose_monomial(n) != a.compose_monomial(m * n):
            return False, f"nesting failed for m={m}, n={n}"
    return True, "monomial substitutions compose on 40 random series"


def check_coeff_denominators(order, rng):
    # order 16 takes the schoolbook product, order 64 the Kronecker one
    for o in (16, 64):
        for _ in range(10):
            a, b = _random_series(rng, o), _random_series(rng, o)
            d, e = rng.randint(1, 12), rng.randint(1, 12)
            if (a * Fraction(1, d)) * (b * Fraction(1, e)) != (a * b) * Fraction(1, d * e):
                return False, f"scaling by 1/{d} and 1/{e} does not commute with the product"
    return True, "(a/d)(b/e) = ab/(de) on 10 random pairs at each of orders 16 and 64"


# ---------------------------------------------------------------------------
# qforms suite (with the divisor-sum arithmetic it rests on)
# ---------------------------------------------------------------------------


def check_macmahon_A_cross(order, rng):
    o = max(order, 256)
    for k in range(1, 6):
        if qforms.macmahon_A_direct(k, o) != qforms.macmahon_A_recursive(k, o):
            return False, f"A_{k} nested sum != recursion at order {o}"
    return True, f"A_k nested sums equal recursions, k=1..5, order {o}"


def check_macmahon_C_cross(order, rng):
    o = max(order, 256)
    for k in range(1, 6):
        if qforms.macmahon_C_direct(k, o) != qforms.macmahon_C_recursive(k, o):
            return False, f"C_{k} nested sum != recursion at order {o}"
    return True, f"C_k nested sums equal recursions, k=1..5, order {o}"


def check_A1_divisor(order, rng):
    o = max(order, 128)
    table = numtheory.sigma1_table(o)
    want = Series([0] + table[1 : o + 1], o)
    ok = qforms.macmahon_A_direct(1, o) == want
    return ok, f"A_1 = sum sigma_1(n) q^n to order {o}"


def check_C1_from_A1(order, rng):
    o = max(order, 128)
    a1 = qforms.series_A1(o)
    ok = qforms.macmahon_C_recursive(1, o) == a1 - a1.compose_monomial(2)
    ok = ok and qforms.macmahon_C_direct(1, o) == a1 - a1.compose_monomial(2)
    return ok, f"C_1 = A_1(q) - A_1(q^2) to order {o}, both constructions"


def check_poch_split(order, rng):
    o = max(order, 70)  # a generalized pentagonal number: (q;q) has a q^70 term
    ok = qforms.pochhammer(1, 1, o) * qforms.pochhammer(-1, 1, o) == qforms.pochhammer(1, 2, o)
    for sign, scale in ((1, 1), (-1, 1), (1, 2)):
        product = Series.one(o)
        for k in range(1, o // scale + 1):
            product = product * Series.from_terms({0: 1, k * scale: -sign}, o)
        ok = ok and qforms.pochhammer(sign, scale, o) == product
    return ok, f"(q;q), (-q;q), (q^2;q^2) by finite products; (q;q)(-q;q) = (q^2;q^2) to order {o}"


def check_legendre(order, rng):
    o = max(order, 64)
    table = numtheory.sigma1_table(2 * o + 1)
    want = Series([table[2 * k + 1] for k in range(o + 1)], o)
    return qforms.legendre_series(o) == want, (
        f"((q;q)(-q;q)^2)^4 = sum sigma_1(2k+1) q^k to order {o}"
    )


def check_theta_sixteenth(order, rng):
    o = max(order, 64)
    ok = qforms.theta2_fourth(o) * Fraction(1, 16) == qforms.series_E(o)
    return ok, f"E = (two-sided theta_2)^4 / 16 to order {o}"


def check_gottsche_operator(order, rng):
    o = max(order, 128)
    table = numtheory.sigma1_table(o)
    want = Series([n * n * table[n] if n else 0 for n in range(o + 1)], o)
    ok = qforms.series_A1(o).qderiv().qderiv() == want
    return ok, f"(q d/dq)^2 A_1 = sum n^2 sigma_1(n) q^n to order {o}"


def check_eisenstein_remark(order, rng):
    ok = qforms.series_A1(order) == qforms.series_E2(order) + Fraction(1, 24)
    return ok, "sum sigma_1(d) u^d = E_2(u) + 1/24 under the fixed normalization"


def check_yau_zaslow_prefix(order, rng):
    golden = load_golden("yau_zaslow.json")
    want = golden["coeffs"]
    got = [qforms.delta_inv_times_q(len(want) - 1)[n] for n in range(len(want))]
    diff = _first_mismatch(got, want)
    if diff:
        return False, diff
    return True, "q/Delta prefix " + " + ".join(str(c) for c in want[:4]) + "..."


def check_sigma_halving(order, rng):
    bad = [n for n in range(1, 10_001) if not numtheory.sigma1_lemma_check(n)]
    if bad:
        return False, f"halving law fails at n={bad[0]}"
    return True, "sigma_1 halving laws hold for all n <= 10^4"


def check_sigma_multiplicative(order, rng):
    from math import gcd

    done = 0
    while done < 500:
        m = rng.randint(2, 10_000)
        n = rng.randint(2, 10_000)
        if gcd(m, n) != 1:
            continue
        if numtheory.sigma1(m * n) != numtheory.sigma1(m) * numtheory.sigma1(n):
            return False, f"multiplicativity fails at ({m}, {n})"
        done += 1
    return True, "sigma_1(mn) = sigma_1(m) sigma_1(n) on 500 random coprime pairs"


def check_odd_split_egf(order, rng):
    # sum_k s(k, l) z^k / k! = (sinh z)^l / l!  coefficient-wise to order 12
    from math import factorial

    o = 12
    sinh = Series.from_terms(
        {2 * j + 1: Fraction(1, factorial(2 * j + 1)) for j in range(o // 2 + 1)}, o
    )
    for blocks in range(0, 7):
        lhs = Series(
            [
                Fraction(numtheory.odd_split_count(k, blocks), factorial(k))
                for k in range(o + 1)
            ],
            o,
        )
        rhs = (sinh ** blocks) * Fraction(1, factorial(blocks))
        if lhs != rhs:
            return False, f"EGF identity fails for {blocks} blocks"
    return True, "odd-split EGF equals sinh^l / l! to order 12, l <= 6"


# ---------------------------------------------------------------------------
# trig suite
# ---------------------------------------------------------------------------


def check_cheb_structure(order, rng):
    for n in range(1, 16):
        poly = trig.chebyshev(n)
        if sum(poly) != 1:  # T_n(1) = 1
            return False, f"T_{n}(1) != 1"
        if poly[-1] != 1 << (n - 1):
            return False, f"T_{n} leading coefficient != 2^{n - 1}"
    return True, "T_n(1) = 1 and leading coefficient 2^(n-1) for n <= 15"


def check_cheb_odd_sine(order, rng):
    sin_z = trig.scaled_sin(1, 31)
    for n in range(0, 7):
        lhs = Series(trig.chebyshev(2 * n + 1), 31).substitute(sin_z)
        if lhs != trig.scaled_sin(2 * n + 1, 31) * (-1) ** n:
            return False, f"T_{2 * n + 1}(sin z) != (-1)^{n} sin({2 * n + 1}z)"
    return True, "T_(2n+1)(sin z) = (-1)^n sin((2n+1)z) exactly to z^31, n <= 6"


def check_cheb_even_exact(order, rng):
    for n in range(0, 13):
        if not trig.cheb_even_identity_exact(n):
            return False, f"T_{n}(1-2x^2) != (-1)^n T_{2 * n}(x)"
    return True, "T_n(1-2x^2) = (-1)^n T_(2n)(x) exactly for n <= 12"


def check_andrews_rose_H(order, rng):
    o, xdeg = max(order, 32), 13
    ok = trig.andrews_rose_H(o, xdeg) == trig.theta_block_q("h", o, xdeg)
    return ok, f"H(x,q) product expansion equals the h block, order {o}, xdeg {xdeg}"


def check_andrews_rose_G(order, rng):
    o, xdeg = max(order, 32), 13
    ok = trig.andrews_rose_G(o, xdeg) == trig.theta_block_q("g", o, xdeg)
    return ok, f"G(x,q) product expansion equals the g block, order {o}, xdeg {xdeg}"


def check_block_parity(order, rng):
    h = trig.theta_block("h", max(order, 32))
    g = trig.theta_block("g", max(order, 32))
    ok = all(s.is_zero() for s in h[0::2]) and all(s.is_zero() for s in g[1::2])
    return ok, "h holds odd x-degrees only, g even only"


def check_lattice_sum_blocks(order, rng):
    o = max(order, 24)
    bound = isqrt(o // 2) + 1
    ok = trig.theta_block_from_lattice_sum("h", bound, o) == trig.theta_block("h", o)
    ok = ok and trig.theta_block_from_lattice_sum("g", bound, o) == trig.theta_block("g", o)
    return ok, f"truncated lattice sums rebuild both blocks at order {o} (bound {bound})"


def _random_profile_map(rng, npoints, max_total):
    keys = {}
    for _ in range(rng.randint(1, 3)):
        total = rng.randint(1, max_total)
        profile = [0] * npoints
        for _ in range(total):
            profile[rng.randrange(npoints)] += 1
        keys[tuple(profile)] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
    return keys


def check_sine_substitute(order, rng):
    for _ in range(5):
        data = _random_profile_map(rng, 4, 6)
        o = rng.randint(6, 9)
        if trig.sine_substitute(data, o) != trig.sine_substitute_combinatorial(data, o):
            return False, f"routes disagree on {data}"
    return True, "formal substitution equals the odd-split closed sum, 5 random sets"


def check_h_ode(order, rng):
    o = max(order, 16)
    return trig.h_ode_check(o), f"h'' + h/4 = 0 and h'h'' + hh'/4 = 0 to order {o}"


# ---------------------------------------------------------------------------
# kummer suite
# ---------------------------------------------------------------------------


def check_pi3_structure(order, rng):
    members = kummer.pi3_members()
    if len(members) != 32:
        return False, f"|Pi_3| = {len(members)}"
    hits = sum(1 for m in range(1 << 16) if kummer.in_Pi3(m))
    if hits != 32:
        return False, f"affine-indicator test accepts {hits} subsets"
    if not all(kummer.in_Pi3(m) for m in members):
        return False, "closure member fails the affine-indicator test"
    return True, "|Pi_3| = 32; indicator test matches closure on all 2^16 subsets"


def check_pi_chain(order, rng):
    # Pi_k is the closure of the affine k-planes: Pi_4 = {empty, everything}
    # and Pi_4 < Pi_3 < Pi_2
    planes = {
        k: [
            m
            for m in range(1 << 16)
            if kummer.mask_size(m) == 1 << k and kummer.is_affine_plane(m, k)
        ]
        for k in (2, 4)
    }
    pi4 = kummer.xor_closure(planes[4])
    if pi4 != {0, kummer.FULL_MASK}:
        return False, f"Pi_4 has {len(pi4)} elements"
    pi3 = kummer.pi3_members()
    if not pi4 <= pi3:
        return False, "Pi_4 not inside Pi_3"
    pi2 = kummer.xor_closure(planes[2])
    if not pi3 <= pi2:
        return False, "Pi_3 not inside Pi_2"
    # every pair of points is an affine 1-plane, so Pi_1 is exactly the
    # even-size subsets; Pi_2 members must all be even
    if not all(kummer.mask_size(m) % 2 == 0 for m in pi2):
        return False, "Pi_2 member with odd size"
    return True, f"Pi_4 (2) < Pi_3 (32) < Pi_2 ({len(pi2)}) < Pi_1 (even sets) < Pi_0"


def check_coset_structure(order, rng):
    even = kummer.coset_members("even")
    odd = kummer.coset_members("odd")
    if len(even) != 32 or len(odd) != 32:
        return False, "coset sizes are not 32/32"
    if set(even) & set(odd):
        return False, "cosets intersect"
    esizes = sorted(kummer.mask_size(m) for m in even)
    osizes = sorted(kummer.mask_size(m) for m in odd)
    if {4: 4, 8: 24, 12: 4} != {s: esizes.count(s) for s in set(esizes)}:
        return False, f"even-coset size histogram {esizes}"
    if {6: 16, 10: 16} != {s: osizes.count(s) for s in set(osizes)}:
        return False, f"odd-coset size histogram {osizes}"
    if max(esizes + osizes) != 12:
        return False, "max admissible support is not 12"
    return True, "two disjoint 32-element cosets; sizes {4,8,12} / {6,10}; max 12"


def check_orbit_partition(order, rng):
    by_degree = {}
    for degree in (4, 6):
        # independent recount: a profile of total d is a multiset of d
        # points, and its odd support is the XOR of 1 << v over them
        admissible = 0
        for points in combinations_with_replacement(range(16), degree):
            support = 0
            for v in points:
                support ^= 1 << v
            if kummer.admissible(support):
                admissible += 1
        orbits = by_degree[degree] = kummer.translation_orbits(degree)
        total = sum(o.size for o in orbits)
        if total != admissible:
            return False, f"degree {degree}: orbit sizes sum {total} != {admissible}"
    for degree in (8, 10):
        by_degree[degree] = kummer.translation_orbits(degree)
    if sum(o.size for o in by_degree[8]) != 824:
        return False, "degree 8 partition total changed"
    # the type of a profile is its value multiset; it fixes the shape
    for degree, orbits in by_degree.items():
        enumerated = Counter(tuple(sorted(o.rep)) for o in orbits)
        burnside = {
            tuple(sorted(rep)): n for rep, n in kummer.orbit_counts_by_type(degree).items()
        }
        if burnside != enumerated:
            return False, f"degree {degree}: Burnside class counts per type differ from enumeration"
    return True, (
        "orbit sizes partition the admissible profiles; Burnside class counts "
        "per type equal enumeration (degrees 4, 6, 8, 10)"
    )


def check_pairing_laws(order, rng):
    e0 = kummer.subset_hat(kummer.EPS0_MASK)
    e1 = kummer.subset_hat(kummer.EPS1_MASK)
    if kummer.pairing(e0, e0) != -2 or kummer.pairing(e0, e1) != Fraction(-3, 2):
        return False, "reference pairings wrong"
    for v in range(16):
        bv = kummer.basis_vector(v)
        for u in range(16):
            want = -2 if u == v else 0
            if kummer.pairing(bv, kummer.basis_vector(u)) != want:
                return False, "basis pairing is not -2 Id"
    for _ in range(30):
        w1 = tuple(rng.randint(-3, 3) for _ in range(16))
        w2 = tuple(rng.randint(-3, 3) for _ in range(16))
        w3 = tuple(rng.randint(-3, 3) for _ in range(16))
        if kummer.pairing(w1, w2) != kummer.pairing(w2, w1):
            return False, "pairing not symmetric"
        s = tuple(a + b for a, b in zip(w2, w3))
        if kummer.pairing(w1, s) != kummer.pairing(w1, w2) + kummer.pairing(w1, w3):
            return False, "pairing not bilinear"
    return True, "symmetric, bilinear, -2 Id on the basis, reference values hold"


# ---------------------------------------------------------------------------
# counting suite
# ---------------------------------------------------------------------------


def check_two_route(order, rng):
    count = 0
    for degree in (4, 6, 8):
        for cfg in kummer.admissible_profiles(degree):
            if counting.f_gk(cfg, 12).series != counting.f_gk_via_potential(cfg, 12):
                return False, f"routes differ on {cfg}"
            count += 1
    return True, f"product formula equals potential extraction on all {count} profiles, |k| <= 8"


def check_ord_law(order, rng):
    # the shape fixes the factor multiset, hence the series: f_gk runs once
    # per shape, on the first profile of that shape
    checked, first = 0, {}
    for degree in (4, 6, 8, 10):
        for cfg in kummer.admissible_profiles(degree):
            expect = counting.min_arith_genus(cfg)
            genus, rep = first.setdefault(counting.shape_label(cfg), (expect, cfg))
            if genus != expect:
                return False, f"{rep} and {cfg} share a shape but not a minimal genus"
            checked += 1
    for expect, cfg in first.values():
        if counting.f_gk(cfg, expect + 1).series.valuation() != expect - 1:
            return False, f"valuation law fails on {cfg}"
    return True, f"1 + ord_u f = -1 + sum k^2/2 on all {checked} profiles, |k| <= 10"


def check_parity_separation(order, rng):
    o = max(order, 16)
    for degree in (4, 6):
        evens, odds = set(), set()
        for orbit in kummer.translation_orbits(degree):
            series = counting.f_gk(orbit.rep, o).series
            support = {n for n in range(o + 1) if series[n] != 0}
            if orbit.coset == "even":
                evens |= support
            else:
                odds |= support
        if any(n % 2 for n in evens) or any(n % 2 == 0 for n in odds):
            return False, f"degree {degree}: coset parity broken"
        if evens & odds:
            return False, f"degree {degree}: cosets share a u-exponent"
    return True, "even-coset series live on even u-exponents, odd on odd; no overlap"


def check_genus1(order, rng):
    report = counting.genus_total(1, max(order, 8))
    orbits = report.orbits
    ok = len(orbits) == 1 and orbits[0].size == 4 and report.total == Series.one(report.order)
    return ok, "one orbit of size 4 with constant total 1"


def check_genus2(order, rng):
    o = max(order, 64)
    report = counting.genus_total(2, o)
    shapes = report.shape_multiplicities()
    if shapes != {"E": 1, "A1(u^4)": 1, "C1(u^2)": 3}:
        return False, f"orbit shapes {shapes}"
    table = numtheory.sigma1_table(o)
    want = Series([0] + table[1 : o + 1], o)
    if report.total != want:
        return False, "total is not the divisor-sum series"
    return True, f"5 orbits (E + A1(u^4) + 3 C1(u^2)), total = sum sigma_1(n) u^n to order {o}"


def check_gottsche(order, rng):
    ok = counting.gottsche_reconcile(max(order, 128))
    return ok, "E + 3A_1(u^2) - 2A_1(u^4) = A_1(u) and D^2 A_1 = sum n^2 sigma_1(n) u^n"


def check_min_genus_bound(order, rng):
    if counting.smooth_genus_bound() != 5:
        return False, f"smooth genus bound {counting.smooth_genus_bound()}"
    comp = kummer.FULL_MASK ^ kummer.EPS0_MASK
    if kummer.admissible(comp) is None:
        return False, "complement of eps0 not admissible"
    if any(
        kummer.mask_size(P) > 12
        for w in ("even", "odd")
        for P in kummer.coset_members(w)
    ):
        return False, "admissible support above size 12 exists"
    return True, "largest admissible 0/1 support is 12, so the smooth bound is genus 5"


def check_table_shape_rows(order, rng):
    golden = load_golden("table1.json")
    cols = golden["columns"]
    report = counting.genus_total(3, max(cols))
    rows = {shape: coeffs for shape, mult, coeffs in report.table_rows()}
    for shape, want in golden["rows"].items():
        got = rows.get(shape)
        if got is None:
            return False, f"shape row {shape} missing from the genus-3 report"
        diff = _first_mismatch(got, want, cols)
        if diff:
            return False, f"{shape}: {diff}"
    return True, f"all {len(golden['rows'])} shape rows match the reference table"


def check_table_combination(order, rng):
    golden = load_golden("table1.json")
    cols = golden["columns"]
    total = [0] * len(cols)
    for shape, mult in golden["combination"].items():
        row = golden["rows"][shape]
        total = [t + mult * c for t, c in zip(total, row)]
    diff = _first_mismatch(total, golden["total"], cols)
    if diff:
        return False, diff
    return True, "reference total row equals its stated shape combination"


def check_table_total_row(order, rng):
    golden = load_golden("table1.json")
    cols = golden["columns"]
    report = counting.genus_total(3, max(cols))
    got = [report.total[n] for n in cols]
    diff = _first_mismatch(got, golden["total"], cols)
    if diff:
        return False, diff + " (the reference omits the 3 A1(u^4)^2 orbits; see README)"
    return True, "aggregated genus-3 total matches the reference row"


CHECKS = [
    ("fps", "ring-axioms", "series ring laws", check_ring_axioms),
    ("fps", "invert-roundtrip", "multiplicative inverses", check_invert_roundtrip),
    ("fps", "qderiv-derivation", "q d/dq product rule", check_qderiv_derivation),
    ("fps", "compose-nesting", "monomial substitution", check_compose_nesting),
    ("fps", "denom-roundtrip", "coefficient denominators", check_coeff_denominators),
    ("qforms", "macmahon-A-cross", "generalized divisor-sum recursion", check_macmahon_A_cross),
    ("qforms", "macmahon-C-cross", "generalized divisor-sum recursion", check_macmahon_C_cross),
    ("qforms", "A1-divisor-series", "divisor-sum seed", check_A1_divisor),
    ("qforms", "C1-from-A1", "odd-part divisor series", check_C1_from_A1),
    ("qforms", "pochhammer-split", "even/odd product split", check_poch_split),
    ("qforms", "legendre-fourth-power", "Legendre four-square identity", check_legendre),
    ("qforms", "theta-sixteenth", "theta fourth-power identity", check_theta_sixteenth),
    ("qforms", "gottsche-operator", "genus-2 divisor-derivative identity", check_gottsche_operator),
    ("qforms", "eisenstein-remark", "weight-2 Eisenstein normalization", check_eisenstein_remark),
    ("qforms", "yau-zaslow-prefix", "Yau-Zaslow rational-curve series", check_yau_zaslow_prefix),
    ("qforms", "sigma-halving", "divisor-sum halving laws", check_sigma_halving),
    ("qforms", "sigma-multiplicative", "divisor-sum multiplicativity", check_sigma_multiplicative),
    ("qforms", "odd-split-egf", "odd-block EGF", check_odd_split_egf),
    ("trig", "cheb-structure", "Chebyshev recurrence", check_cheb_structure),
    ("trig", "cheb-odd-sine", "odd Chebyshev sine identity", check_cheb_odd_sine),
    ("trig", "cheb-even-exact", "even Chebyshev composition identity", check_cheb_even_exact),
    ("trig", "andrews-rose-H", "Andrews-Rose odd expansion", check_andrews_rose_H),
    ("trig", "andrews-rose-G", "Andrews-Rose even expansion", check_andrews_rose_G),
    ("trig", "block-parity", "theta-block parity", check_block_parity),
    ("trig", "lattice-sum-blocks", "per-point lattice sums", check_lattice_sum_blocks),
    ("trig", "sine-substitution", "marked-point collapse calculus", check_sine_substitute),
    ("trig", "h-ode", "half-angle sine differential identities", check_h_ode),
    ("kummer", "pi3-structure", "affine-functional supports", check_pi3_structure),
    ("kummer", "pi-chain", "affine-plane subgroup chain", check_pi_chain),
    ("kummer", "coset-structure", "admissibility cosets", check_coset_structure),
    ("kummer", "orbit-partition", "translation-orbit partition", check_orbit_partition),
    ("kummer", "pairing-laws", "half-lattice intersection pairing", check_pairing_laws),
    ("counting", "two-route", "product formula vs potential", check_two_route),
    ("counting", "ord-law", "minimal arithmetic genus", check_ord_law),
    ("counting", "parity-separation", "polarization parity", check_parity_separation),
    ("counting", "genus1-pipeline", "genus-1 aggregate", check_genus1),
    ("counting", "genus2-pipeline", "genus-2 aggregate", check_genus2),
    ("counting", "gottsche-reconcile", "genus-2 reconciliation", check_gottsche),
    ("counting", "smooth-genus-bound", "maximal smooth genus", check_min_genus_bound),
    ("counting", "table-shape-rows", "Table 1", check_table_shape_rows),
    ("counting", "table-combination", "Table 1", check_table_combination),
    ("counting", "table-total-row", "Table 1", check_table_total_row),
]


SEED = 12345  # each check draws from random.Random(SEED ^ crc32("<suite>:<name>"))


def run_suite(suites, order: int):
    """Run the selected suites; returns (results, all_ok)."""
    from zlib import crc32

    wanted = SUITES if "all" in suites else tuple(suites)
    results = []
    for suite, name, source, fn in CHECKS:  # CHECKS is grouped in SUITES order
        if suite not in wanted:
            continue
        rng = random.Random(SEED ^ crc32(f"{suite}:{name}".encode()))
        try:
            ok, detail = fn(order, rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(suite, name, source, ok, detail))
    return results, all(r.ok for r in results)


def format_results(results) -> str:
    lines = []
    width = max(len(f"{r.suite}:{r.name}") for r in results) if results else 0
    for r in results:
        tag = f"{r.suite}:{r.name}"
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"[{status}] {tag:<{width}}  {r.detail}  ({r.source})")
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
