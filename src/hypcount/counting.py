"""Per-profile counting series and their genus aggregates.

The main entry point f_gk evaluates the closed product formula for a
multiplicity profile k: with S its odd support (which must be admissible),

    E(u)^(|S|/2 - 2) * prod_{v in S} A_((k(v)-1)/2)(u^4)
                     * prod_{v not in S} C_(k(v)/2)(u^2)

and zero for inadmissible profiles.  The coefficient of u^(h-1) counts the
curves of arithmetic genus h; the CLI reports both indice conventions.

f_gk_via_potential recomputes the same coefficient along a fully
independent route: it extracts the profile's monomial from the sum over
Pi_3 classes of theta-block products weighted by the K3 rational-curve
series q/Delta.  That route is built from Chebyshev blocks and Pochhammer
products only (no divisor sums, no recursions), so agreement between the
two is a strong end-to-end check of the whole calculus.  Both routes build
their product once per profile type (sorted values), each in its own cache.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from operator import mul

from .errors import DomainError
from .fps import Series
from . import kummer, qforms


def _family(kv: int):
    """(label, builder, u-power): A_((kv-1)/2)(u^4) for odd kv, C_(kv/2)(u^2) for even."""
    return ("A{}(u^4)", qforms.macmahon_A, 4) if kv % 2 else ("C{}(u^2)", qforms.macmahon_C, 2)


@lru_cache(maxsize=None)
def _factor(kv: int, order: int) -> Series:
    _, build, m = _family(kv)
    return build(kv // 2, order // m).compose_monomial(m, order)


def _e_power(values) -> int:
    # the odd values sit exactly on the odd support P, and E appears to the power |P|/2 - 2
    return sum(kv % 2 for kv in values) // 2 - 2


def shape_label(config) -> str:
    """Multiset of named factors, e.g. ``E^2``, ``A1(u^4)*C1(u^2)``, ``1``."""
    return _label(tuple(sorted(config)))


@lru_cache(maxsize=None)
def _label(values) -> str:
    # one factor per distinct value >= 2 (A_0 = C_0 = 1), sorted by name
    epow = _e_power(values)
    parts = [] if epow < 1 else ["E" if epow == 1 else f"E^{epow}"]
    counts = Counter(kv for kv in values if kv > 1)
    names = sorted((_family(kv)[0].format(kv // 2), n) for kv, n in counts.items())
    parts += [name if n == 1 else f"{name}^{n}" for name, n in names]
    return "*".join(parts) or "1"


def _check_profile(config):
    if len(config) != 16 or min(config) < 0:
        raise DomainError("profile must assign a nonnegative count to each of 16 points")
    total = sum(config)
    if total % 2:
        raise DomainError(f"profile total {total} must be even")
    if total < 4:
        raise DomainError(f"profile total {total} must be >= 4")
    return total


class CountSeries(namedtuple("CountSeries", "config coset series")):
    __slots__ = ()

    @property
    def shape(self) -> str:
        return shape_label(self.config)


def f_gk(config, order: int) -> CountSeries:
    """Counting series of one multiplicity profile (closed product route)."""
    config = tuple(config)
    _check_profile(config)
    coset = kummer.admissible(kummer.odd_support(config))
    series = _product(tuple(sorted(config)), order) if coset else Series.zero(order)
    return CountSeries(config, coset, series)


@lru_cache(maxsize=None)
def _product(values, order: int) -> Series:
    """The product formula for an admissible profile type (sorted values)."""
    acc = qforms.series_E(order) ** _e_power(values)
    for kv in reversed(values):  # high valuations first keep the products short
        if kv > 1:
            acc = acc * _factor(kv, order)
    return acc


def f_gk_via_potential(config, order: int) -> Series:
    """Same coefficient via the orbifold potential: sum over the Pi_3
    classes eta and both cosets of the theta-block product, extracting the
    profile's monomial point by point.

    Parity kills every class except eta = P + eps_i (h blocks are odd in x,
    g blocks even), and eps0, eps1 lie in distinct Pi_3 cosets, so at most
    one class is assembled; an inadmissible profile finds none and returns
    zero.  A point picks the h block exactly when its value is odd, so the
    class term depends on the profile type (sorted values) alone and
    _potential_term builds it once per type.
    """
    config = tuple(config)
    _check_profile(config)
    P = kummer.odd_support(config)
    pi3 = kummer.pi3_members()
    if P ^ kummer.EPS0_MASK in pi3 or P ^ kummer.EPS1_MASK in pi3:
        return _potential_term(tuple(sorted(config)), order)
    return Series.zero(order)


@lru_cache(maxsize=None)
def _potential_term(values, order: int) -> Series:
    """The class term of a profile type, built in q = u^2 at order // 2:
    q/Delta(q) times, for each value k, column k of the h block (k odd) or
    the g block (k even); zero at the first missing or zero column.  One
    q -> u^2 substitution, then the shift by |P|/2 - 2 (|P| the number of
    odd values), give the u-series.  A repeated value multiplies its column
    in again rather than take a power, so no positive-power code is shared
    with _product."""
    from . import trig  # only verify and the tests take this route
    term = qforms.delta_inv_times_q(order // 2)
    for kv in values:
        block = trig.theta_block_q("h" if kv % 2 else "g", order // 2)
        # x-degrees past the block's last column have zero coefficient
        if kv >= len(block) or block[kv].is_zero():
            return Series.zero(order)
        term = term * block[kv]
    return term.compose_monomial(2, order).shift(sum(kv % 2 for kv in values) // 2 - 2)


def min_arith_genus(config) -> int:
    """Smallest arithmetic genus carrying the profile:
    -1 + sum k(v)^2 / 2.  Must equal 1 + the u-valuation of f_gk."""
    config = tuple(config)
    _check_profile(config)
    if kummer.admissible(kummer.odd_support(config)) is None:
        raise DomainError("profile is not admissible")
    return -1 + sum(map(mul, config, config)) // 2


def smooth_genus_bound() -> int:
    """Largest genus of a profile with every multiplicity <= 1, i.e. with
    the largest admissible support size; scans both cosets."""
    best = max(
        kummer.mask_size(P)
        for which in ("even", "odd")
        for P in kummer.coset_members(which)
    )
    return (best - 2) // 2


def gottsche_reconcile(order: int) -> bool:
    """Two genus-2 consistency identities: the aggregated series
    E + 3 A_1(u^2) - 2 A_1(u^4) collapses to A_1(u), and applying (q d/dq)^2
    to A_1 gives sum n^2 sigma_1(n) q^n."""
    a1 = qforms.series_A1(order)
    lhs = qforms.series_E(order) + a1.compose_monomial(2) * 3 - a1.compose_monomial(4) * 2
    if lhs != a1:
        return False
    from .numtheory import sigma1_table

    table = sigma1_table(order)
    want = Series([n * n * table[n] if n else 0 for n in range(order + 1)], order)
    return a1.qderiv().qderiv() == want


class CountReport(namedtuple("CountReport", "genus order shapes total")):
    """Genus aggregate, as data that ``cli`` lays out.  ``shapes`` maps each
    shape label to (number of translation-orbit classes of that shape, the
    shape's series); ``total`` is the sum of multiplicity times series.
    ``orbits`` lists the classes as ``kummer.Orbit``, anew on each access."""

    __slots__ = ()

    @property
    def orbits(self) -> list:
        return kummer.translation_orbits(2 * self.genus + 2)

    def shape_multiplicities(self) -> dict:
        return {shape: mult for shape, (mult, _) in self.shapes.items()}

    def to_json(self) -> dict:
        """The `genus --format json` document, built whole: the reference
        that the listing ``cli`` streams is tested against."""
        rows = []
        for rep, size, coset in self.orbits:
            shape = shape_label(rep)
            row = {"rep": list(rep), "orbit_size": size, "coset": coset, "shape": shape}
            rows.append({**row, **self.shapes[shape][1].to_json()})
        total = self.total.to_json()["coeffs"]
        return {"genus": self.genus, "order": self.order, "orbits": rows, "total": total}


def genus_total(g: int, order: int) -> CountReport:
    """Aggregate the counting series over the translation-orbit classes at
    degree 2g + 2 (counting classes up to surface translation).  The classes
    are counted per profile type (sorted values) by Burnside's lemma, so the
    product formula runs once per type."""
    if g < 1:
        raise DomainError("genus must be >= 1")
    # types and shapes correspond one to one by construction: _label reads
    # only the type, and its label records the number of odd values (as the
    # power of E) and every value other than 0 and 1
    shapes = {
        _label(values): (count, _product(values, order))
        for values, count in kummer.orbit_counts_by_type(2 * g + 2).items()
    }
    total = Series.zero(order)
    for mult, series in shapes.values():
        total = total + series * mult
    return CountReport(g, order, shapes, total)
