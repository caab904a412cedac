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
two is a strong end-to-end check of the whole calculus.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from operator import itemgetter

from .errors import DomainError
from .fps import Series
from . import kummer, qforms, trig


@lru_cache(maxsize=None)
def _A_u4(j: int, order: int) -> Series:
    return qforms.macmahon_A(j, order).compose_monomial(4)


@lru_cache(maxsize=None)
def _C_u2(j: int, order: int) -> Series:
    return qforms.macmahon_C(j, order).compose_monomial(2)


def _factors(config):
    """The product formula's pieces, read off the value multiset alone: (power
    of E, one (label, constructor, index, multiplicity) per distinct value
    >= 2, sorted by label).  The odd values sit exactly on the odd support P,
    so there are |P| of them and E appears to the power |P|/2 - 2.  An odd
    value k gives A_((k-1)/2)(u^4), an even one C_(k/2)(u^2); the values 0
    and 1 (A_0 = 1) give nothing."""
    counts = Counter(config)
    factors = []
    for kv, mult in counts.items():
        if kv > 1:  # kv // 2 is (kv - 1) / 2 for odd kv
            name, make = ("A{}(u^4)", _A_u4) if kv % 2 else ("C{}(u^2)", _C_u2)
            factors.append((name.format(kv // 2), make, kv // 2, mult))
    factors.sort(key=itemgetter(0))
    return sum(mult for kv, mult in counts.items() if kv % 2) // 2 - 2, factors


def shape_label(config) -> str:
    """Multiset of named factors, e.g. ``E^2``, ``A1(u^4)*C1(u^2)``, ``1``."""
    epow, factors = _factors(config)
    parts = [] if epow < 1 else ["E" if epow == 1 else f"E^{epow}"]
    parts += [name if mult == 1 else f"{name}^{mult}" for name, _, _, mult in factors]
    return "*".join(parts) or "1"


def _check_profile(config):
    if len(config) != 16 or any(kv < 0 for kv in config):
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

    def to_json(self) -> dict:
        data = {
            "config": list(self.config),
            "coset": self.coset or "none",
            "shape": self.shape if self.coset else "0",
        }
        data.update(self.series.to_json())
        return data


def f_gk(config, order: int) -> CountSeries:
    """Counting series of one multiplicity profile (closed product route)."""
    config = tuple(config)
    _check_profile(config)
    coset = kummer.admissible(kummer.odd_support(config))
    if coset is None:
        return CountSeries(config, None, Series.zero(order))
    # an even total makes |P| even, and admissible supports have |P| >= 4
    epow, factors = _factors(config)
    acc = qforms.series_E(order) ** epow
    for _, make, j, mult in factors:
        factor = make(j, order)
        for _ in range(mult):
            acc = acc * factor
    return CountSeries(config, coset, acc)


def f_gk_via_potential(config, order: int) -> Series:
    """Same coefficient via the orbifold potential: sum over the Pi_3
    classes eta and both cosets of the theta-block product, extracting the
    profile's monomial point by point.

    Parity kills every class except eta = P + eps_i (h blocks are odd in x,
    g blocks even), so only those classes are assembled; an inadmissible
    profile finds no class at all and returns zero.
    """
    config = tuple(config)
    _check_profile(config)
    P = kummer.odd_support(config)
    h_block = trig.theta_block("h", order)
    g_block = trig.theta_block("g", order)
    yz = qforms.delta_inv_times_q(order).compose_monomial(2)
    pi3 = kummer.pi3_members()
    acc = Series.zero(order)
    for eps in (kummer.EPS0_MASK, kummer.EPS1_MASK):
        eta = P ^ eps
        if eta not in pi3:
            continue
        term = yz.shift(kummer.mask_size(P) // 2 - 2)
        for v, kv in enumerate(config):
            block = h_block if P >> v & 1 else g_block
            # x-degrees past the block's last column have zero coefficient
            if kv >= len(block) or block[kv].is_zero():
                term = Series.zero(order)
                break
            term = term * block[kv]
        acc = acc + term
    return acc


def min_arith_genus(config) -> int:
    """Smallest arithmetic genus carrying the profile:
    -1 + sum k(v)^2 / 2.  Must equal 1 + the u-valuation of f_gk."""
    config = tuple(config)
    _check_profile(config)
    if kummer.admissible(kummer.odd_support(config)) is None:
        raise DomainError("profile is not admissible")
    twice = sum(kv * kv for kv in config)
    return -1 + twice // 2


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


def _orbit_rows(orbits, shape_series=None):
    """One listing row per enumerated orbit class, built only when read: its
    fields, its shape and, if shape_series maps shapes to it, the series JSON.
    The shape depends on the value multiset only, so each is labelled once."""
    shapes = {}
    for orbit in orbits:
        values = tuple(sorted(orbit.rep))
        shape = shapes.get(values)
        if shape is None:
            shape = shapes[values] = shape_label(orbit.rep)
        yield {**orbit.to_json(), "shape": shape, **(shape_series[shape] if shape_series else {})}


class CountReport(namedtuple("CountReport", "genus order shapes total")):
    """Genus aggregate.  ``shapes`` maps each shape label to (number of
    translation-orbit classes of that shape, the shape's series); ``total``
    is the sum of multiplicity times series.  ``orbits`` lists the classes
    one by one as ``kummer.Orbit``, enumerated anew on each access."""

    __slots__ = ()

    @property
    def orbits(self) -> list:
        return kummer.translation_orbits(2 * self.genus + 2)

    def shape_multiplicities(self) -> dict:
        return {shape: mult for shape, (mult, _) in self.shapes.items()}

    def listing(self) -> dict:
        """The JSON document, its rows read lazily from orbits enumerated now."""
        shape_series = {shape: series.to_json() for shape, (_, series) in self.shapes.items()}
        return {
            "genus": self.genus,
            "order": self.order,
            "orbits": _orbit_rows(self.orbits, shape_series),
            "total": self.total.to_json()["coeffs"],
        }

    def to_json(self) -> dict:
        data = self.listing()
        return {**data, "orbits": list(data["orbits"])}

    def table_rows(self):
        """Rows shaped like the reference coefficient table: one row per
        shape with the bare shape series, by valuation then name (shapes
        that vanish to this order last), then the aggregated total; columns
        are the u-exponents 2..order."""

        def key(shape):
            val = self.shapes[shape][1].valuation()
            return (val is None, val or 0, shape)

        rows = []
        for shape in sorted(self.shapes, key=key):
            mult, series = self.shapes[shape]
            rows.append((shape, mult, [series[n] for n in range(2, self.order + 1)]))
        rows.append(
            (f"F_{self.genus}(u)", None, [self.total[n] for n in range(2, self.order + 1)])
        )
        return rows


def genus_total(g: int, order: int) -> CountReport:
    """Aggregate the counting series over the translation-orbit classes at
    degree 2g + 2 (counting classes up to surface translation).  The classes
    are counted per shape by Burnside's lemma, so f_gk runs once per shape."""
    if g < 1:
        raise DomainError("genus must be >= 1")
    # types and shapes correspond one to one by construction: shape_label
    # reads only the type, and its label records the number of odd values
    # (as the power of E) and every value other than 0 and 1
    shapes = {
        shape_label(rep): (count, f_gk(rep, order).series)
        for rep, count in kummer.orbit_counts_by_type(2 * g + 2).items()
    }
    total = Series.zero(order)
    for mult, series in shapes.values():
        total = total + series * mult
    return CountReport(g, order, shapes, total)
