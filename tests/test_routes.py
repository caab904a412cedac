"""Route independence of the verify cross-checks: each side of a check must
reach the library code it claims to test and none of the other side's.

Every hypcount cache is cleared first, because a warm lru_cache hides the
calls behind a hit.  Frames are keyed on (file name, co_name), as Python
3.10 has no co_qualname.
"""

import os
import random
import sys
from fractions import Fraction

import pytest

from hypcount import counting, qforms, trig, verify
from hypcount.fps import Series


def clear_caches():
    for module in sys.modules.copy().values():
        if module and module.__name__.startswith("hypcount"):
            for obj in vars(module).values():
                getattr(obj, "cache_clear", lambda: None)()


def test_every_memo_is_hit_by_the_full_suite():
    # a memo that no call asks for twice only holds its results until exit;
    # keyed on the defining module, as `from .x import y` binds one memo twice
    clear_caches()
    verify.run_suite(["all"], 32)
    memos = {
        f"{obj.__module__}.{obj.__qualname__}": obj
        for module in sys.modules.copy().values()
        if module and module.__name__.startswith("hypcount")
        for obj in vars(module).values()
        if hasattr(obj, "cache_info")
    }
    unhit = sorted(name for name, memo in memos.items() if memo.cache_info().hits == 0)
    assert not unhit, f"memos never hit by verify --suite all --order 32: {unhit}"


def reached(call, *args):
    clear_caches()
    package = os.path.dirname(qforms.__file__)
    seen = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and os.path.dirname(code.co_filename) == package:
            seen.add((os.path.basename(code.co_filename), code.co_name))

    before = sys.getprofile()
    sys.setprofile(record)
    try:
        result = call(*args)
    finally:
        sys.setprofile(before)
    return result, seen


def test_h_ode_reaches_the_library_half_angle_sine():
    (ok, _), seen = reached(verify.check_h_ode, 32, random.Random(0))
    assert ok
    assert {("trig.py", "two_sin_half"), ("trig.py", "scaled_wave"), ("trig.py", "ode_holds")} <= seen


def test_lattice_side_reaches_no_chebyshev_code():
    for kind in ("h", "g"):
        block, seen = reached(trig.theta_block_from_lattice_sum, kind, 5, 16)
        assert block == trig.theta_block_q(kind, 16)
        assert {("trig.py", "z_of_x"), ("trig.py", "scaled_wave")} <= seen
        names = {name for _, name in seen}
        assert not names & {"chebyshev", "cheb_half_doubled", "theta_block_q", "_block_degrees"}


def test_macmahon_cross_checks_reach_the_nested_pass_and_the_recursion():
    for check, recursion in (
        (verify.check_macmahon_A_cross, "macmahon_A_recursive"),
        (verify.check_macmahon_C_cross, "macmahon_C_recursive"),
    ):
        (ok, _), seen = reached(check, 32, random.Random(0))
        assert ok
        assert {("qforms.py", "_nested_sums"), ("qforms.py", "_power_sums"),
                ("qforms.py", recursion)} <= seen


def test_direct_macmahon_route_reaches_no_divisor_sieve_and_no_recursion():
    # the power sums are divisor sums of binomials, built without the sigma_1
    # sieve that A1-divisor-series checks, or the recursions they are checked against
    for direct in (qforms.macmahon_A_direct, qforms.macmahon_C_direct):
        _, seen = reached(direct, 5, 256)
        assert ("qforms.py", "_power_sums") in seen
        names = {name for _, name in seen}
        assert not names & {"sigma1_table", "series_A1", "macmahon_A_recursive", "macmahon_C_recursive"}


def test_andrews_rose_sides_reach_the_recursion_and_no_theta_block():
    for expansion, recursion in (
        (trig.andrews_rose_H, "macmahon_A_recursive"),
        (trig.andrews_rose_G, "macmahon_C_recursive"),
    ):
        _, seen = reached(expansion, 32, 13)
        assert ("qforms.py", recursion) in seen
        names = {name for _, name in seen}
        assert not names & {"theta_block_q", "chebyshev", "cheb_half_doubled"}


def test_theta_block_side_reaches_chebyshev_and_no_macmahon_code():
    for kind in ("h", "g"):
        _, seen = reached(trig.theta_block_q, kind, 32, 13)
        assert ("trig.py", "cheb_half_doubled") in seen
        names = {name for _, name in seen}
        assert not {n for n in names if n.startswith("macmahon_")}
        assert not names & {"_nested_sums", "series_A1", "sigma1_table"}


def test_potential_route_reaches_no_product_route_code():
    # the potential route builds its term from theta blocks and q/Delta alone:
    # no MacMahon, divisor or E series, no product-route helper
    config = (5, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)
    _, seen = reached(counting.f_gk_via_potential, config, 32)
    assert {("trig.py", "theta_block_q"), ("qforms.py", "delta_inv_times_q")} <= seen
    names = {name for _, name in seen}
    assert not {n for n in names if n.startswith("macmahon_")}
    assert not names & {"sigma1_table", "series_A1", "series_E", "_product", "_factor"}


def test_legendre_series_reaches_no_pochhammer():
    _, seen = reached(qforms.legendre_series, 64)
    assert "pochhammer" not in {name for _, name in seen}


def test_legendre_check_reaches_both_sides():
    # psi(q)^4, the product side ((-q;q) divides by (q;q)) and the sigma_1 sieve
    (ok, _), seen = reached(verify.check_legendre, 32, random.Random(0))
    assert ok
    names = {name for _, name in seen}
    assert {"legendre_series", "pochhammer", "_negative_power", "sigma1_table"} <= names


def test_pochhammer_split_reaches_only_pochhammer_with_both_signs():
    # the finite products are inline, so pochhammer is the one qforms builder
    # reached; the sign -1 branch divides by (q;q), so the inverse runs too
    (ok, _), seen = reached(verify.check_poch_split, 32, random.Random(0))
    assert ok
    assert {name for file, name in seen if file == "qforms.py"} == {"pochhammer"}
    assert ("fps.py", "_negative_power") in seen


def test_sine_substitution_routes_share_only_the_walker():
    data = {(2, 1, 0, 3): 1, (1, 1, 0, 0): Fraction(-2, 3), (0, 0, 4, 1): 5}
    formal, seen = reached(trig.sine_substitute, data, 9)
    names = {name for _, name in seen}
    assert {"_transfer", "two_sin_half"} <= names
    assert not names & {"_split_transfer", "odd_split_count"}
    closed, seen = reached(trig.sine_substitute_combinatorial, data, 9)
    assert formal == closed
    names = {name for _, name in seen}
    assert {"_split_transfer", "odd_split_count"} <= names
    assert not names & {"_transfer", "two_sin_half", "scaled_wave"}


def perturbed(value):
    """A Series gains one q^5 term, a tuple (a block's columns, nested-sum
    levels, power sums, Chebyshev coefficients) has its entry 1 perturbed, a
    number (an int, or a Fraction from the sine-substitution transfers) grows
    by 1."""
    if isinstance(value, tuple):
        return value[:1] + (perturbed(value[1]),) + value[2:]
    if isinstance(value, Series):
        return value + Series.from_terms({5: 1}, value.order)
    return value + 1


PERTURBED_SIDES = [
    ("legendre-fourth-power", qforms, "pochhammer"),
    ("legendre-fourth-power", qforms, "legendre_series"),
    ("andrews-rose-H", trig, "theta_block_q"),
    ("andrews-rose-H", qforms, "macmahon_A_recursive"),
    ("andrews-rose-G", qforms, "macmahon_C_recursive"),
    ("lattice-sum-blocks", trig, "z_of_x"),
    ("lattice-sum-blocks", trig, "cheb_half_doubled"),
    ("lattice-sum-blocks", trig, "scaled_wave"),
    ("two-route", trig, "theta_block_q"),
    ("two-route", counting, "_factor"),
    ("macmahon-A-cross", qforms, "_nested_sums"),
    ("macmahon-A-cross", qforms, "_power_sums"),
    ("macmahon-A-cross", qforms, "macmahon_A_recursive"),
    ("macmahon-C-cross", qforms, "_nested_sums"),
    ("macmahon-C-cross", qforms, "_power_sums"),
    ("macmahon-C-cross", qforms, "macmahon_C_recursive"),
    ("andrews-rose-G", trig, "theta_block_q"),
    ("pochhammer-split", qforms, "pochhammer"),
    ("h-ode", trig, "two_sin_half"),
    ("h-ode", trig, "scaled_wave"),
    ("C1-from-A1", qforms, "macmahon_C_direct"),
    ("sine-substitution", trig, "_transfer"),
    ("sine-substitution", trig, "_split_transfer"),
]


@pytest.mark.parametrize(
    "check, module, name", PERTURBED_SIDES, ids=[f"{c}:{n}" for c, _, n in PERTURBED_SIDES]
)
def test_check_compares_the_results_of_both_sides(monkeypatch, check, module, name):
    # reaching a function is not enough: its result must feed the comparison,
    # so one perturbed result on one side turns the check to FAIL
    (fn,) = [fn for _, check_id, _, fn in verify.CHECKS if check_id == check]
    original = getattr(module, name)
    clear_caches()
    try:
        assert fn(32, random.Random(0))[0]
        clear_caches()
        monkeypatch.setattr(module, name, lambda *a, **kw: perturbed(original(*a, **kw)))
        assert not fn(32, random.Random(0))[0]
    finally:
        clear_caches()


def c1_recursive_half(order):
    a1 = qforms.series_A1(order)
    return qforms.macmahon_C_recursive(1, order) == a1 - a1.compose_monomial(2)


# Definitional comparisons: each tests a builder against its own definition,
# not against a second route.  series_E2 is defined as A_1 - 1/24, and
# macmahon_C_recursive(1, o) is seeded by exactly A_1(q) - A_1(q^2), so
# both sides read series_A1.  They are not two-route checks: no data-flow
# pair may name their sides.  Each entry: (check, its definitional
# comparison, the builder under test).
DEFINITIONAL = [
    ("eisenstein-remark", lambda o: verify.check_eisenstein_remark(o, None)[0],
     lambda o: qforms.series_E2(o)),
    ("C1-from-A1", c1_recursive_half, lambda o: qforms.macmahon_C_recursive(1, o)),
]


@pytest.mark.parametrize("check, comparison, builder", DEFINITIONAL,
                         ids=[check for check, _, _ in DEFINITIONAL])
def test_definitional_comparison_passes_whatever_its_definition_gives(
        monkeypatch, check, comparison, builder):
    # a perturbed A_1 changes the builder under test and leaves the
    # comparison passing, because both of its sides read A_1
    clear_caches()
    try:
        assert comparison(32)
        before = builder(32)
        clear_caches()
        original = qforms.series_A1
        monkeypatch.setattr(qforms, "series_A1", lambda *a: perturbed(original(*a)))
        assert builder(32) != before
        assert comparison(32)
    finally:
        clear_caches()


def test_no_data_flow_pair_counts_a_definitional_side():
    definitional = {("eisenstein-remark", "series_E2"), ("eisenstein-remark", "series_A1"),
                    ("C1-from-A1", "macmahon_C_recursive"), ("C1-from-A1", "series_A1")}
    assert not {(check, name) for check, _, name in PERTURBED_SIDES} & definitional
