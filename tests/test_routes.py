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

from hypcount import qforms, trig, verify


def reached(call, *args):
    for module in sys.modules.copy().values():
        if module and module.__name__.startswith("hypcount"):
            for obj in vars(module).values():
                getattr(obj, "cache_clear", lambda: None)()
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
    assert {("trig.py", "two_sin_half"), ("trig.py", "ode_holds")} <= seen


def test_lattice_side_reaches_no_chebyshev_code():
    for kind in ("h", "g"):
        block, seen = reached(trig.theta_block_from_lattice_sum, kind, 5, 32)
        assert block == trig.theta_block(kind, 32)
        # block_xdeg reads only the block's x-degrees, not its Chebyshev terms
        assert ("trig.py", "z_of_x") in seen
        names = {name for _, name in seen}
        assert not names & {"chebyshev", "cheb_half_doubled", "theta_block"}


def test_macmahon_cross_checks_reach_the_nested_pass_and_the_recursion():
    for check, recursion in (
        (verify.check_macmahon_A_cross, "macmahon_A_recursive"),
        (verify.check_macmahon_C_cross, "macmahon_C_recursive"),
    ):
        (ok, _), seen = reached(check, 32, random.Random(0))
        assert ok
        assert {("qforms.py", "_nested_sums"), ("qforms.py", recursion)} <= seen


def test_andrews_rose_sides_reach_the_recursion_and_no_theta_block():
    for expansion, recursion in (
        (trig.andrews_rose_H, "macmahon_A_recursive"),
        (trig.andrews_rose_G, "macmahon_C_recursive"),
    ):
        _, seen = reached(expansion, 32, 13)
        assert ("qforms.py", recursion) in seen
        names = {name for _, name in seen}
        assert not names & {"theta_block", "chebyshev", "cheb_half_doubled"}


def test_theta_block_side_reaches_chebyshev_and_no_macmahon_code():
    for kind in ("h", "g"):
        _, seen = reached(trig.theta_block_q, kind, 32, 13)
        assert ("trig.py", "cheb_half_doubled") in seen
        names = {name for _, name in seen}
        assert not {n for n in names if n.startswith("macmahon_")}
        assert not names & {"_nested_sums", "series_A1", "sigma1_table"}


def test_legendre_series_reaches_no_pochhammer():
    _, seen = reached(qforms.legendre_series, 64)
    assert "pochhammer" not in {name for _, name in seen}


def test_legendre_check_reaches_both_sides():
    # psi(q)^4, the product side ((-q;q) divides by (q;q)) and the sigma_1 sieve
    (ok, _), seen = reached(verify.check_legendre, 32, random.Random(0))
    assert ok
    names = {name for _, name in seen}
    assert {"legendre_series", "pochhammer", "_negative_power", "sigma1_table"} <= names


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
    assert not names & {"_transfer", "two_sin_half", "scaled_sin"}
