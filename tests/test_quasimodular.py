"""The abstract's quasi-modularity claim for MacMahon's A_k and C_k, checked
exactly: A_k lies in Q[E2, E4, E6] (level 1) and C_k in Q[E2, A, E4] (level 2,
with A(q) = 2 E2(q^2) - E2(q)), each of mixed weight at most 2k.

Each fit solves for its coordinates on a prefix of the coefficients by exact
Gauss-Jordan elimination, then checks the whole combination to CHECK_ORDER.
The Eisenstein series are built here from divisor-power sieves, apart from
the package; Ramanujan's three derivative identities are their self-check.
"""

from fractions import Fraction

import pytest

from hypcount import qforms
from hypcount.fps import Series

CHECK_ORDER = 200
RAMANUJAN_ORDER = 300

# dimensions of the weight <= 2k spaces, k = 1..6
LEVEL1_DIMS = (2, 4, 7, 11, 16, 23)
LEVEL2_DIMS = (3, 7, 13, 22, 34, 50)


def eisenstein(weight, order):
    # E_k = 1 - (2k / B_k) sum sigma_(k-1)(n) q^n, by one sieve over the divisors
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        for n in range(d, order + 1, d):
            sigma[n] += d ** (weight - 1)
    scale = {2: -24, 4: 240, 6: -504}[weight]
    return Series([1] + [scale * s for s in sigma[1:]], order)


E2, E4, E6 = (eisenstein(w, RAMANUJAN_ORDER) for w in (2, 4, 6))
A = 2 * E2.compose_monomial(2) - E2


def test_ramanujan_derivative_identities():
    assert E2.qderiv() == (E2 * E2 - E4) / 12
    assert E4.qderiv() == (E2 * E4 - E6) / 3
    assert E6.qderiv() == (E2 * E6 - E4 * E4) / 2


def monomials(generators, top):
    """Every product of the (series, weight) generators of total weight <= top."""
    out = [(Series.one(CHECK_ORDER), 0)]
    for g, w in generators:
        g = g.truncate(CHECK_ORDER)
        grown = []
        for m, weight in out:
            while weight <= top:
                grown.append((m, weight))
                m, weight = m * g, weight + w
        out = grown
    return [m for m, _ in out]


def level1(k):
    return monomials([(E2, 2), (E4, 4), (E6, 6)], 2 * k)


def level2(k):
    return monomials([(E2, 2), (A, 2), (E4, 4)], 2 * k)


def fit(basis, target):
    """(rank of the basis on the prefix, whether target is a combination of it
    to CHECK_ORDER).  Solves on the first 3 dim + 10 coefficients."""
    rows, cols = 3 * len(basis) + 10, len(basis)
    matrix = [[Fraction(b[n]) for b in basis] + [Fraction(target[n])] for n in range(rows)]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        lead = matrix[r][c]
        matrix[r] = [x / lead for x in matrix[r]]
        for i in range(rows):
            if i != r and matrix[i][c]:
                f = matrix[i][c]
                matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[r])]
        pivots.append(c)
    rank = len(pivots)
    if any(row[-1] for row in matrix[rank:]):
        return rank, False
    combination = Series.zero(CHECK_ORDER)
    for r, c in enumerate(pivots):
        combination = combination + basis[c] * matrix[r][-1]
    return rank, combination == target.truncate(CHECK_ORDER)


@pytest.mark.parametrize("k", range(1, 7))
def test_A_k_is_quasimodular_of_level_1(k):
    basis = level1(k)
    assert len(basis) == LEVEL1_DIMS[k - 1]
    assert fit(basis, qforms.macmahon_A(k, CHECK_ORDER)) == (len(basis), True)


@pytest.mark.parametrize("k", range(1, 7))
def test_C_k_is_quasimodular_of_level_2(k):
    basis = level2(k)
    assert len(basis) == LEVEL2_DIMS[k - 1]
    assert fit(basis, qforms.macmahon_C(k, CHECK_ORDER)) == (len(basis), True)


@pytest.mark.parametrize("k", range(1, 5))
def test_C_k_and_A_k_of_q_squared_are_not_level_1(k):
    basis = level1(k)
    a_k_q2 = qforms.macmahon_A(k, CHECK_ORDER // 2).compose_monomial(2)
    assert fit(basis, qforms.macmahon_C(k, CHECK_ORDER)) == (len(basis), False)
    assert fit(basis, a_k_q2) == (len(basis), False)
