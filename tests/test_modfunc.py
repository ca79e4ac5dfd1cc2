"""Eta products, theta quotients, and the bounded replicability check.

`eta_quotient` is held to its exact window: a numerator one 48th short
is refused, and trace series match a division done 10 powers wider.

Low-order Faber columns have closed forms (F_2 = f^2 - 2a_1 and
F_3 = f^3 - 3a_1 f - 3a_2), which give an oracle for the recurrence,
and the whole table is checked against the recurrence run on QSeries
objects; the named-series catalog is pinned against frozen expansions
and against quotients recomputed from fixed-sublattice thetas.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from thetaforge import modfunc
from thetaforge.characters import trace_series
from thetaforge.codes import catalog_code
from thetaforge.errors import DomainError, ThetaforgeError
from thetaforge.lattice import (
    FLAVORS, is_even, lift_order, theta_fixed,
    theta_twisted,
)
from thetaforge.modfunc import (
    MT_NAMES, _faber_rows, eta_product, eta_quotient, fixed_quotient,
    identify, is_replicable, mckay_thompson, orbit_degree, strip_constant,
    theta_quotient,
)
from thetaforge.perms import (
    orbit_type, parse_generators, parse_perm, type_str,
)
from thetaforge.qseries import DEN, PrecisionError, QSeries
from thetaforge.verify import _SUBGROUP_CLASSES

from oracles import (
    CATALOG_BUILDERS, catalog_theta, dilate, every_pair,
    full_window_identify, hamming8_class_representatives, make_series,
    oracle_eta,
)

T = lambda n: n * DEN

HAM = catalog_code("hamming8")


# ---------- orbit types and eta products ----------

def test_eta_product_is_product_of_etas():
    prod = eta_product(((2, 2), (4, 1)), T(10))
    ref = oracle_eta(2, T(10)) ** 2 * oracle_eta(4, T(10))
    assert prod.matches(ref)
    # valuation only depends on the degree: sum over cycles of t/24
    assert prod.valuation48() == 2 * 8
    assert eta_product(((1, 8),), T(4)).valuation48() == 2 * 8
    assert eta_product(((1, 2), (2, 1), (4, 1)), T(4)).valuation48() == 2 * 8
    assert orbit_degree(((1, 2), (2, 1), (4, 1))) == 8


def test_a_shared_eta_product_is_left_unmutated():
    first = eta_product(((1, 2), (2, 1), (4, 1)), T(10))
    snapshot = (dict(first.coeffs), first.trunc48)
    assert (eta_product(((1, 2), (2, 1), (4, 1)), T(9))
            == first.truncate48(T(9)))
    derived = [first * first, first + first, first - 1, -first, 3 * first,
               first * first ** -1, first / 3, first ** 2, first ** 1,
               first ** Fraction(1, 2), first.truncate48(T(4)),
               dilate(first, 2)]
    assert derived[8] is first   # a first power is the series itself
    assert (first.coeffs, first.trunc48) == snapshot
    assert (eta_product(((1, 2), (2, 1), (4, 1)), T(10))
            == make_series(*snapshot))


# ---------- the eta quotient and its window ----------

@pytest.mark.parametrize("otype", [((1, 8),), ((2, 4),),
                                   ((1, 2), (2, 1), (4, 1)), ((1, 24),)],
                         ids=["1^8", "2^4", "1^2 2 4", "1^24"])
def test_eta_quotient_needs_the_numerator_through_trunc_plus_2n(otype):
    # the eta product of degree N starts at q^(N/24), 2N in 48ths
    need = T(6) + 2 * orbit_degree(otype)
    theta = catalog_theta("E8", 1, T(12))
    asked = []

    def numerator(window):
        asked.append(window)
        return theta.truncate48(need)

    quo = eta_quotient(numerator, otype, T(6))
    assert asked == [need]
    wide = theta * eta_product(otype, T(12)) ** -1
    assert quo == wide.truncate48(T(6))
    with pytest.raises(PrecisionError):
        eta_quotient(lambda window: theta.truncate48(need - 1), otype, T(6))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_trace_series_against_a_wide_division(flavor):
    # trace_series refuses the odd super0 lattice of hamming8, so there
    # the same twisted-theta quotient goes to eta_quotient directly
    for g in hamming8_class_representatives():
        for j in range(lift_order(HAM, g, flavor=flavor)):
            ctype = (g ** (j % g.order())).cycle_type()
            wide = (theta_twisted(HAM, g, j, T(18), flavor=flavor)
                    * eta_product(ctype, T(18)) ** -1)
            if is_even(HAM, flavor):
                got = trace_series(HAM, g, j, T(8), flavor=flavor)
            else:
                with pytest.raises(DomainError, match="lattice of the code is odd"):
                    trace_series(HAM, g, j, T(8), flavor=flavor)
                got = eta_quotient(
                    lambda t: theta_twisted(HAM, g, j, t, flavor=flavor),
                    ctype, T(8))
            assert got == wide.truncate48(T(8))


# ---------- theta quotients ----------

def test_quotient_of_full_lattice_theta_is_shifted_j():
    f = theta_quotient(theta_fixed(HAM, [], T(16)), ((1, 8),))
    got, delta = identify(f)
    assert got == "T_1A" and delta == 744
    assert f.coeff48(-DEN) == 1
    assert f.coeff48(0) == 744
    assert f.coeff48(DEN) == 196884
    assert f.coeff48(2 * DEN) == 21493760


def test_quotient_keeps_integer_coefficients():
    for name in ("hamming8", "hamming8+hamming8", "golay24"):
        code = catalog_code(name)
        f = theta_quotient(theta_fixed(code, [], T(10)), ((1, code.n),))
        assert f.is_integral()


def test_raw_quotient_used_for_inner_power_rows():
    # no 24/N rescaling: theta over eta(q^2)^4 alone
    th = theta_fixed(HAM, [parse_perm("(1,7)(2,4)(3,8)(5,6)", 8)], T(16))
    f = eta_quotient(th.truncate48, ((2, 4),), T(16) - 32)
    assert f.valuation48() == -16
    assert [f.coeff48(-16 + 48 * k) for k in range(7)] == [
        1, 8, 28, 64, 134, 288, 568]


def test_quotient_rejects_wrong_rank():
    th = theta_fixed(HAM, [], T(8))
    with pytest.raises(DomainError, match="rank must be"):
        theta_quotient(th, ((1, 12),))
    with pytest.raises(DomainError):
        theta_quotient(th - 1, ((1, 8),))


@pytest.mark.parametrize("powers", [1, 2])
def test_quotient_with_no_window_is_a_precision_error(powers):
    # eta^24 starts at q^1, so it takes 2 powers of theta's window
    golay = catalog_code("golay24")
    theta = theta_fixed(golay, [], T(powers))
    with pytest.raises(PrecisionError, match="no window"):
        theta_quotient(theta, ((1, 24),))
    shortest = theta_quotient(theta_fixed(golay, [], T(3)), ((1, 24),))
    assert shortest.trunc48 == T(1)


def test_fixed_quotient_is_the_labelled_theta_quotient():
    # every hamming8 class representative and every subgroup class of
    # `verify` under two flavors, and the golay24 half swap on Leech
    groups = ([[g] for g in hamming8_class_representatives()]
              + [parse_generators(text, 8) if text else []
                 for text, _ in _SUBGROUP_CLASSES])
    assert len(groups) == 11 + 19
    cases = [(HAM, gens, flavor) for flavor in ("plain", "super1")
             for gens in groups]
    swap = parse_generators("(1,13)(2,14)(3,15)(4,16)(5,17)(6,18)(7,19)"
                            "(8,20)(9,21)(10,22)(11,23)(12,24)", 24)
    cases.append((catalog_code("golay24"), swap, "super1"))
    for code, gens, flavor in cases:
        t48 = T(4) + 4 * code.n
        label, quo = fixed_quotient(code, gens, t48, flavor=flavor)
        otype = orbit_type(gens, code.n)
        assert label == type_str(otype)
        assert quo == theta_quotient(
            theta_fixed(code, gens, t48, flavor=flavor), otype)


def test_fixed_quotient_refuses_an_odd_lattice():
    with pytest.raises(DomainError, match="super0 lattice of the code is odd"):
        fixed_quotient(HAM, [], T(8), flavor="super0")


@pytest.mark.parametrize("degree", [10, 6])
def test_fixed_quotient_refuses_a_generator_of_the_wrong_degree(degree):
    g = parse_perm("(%d,%d)" % (degree - 1, degree), degree)
    with pytest.raises(DomainError) as err:
        fixed_quotient(HAM, [g], T(10))
    assert str(err.value) == (
        "permutation %s acts on %d points, code has length 8" % (g, degree))


def test_klein_subgroup_quotient_expansion():
    gens = parse_generators("(4,6)(5,7), (4,7)(5,6), (1,3)(2,8)", 8)
    th = theta_fixed(HAM, gens, T(16))
    f = theta_quotient(th, ((2, 2), (4, 1)))
    assert [f.coeff48(k * DEN) for k in range(-1, 8)] == [
        1, 18, 150, 780, 2928, 8892, 24032, 60840, 145089]
    assert identify(f) == (None, None)


# ---------- Faber recurrence ----------

def faber_low_columns(f):
    """F_2 and F_3 written out directly instead of recursively."""
    a1 = f.coeff48(DEN)
    a2 = f.coeff48(2 * DEN)
    return f * f - 2 * a1, f * f * f - 3 * a1 * f - 3 * a2


def oracle_faber_grid(f, K):
    """The Faber recurrence with every F_k expanded as a QSeries:
    table[n][k] = G_{n,k}, the coefficient of q^n in F_k, for
    1 <= n, k <= K, with row and column 0 unused."""
    a1 = [None] + [f.coeff48(n * DEN) for n in range(1, 2 * K + 1)]
    table = [[None] * (K + 1) for _ in range(K + 1)]
    polys = [None, f]
    for n in range(1, K + 1):
        table[n][1] = a1[n]
    for k in range(1, K):
        nxt = f * polys[k]
        for n in range(1, k):
            nxt = nxt - a1[k - n] * polys[n]
        nxt = nxt - (k + 1) * a1[k]
        polys.append(nxt)
        for n in range(1, K + 1):
            table[n][k + 1] = nxt.coeff48(n * DEN)
    return table


def faber_grid(f, K):
    """G_{n,k} off `_faber_rows`, laid out as `oracle_faber_grid`."""
    rows = _faber_rows(f, K, every_pair(K))
    return [[None] * (K + 1)] + [[None] + [rows[k][n] for k in range(1, K + 1)]
                                 for n in range(1, K + 1)]


def _faber_input(source, K):
    if source.startswith("T_"):
        f = mckay_thompson(source, T(2 * K + 1))
    else:
        g = parse_perm(source, 8)
        th = theta_fixed(HAM, [g], T(2 * K + 4))
        f = theta_quotient(th, g.cycle_type())
    return strip_constant(f)[0]


@pytest.mark.parametrize("K", [1, 2, 3, 5, 7, 24])
@pytest.mark.parametrize("source", [
    "T_4A", "T_3A", "(1,6)(7,8)", "T_8B", "T_16a"])
def test_faber_table_against_series_oracle(source, K):
    f = _faber_input(source, K)
    assert faber_grid(f, K) == oracle_faber_grid(f, K)


def test_faber_table_on_the_series_benchmark_input():
    # the quotient that `replicable --group "(1,5,2)(3,7,8)" --krep 48
    # --trunc 100` tabulates on hamming8
    _, q = fixed_quotient(HAM, parse_generators("(1,5,2)(3,7,8)", 8), T(100))
    f = strip_constant(q)[0]
    assert faber_grid(f, 48) == oracle_faber_grid(f, 48)


coeff_st = st.integers(min_value=-9, max_value=9)
exact_coeff_st = st.one_of(
    coeff_st, st.fractions(min_value=-9, max_value=9, max_denominator=6))


@st.composite
def strided_faber_input(draw):
    """(f, K): f = q^-1 plus a tail on the exponents t with s | t+1."""
    K = draw(st.integers(min_value=1, max_value=12))
    s = draw(st.integers(min_value=1, max_value=5))
    coeffs = {-DEN: 1}
    for t in range(s - 1, 2 * K + 1, s):
        if t:
            coeffs[t * DEN] = draw(exact_coeff_st)
    return make_series(coeffs, T(2 * K) + 1), K


def strided_tail(s, K):
    """(f, K): a fixed tail on stride s, its first coefficient 1/3."""
    tail = [t for t in range(s - 1, 2 * K + 1, s) if t]
    coeffs = {-DEN: 1, T(tail[0]): Fraction(1, 3)}
    coeffs.update({T(t): t % 7 - 2 for t in tail[1:] if t % 7 - 2})
    return make_series(coeffs, T(2 * K) + 1), K


# The square walks the anti-diagonals sigma = j + k that stride s
# divides.  These put sigma = K + 1, the last one closed on row 1, and
# sigma = 2K, the last one, on stride 1 to 5, at both middle parities.
@given(strided_faber_input())
@example((make_series({-DEN: 1}, T(13)), 6))
@example(strided_tail(1, 6))    # sigma = 7 odd, 12 even
@example(strided_tail(1, 7))    # sigma = 8 even, 14 even
@example(strided_tail(2, 5))    # sigma = 6 and 10
@example(strided_tail(3, 8))    # sigma = 9 odd
@example(strided_tail(3, 6))    # sigma = 12 even
@example(strided_tail(4, 7))    # sigma = 8
@example(strided_tail(4, 8))    # sigma = 16
@example(strided_tail(5, 4))    # sigma = 5 odd
@example(strided_tail(5, 10))   # sigma = 20 even
@settings(max_examples=60, deadline=None)
def test_faber_table_on_strided_tails_against_the_oracle(case):
    f, K = case
    assert faber_grid(f, K) == oracle_faber_grid(f, K)


def oracle_verdict(grid, K):
    """`is_replicable`'s verdict and violations read off an oracle grid
    table[n][k] = G_{n,k} that covers the K x K square: a[n][k] =
    G_{k,n}/n as a Fraction, held against the first entry of its
    (gcd, lcm) class in the order n <= k."""
    first, violations = {}, []
    for n in range(1, K + 1):
        for k in range(n, K + 1):
            value = Fraction(grid[k][n], n)
            r, s, want = first.setdefault((gcd(n, k), lcm(n, k)), (n, k, value))
            if value != want:
                violations.append([n, k, r, s])
    return ("not-replicable" if violations else "replicable-up-to-K_rep",
            violations)


# One oracle grid at K 60 holds the grid of every smaller K, as G_{n,k}
# does not depend on K; the catalog rows and the hamming8 class
# quotients, replicable or not, are walked at every K up to it.
@pytest.mark.parametrize("source", [*MT_NAMES, *[
    g for g in hamming8_class_representatives()]], ids=str)
def test_pruned_walk_gives_the_oracle_verdicts(source):
    K_top = 60
    if isinstance(source, str):
        f = strip_constant(mckay_thompson(source, T(2 * K_top + 1)))[0]
    else:
        th = theta_fixed(HAM, [source], T(2 * K_top + 4))
        f = strip_constant(theta_quotient(th, source.cycle_type()))[0]
    grid = oracle_faber_grid(f, K_top)
    for K in range(1, K_top + 1):
        report = is_replicable(f, K)
        assert ((report["verdict"], report["violations"])
                == oracle_verdict(grid, K)), K


@given(strided_faber_input())
@settings(max_examples=60, deadline=None)
def test_pruned_walk_verdicts_on_strided_tails(case):
    f, K = case
    report = is_replicable(f, K)
    assert ((report["verdict"], report["violations"])
            == oracle_verdict(oracle_faber_grid(f, K), K))


@st.composite
def faber_pairs_case(draw):
    """(f, K, pairs): a strided input and up to 6 pairs (n, k) in the
    K x K square, in either order."""
    f, K = draw(strided_faber_input())
    index = st.integers(min_value=1, max_value=K)
    return f, K, draw(st.lists(st.tuples(index, index), max_size=6))


# An even anti-diagonal 2m above K+1 that only its middle G_{m,m} needs
# reads 2m-2 one index below its own middle.
@given(faber_pairs_case())
@example((*strided_tail(2, 4), [(2, 2), (2, 3), (4, 4)]))
@example((*strided_tail(1, 5), [(5, 5), (5, 1), (3, 2), (2, 3)]))
@example((*strided_tail(1, 12), [(12, 12)]))
@example((*strided_tail(3, 12), [(9, 12), (12, 12)]))
@settings(max_examples=80, deadline=None)
def test_pruned_rows_fill_every_pair_they_are_given(case):
    f, K, pairs = case
    rows = _faber_rows(f, K, pairs)
    grid = oracle_faber_grid(f, K)
    for n, k in pairs:
        assert (rows[k][n], rows[n][k]) == (grid[n][k], grid[k][n])


@pytest.mark.parametrize("name", ["T_4A", "T_16a"])   # strides 1 and 4
@pytest.mark.parametrize("K", [1, 6, 13])
def test_faber_table_precision_boundary(name, K):
    f = strip_constant(mckay_thompson(name, 2 * K * DEN + 1))[0]
    assert f.trunc48 == 2 * K * DEN + 1
    assert faber_grid(f, K) == oracle_faber_grid(f, K)
    with pytest.raises(PrecisionError):
        faber_grid(f.truncate48(2 * K * DEN), K)


def test_faber_table_checks_the_symmetric_fill(monkeypatch):
    f = _faber_input("T_3A", 4)
    monkeypatch.setattr(modfunc, "exact_div", lambda a, b: Fraction(a, b) + 1)
    # every exact division is off by one, so the first walk onto row 1,
    # at sigma = 4, no longer gives G_{1,3} = 3 a_3
    with pytest.raises(ThetaforgeError, match=r"asymmetric at \(1, 3\)"):
        _faber_rows(f, 4, every_pair(4))


@pytest.mark.parametrize("call", [
    lambda f: _faber_rows(f, 12.7, []),
    lambda f: is_replicable(f, 12.7),
    lambda f: is_replicable(f, "5"),
], ids=["faber_table", "is_replicable", "is_replicable-str"])
def test_faber_counts_must_be_ints(call):
    # int() would run these at K_rep = 12 and 5
    with pytest.raises(TypeError):
        call(_faber_input("T_4A", 13))


def test_faber_table_against_closed_forms():
    f, _ = strip_constant(mckay_thompson("T_4A", T(10)))
    rows = _faber_rows(f, 4, every_pair(4))
    f2, f3 = faber_low_columns(f)
    for n in range(1, 5):
        assert rows[1][n] == f.coeff48(n * DEN)
        assert rows[2][n] == f2.coeff48(n * DEN)
        assert rows[3][n] == f3.coeff48(n * DEN)


def test_faber_table_needs_precision():
    f, _ = strip_constant(mckay_thompson("T_3A", T(24)))
    with pytest.raises(PrecisionError):
        _faber_rows(f, 12, every_pair(12))
    assert is_replicable(f, 12)["verdict"] == "insufficient-precision"


def test_faber_table_rejects_unnormalized_input():
    with pytest.raises(DomainError):
        # the constant 24 is left in
        _faber_rows(mckay_thompson("T_4A", T(10)), 4, every_pair(4))
    with pytest.raises(DomainError):
        _faber_rows(oracle_eta(1, T(10)), 4, every_pair(4))


@given(st.lists(coeff_st, min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_faber_table_symmetry(tail):
    K = 4
    coeffs = {-DEN: 1}
    coeffs.update({(i + 1) * DEN: c for i, c in enumerate(tail) if c})
    f = make_series(coeffs, T(2 * K + 1))
    # the entries G_{n,k}/k are symmetric in n and k
    rows = _faber_rows(f, K, every_pair(K))
    for n in range(1, K + 1):
        for k in range(1, K + 1):
            assert rows[k][n] * n == rows[n][k] * k


@given(st.fractions(min_value=-20, max_value=20, max_denominator=6))
@settings(max_examples=25, deadline=None)
def test_sparse_series_is_replicable(c):
    coeffs = {-DEN: 1}
    if c:
        coeffs[DEN] = c if c.denominator > 1 else int(c)
    f = make_series(coeffs, T(26))
    assert is_replicable(f, 12)["verdict"] == "replicable-up-to-K_rep"


# ---------- named series ----------

def test_t4a_expansion():
    f = mckay_thompson("T_4A", T(6))
    assert [f.coeff48(k * DEN) for k in range(-1, 6)] == [
        1, 24, 276, 2048, 11202, 49152, 184024]


def test_t3a_expansion_starts_42():
    f = mckay_thompson("T_3A", T(3))
    assert f.coeff48(-DEN) == 1
    assert f.coeff48(0) == 42
    assert f.coeff48(DEN) == 783
    assert f.coeff48(2 * DEN) == 8672


def test_t12a_and_t7a_constants():
    assert mckay_thompson("T_12A", T(2)).coeff48(0) == 6
    assert mckay_thompson("T_7A", T(2)).coeff48(0) == 9


def test_halved_dilations_are_consistent():
    # the square of the order-8 series is the order-4 one in q^2,
    # and the fourth power of the order-16 one is it in q^4
    t4a = mckay_thompson("T_4A", T(24))
    t8b = mckay_thompson("T_8B", T(12))
    t16a = mckay_thompson("T_16a", T(6))
    assert (t8b * t8b).matches(dilate(t4a, 2))
    assert (t16a ** 4).matches(dilate(t4a, 4))
    t3a = mckay_thompson("T_3A", T(12))
    t6b = mckay_thompson("T_6b", T(6))
    assert (t6b * t6b).matches(dilate(t3a, 2))


def test_all_named_series_are_integral_hauptmodul_shaped():
    for name in MT_NAMES:
        f = mckay_thompson(name, T(26))
        assert f.valuation48() == -DEN
        assert f.lead_coeff() == 1
        assert f.is_integral()
        assert is_replicable(f, 12)["verdict"] == "replicable-up-to-K_rep"


# on and off the integer grid, from one power past q^0 up to 200 powers
CATALOG_WINDOWS = (49, T(2), T(9), T(26), T(30), T(100) + 7, T(200))


@pytest.mark.parametrize("name", MT_NAMES)
def test_catalog_rows_match_the_hand_padded_builders(name):
    mckay_thompson.cache_clear()
    for w in CATALOG_WINDOWS:   # each window is its own memo entry: built afresh
        got = mckay_thompson(name, w)
        assert got == CATALOG_BUILDERS[name](w).truncate48(w), (name, w)
        assert got.trunc48 == w
        assert all(type(c) is int for c in got.coeffs.values()), (name, w)


def test_catalog_rows_are_eta_exponents():
    # each term is data, c * eta_product(pairs), the denominator's
    # counts negated: positive lengths, nonzero counts of either sign
    assert MT_NAMES == tuple(modfunc._CATALOG)
    for name, (constant, terms) in modfunc._CATALOG.items():
        assert type(constant) is int, name
        for c, pairs in terms:
            assert type(c) is int and c > 0, (name, c)
            assert type(pairs) is tuple and pairs, (name, pairs)
            for t, r in pairs:
                assert type(t) is int and t > 0, (name, pairs)
                assert type(r) is int and r != 0, (name, pairs)


def test_unknown_series_name_rejected():
    with pytest.raises(DomainError):
        mckay_thompson("T_2A", T(4))


def test_k_lattice_theta_closed_form():
    # ((eta_1 eta_7)^3 + 4 (eta_2 eta_14)^3) / (eta_1 eta_2 eta_7 eta_14)
    w = T(12)
    eta = {k: oracle_eta(k, w) for k in (1, 2, 7, 14)}
    num = (eta[1] * eta[7]) ** 3 + 4 * (eta[2] * eta[14]) ** 3
    den = eta[1] * eta[2] * eta[7] * eta[14]
    assert (num * den ** -1).matches(catalog_theta("K", 1, T(10)))


# ---------- orbit-type quotients land on the catalog ----------

PAIRINGS = [
    ("T_1A", ((1, 8),), ("E8", 1), 744),
    ("T_4A", ((2, 4),), ("A1^4", 2), 0),
    ("T_8B", ((4, 2),), ("A1^2", 4), 0),
    ("T_16a", ((8, 1),), ("A1", 8), 0),
    ("T_3A", ((1, 2), (3, 2)), ("A2^2", 1), 0),
    ("T_6b", ((2, 1), (6, 1)), ("A2", 2), 0),
    ("T_7A", ((1, 1), (7, 1)), ("K", 1), 0),
]


@pytest.mark.parametrize("name,otype,ref,delta", PAIRINGS,
                         ids=[p[0] for p in PAIRINGS])
def test_orbit_type_quotients_identify(name, otype, ref, delta):
    th = catalog_theta(ref[0], ref[1], T(14))
    f = theta_quotient(th, otype)
    assert identify(f) == (name, delta)


def test_split_orbit_theta_identifies_as_t12a():
    th = catalog_theta("A1", 2, T(14)) * catalog_theta("A1", 6, T(14))
    f = theta_quotient(th, ((2, 1), (6, 1)))
    assert identify(f) == ("T_12A", 0)


@pytest.mark.parametrize("powers", [26, 100])
@pytest.mark.parametrize("flavor", ["plain", "super1"])
def test_identify_agrees_with_the_full_window_loop_on_the_classes(powers, flavor):
    for g in hamming8_class_representatives():
        th = theta_fixed(HAM, [g], T(powers), flavor=flavor)
        f = theta_quotient(th, g.cycle_type())
        assert identify(f) == full_window_identify(f), (g, powers)


@pytest.mark.parametrize("name", MT_NAMES)
def test_identify_agrees_with_the_full_window_loop_on_the_catalog(name):
    for t48 in (T(8) + 1, T(9), T(30)):
        f = mckay_thompson(name, t48)
        assert identify(f) == full_window_identify(f) == (name, 0)
        shifted = f + 5
        assert identify(shifted) == full_window_identify(shifted) == (name, 5)


def test_identify_rejects_a_late_mismatch_after_the_probe():
    f = mckay_thompson("T_4A", T(30))
    for e in (5, 9, 29):     # inside the probe, just past it, at the end
        bent = f + QSeries.monomial(1, T(e), f.trunc48)
        assert identify(bent) == full_window_identify(bent) == (None, None)


def test_identify_needs_window():
    f = mckay_thompson("T_4A", T(8))
    with pytest.raises(PrecisionError):
        identify(f)
    assert identify(oracle_eta(1, T(12))) == (None, None)


# ---------- verdicts for the order-two classes ----------

def quotient_of(text):
    g = parse_perm(text, 8)
    th = theta_fixed(HAM, [g], T(26))
    return theta_quotient(th, g.cycle_type())


def test_replicable_class_identifications():
    for text, want in [
        ("(1,7)(2,4)(3,8)(5,6)", "T_4A"),
        ("(1,5,2)(3,7,8)", "T_3A"),
        ("(1,3,7,8,5,4,2)", "T_7A"),
        ("(1,3,7,8)(2,5,4,6)", "T_8B"),
        ("(1,3,7,8,2,6)(4,5)", "T_6b"),
    ]:
        f = quotient_of(text)
        r = is_replicable(f, 12)
        assert r["verdict"] == "replicable-up-to-K_rep", text
        assert identify(f)[0] == want


def test_nonreplicable_class_violations():
    f = quotient_of("(1,6)(7,8)")
    r = is_replicable(f, 12)
    assert r["verdict"] == "not-replicable"
    assert r["violations"] == [
        [2, 3, 1, 6], [2, 5, 1, 10], [3, 4, 1, 12],
        [4, 6, 2, 12], [5, 6, 3, 10]]
    assert identify(f) == (None, None)
    for text in ["(1,2)(3,8)(4,7)(5,6)", "(1,5,2,6)(3,7,8,4)", "(1,7,8,6)(4,5)"]:
        r = is_replicable(quotient_of(text), 12)
        assert r["verdict"] == "not-replicable"
        assert r["violations"][0] == [2, 3, 1, 6]


def test_report_round_trips_to_json():
    obj = is_replicable(quotient_of("(1,6)(7,8)"), 12)
    assert obj["verdict"] == "not-replicable"
    assert obj["violations"][0] == [2, 3, 1, 6]
