"""Core series arithmetic, checked against brute-force oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import thetaforge
from thetaforge.lattice import _factor
from thetaforge.qseries import (
    DEN, PrecisionError, QSeries, _packed_product, eta_power, exact_div,
    int_theta, iroot, rational_power, theta2, theta3, theta4,
)

from oracles import (
    brute_int_theta, convolve, dilate, make_series, oracle_eta,
    shifted_theta,
)

T = lambda n: n * DEN  # integer q-power -> 48ths


# ---------- oracles ----------

def oracle_mul(a, b):
    """Reference product: full convolution, no early exits."""
    t = min(a.valuation48() + b.trunc48, b.valuation48() + a.trunc48)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if e < t and c != 0}, t


def binom_frac(r, k):
    """Generalized binomial coefficient C(r, k) for rational r, integer k >= 0."""
    out = Fraction(1)
    for i in range(k):
        out *= (r - i)
        out /= (i + 1)
    return out


def exact_power(c, r):
    """c**r for the leads that `oracle_pow` meets: whole r, or c > 0 whose
    numerator and denominator are perfect powers of r's denominator."""
    c, r = Fraction(c), Fraction(r)
    k = r.denominator

    def root(x):
        m = round(x ** (1 / k))
        if m ** k != x:
            raise ValueError("%d has no exact %d-th root" % (x, k))
        return m

    if k != 1:
        c = Fraction(root(c.numerator), root(c.denominator))
    return c ** r.numerator


def oracle_pow(f, r):
    """Reference power: f = c q^v (1 + h) and f**r = c**r q^(rv) sum C(r, k) h^k.

    Sums the binomial series with repeated sparse products, so it costs
    about T^3; the library's Miller recurrence must agree with it exactly.
    """
    r = Fraction(r)
    v = f.valuation48()
    c = f.lead_coeff()
    trel = f.trunc48 - v
    h = make_series({e - v: Fraction(cc) / c
                     for e, cc in f.coeffs.items() if e != v}, trel)
    out = QSeries.monomial(1, 0, trel)
    if not h.is_zero():
        step = h.valuation48()
        hk = QSeries.monomial(1, 0, trel)
        k = 1
        while k * step < trel:
            hk = hk * h
            out = out + binom_frac(r, k) * hk
            k += 1
    cr = exact_power(c, r)
    rv = int(r * v)
    return make_series({e + rv: cr * cc for e, cc in out.coeffs.items()},
                       trel + rv)


# ---------- strategies ----------

coeff_st = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)

series_st = st.builds(
    lambda pairs, t: make_series(dict(pairs), t),
    st.lists(st.tuples(st.integers(min_value=-96, max_value=140), coeff_st),
             max_size=8),
    st.integers(min_value=48, max_value=240),
)


POWERS = [Fraction(r) for r in ("-2", "-1", "-1/2", "1/2", "1/3", "3/2")]

# positive int powers like those `lattice` raises its block thetas to
ENGINE_POWERS = [2, 3, 8, 12, 24]


@st.composite
def engine_power_case_st(draw):
    """(f, r) in the shape the engine raises: a block theta
    `lattice._factor` with quarters 0 to 3 (lead 1, or 2 for quarters
    2), plain or alternating, to a positive int power.  Alternating
    quarters 2 is the zero series, which the engine never raises."""
    size = draw(st.integers(min_value=1, max_value=4))
    quarters = draw(st.integers(min_value=0, max_value=3))
    alternating = quarters != 2 and draw(st.booleans())
    lead = 3 * size * min(quarters, 4 - quarters) ** 2
    end = lead + draw(st.integers(min_value=1, max_value=16 * DEN))
    f = _factor(size, quarters, alternating, end)
    return f, draw(st.sampled_from(ENGINE_POWERS))


@st.composite
def power_case_st(draw):
    """(f, r) with f**r exact: a perfect sixth-power lead at an exponent
    divisible by 6, a tail on a random stride, and any window end; or,
    one time in four, an engine case."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(engine_power_case_st())
    r = draw(st.sampled_from(POWERS))
    stride = draw(st.sampled_from([1, 2, 3, 8, 16, 48]))
    v = 6 * draw(st.integers(min_value=-8, max_value=8))
    base = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3)
                .filter(bool))
    lead = base ** 6
    if r.denominator == 1 and draw(st.booleans()):
        lead = -lead
    terms = draw(st.integers(min_value=1, max_value=24))
    tail = draw(st.dictionaries(st.integers(min_value=1, max_value=terms),
                                coeff_st, max_size=6))
    coeffs = {v + stride * k: c for k, c in tail.items()}
    coeffs[v] = lead
    end = v + stride * terms + draw(st.integers(min_value=1, max_value=stride))
    return make_series(coeffs, end), r


@st.composite
def integral_power_case_st(draw):
    """(f, r) with integer coefficients and f**r exact: the lead is a
    sixth power (negated only for integer r), the tail any integers; or,
    one time in four, an engine case."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(engine_power_case_st())
    r = draw(st.sampled_from(POWERS))
    stride = draw(st.sampled_from([1, 2, 3, 48]))
    v = 6 * draw(st.integers(min_value=-8, max_value=8))
    lead = draw(st.sampled_from([1, 1, 1, 64, 729]))
    if r.denominator == 1 and draw(st.booleans()):
        lead = -lead
    terms = draw(st.integers(min_value=1, max_value=24))
    tail = draw(st.dictionaries(st.integers(min_value=1, max_value=terms),
                                st.integers(min_value=-9, max_value=9),
                                max_size=6))
    coeffs = {v + stride * k: c for k, c in tail.items()}
    coeffs[v] = lead
    end = v + stride * terms + draw(st.integers(min_value=1, max_value=stride))
    return make_series(coeffs, end), r


@st.composite
def eta_power_case_st(draw):
    """(num, counts, power, window end) for `eta_power`: num a scalar c,
    or c times a theta, plain or twisted with negative coefficients,
    led at q^0 or at q^v with v > 0; signed counts of lengths 1 to 24;
    power 1, 3 or 3/2, with c a square for 3/2."""
    power = draw(st.sampled_from([1, 3, Fraction(3, 2)]))
    counts = tuple(draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=24),
                  st.integers(min_value=-3, max_value=3).filter(bool)),
        min_size=1, max_size=3)))
    c = draw(st.sampled_from([1, 4, Fraction(1, 9)] if power != 1
                             else [1, -1, 2, Fraction(-1, 3)]))
    kind = draw(st.sampled_from(["scalar", "theta", "led"]))
    end = draw(st.integers(min_value=1, max_value=10 * DEN))
    if kind == "scalar":
        return c, counts, power, end
    w = draw(st.integers(min_value=1, max_value=3))
    num = int_theta(24 * w, 1, 0, end, alternating=draw(st.booleans()))
    if kind == "led":
        # an even v keeps (v - 2N) 3/2 on the grid
        v = draw(st.sampled_from([2, 4, 24, 48]))
        num = QSeries.monomial(1, v, end + v) * num
    return c * num, counts, power, end


def composed_eta_power(num, counts, power, pad):
    """(num / prod eta(q^t)^count)^power from the explicit eta products,
    each raised by integer ** and inverted by ** -1, with
    every eta exact below pad."""
    out = QSeries.monomial(1, 0, pad) * num
    for t, r in counts:
        factor = oracle_eta(t, pad) ** abs(r)
        out = out * (factor ** -1 if r > 0 else factor)
    return out ** power


def whole_numbers_are_ints(f):
    return all(type(c) is int or c.denominator > 1 for c in f.coeffs.values())


# ---------- basic construction ----------

def test_monomial_and_zero():
    z = QSeries.zero(T(5))
    assert z.is_zero()
    assert z.valuation48() == T(5)
    m = QSeries.monomial(3, T(2), T(5))
    assert m.coeff48(T(2)) == 3
    assert m.coeff48(T(3)) == 0
    with pytest.raises(PrecisionError):
        m.coeff48(T(5))


def test_the_package_does_not_export_the_unchecked_constructor():
    # QSeries(coeffs, trunc48) stores what it is given, so the class stays
    # internal; values from outside enter through the checked calls below
    assert sorted(thetaforge.__all__) == ["DEN", "PrecisionError", "__version__"]
    assert not hasattr(thetaforge, "QSeries")


@pytest.mark.parametrize("build", [
    lambda: QSeries.monomial(0.5, 0, T(1)),
    lambda: QSeries.monomial(1, 0, T(1)) + 0.1,
    lambda: QSeries.monomial(1, 0, T(1)) * 0.1,
    lambda: QSeries.monomial(1, 0, T(1)) / 0.1,
    lambda: eta_power(0.1, (), 1, T(1)),
], ids=["monomial", "add", "mul", "truediv", "eta_power-numerator"])
def test_inexact_coefficients_rejected(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: QSeries.zero(48.7),
    lambda: QSeries.monomial(1, 0, 48.7),
    lambda: QSeries.monomial(1, 0.9, T(1)),
    lambda: QSeries.monomial(1, 0, 48.7),
], ids=["zero-bound", "one-bound", "monomial-exponent", "monomial-bound"])
def test_inexact_exponents_rejected(build):
    # int() would truncate these silently to a different series
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("call", [
    lambda: QSeries.monomial(1, 0, T(101)).truncate48(100.9),
    lambda: eta_power(1, ((1.9, 1),), 1, T(4)),
    lambda: eta_power(1, ((1, 1),), 1, 100.5),
    lambda: theta3(1, 48.5),
    lambda: int_theta(3, 4, 1, 100.5),
    lambda: int_theta(1.5, 1, 0, T(4)),
    lambda: theta2(1.5, T(4)),
    lambda: QSeries.monomial(5, T(1), T(2)).coeff48(47.9),
    lambda: QSeries.monomial(5, T(1), T(2)).coeff48(48.0),
], ids=["truncate48", "eta", "eta-bound", "theta-bound",
        "int_theta-bound", "int_theta-weight", "theta2-scale",
        "coeff48-between", "coeff48-whole"])
def test_non_integer_arguments_rejected(call):
    # int() would run the first two on 100 and 1/eta(q) instead, and
    # the builders would hand out a series with a float bound; a float
    # exponent would read 0 between the int keys and match one by value
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call", [
    lambda: oracle_eta(1, T(10)) ** 0.5,
    lambda: oracle_eta(1, T(10)) ** 0.1,
    lambda: eta_power(1, ((1, 1),), 0.5, T(10)),
    lambda: rational_power(4, 0.5),
    lambda: rational_power(4.0, 2),
], ids=["pow", "pow-off-grid", "eta_power",
        "rational_power", "rational_power-base"])
def test_float_powers_weights_and_exponents_rejected(call):
    # Fraction() would take 0.5 as 1/2, and 0.1 as a power with a 2^55
    # denominator that "leaves the grid"
    with pytest.raises(TypeError, match="is not an int or a Fraction"):
        call()


# ---------- ring axioms (property-based) ----------

@given(series_st, series_st, series_st)
@settings(max_examples=60, deadline=None)
def test_add_mul_axioms(a, b, c):
    assert (a + b).matches(b + a)
    assert ((a + b) + c).matches(a + (b + c))
    assert (a * b).matches(b * a)
    assert ((a * b) * c).matches(a * (b * c))
    assert (a * (b + c)).matches(a * b + a * c)
    assert (a - a).is_zero()
    assert (a + QSeries.zero(a.trunc48)).matches(a)
    one = QSeries.monomial(1, 0, a.trunc48)
    assert (a * one).matches(a)


@given(series_st, series_st)
@settings(max_examples=60, deadline=None)
def test_mul_against_oracle(a, b):
    got = a * b
    want, t = oracle_mul(a, b)
    assert got.trunc48 == t
    assert {e: Fraction(c) for e, c in got.coeffs.items()} == want


@given(series_st)
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(a):
    obj = a.to_json_obj()
    back = make_series({e: Fraction(c) if isinstance(c, str) else c
                        for e, c in obj["coeffs"]}, obj["trunc_num48"])
    assert back == a


# ---------- eta ----------

def eta(scale, trunc48):
    """eta(q^scale) from the kernel: 1 / eta(q^scale)^-1."""
    return eta_power(1, ((scale, -1),), 1, trunc48)


@pytest.mark.parametrize("scale", [1, 2, 3, 7])
def test_eta_matches_finite_product(scale):
    t48 = T(20)
    assert eta(scale, t48) == oracle_eta(scale, t48)


def test_eta_24_is_discriminant():
    # Ramanujan tau: classical values
    tau = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    d = eta_power(1, ((1, -24),), 1, T(12))
    assert [d.coeff48(T(k)) for k in range(1, 11)] == tau


def test_eta_dilate_consistency():
    assert eta(3, T(30)).matches(dilate(eta(1, T(10)), 3))


@given(eta_power_case_st(), st.integers(min_value=0, max_value=2 * DEN))
@settings(max_examples=80, deadline=None)
def test_eta_power_against_the_explicit_products(case, cut):
    num, counts, power, end = case
    # the products lose 4 t |count| of each eta's window at most; with
    # pad past that a series numerator is what limits the composition
    pad = end + DEN + 4 * sum(t * abs(r) for t, r in counts)
    want = composed_eta_power(num, counts, power, pad)
    got = eta_power(num, counts, power, want.trunc48)
    assert got == want
    assert whole_numbers_are_ints(got)
    narrower = want.trunc48 - cut
    assert eta_power(num, counts, power, narrower) == want.truncate48(narrower)
    if isinstance(num, QSeries):
        with pytest.raises(PrecisionError):
            eta_power(num.truncate48(num.trunc48 - 1), counts, power,
                      want.trunc48)


@st.composite
def packed_case_st(draw):
    """(a, b, n) for `_packed_product`: signed int lists of 1 to 12 terms
    and a cut n from 1 to past the end of their product.  Half the lists
    are constant, so term min(len) - 1 of a product of two of them is
    +-max|a| max|b| min(len), the bound that sets the slot width, and
    magnitudes 2^k - 1, 2^k and 2^k + 1 put that bound on both sides of
    a byte boundary."""
    def side(length):
        k = draw(st.integers(min_value=0, max_value=70))
        top = max(1, (1 << k) + draw(st.sampled_from([-1, 0, 1])))
        if draw(st.booleans()):
            return [draw(st.sampled_from([top, -top]))] * length
        return draw(st.lists(st.integers(min_value=-top, max_value=top),
                             min_size=length, max_size=length))
    a = side(draw(st.integers(min_value=1, max_value=12)))
    b = side(draw(st.integers(min_value=1, max_value=12)))
    return a, b, draw(st.integers(min_value=1, max_value=len(a) + len(b)))


# 225 and 3 * 85 * 1 = 255 need 8 bits and a sign bit: two bytes
@given(packed_case_st())
@example(([15], [15], 1))
@example(([-15], [15], 2))
@example(([85] * 3, [1] * 4, 6))
@example(([-(1 << 63)] * 2, [1 << 63] * 2, 3))
@example(([0], [7, -7], 2))
@settings(max_examples=200, deadline=None)
def test_packed_product_against_the_convolution(case):
    a, b, n = case
    assert _packed_product(a, b, n) == convolve(a, b, n)


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=6),
                          st.integers(min_value=-3, max_value=3).filter(bool)),
                min_size=1, max_size=2),
       st.sampled_from([1, 3, Fraction(3, 2)]),
       st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
           lambda c: c.denominator > 1),
       st.integers(min_value=1, max_value=8 * DEN))
@settings(max_examples=40, deadline=None)
def test_eta_power_of_a_fraction_numerator(counts, power, c, end):
    # h holds a Fraction, so even a whole power runs the recurrence
    num = make_series({0: 1, DEN: c, 3 * DEN: 2}, end + 4 * DEN)
    pad = end + DEN + 4 * sum(t * abs(r) for t, r in counts)
    want = composed_eta_power(num, counts, power, pad)
    assert eta_power(num, counts, power, want.trunc48) == want


# ---------- shifted thetas ----------

@pytest.mark.parametrize("weight,shift,alt", [
    (1, 0, False), (1, Fraction(1, 2), False), (4, Fraction(1, 4), False),
    (2, Fraction(3, 4), True), (Fraction(1, 2), 0, True),
    (Fraction(1, 2), Fraction(1, 2), False), (3, 0, False),
])
def test_int_theta_against_the_shifted_theta_oracle(weight, shift, alt):
    # weight (n + s/t)^2 is 48 weight / t^2 (t n + s)^2 in 48ths
    shift = Fraction(shift)
    t = shift.denominator
    num = Fraction(weight) * DEN / (t * t)
    assert num.denominator == 1
    got = int_theta(int(num), t, shift.numerator, T(25), alternating=alt)
    assert got == shifted_theta(weight, shift, T(25), alternating=alt)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.integers(1, 6), st.integers(-40, 40),
       st.integers(-100, 3000), st.booleans())
def test_int_theta_against_a_brute_sum(num, stride, offset, trunc48, alt):
    # any int offset, below 0 or at least the stride included, and
    # windows <= 0, which hold no term
    assert (int_theta(num, stride, offset, trunc48, alt)
            == brute_int_theta(num, stride, offset, trunc48, alt))


def test_int_theta_keeps_the_terms_of_an_offset_outside_the_stride():
    assert int_theta(1, 1, -7, 1).coeffs == {0: 1}
    assert int_theta(3, 2, 5, 4 * 75).coeffs == {3: 2, 27: 2, 75: 2, 147: 2,
                                                 243: 2}
    assert int_theta(1, 1, 0, 0).coeffs == {}


@pytest.mark.parametrize("alt", [False, True])
def test_census_factors_are_the_quarter_shifted_thetas(alt):
    # the census keys a block of w coordinates by its shift in quarters k
    # and builds sum q^(3w (4n + k)^2 / 48) from ints alone
    for w in range(1, 25):
        for k in range(4):
            want = shifted_theta(w, Fraction(k, 4), T(8), alternating=alt)
            assert _factor(w, k, alt, T(8)) == want, (w, k, alt)


def test_alternating_half_shift_cancels():
    # a block of 3 coordinates shifted by 2 quarters
    assert _factor(3, 2, True, T(40)).is_zero()


def test_quarter_shift_symmetry():
    a = _factor(2, 1, False, T(30))
    b = _factor(2, 3, False, T(30))
    assert a.matches(b)
    aa = _factor(2, 1, True, T(30))
    bb = _factor(2, 3, True, T(30))
    assert aa.matches(-bb)


# Jacobi-type identities, well past the window any later test uses.
def test_jacobi_identities_q20():
    t48 = T(21)
    th2, th3, th4 = theta2(1, t48), theta3(1, t48), theta4(1, t48)
    th2_2, th3_2 = theta2(2, t48), theta3(2, t48)
    assert (th2 * th2).matches(2 * th2_2 * th3_2)
    assert (th3 * th3).matches(th3_2 * th3_2 + th2_2 * th2_2)
    assert (th3 ** 4).matches(th2 ** 4 + th4 ** 4)


def test_theta_eta_quotients_q20():
    t48 = T(21)
    for t in (1, 2):
        lhs = theta2(t, t48)
        rhs = 2 * eta_power(1, ((2 * t, -2), (t, 1)), 1, t48)
        assert lhs == rhs
    lhs = theta3(2, t48)
    rhs = eta_power(1, ((2, -5), (1, 2), (4, 2)), 1, t48)
    assert lhs == rhs
    lhs = theta4(2, t48)
    rhs = eta_power(1, ((1, -2), (2, 1)), 1, t48)
    assert lhs == rhs


# ---------- powers ----------

def test_integer_pow_matches_repeated_mul():
    f = oracle_eta(1, T(10)) + 3 * theta3(2, T(10))
    assert (f ** 5).matches(f * f * f * f * f)


@given(power_case_st())
@settings(max_examples=60, deadline=None)
def test_rational_pow_against_binomial_oracle(case):
    f, r = case
    got = f ** r
    assert got == oracle_pow(f, r)
    assert whole_numbers_are_ints(got)


@given(integral_power_case_st())
@settings(max_examples=60, deadline=None)
def test_integral_rational_pow_keeps_whole_numbers_in_ints(case):
    f, r = case
    got = f ** r
    assert got == oracle_pow(f, r)
    assert whole_numbers_are_ints(got)


@given(series_st, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_integer_pow_against_repeated_mul(a, n):
    want = a
    for _ in range(n - 1):
        want = want * a
    assert a ** n == want


@given(series_st)
@settings(max_examples=40, deadline=None)
def test_first_power_is_the_series_itself(a):
    assert a ** 1 is a and a ** Fraction(1) is a


@pytest.mark.parametrize("r", [0, Fraction(0)])
def test_zeroth_power_is_one_on_the_same_window(r):
    for f in (theta3(1, T(4)), QSeries.zero(T(3))):
        assert f ** r == QSeries.monomial(1, 0, f.trunc48)
    with pytest.raises(PrecisionError):
        QSeries.zero(0) ** r


def test_rational_pow_inverse():
    f = theta3(1, T(12))
    g = f ** -1
    assert (f * g).matches(QSeries.monomial(1, 0, T(12)))


def test_rational_pow_square_root():
    f = make_series({T(-1): 1, 0: 4, T(1): 7, T(2): -2}, T(8))
    sq = f * f
    assert (sq ** Fraction(1, 2)).matches(f)


def test_rational_pow_cube_root_with_scalar():
    f = make_series({0: Fraction(27, 8), T(1): 3, T(3): -1}, T(9))
    cube = f ** 3
    assert (cube ** Fraction(1, 3)).matches(f)


def test_rational_pow_negative_lead_exponent():
    f = make_series({T(-2): 1, 0: 10, T(2): 5}, T(10))
    half = f ** Fraction(1, 2)
    assert half.valuation48() == T(-1)
    assert (half * half).matches(f)


def test_rational_pow_rejects_off_grid():
    f = make_series({T(-1): 1, T(1): 3}, T(6))
    with pytest.raises(ValueError):
        f ** Fraction(1, 5)


def test_rational_power_and_iroot():
    assert iroot(27, 3) == 3
    assert iroot(28, 3) is None
    assert iroot(0, 4) == 0
    assert rational_power(Fraction(8, 27), Fraction(2, 3)) == Fraction(4, 9)
    with pytest.raises(ValueError):
        rational_power(2, Fraction(1, 2))
    assert rational_power(Fraction(-2), 3) == Fraction(-8)


def test_a_negative_power_of_an_int_is_a_fraction():
    got = rational_power(2, -1)
    assert type(got) is Fraction and got == Fraction(1, 2)
    assert type(rational_power(-2, -3)) is Fraction
    assert rational_power(-2, -3) == Fraction(-1, 8)
    assert rational_power(Fraction(1, 2), -2) == 4
    assert type(rational_power(Fraction(1, 2), -2)) is int


def _outcome(call, *args):
    """(type, value) of a call's result, or the type of what it raised."""
    try:
        got = call(*args)
    except (ValueError, ZeroDivisionError) as err:
        return type(err)
    if isinstance(got, QSeries):
        return got.trunc48, {e: (type(c), c) for e, c in got.coeffs.items()}
    return type(got), got


small_st = st.integers(min_value=-30, max_value=30)


@given(small_st, small_st, st.integers(min_value=-4, max_value=4),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_whole_fractions_take_the_int_path(a, b, p, q):
    # an int and the equal Fraction give equal values of equal types
    r = Fraction(p, q)
    for x, y in ((a, b), (a, r), (b, r)):
        want = [_outcome(exact_div, x, y), _outcome(rational_power, x, y)]
        for fx, fy in ((Fraction(x), y), (x, Fraction(y)),
                       (Fraction(x), Fraction(y))):
            assert [_outcome(exact_div, fx, fy),
                    _outcome(rational_power, fx, fy)] == want, (x, y)


@given(st.sampled_from([1, -1, 3, 64]), st.integers(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_whole_fraction_powers_of_a_series_take_the_int_path(c, p):
    f = c * theta3(1, T(4)) + QSeries.monomial(Fraction(1, 2), T(1), T(4))
    assert _outcome(pow, f, p) == _outcome(pow, f, Fraction(p))


def test_binom_frac():
    assert binom_frac(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_frac(-1, 3) == -1
    assert binom_frac(5, 2) == 10


# ---------- division ----------

@pytest.mark.parametrize("trunc48", [-48, 0, T(3)])
def test_inverting_the_zero_series_is_a_value_error(trunc48):
    f, zero = theta3(1, T(4)), QSeries.zero(trunc48)
    with pytest.raises(ValueError):
        f * zero ** -1


@pytest.mark.parametrize("g", [theta3(1, T(4)), QSeries.zero(T(3))])
def test_a_series_divides_no_series(g):
    # a series is divided only by an int or a Fraction; an eta quotient
    # is `eta_power`, and any other quotient is f * g ** -1
    with pytest.raises(TypeError):
        theta3(1, T(4)) / g


def test_precision_error_is_one_class_in_the_package_hierarchy():
    import thetaforge
    from thetaforge import errors
    assert thetaforge.PrecisionError is PrecisionError is errors.PrecisionError
    assert issubclass(PrecisionError, errors.ThetaforgeError)
    assert issubclass(PrecisionError, ValueError)


def test_truediv_by_scalar():
    f = make_series({0: 3, T(1): 6}, T(3))
    assert (f / 3).coeff48(T(1)) == 2
    with pytest.raises(ZeroDivisionError):
        f / 0
    with pytest.raises(ZeroDivisionError):
        QSeries.zero(T(3)) / 0


@given(series_st, st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.fractions(min_value=-5, max_value=5, max_denominator=6)).filter(bool))
@settings(max_examples=60, deadline=None)
def test_scalar_division_against_fractions(f, k):
    got = f / k
    assert got.coeffs == {e: Fraction(c) / k for e, c in f.coeffs.items()}
    assert got.trunc48 == f.trunc48
    assert whole_numbers_are_ints(got)


def test_exact_div_normal_form():
    assert type(exact_div(12, -4)) is int and exact_div(12, -4) == -3
    assert exact_div(3, -6) == Fraction(-1, 2)
    assert type(exact_div(Fraction(9, 2), Fraction(3, 2))) is int
    assert exact_div(Fraction(1, 3), 2) == Fraction(1, 6)
    assert type(exact_div(7, Fraction(7, 5))) is int
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


# ---------- misc ----------

def test_dilate_and_truncate():
    f = theta3(1, T(10))
    g = dilate(f, 3)
    assert g.coeff48(T(3) // 2) == f.coeff48(T(1) // 2)
    h = f.truncate48(T(4))
    assert h.trunc48 == T(4)
    with pytest.raises(PrecisionError):
        h.coeff48(T(5))


def test_matches_reads_only_below_the_shorter_window():
    f = theta3(1, T(10))
    short = f.truncate48(T(6))
    assert f.matches(short) and short.matches(f)
    for e, c in ((T(2), 1), (T(5), 1), (T(1) // 2, -2)):
        # one coefficient changed, or added where f has none
        changed = f + QSeries.monomial(c, e, T(10))
        assert not changed.matches(short) and not short.matches(changed)
    past = f + QSeries.monomial(1, T(6), T(10))
    assert past.matches(short) and short.matches(past)


def test_truncate_never_widens():
    f = theta3(1, T(10))
    assert f.truncate48(T(10)) == f
    with pytest.raises(PrecisionError):
        f.truncate48(T(10) + 1)


def test_is_integral():
    assert make_series({0: 1, T(2): 5}, T(4)).is_integral()
    assert not make_series({T(1) // 2: 1}, T(4)).is_integral()
    assert not make_series({T(1): Fraction(1, 2)}, T(4)).is_integral()
