"""Traces of lifted automorphisms and characters of fixed subVOAs.

Expected rows are integer coefficient lists read at the character's
valuation, q^(-N/24) in front; the order-4 example on the length-8 code
exercises order doubling end to end (twisted traces, kernel sublattice,
averaged character), and the group-level identities are run both on
instances that satisfy their hypotheses and on ones that must be
refused as not applicable.
"""

from math import gcd

import pytest

from thetaforge import characters, lattice
from thetaforge.characters import (
    _character, character_cyclic, character_group, character_plus,
    trace_series,
)
from thetaforge.codes import BinaryCode, catalog_code
from thetaforge.errors import DomainError, ThetaforgeError
from thetaforge.lattice import (
    FLAVORS, doubling_code_criterion, doubling_element, is_even,
    kernel_theta, lift_order, theta_fixed)
from thetaforge.modfunc import eta_product, eta_quotient
from thetaforge.perms import group_elements, parse_generators, parse_perm
from thetaforge.qseries import DEN
from thetaforge.verify import (
    _SUBGROUP_CLASSES, check_group, check_parity, check_thmC,
)

from oracles import (
    catalog_theta, hamming8_class_representatives, make_series,
)

T = lambda n: n * DEN

HAM = catalog_code("hamming8")
HH = catalog_code("hamming8+hamming8")

EX_G = parse_perm("(2,8,4,6)(3,5)", 8)
REP24 = parse_perm("(1,7)(2,4)(3,8)(5,6)", 8)
NR24 = parse_perm("(1,2)(3,8)(4,7)(5,6)", 8)
F21 = parse_generators("(1,2,5,3,7,6,4), (2,5,7)(3,4,6)", 8)


def rows(series, n, count):
    """Coefficients at the valuation -2n and the following q-powers."""
    return [series.coeff48(-2 * n + DEN * k) for k in range(count)]


# ---------- traces of lift powers ----------

def test_order_four_traces():
    t1 = trace_series(HAM, EX_G, 1, T(7))
    assert rows(t1, 8, 7) == [1, 16, 64, 192, 510, 1216, 2688]
    t2 = trace_series(HAM, EX_G, 2, T(11))
    assert rows(t2, 8, 11) == [1, 0, -4, 0, 6, 0, -8, 0, 17, 0, -28]
    t4 = trace_series(HAM, EX_G, 4, T(7))
    assert rows(t4, 8, 7) == [1, -8, 28, -64, 134, -288, 568]
    t6 = trace_series(HAM, EX_G, 6, T(7))
    assert t6.matches(trace_series(HAM, EX_G, 2, T(7)))
    for j in (3, 5, 7):
        assert trace_series(HAM, EX_G, j, T(7)).matches(t1)


def test_trace_power_range_is_the_lift_order():
    with pytest.raises(DomainError):
        trace_series(HAM, EX_G, 8, T(4))
    with pytest.raises(DomainError):
        trace_series(HAM, NR24, 2, T(4))  # no doubling, so powers are 0..1
    trace_series(HAM, REP24, 3, T(4))  # doubling, so 0..3 all exist


def test_odd_order_traces_pair_up():
    g = parse_perm("(1,5,2)(3,7,8)", 8)
    assert trace_series(HAM, g, 1, T(6)).matches(trace_series(HAM, g, 2, T(6)))
    g7 = parse_perm("(1,3,7,8,5,4,2)", 8)
    for j in range(1, 7):
        assert trace_series(HAM, g7, j, T(5)).matches(
            trace_series(HAM, g7, 7 - j, T(5)))


def test_character_cyclic_decides_the_lift_order_once(monkeypatch):
    golay = catalog_code("golay24")
    swap = parse_perm("".join("(%d,%d)" % (i, i + 12) for i in range(1, 13)), 24)
    calls = []
    criterion = lattice.doubling_code_criterion

    def counted(*args, **kwargs):
        calls.append(args)
        return criterion(*args, **kwargs)

    monkeypatch.setattr(lattice, "doubling_code_criterion", counted)
    report = character_cyclic(golay, swap, T(2), flavor="super1")
    assert len(calls) == 1
    assert report["lift_order"] == 4 and report["doubling"]
    # every j traced on its own, against one trace per divisor of 4
    for j, series in report["per_j"].items():
        assert series == trace_series(golay, swap, j, T(2), flavor="super1")


@pytest.mark.parametrize("flavor", FLAVORS)
def test_character_cyclic_traces_once_per_divisor(flavor):
    # T_j = T_gcd(j,n) lets character_cyclic reuse one trace per divisor
    # of the lift order n; here every j is traced on its own.  The super0
    # lattice of hamming8 is odd and refused, so there the rule is
    # checked on the traces themselves.
    for g in hamming8_class_representatives():
        n = lift_order(HAM, g, flavor=flavor)
        every = {j: characters._trace(HAM, g, j, T(8), flavor)
                 for j in range(n)}
        if is_even(HAM, flavor):
            got = character_cyclic(HAM, g, T(8), flavor=flavor)["per_j"]
            assert got == every, (g, flavor)
        else:
            assert all(every[j] == every[gcd(j, n)]
                       for j in range(1, n)), (g, flavor)


# ---------- lift data ----------

def test_lift_orders_and_kernel():
    assert (REP24.order(), lift_order(HAM, REP24)) == (2, 4)
    doubled, witness = doubling_code_criterion(HAM, REP24)
    assert doubled and witness is not None
    assert kernel_theta(HAM, REP24, T(8)).matches(catalog_theta("D8", 1, T(8)))

    assert lift_order(HAM, NR24) == 2
    assert lift_order(HAM, EX_G) == 8
    assert lift_order(HAM, parse_perm("(1,5,2)(3,7,8)", 8)) == 3


def test_code_criterion_alone():
    assert doubling_code_criterion(HAM, REP24)[0]
    assert not doubling_code_criterion(HAM, NR24)[0]


def test_doubling_lists_no_codewords(monkeypatch):
    # every walk over the words, listed or counted, asks this first
    def no_listing(self):
        raise AssertionError("walked the codewords to decide doubling")

    golay = catalog_code("golay24")
    swap = parse_perm("".join("(%d,%d)" % (i, i + 12) for i in range(1, 13)), 24)
    monkeypatch.setattr(BinaryCode, "require_listable", no_listing)
    assert doubling_code_criterion(golay, swap)[0]
    for flavor in ("plain", "super0", "super1"):
        assert lift_order(golay, swap, flavor=flavor) == 4
        assert doubling_element(golay, [swap], flavor) == swap


# ---------- characters of cyclic groups ----------

def test_order_four_character():
    report = character_cyclic(HAM, EX_G, T(7))
    assert rows(report["character"], 8, 7) == [
        1, 38, 550, 4432, 26914, 132760, 567756]
    assert report["lift_order"] == 8 and report["doubling"]
    assert sorted(report["per_j"]) == list(range(8))


def test_involution_characters():
    rep = character_cyclic(HAM, REP24, T(7))["character"]
    assert rows(rep, 8, 7) == [1, 64, 1052, 8704, 53382, 264448, 1133112]
    nr = character_cyclic(HAM, NR24, T(7))["character"]
    assert rows(nr, 8, 7) == [1, 136, 2076, 17472, 106630, 529184, 2265656]


def test_character_record_shape():
    report = character_cyclic(HAM, NR24, T(3))
    assert set(report) == {"lift_order", "doubling", "per_j", "character"}
    assert report["doubling"] is False
    assert report["lift_order"] == 2
    assert set(report["per_j"]) == {0, 1}


# ---------- negation-fixed characters ----------

def test_character_plus_rows():
    plus = character_plus(HAM, T(7))
    assert rows(plus, 8, 7) == [1, 120, 2076, 17344, 106630, 528608, 2265656]
    half = character_plus(HAM, T(7), REP24)
    assert rows(half, 8, 7) == [1, 56, 1052, 8640, 53382, 264160, 1133112]


def test_character_plus_needs_octave_rank():
    # three disjoint tetrads: a doubly even code of length 12, rank 12
    tetrads = BinaryCode(12, [0b1111 << 4 * i for i in range(3)])
    assert tetrads.is_doubly_even()
    with pytest.raises(DomainError, match="rank must be a multiple of 8"):
        character_plus(tetrads, T(4))
    with pytest.raises(DomainError, match="rank must be a multiple of 8"):
        character_plus(tetrads, T(4), parse_perm("(1,2)(3,4)", 12))


def test_character_plus_refuses_an_odd_lattice():
    # the super0 lattice of hamming8 is odd: its character would carry
    # half-integral exponents
    with pytest.raises(DomainError, match="lattice of the code is odd"):
        character_plus(HAM, 4 * DEN, flavor="super0")
    # and so is the kernel sublattice of that lattice
    with pytest.raises(DomainError, match="lattice of the code is odd"):
        character_plus(HAM, 4 * DEN, REP24, flavor="super0")


@pytest.mark.parametrize("g", ["(1,5,2)(3,7,8)", "(1,3,7,8,5,4,2)"])
def test_character_plus_refuses_an_odd_order_kernel(g):
    with pytest.raises(DomainError, match="automorphism of even order"):
        character_plus(HAM, T(4), parse_perm(g, 8))


def test_character_plus_refuses_a_kernel_off_the_code():
    # an even-order permutation that moves codewords off the code: its
    # twisted theta alone would be computed without a word
    g = parse_perm("(1,6,3,5,8,2,4,7)", 8)
    assert not HAM.is_automorphism(g)
    with pytest.raises(DomainError) as err:
        character_plus(HAM, T(4), g)
    assert str(err.value) == "%s is not an automorphism of the code" % g


def test_character_plus_is_checked_as_a_character(monkeypatch):
    # a kernel theta of the wrong sign cancels the pole at q^(-N/24) and
    # leaves negative coefficients, which no character has; the kernel
    # part is read off the traces, so the traces must not be memoized
    # from before the patch, nor kept after it
    theta = characters.theta_twisted
    characters._trace.cache_clear()
    monkeypatch.setattr(characters, "theta_twisted",
                        lambda *args, **kwargs: -theta(*args, **kwargs))
    try:
        with pytest.raises(ThetaforgeError, match="character pole is off"):
            character_plus(HAM, T(4), REP24)
    finally:
        characters._trace.cache_clear()


@pytest.mark.parametrize("flavor", ["plain", "super1"])
def test_kernel_plus_character_reuses_the_cyclic_traces(monkeypatch, flavor):
    # character_cyclic of a doubling g traces j = 0 and j = ord g, the
    # two traces the kernel part is the mean of, so no census runs again
    def no_census(*args, **kwargs):
        raise AssertionError("computed a theta series again")

    for g in (REP24, EX_G):
        character_cyclic(HAM, g, T(6), flavor=flavor)
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_census_theta", no_census)
            character_plus(HAM, T(6), g, flavor=flavor)


@pytest.mark.parametrize("flavor", ["plain", "super1"])
def test_kernel_plus_character_is_the_two_eta_quotients(flavor):
    # (theta_K / eta^8 + eta^8 / eta(2τ)^8) / 2 for the kernel sublattice
    # K of each even-order class representative, built by hand
    neg = eta_quotient(lambda t: eta_product(((1, 8),), t), ((2, 8),), T(10))
    for g in hamming8_class_representatives():
        if g.order() % 2:
            continue
        fixed = eta_quotient(
            lambda t: kernel_theta(HAM, g, t, flavor=flavor), ((1, 8),), T(10))
        assert (character_plus(HAM, T(10), g, flavor=flavor)
                == (fixed + neg) / 2), str(g)


# ---------- characters of larger groups ----------

def test_frobenius_group_characters():
    assert rows(character_group(HAM, F21, T(7))["character"], 8, 7) == [
        1, 22, 242, 1762, 10460, 51078, 217266]
    sub7 = [parse_perm("(1,2,5,3,7,6,4)", 8)]
    assert rows(character_group(HAM, sub7, T(7))["character"], 8, 7) == [
        1, 38, 596, 4974, 30468, 151102, 647298]
    sub3 = [parse_perm("(2,5,7)(3,4,6)", 8)]
    assert rows(character_group(HAM, sub3, T(7))["character"], 8, 7) == [
        1, 92, 1418, 11688, 71346, 353212, 1511748]


def test_group_character_refuses_doubling_elements():
    with pytest.raises(DomainError) as err:
        character_group(HAM, [REP24], T(4))
    assert "(1,7)(2,4)(3,8)(5,6)" in str(err.value)
    # fine when no element doubles
    report = character_group(HAM, [NR24], T(4))
    assert report["lift_order"] == 2 and not report["doubling"]


def test_character_invariant_checks_the_mean_of_the_traces():
    # rank 8: the pole sits at q^(-16/48) and dimensions at q^(-16/48 + k)
    pole = make_series({-16: 1}, T(2))
    plus = lambda coeffs: make_series({-16: 1, **coeffs}, T(2))
    mean = _character([plus({32: 2}), pole], 8)
    assert mean == make_series({-16: 1, 32: 1}, T(2))
    bad = "character has a non-dimension coefficient %s at %s/48"
    for terms, message in [
        ([make_series({-8: 1}, T(2))], "character pole is off"),
        ([plus({32: 1}), pole], bad % ("1/2", 32)),
        ([plus({40: 1})], bad % (1, 40)),
        ([plus({32: -1})], bad % (-1, 32)),
    ]:
        with pytest.raises(ThetaforgeError) as err:
            _character(terms, 8)
        assert str(err.value) == message


@pytest.mark.parametrize("build", [
    lambda: trace_series(HAM, REP24, 0, T(4), flavor="super0"),
    lambda: character_cyclic(HAM, REP24, T(4), flavor="super0"),
    lambda: character_group(HAM, F21, T(4), flavor="super0"),
], ids=["trace_series", "character_cyclic", "character_group"])
def test_characters_refuse_odd_lattices_before_computing(monkeypatch, build):
    # N/8 = 1 is odd, so the super0 glueing of hamming8 is the odd Z^8
    def no_theta(*args, **kwargs):
        raise AssertionError("computed a theta series for an odd lattice")

    # a memoized trace would not reach the patched theta
    characters._trace.cache_clear()
    monkeypatch.setattr(characters, "theta_twisted", no_theta)
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == "the super0 lattice of the code is odd"


def test_group_character_refuses_groups_above_ten_thousand_elements():
    s8 = parse_generators("(1,2), (1,2,3,4,5,6,7,8)", 8)
    with pytest.raises(DomainError) as err:
        character_group(HAM, s8, 2 * DEN)
    assert "exceeded 10000 elements" in str(err.value)


def test_group_character_uses_the_flavor_doubling_criterion():
    # the code criterion sees no doubling here, the super0 lift order
    # does, and it is the one that gates the group; the odd
    # super0 lattice of hamming8 is itself refused before that gate
    gens = parse_generators("(1,2)(3,4,5,8,7,6)", 8)
    assert not doubling_code_criterion(HAM, gens[0])[0]
    assert doubling_element(HAM, gens, "super0") == gens[0]
    with pytest.raises(DomainError) as err:
        character_group(HAM, gens, 8 * DEN, flavor="super0")
    assert str(err.value) == "the super0 lattice of the code is odd"


def _elementwise_character(code, gens, trunc48, flavor):
    """The mean of one trace per element, each computed on its own."""
    terms = [eta_quotient(
        lambda t: theta_fixed(code, [el], t, flavor=flavor),
        el.cycle_type(), trunc48) for el in group_elements(gens)]
    return sum(terms[1:], terms[0]) / len(terms)


@pytest.mark.parametrize("flavor", ["plain", "super1"])
@pytest.mark.parametrize("text", [t for t, _ in _SUBGROUP_CLASSES if t])
def test_group_character_is_the_mean_over_every_element(text, flavor):
    # character_group traces each partition of the points into cycles
    # once; the mean must be the element-by-element one
    gens = parse_generators(text, 8)
    if doubling_element(HAM, group_elements(gens), flavor) is not None:
        with pytest.raises(DomainError, match="lifts with order doubling"):
            character_group(HAM, gens, T(3), flavor=flavor)
        return
    got = character_group(HAM, gens, T(3), flavor=flavor)["character"]
    want = _elementwise_character(HAM, gens, T(3), flavor)
    assert got.to_json_obj() == want.to_json_obj()


@pytest.mark.parametrize("flavor", ["plain", "super1"])
def test_cyclic_group_character_is_the_cyclic_character(flavor):
    # one generator without doubling: the group's lift is the cyclic
    # one, so both routes average the same traces
    for g in hamming8_class_representatives():
        if lift_order(HAM, g, flavor=flavor) > g.order():
            continue
        got = character_group(HAM, [g], T(6), flavor=flavor)["character"]
        want = character_cyclic(HAM, g, T(6), flavor=flavor)["character"]
        assert got == want, str(g)


def test_every_route_refuses_a_non_automorphism_with_one_message():
    g = parse_perm("(1,2)", 8)
    routes = [
        HAM.require_automorphism,
        lambda g: HAM.fixed_subcode([g]),
        lambda g: lattice.theta_twisted(HAM, g, 1, T(4)),
        lambda g: doubling_code_criterion(HAM, g),
        lambda g: lift_order(HAM, g, flavor="super1"),
        lambda g: character_cyclic(HAM, g, T(4)),
        lambda g: character_group(HAM, [g], T(4)),
    ]
    for refuse in routes:
        with pytest.raises(DomainError) as err:
            refuse(g)
        assert str(err.value) == "(1,2) is not an automorphism of the code"


def test_group_character_refuses_a_repeated_partition_off_the_code(
        monkeypatch):
    # (1,2,3)(4,5,6) is an automorphism of this code and (1,2,3)(4,6,5),
    # with the same cycles as point sets, is not; the second one's
    # trace is never computed, so the automorphism check has to refuse it
    code = BinaryCode.from_rows_text(["10010011", "01001011", "00100111"])
    good, bad = parse_generators("(1,2,3)(4,5,6), (1,2,3)(4,6,5)", 8)
    assert code.is_automorphism(good) and not code.is_automorphism(bad)
    monkeypatch.setattr(characters, "group_elements",
                        lambda gens: [parse_perm("()", 8), *gens])
    with pytest.raises(DomainError) as err:
        character_group(code, [good, bad], T(2))
    assert str(err.value) == (
        "(1,2,3)(4,6,5) is not an automorphism of the code")


# ---------- identity checks ----------

def not_applicable(report):
    """The failed hypothesis a report names, or None when all hold.

    A not-applicable report is its hypotheses row alone: no comparison
    runs after a failed hypothesis.
    """
    head = report["rows"][0]
    assert head["label"] == "hypotheses"
    if head["ok"]:
        assert head["got"] == "applicable"
        return None
    assert (head["got"].startswith("not-applicable: ")
            and len(report["rows"]) == 1)
    return head["got"][len("not-applicable: "):]


def test_theorem_c_identities():
    for r, figure in ((check_thmC(HAM, REP24, T(7)), "ThmC-1"),
                      (check_thmC(HAM, REP24, T(7), g_nr=NR24), "ThmC-2")):
        assert not_applicable(r) is None and r["status"] == "pass"
        assert r["figure"] == figure


def test_theorem_c_hypothesis_gates():
    r = check_thmC(HAM, EX_G, T(7))
    assert "cycle type" in not_applicable(r)
    r = check_thmC(HAM, NR24, T(7))
    assert "A1(2)" in not_applicable(r)
    r = check_thmC(HAM, REP24, T(7), g_nr=REP24)
    assert not_applicable(r) is not None


def test_theorem_pq_on_the_order_21_group():
    r = check_group(HAM, F21, T(7))
    assert not_applicable(r) is None and r["status"] == "pass"
    assert r["figure"] == "ThmD-pq"
    assert r["rows"][1]["label"] == "p*Ch^G = Ch^Zq + p*Ch^Zp - Ch V"


def test_theorem_pq_gates():
    # order 6 = 2*3: the cyclic group is abelian, and an S3 with a
    # doubling involution does not lift to a copy of itself
    r = check_group(HAM, [parse_perm("(1,3,7,8,2,6)(4,5)", 8)], T(5))
    assert not_applicable(r) == "group is abelian, no semidirect structure"
    r = check_group(HAM, [REP24, parse_perm("(1,2)(4,5)(3,8)(6,7)", 8)], T(3))
    assert not_applicable(r) == (
        "element (1,2)(3,8)(4,5)(6,7) has order doubling")


def test_group_order_names_the_theorem():
    # F21 has order 7*3, A4 order 2^2*3 and F20 order 2^2*5; the Klein
    # four-group, the dihedral group of order 8, a 3-cycle pair and the
    # trivial group name neither
    a4 = [parse_perm("(3,4,5)(6,8,7)", 8), parse_perm("(1,6)(2,5)(3,4)(7,8)", 8)]
    code, f20 = _f20()
    klein = parse_generators("(1,5)(2,6), (3,8)(4,7)", 8)
    d8 = parse_generators(
        "(2,5)(3,4), (1,8)(2,5)(3,4)(6,7), (1,5)(2,8)(3,7)(4,6)", 8)
    assert len(group_elements(klein)) == 4 and len(group_elements(d8)) == 8
    assert check_group(HAM, F21, T(3))["figure"] == "ThmD-pq"
    assert check_group(HAM, a4, T(3))["figure"] == "Thm-p2q"
    assert check_group(code, f20, T(1))["figure"] == "Thm-p2q"
    three = [parse_perm("(1,5,2)(3,7,8)", 8)]
    for gens, order in ((klein, 4), (d8, 8), (three, 3), ([], 1)):
        r = check_group(HAM, gens, T(3))
        assert r["figure"] == "group"
        assert not_applicable(r) == (
            "group of order %d is neither p*q nor p^2*q" % order)


def test_group_theorems_refuse_odd_lattices():
    # N/8 = 1 is odd, so the coset-parity-0 glueing of the length-8
    # code is an odd lattice and the theorems do not apply to it
    group = parse_generators("(1,4,3)(5,8,7), (1,7,3,4,6,5,8)", 8)
    a4 = [parse_perm("(3,4,5)(6,8,7)", 8), parse_perm("(1,6)(2,5)(3,4)(7,8)", 8)]
    for gens in (group, a4):
        r = check_group(HAM, gens, T(5), flavor="super0")
        assert not_applicable(r) == "the super0 lattice of the code is odd"
        r = check_group(HAM, gens, T(5), flavor="super1")
        assert not_applicable(r) is None


def test_theorem_p2q_case_with_normal_klein():
    a4 = [parse_perm("(3,4,5)(6,8,7)", 8), parse_perm("(1,6)(2,5)(3,4)(7,8)", 8)]
    r = check_group(HAM, a4, T(7))
    assert not_applicable(r) is None and r["status"] == "pass"
    assert r["rows"][1]["label"] == "q*Ch^G = Ch^P + q*Ch^Zq - Ch V"


def test_theorem_p2q_gates():
    # semidirect Z3 x| Z4: the central involution sits in every Sylow-2,
    # so the partition argument does not apply (order-6 elements exist)
    dic = [parse_perm("(3,4,5)(6,8,7)(11,13,12)(14,15,16)", 16),
           parse_perm("(1,9,2,10)(3,11,8,16)(4,12,7,15)(5,13,6,14)", 16)]
    r = check_group(HH, dic, T(3))
    assert "mixed order" in not_applicable(r)


def _f20():
    """F20 = Z5 x| Z4 on five hamming8 blocks, block b on the points
    8b+1..8b+8: one generator sends block b to b+1 mod 5, the other to
    2b mod 5, so Z5 is normal and the complement Z4 is cyclic."""
    code = BinaryCode(40, [row << 8 * b for b in range(5) for row in HAM.basis])
    assert len(code.basis) == 20

    def blocks(order):
        return "".join("(%s)" % ",".join(str(8 * b + i) for b in order)
                       for i in range(1, 9))

    f20 = parse_generators(blocks(range(5)) + ", " + blocks((1, 2, 4, 3)), 40)
    assert len(group_elements(f20)) == 20
    return code, f20


def test_theorem_p2q_case_with_normal_cyclic_q():
    code, f20 = _f20()
    r = check_group(code, f20, T(2))
    assert not_applicable(r) is None and r["status"] == "pass"
    assert r["rows"][1] == {"label": "p2*Ch^G = p2*Ch^Zp2 + Ch^Zq - Ch V",
                            "expected": "match", "got": "match", "ok": True}


def test_parity_properties_on_the_length_8_code():
    r = check_parity(HAM, REP24, NR24, T(11))
    assert not_applicable(r) is None
    assert r["status"] == "pass" and len(r["rows"]) == 6
    labels = [row["label"] for row in r["rows"][1:]]
    assert any("even powers" in lab for lab in labels)
    assert all(row["ok"] for row in r["rows"])


def test_parity_properties_gate():
    r = check_parity(HAM, REP24, EX_G, T(7))
    assert not_applicable(r) == "nr class must have cycle type 2^(N/2)"
    r = check_parity(HAM, NR24, NR24, T(7))
    assert not_applicable(r) == "rep fixed theta is not the A1(2)^(N/2) series"
