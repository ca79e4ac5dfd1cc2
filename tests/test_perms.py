"""Permutation parsing, group closure, and orbit bookkeeping."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from thetaforge.errors import DomainError, ParseError
from thetaforge.perms import (
    Perm, group_elements, orbit_type, orbits, parse_generators, parse_perm,
    read_group_file, type_str,
)

from oracles import brute_force_automorphisms, inverse


perm_st = st.permutations(range(8)).map(lambda im: Perm(tuple(im)))


# ---------- Perm basics ----------

def test_identity():
    e = Perm.identity(5)
    assert e == Perm.identity(5)
    assert e.order() == 1
    assert e.cycles() == []
    assert str(e) == "()"


def test_composition_order():
    # images compose right-to-left: (a*b)(i) = a(b(i))
    a = parse_perm("(1,2)", 3)
    b = parse_perm("(2,3)", 3)
    assert (a * b).images[2] == 0  # b: 2->3 is 1->2 zero-based, then a: 2->1
    assert a * b == parse_perm("(1,2,3)", 3)
    assert b * a == parse_perm("(1,3,2)", 3)


def test_pow_and_inverse():
    g = parse_perm("(1,3,7,8)(2,5,4,6)", 8)
    assert g.order() == 4
    assert g ** 4 == Perm.identity(8)
    assert g ** -1 == inverse(g)
    assert g ** 7 == inverse(g)
    assert g ** -3 == g
    assert (g ** 2).cycle_type() == ((2, 4),)


def test_cycle_type_counts_fixed_points():
    g = parse_perm("(2,8,4,6)(3,5)", 8)
    assert g.cycle_type() == ((1, 2), (2, 1), (4, 1))
    assert g.order() == 4
    assert str(g) == "(2,8,4,6)(3,5)"


def test_apply_mask():
    g = parse_perm("(1,2,3)", 4)
    assert g.apply_mask(0b0001) == 0b0010
    assert g.apply_mask(0b0111) == 0b0111
    assert g.apply_mask(0b1001) == 0b1010


@given(perm_st, perm_st)
def test_mask_action_is_homomorphism(a, b):
    mask = 0b10110001
    assert a.apply_mask(b.apply_mask(mask)) == (a * b).apply_mask(mask)


@given(perm_st)
def test_parse_roundtrip(p):
    text = str(p)
    assert parse_perm(text, 8) == p
    # error records print this canonical form: each cycle starts at its
    # least point, and the cycles are sorted by it
    if text != "()":
        cycles = [[int(x) for x in c.split(",")]
                  for c in text[1:-1].split(")(")]
        assert all(len(c) > 1 and c[0] == min(c) for c in cycles)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)


@given(perm_st)
def test_order_annihilates(p):
    assert p ** p.order() == Perm.identity(8)
    assert all(p ** k != Perm.identity(8) for k in range(1, p.order()))
    assert p * inverse(p) == Perm.identity(8)


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(n))).map(Perm),
       st.integers(-60, 60))
def test_negative_powers_reduce_mod_the_order(g, k):
    assert g ** k == g ** (k % g.order())
    assert g ** -1 == inverse(g)


# ---------- parsing errors ----------

def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError, match="9"):
        parse_perm("(1,9)", 8)


def test_parse_rejects_repeats():
    with pytest.raises(ParseError, match="3"):
        parse_perm("(1,3)(3,5)", 8)


def test_parse_rejects_unbalanced():
    with pytest.raises(ParseError):
        parse_perm("(1,2", 8)
    with pytest.raises(ParseError):
        parse_perm("(1,(2,3))", 8)
    with pytest.raises(ParseError):
        parse_perm("1,2)", 8)


def test_parse_generators_splits_at_top_level():
    gens = parse_generators("(1,2)(3,4), (1,3,7,8)(2,5,4,6); (4,5)", 8)
    assert len(gens) == 3
    assert gens[2] == parse_perm("(4,5)", 8)


def test_parse_generators_single():
    gens = parse_generators("(2,8,4,6)(3,5)", 8)
    assert len(gens) == 1


def test_degree_mismatch():
    a = parse_perm("(1,2)", 4)
    b = parse_perm("(1,2)", 5)
    with pytest.raises(DomainError):
        a * b


# ---------- orbits ----------

def test_orbits_of_trivial_group():
    assert orbits([], 4) == [(0,), (1,), (2,), (3,)]
    assert orbit_type([], 4) == ((1, 4),)


def test_orbits_and_type():
    gens = parse_generators("(4,6)(5,7), (4,7)(5,6), (1,3)(2,8)", 8)
    assert orbits(gens, 8) == [(0, 2), (1, 7), (3, 4, 5, 6)]
    assert orbit_type(gens, 8) == ((2, 2), (4, 1))
    assert type_str(orbit_type(gens, 8)) == "2^2 4^1"


def test_orbit_type_subgroup_vs_element():
    g = parse_perm("(1,3,7,8,2,6)(4,5)", 8)
    assert orbit_type([g], 8) == ((2, 1), (6, 1))
    assert g.cycle_type() == ((2, 1), (6, 1))


@st.composite
def generating_sets(draw):
    n = draw(st.integers(1, 12))
    gens = draw(st.lists(st.permutations(range(n)).map(Perm), max_size=3))
    return n, gens


@given(generating_sets())
def test_orbit_type_is_sorted_pairs_that_round_trip(case):
    n, gens = case
    ot = orbit_type(gens, n)
    assert type(ot) is tuple
    assert ot == tuple(sorted(Counter(map(len, orbits(gens, n))).items()))
    assert sum(t * r for t, r in ot) == n
    # the label is every pair in order, t^r, and nothing else
    assert [tuple(map(int, part.split("^")))
            for part in type_str(ot).split()] == list(ot)
    for g in gens:
        assert g.cycle_type() == orbit_type([g], n)


# ---------- group closure ----------

def test_group_elements_s3():
    gens = parse_generators("(1,2), (1,2,3)", 3)
    els = group_elements(gens)
    assert len(els) == 6
    assert Perm.identity(3) in els


def test_group_elements_cyclic():
    g = parse_perm("(1,3,7,8,5,4,2)", 8)
    assert len(group_elements([g])) == 7


def test_group_elements_cap():
    gens = parse_generators("(1,2), (1,2,3,4,5,6,7,8)", 8)
    # S8 has 40,320 elements
    with pytest.raises(DomainError, match="exceeded 10000 elements"):
        group_elements(gens)


def test_brute_force_automorphisms_counts_s3():
    # stabilizer of the single "codeword" {1,2} inside S3 has order 2
    found = brute_force_automorphisms(lambda m: m == 0b011, 3)
    assert len(found) == 2


def test_brute_force_automorphisms_refuses_large_degree():
    with pytest.raises(DomainError):
        brute_force_automorphisms(lambda m: m == 0, 9)


def test_read_group_file(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# two generators\n(1,2)(3,4)\n\n(1,3)(2,4)\n")
    gens = read_group_file(str(path), 4)
    assert len(gens) == 2
    assert orbit_type(gens, 4) == ((4, 1),)


def test_whitespace_between_cycles_reads_two_ways(tmp_path):
    # a generating set on one line (--group, a scan line) splits at
    # whitespace; a group-file line is one permutation, whose cycles may
    # be spaced apart
    text = "(1,2) (3,4)"
    assert parse_generators(text, 8) == [parse_perm("(1,2)", 8),
                                         parse_perm("(3,4)", 8)]
    path = tmp_path / "gens.txt"
    path.write_text(text + "\n")
    assert read_group_file(str(path), 8) == [parse_perm("(1,2)(3,4)", 8)]
