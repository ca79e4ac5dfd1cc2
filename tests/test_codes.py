"""Binary code container and the two shipped self-dual codes."""

import pytest
from hypothesis import given, settings, strategies as st

from thetaforge.codes import (
    CATALOG_CODES, BinaryCode, catalog_code, load_code, mask_to_points,
)
from thetaforge.errors import DomainError, ParseError
from thetaforge.perms import Perm, parse_perm

from oracles import brute_fixed_words, codewords, direct_sum, weight_enumerator


HAMMING_WORDS = [
    (), (1, 6, 7, 8), (2, 5, 7, 8), (3, 5, 6, 8), (4, 5, 6, 7),
    (1, 2, 5, 6), (1, 3, 5, 7), (1, 4, 5, 8), (2, 3, 6, 7), (2, 4, 6, 8),
    (3, 4, 7, 8), (1, 2, 3, 8), (1, 2, 4, 7), (1, 3, 4, 6), (2, 3, 4, 5),
    (1, 2, 3, 4, 5, 6, 7, 8),
]


def points_to_mask(points):
    mask = 0
    for p in points:
        mask |= 1 << (p - 1)
    return mask


def test_hamming_checks():
    ham = catalog_code("hamming8")
    assert (ham.n, ham.dim) == (8, 4) and ham.is_doubly_even()
    assert min(w for w in weight_enumerator(ham) if w) == 4


def test_hamming_codeword_list():
    ham = catalog_code("hamming8")
    words = {mask_to_points(m) for m in codewords(ham)}
    assert words == set(HAMMING_WORDS)


def test_golay_checks():
    golay = catalog_code("golay24")
    assert (golay.n, golay.dim) == (24, 12) and golay.is_doubly_even()
    assert weight_enumerator(golay) == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def test_loading_golay_lists_no_codewords(monkeypatch):
    # the rows are a constant, checked once by test_golay_checks above;
    # listing all 4096 words on every load took nearly all of its time;
    # every walk over the words, listed or counted, asks this first
    def no_listing(self):
        raise AssertionError("walked the codewords of a catalog code")

    monkeypatch.setattr(BinaryCode, "require_listable", no_listing)
    golay = catalog_code("golay24")
    assert (golay.n, golay.dim) == (24, 12)


def test_contains_agrees_with_span():
    ham = catalog_code("hamming8")
    words = set(codewords(ham))
    assert all(ham.contains(m) for m in words)
    assert not ham.contains(points_to_mask((1, 2)))
    assert not ham.contains(points_to_mask((1, 2, 3, 4)))


@given(st.integers(0, 15), st.integers(0, 15))
def test_codewords_closed_under_addition(i, j):
    ham = catalog_code("hamming8")
    words = codewords(ham)
    assert ham.contains(words[i] ^ words[j])


def test_row_reduction_canonicalizes():
    a = BinaryCode.from_rows_text(["10000111", "01001011", "00101101", "00011110"])
    b = BinaryCode.from_rows_text(["11001100", "01001011", "10000111", "00101101",
                                   "00011110", "00000000"])
    assert a == b
    assert a.dim == b.dim == 4


def test_is_automorphism():
    ham = catalog_code("hamming8")
    assert ham.is_automorphism(parse_perm("(2,8,4,6)(3,5)", 8))
    assert ham.is_automorphism(parse_perm("(1,3,7,8,5,4,2)", 8))
    assert not ham.is_automorphism(parse_perm("(1,2)", 8))


def test_fixed_subcode():
    ham = catalog_code("hamming8")
    g = parse_perm("(2,8,4,6)(3,5)", 8)
    sub = ham.fixed_subcode([g])
    assert sub.dim == 2
    words = {mask_to_points(m) for m in codewords(sub)}
    assert words == {(), (1, 3, 5, 7), (2, 4, 6, 8), tuple(range(1, 9))}


def test_fixed_subcode_trivial_group_is_everything():
    ham = catalog_code("hamming8")
    assert ham.fixed_subcode([]) == ham


def test_fixed_subcode_rejects_non_automorphism():
    ham = catalog_code("hamming8")
    with pytest.raises(DomainError, match=r"\(1,2\)"):
        ham.fixed_subcode([parse_perm("(1,2)", 8)])


def test_golay_fixed_subcode_of_half_swap_involution():
    golay = catalog_code("golay24")
    # swapping coordinate i with i+12 preserves the shipped generator matrix
    two = parse_perm(
        "(1,13)(2,14)(3,15)(4,16)(5,17)(6,18)(7,19)(8,20)(9,21)(10,22)(11,23)(12,24)",
        24)
    assert two.cycle_type() == ((2, 12),)
    assert golay.is_automorphism(two)
    sub = golay.fixed_subcode([two])
    assert sub.dim == 6
    assert weight_enumerator(sub) == {0: 1, 8: 15, 12: 32, 16: 15, 24: 1}


@st.composite
def invariant_code_st(draw):
    """A code spanned by the orbits of random vectors under 0-3 generators.

    Generators come from a pool holding the identity and up to three
    random permutations, drawn with repetition, so [] and repeated
    generators occur.  Also returns one more random permutation, which
    may or may not be an automorphism.
    """
    n = draw(st.integers(1, 16))
    perm_st = st.permutations(range(n)).map(Perm)
    pool = [Perm.identity(n)] + draw(st.lists(perm_st, min_size=1, max_size=3))
    gens = draw(st.lists(st.sampled_from(pool), max_size=3))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    while True:
        code = BinaryCode(n, rows)
        images = [g.apply_mask(b) for g in gens for b in code.basis]
        if all(code.contains(w) for w in images):
            return code, gens, draw(perm_st)
        rows = list(code.basis) + images


@given(invariant_code_st())
@settings(max_examples=150, deadline=None)
def test_fixed_subcode_against_brute_force(case):
    code, gens, other = case
    brute = BinaryCode(code.n, brute_fixed_words(code, gens))
    assert code.fixed_subcode(gens).basis == brute.basis
    if code.is_automorphism(other):
        brute = BinaryCode(code.n, brute_fixed_words(code, gens + [other]))
        assert code.fixed_subcode(gens + [other]).basis == brute.basis
    else:
        with pytest.raises(DomainError) as exc:
            code.fixed_subcode(gens + [other])
        assert str(exc.value) == "%s is not an automorphism of the code" % other


def test_direct_sum():
    ham = catalog_code("hamming8")
    double = direct_sum(ham, ham)
    assert double.n == 16
    assert double.dim == 8
    assert min(w for w in weight_enumerator(double) if w) == 4
    assert double == catalog_code("hamming8+hamming8")


def test_mask_points_roundtrip():
    assert mask_to_points(points_to_mask((2, 5, 7))) == (2, 5, 7)
    assert mask_to_points(0) == ()


def test_from_file_and_load(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("# comment line\n10000111\n01001011\n00101101\n00011110\n")
    code = BinaryCode.from_file(str(path))
    assert code == catalog_code("hamming8")
    assert load_code(str(path)) == code
    assert load_code("hamming8") == code


def test_load_rejects_unknown():
    with pytest.raises((DomainError, OSError)):
        load_code("no-such-code")


@pytest.mark.parametrize("name", CATALOG_CODES)
def test_a_catalog_name_loads_its_code_over_a_file_of_that_name(
        name, monkeypatch, tmp_path):
    # `cli._path_contents` fingerprints a catalog name by the name, so
    # the name must mean the built-in code wherever the job runs
    monkeypatch.chdir(tmp_path)
    assert load_code(name) == catalog_code(name)
    (tmp_path / name).write_text("11110000\n00001111\n")
    assert load_code(name) == catalog_code(name)


def test_catalog_code_refuses_an_unknown_name():
    with pytest.raises(DomainError) as err:
        catalog_code("no-such-code")
    assert str(err.value) == "unknown catalog code 'no-such-code'"


def test_from_rows_rejects_ragged_and_junk():
    with pytest.raises(ParseError):
        BinaryCode.from_rows_text(["1010", "101"])
    with pytest.raises(ParseError):
        BinaryCode.from_rows_text(["10a0"])
