"""End-to-end acceptance gates, one test per recorded result set.

Each test recomputes its rows from the engine at the stated tolerance
(exact integer equality unless a row says otherwise) and prints a
single PASS or FAIL line; run with -s to see the lines, or read the
verbose test report.  The whole module stays well inside a five-minute
budget on one core; the rank-24 checks take a few seconds.
"""

import json
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from thetaforge.characters import (
    character_cyclic, character_group, character_plus, trace_series,
)
from thetaforge.cli import main
from thetaforge.codes import catalog_code, load_code
from thetaforge.lattice import (
    doubling_code_criterion, kernel_theta, lift_order, theta_fixed,
    theta_twisted,
)
from thetaforge.modfunc import (
    _faber_rows, identify, is_replicable, mckay_thompson, strip_constant,
    theta_quotient,
)
from thetaforge.perms import (
    Perm, orbits, parse_generators, parse_perm,
)
from thetaforge.qseries import DEN, QSeries
from thetaforge.verify import check_group, check_thmC, verify_figure

from oracles import (
    a_partition_order, brute_force_automorphisms, catalog_theta,
    d_partition_anchor, every_pair, oracle_eta, shifted_theta,
)

T = lambda n: n * DEN
HALF = Fraction(1, 2)

HAM = catalog_code("hamming8")
GOLAY = catalog_code("golay24")
HH = catalog_code("hamming8+hamming8")

REP = parse_perm("(1,7)(2,4)(3,8)(5,6)", 8)
NR = parse_perm("(1,2)(3,8)(4,7)(5,6)", 8)
HALFSWAP = parse_perm(
    "(1,13)(2,14)(3,15)(4,16)(5,17)(6,18)(7,19)(8,20)"
    "(9,21)(10,22)(11,23)(12,24)", 24)


@contextmanager
def gate(number, text):
    try:
        yield
    except BaseException:
        print("criterion %2d: FAIL  %s" % (number, text))
        raise
    print("criterion %2d: PASS  %s" % (number, text))


def row(series, base48, count):
    return [series.coeff48(base48 + k * DEN) for k in range(count)]


def orbit_pairs(gens, n):
    return tuple(sorted(Counter(len(o) for o in orbits(gens, n)).items()))


def quotient_for(code, text, trunc48):
    gens = parse_generators(text, code.n) if text else []
    theta = theta_fixed(code, gens, trunc48)
    return theta_quotient(theta, orbit_pairs(gens, code.n))


def coefficients_integral(series):
    return all(Fraction(c).denominator == 1
               for c in series.coeffs.values())


def test_criterion_01_single_element_fixed_theta():
    with gate(1, "fixed theta of the worked order-4 element"):
        theta = theta_fixed(HAM, parse_generators("(2,8,4,6)(3,5)", 8), T(10))
        assert row(theta, 0, 10) == [
            1, 14, 30, 36, 62, 72, 68, 112, 126, 98]
        assert all(e % DEN == 0 for e in theta.exponents48())


def test_criterion_02_subgroup_fixed_theta_and_quotient():
    with gate(2, "Klein-type subgroup theta and its orbit quotient"):
        gens = parse_generators("(4,6)(5,7), (4,7)(5,6), (1,3)(2,8)", 8)
        theta = theta_fixed(HAM, gens, T(12))
        assert theta.matches(catalog_theta("A1^3", 2, T(12)))
        assert row(theta, 0, 10) == [1, 6, 12, 8, 6, 24, 24, 0, 12, 30]
        quo = theta_quotient(theta, ((2, 2), (4, 1)))
        got = row(quo, -DEN, 9)
        assert got[:4] == [1, 18, 150, 780]
        # tail pinned by a fresh expansion, not the typeset table
        assert got[4:] == [2928, 8892, 24032, 60840, 145089]


FIG1_CLASSES = (
    ("", "T_1A"),
    ("(1,5,2)(3,7,8)", "T_3A"),
    ("(1,7)(2,4)(3,8)(5,6)", "T_4A"),
    ("(1,3,7,8,5,4,2)", "T_7A"),
    ("(1,3,7,8)(2,5,4,6)", "T_8B"),
    ("(1,3,7,8,2,6)(4,5)", "T_6b"),
)

NON_REPLICABLE_CLASSES = (
    "(1,2)(3,8)(4,7)(5,6)",
    "(1,6)(7,8)",
    "(1,5,2,6)(3,7,8,4)",
    "(1,7,8,6)(4,5)",
)


def test_criterion_03_single_class_replicability_split():
    with gate(3, "six replicable single classes, four with violations"):
        for text, name in FIG1_CLASSES:
            quo = quotient_for(HAM, text, T(30))
            report = is_replicable(quo, 12)
            assert report["verdict"] == "replicable-up-to-K_rep", text
            got, _ = identify(quo)
            assert got == name, (text, got)
        for text in NON_REPLICABLE_CLASSES:
            quo = quotient_for(HAM, text, T(30))
            report = is_replicable(quo, 12)
            assert report["verdict"] == "not-replicable", text
            assert report["violations"], text
        report = is_replicable(quotient_for(HAM, "(1,6)(7,8)", T(30)), 12)
        assert [tuple(v) for v in report["violations"]] == [
            (2, 3, 1, 6), (2, 5, 1, 10), (3, 4, 1, 12),
            (4, 6, 2, 12), (5, 6, 3, 10)]


def test_criterion_04_subgroup_identifications():
    with gate(4, "nineteen subgroup generating sets identify"):
        report = verify_figure("fig2")
        assert len(report["rows"]) == 19
        assert report["status"] == "pass"


def test_criterion_05_traces_and_character_of_the_worked_element():
    with gate(5, "trace series, kernel thetas, and character"):
        g = parse_perm("(2,8,4,6)(3,5)", 8)
        expected = {
            1: [1, 16, 64, 192, 510, 1216, 2688],
            0: [1, 248, 4124, 34752, 213126, 1057504, 4530744],
            2: [1, 0, -4, 0, 6, 0, -8, 0, 17, 0, -28],
            4: [1, -8, 28, -64, 134, -288, 568],
            6: [1, 0, -4, 0, 6, 0, -8, 0, 17, 0, -28],
        }
        for j, want in expected.items():
            series = trace_series(HAM, g, j, T(len(want) + 1))
            assert row(series, -16, len(want)) == want, j
        for j in (3, 5, 7):
            series = trace_series(HAM, g, j, T(8))
            assert row(series, -16, 7) == expected[1], j
        g2 = g * g
        fixed = theta_fixed(HAM, [g2], T(10))
        assert row(fixed, 0, 9) == [
            1, 60, 252, 544, 1020, 1560, 2080, 3264, 4092]
        kernel = (fixed + theta_twisted(HAM, g, 2, T(10))) * HALF
        assert row(kernel, 0, 9) == [
            1, 28, 124, 288, 508, 728, 1056, 1728, 2044]
        report = character_cyclic(HAM, g, T(8))
        assert row(report["character"], -16, 7) == [
            1, 38, 550, 4432, 26914, 132760, 567756]


def test_criterion_06_involution_characters_and_even_parts():
    with gate(6, "involution characters and their even coefficients"):
        t48 = T(12)
        ch_rep = character_cyclic(HAM, REP, t48)["character"]
        ch_nr = character_cyclic(HAM, NR, t48)["character"]
        v_d8 = character_plus(HAM, t48, REP)
        v_e8 = character_plus(HAM, t48)
        assert row(ch_rep, -16, 7) == [
            1, 64, 1052, 8704, 53382, 264448, 1133112]
        assert row(ch_nr, -16, 7) == [
            1, 136, 2076, 17472, 106630, 529184, 2265656]
        assert row(v_d8, -16, 7) == [
            1, 56, 1052, 8640, 53382, 264160, 1133112]
        assert row(v_e8, -16, 7) == [
            1, 120, 2076, 17344, 106630, 528608, 2265656]
        for k in range(0, 11, 2):
            assert ch_nr.coeff48(-16 + k * DEN) == v_e8.coeff48(-16 + k * DEN)
            assert ch_rep.coeff48(-16 + k * DEN) == v_d8.coeff48(-16 + k * DEN)


def test_criterion_07_quotient_rows_and_parity_matching():
    with gate(7, "quotient rows and even/odd coefficient matching"):
        t48 = T(18)
        den8 = oracle_eta(2, t48) ** -4
        quo_rep = theta_fixed(HAM, [REP], t48) * den8
        quo_nr = theta_fixed(HAM, [NR], t48) * den8
        assert row(quo_rep, -16, 7) == [1, 8, 28, 64, 134, 288, 568]
        assert row(quo_nr, -16, 7) == [1, 24, 28, 192, 134, 864, 568]
        for k in range(0, 17, 2):
            assert quo_rep.coeff48(-16 + k * DEN) \
                == quo_nr.coeff48(-16 + k * DEN), k
        den16 = oracle_eta(2, t48) ** -8
        quo_a = catalog_theta("A1^8", 2, t48) * den16
        quo_d = catalog_theta("D8*", 2, t48) * den16
        assert row(quo_a, -32, 7) == [1, 16, 120, 576, 2076, 6304, 17344]
        assert row(quo_d, -32, 7) == [1, 16, 376, 576, 6172, 6304, 52160]
        for k in range(1, 17, 2):
            assert quo_a.coeff48(-32 + k * DEN) \
                == quo_d.coeff48(-32 + k * DEN), k


def test_criterion_08_character_identities_for_rank_8():
    with gate(8, "both rank-8 character identities"):
        one = check_thmC(HAM, REP, T(8))
        two = check_thmC(HAM, REP, T(8), g_nr=NR)
        for report in (one, two):
            assert report["rows"][0]["got"] == "applicable", \
                report["rows"][0]["got"]
            assert report["status"] == "pass"
            assert all(row["ok"] for row in report["rows"])


def test_criterion_09_frobenius_group_characters():
    with gate(9, "order-21 group characters and their combination"):
        h1 = parse_generators("(1,2,5,3,7,6,4)", 8)
        h2 = parse_generators("(2,5,7)(3,4,6)", 8)
        t48 = T(8)
        ch_g = character_group(HAM, h1 + h2, t48)["character"]
        ch_7 = character_group(HAM, h1, t48)["character"]
        ch_3 = character_group(HAM, h2, t48)["character"]
        full = (theta_fixed(HAM, [], t48 + T(1))
                * oracle_eta(1, t48 + T(1)) ** -8)
        assert row(ch_g, -16, 7) == [
            1, 22, 242, 1762, 10460, 51078, 217266]
        assert row(ch_7, -16, 7) == [
            1, 38, 596, 4974, 30468, 151102, 647298]
        assert row(ch_3, -16, 7) == [
            1, 92, 1418, 11688, 71346, 353212, 1511748]
        combo = ch_7 + 3 * ch_3 - full
        assert row(combo, -16, 7) == [
            3, 66, 726, 5286, 31380, 153234, 651798]
        assert combo.matches(3 * ch_g)
        report = check_group(HAM, h1 + h2, t48)
        assert report["rows"][0]["got"] == "applicable", \
            report["rows"][0]["got"]
        assert report["status"] == "pass"


def test_criterion_10_doubling_criteria_agree_everywhere():
    with gate(10, "code and lattice doubling verdicts on all 1344"):
        auts = brute_force_automorphisms(HAM.contains, 8)
        assert len(auts) == 1344
        checked = 0
        for g in auts:
            if g.order() % 2:
                continue
            code_flag, _ = doubling_code_criterion(HAM, g)
            lattice_flag = lift_order(HAM, g) > g.order()
            assert code_flag == lattice_flag, g
            checked += 1
        assert checked == 735


def test_criterion_11_partition_shapes_pin_the_theta():
    with gate(11, "partition shapes imply the closed-form thetas"):
        t48 = T(13)
        counts = {2: 0, 4: 0}
        anchored = 0
        for g in brute_force_automorphisms(HAM.contains, 8):
            if g == Perm.identity(8):
                continue
            r = a_partition_order(HAM, g)
            if r is not None:
                counts[r] += 1
                assert theta_fixed(HAM, [g], t48).matches(
                    catalog_theta("A1^%d" % (8 // r), r, t48)), g
            if d_partition_anchor(HAM, g) is not None:
                anchored += 1
                assert theta_fixed(HAM, [g], t48).matches(
                    catalog_theta("D4*", 2, t48)), g
        assert counts == {2: 42, 4: 168}
        assert anchored == 7
        double_rep = Perm([REP.images[i] for i in range(8)]
                          + [8 + REP.images[i] for i in range(8)])
        assert a_partition_order(HH, double_rep) == 2
        assert theta_fixed(HH, [double_rep], t48).matches(
            catalog_theta("A1^8", 2, t48))
        swap = Perm(list(range(8, 16)) + list(range(8)))
        assert HH.is_automorphism(swap)
        assert a_partition_order(HH, swap) is None
        assert d_partition_anchor(HH, swap) is None
        assert a_partition_order(GOLAY, HALFSWAP) is None
        assert d_partition_anchor(GOLAY, HALFSWAP) is None


def test_criterion_12_rank_24_stretch_rows():
    with gate(12, "rank-24 lattice rows and replicable quotients"):
        leech = theta_fixed(GOLAY, [], T(6), flavor="super1")
        assert row(leech, 0, 6) == [
            1, 0, 196560, 16773120, 398034000, 4629381120]
        kernel = kernel_theta(GOLAY, HALFSWAP, T(6), flavor="super1")
        assert row(kernel, 0, 6) == [
            1, 0, 98256, 8384512, 199066704, 2314125312]
        fixed = theta_fixed(GOLAY, [HALFSWAP], T(11), flavor="super1")
        quo = theta_quotient(fixed, ((2, 12),))
        name, delta = identify(quo)
        assert name == "T_4A"
        assert delta == -24
        data = Path(__file__).parent / "data"
        rows_code = load_code(str(data / "golay24_rows.txt"))
        first = None
        for line in (data / "golay24_fig8.txt").read_text().splitlines():
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            gens = parse_generators(text, 24)
            theta = theta_fixed(rows_code, gens, T(28))
            if first is None:
                first = theta
            quo = theta_quotient(theta, orbit_pairs(gens, 24))
            assert (is_replicable(quo, 12)["verdict"]
                    == "replicable-up-to-K_rep")
        assert first.matches(catalog_theta("A2^3", 2, T(28)))


def test_criterion_13_property_suite(tmp_path):
    with gate(13, "ring axioms, theta identities, symmetry, determinism"):
        t48 = T(20)
        f = oracle_eta(1, t48)
        g = shifted_theta(1, HALF, t48)
        h = catalog_theta("A2", 1, t48)
        assert (f + g).matches(g + f)
        assert ((f * g) * h).matches(f * (g * h))
        assert (f * (g + h)).matches(f * g + f * h)
        assert (f * QSeries.monomial(1, 0, t48)).matches(f)

        t2 = shifted_theta(HALF, HALF, t48)
        t3 = shifted_theta(HALF, 0, t48)
        assert (t2 * t2).matches(
            2 * shifted_theta(1, HALF, t48) * shifted_theta(1, 0, t48))
        assert (t3 * t3).matches(
            shifted_theta(1, 0, t48) ** 2 + shifted_theta(1, HALF, t48) ** 2)
        assert catalog_theta("A1^5", 1, t48).matches(t3 ** 5)
        assert catalog_theta("D6*", 1, t48).matches(t3 ** 6 + t2 ** 6)
        theta4 = shifted_theta(1, 0, t48, alternating=True)
        assert (oracle_eta(1, t48) ** 2).matches(theta4 * oracle_eta(2, t48))

        series = mckay_thompson("T_4A", T(17))
        stripped, _ = strip_constant(series)
        # the entries G_{n,k}/k are symmetric in n and k
        rows = _faber_rows(stripped, 8, every_pair(8))
        for n in range(1, 9):
            for k in range(1, 9):
                assert rows[k][n] * n == rows[n][k] * k

        for text, _ in FIG1_CLASSES:
            assert coefficients_integral(quotient_for(HAM, text, T(12)))
        for g_elt in (REP, NR):
            report = character_cyclic(HAM, g_elt, T(8))
            assert coefficients_integral(report["character"])

        argv = ["theta", "--group", "(1,7)(2,4)(3,8)(5,6)", "--trunc", "8"]
        assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b.json")]) == 0
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes()
        assert json.loads(a)["fingerprint"]
