"""The table-recomputation registry must reproduce every recorded row.

One registry entry per recorded table; a report fails if any checked
row disagrees with a fresh computation.  Informational rows (ok None)
are allowed to disagree and must not affect the verdict.  The full
report of every figure, labels and values included, is pinned in
data/verify_figures.json.
"""

import json
from pathlib import Path

import pytest

from thetaforge import characters, verify
from thetaforge.errors import DomainError
from thetaforge.qseries import DEN
from thetaforge.verify import (
    FIGURE_IDS, _compare, _group_shape, _is_prime, _jacobi_sum, verify_figure,
)

from oracles import catalog_theta, make_series

ROW_COUNTS = {
    "fig1": 6,
    "fig2": 19,
    "fig5": 4,
    "fig7": 6,
    "ex33": 1,
    "ex34": 3,
    "ex53": 6,
    "ex81": 5,
    "thmC": 10,
    "thmD": 2,
}


@pytest.mark.parametrize("n", range(1, 13))
def test_the_half_swap_references_are_the_closed_forms(n):
    # A1(2)^n, D_n(2) and D_n*(2), each one product_sum, against the
    # oracle's named closed forms built from Miller's powers, at every
    # half rank up to 12, on and off the integer grid out to 24 powers
    for w in (1, 7, DEN + 1, 3 * DEN + 13, 5 * DEN + 7, 5 * DEN + 47,
              11 * DEN + 41, 24 * DEN):
        for ks, name, half in (((3,), "A1^%d", 1), ((3, 4), "D%d", 2),
                               ((3, 2), "D%d*", 1)):
            got = _jacobi_sum(ks, n, w) / half
            assert got.trunc48 == w, (ks, n, w)
            assert got == catalog_theta(name % n, 2, w), (ks, n, w)


def test_a_figure_traces_each_character_once():
    # ex81 checks three group characters as rows and again inside an
    # identity; the memo on _trace computes each trace once, so a second
    # run of the figure computes none
    first = verify_figure("ex81")
    misses = characters._trace.cache_info().misses
    assert verify_figure("ex81") == first
    assert characters._trace.cache_info().misses == misses


def test_a_row_whose_orbit_type_disagrees_fails_its_figure(monkeypatch):
    # the 3-cycle pair has orbit type 1^2 3^2, not the 2^4 the row expects
    monkeypatch.setattr(verify, "_SINGLE_CLASSES",
                        (("2^4", "(1,5,2)(3,7,8)", "T_3A"),))
    assert verify_figure("fig1") == {"figure": "fig1", "status": "fail",
                                     "rows": [{"label": "2^4  (1,5,2)(3,7,8)",
                                               "expected": "2^4",
                                               "got": "1^2 3^2",
                                               "ok": False}]}


@pytest.mark.parametrize("figure", FIGURE_IDS)
def test_every_registered_table_recomputes(figure):
    report = verify_figure(figure)
    assert report["status"] == "pass"
    assert len(report["rows"]) == ROW_COUNTS[figure]
    for row in report["rows"]:
        assert row["ok"] in (True, None), (figure, row["label"])


PINNED = json.loads(
    (Path(__file__).parent / "data" / "verify_figures.json").read_text())


@pytest.mark.parametrize("figure", FIGURE_IDS)
def test_every_report_matches_its_pinned_record(figure):
    assert verify_figure(figure) == PINNED[figure]


def test_registry_is_complete():
    assert set(ROW_COUNTS) == set(FIGURE_IDS) == set(PINNED)


def test_informational_rows_do_not_gate():
    report = verify_figure("ex34")
    notes = [r for r in report["rows"] if r["ok"] is None]
    assert len(notes) == 1
    assert "q^4" in notes[0]["label"]
    assert report["status"] == "pass"


def test_report_serializes_with_stable_keys():
    obj = verify_figure("ex33")
    assert obj["figure"] == "ex33"
    assert obj["status"] == "pass"
    assert set(obj["rows"][0]) == {"label", "expected", "got", "ok"}


def test_unknown_figure_is_refused():
    with pytest.raises(DomainError) as exc:
        verify_figure("fig99")
    assert "fig1" in str(exc.value)


def _double_loop_candidates(limit, power):
    """The p^power q factorizations, p < q primes, of every order up to
    limit, by a double loop over p < q, run once for all orders."""
    found = {}
    for p in range(2, limit + 1):
        for q in range(p + 1, limit // p ** power + 1):
            if _is_prime(p) and _is_prime(q):
                found.setdefault(p ** power * q, []).append((p, q))
    return found


def test_group_shape_reads_the_order_as_the_double_loop_did():
    # one factorization names both theorems: each order has at most one
    # p*q and one p^2 q factorization, and never both
    pq = _double_loop_candidates(1500, 1)
    p2q = _double_loop_candidates(1500, 2)
    assert not set(pq) & set(p2q)
    for order in range(1, 1501):
        if order in pq:
            [(p, q)] = pq[order]
            want = ("ThmD-pq", p, q)
        elif order in p2q:
            [(p, q)] = p2q[order]
            want = ("Thm-p2q", p, q)
        else:
            want = (None, None, None)
        assert _group_shape(order) == want, order


def test_compare_names_the_smaller_of_two_mismatches():
    lhs = make_series({-16: 1, 32: 5, 80: 7}, 4 * DEN)
    rhs = make_series({-16: 2, 32: 5, 80: 6}, 3 * DEN)
    row = _compare("row", lhs, rhs)
    assert row == {"label": "row", "expected": "match",
                   "got": "first mismatch at -16/48", "ok": False}
    assert _compare("row", lhs, lhs)["got"] == "match"


def test_compare_on_a_parity_ignores_the_filtered_out_powers():
    # N = 8: the powers q^(k - 1/3) sit at 48 k - 16, and a difference
    # at 0 lies off that grid
    lhs = make_series({-16: 1, 0: 3, 32: 4, 80: 9}, 5 * DEN)
    rhs = make_series({-16: 1, 0: 2, 32: 5, 80: 9}, 5 * DEN)
    assert _compare("even", lhs, rhs, N=8, parity=0)["got"] == "match"
    odd = _compare("odd", lhs, rhs, N=8, parity=1)
    assert (odd["got"], odd["ok"]) == ("first mismatch at 32/48", False)
    assert _compare("all", lhs, rhs)["got"] == "first mismatch at 0/48"
