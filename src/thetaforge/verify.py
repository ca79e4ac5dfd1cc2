"""Recomputation of the recorded figure and example tables.

Every table row ships with the generator strings it was produced from
and the expected coefficients, and verification recomputes the row from
scratch and compares.  Expected values marked "tabulated" below are
reference rows copied from the source tables; the few marked
"recomputed" were frozen from this engine's own arithmetic after
cross-checking against the brute-force oracle, because the printed row
has a transcription problem (see ex34).  Each row is written beside its
recipe.  Every recorded figure is computed on hamming8, which
`verify_figure` builds once for the recipe.  Failures are results, not
exceptions: `verify_figure` returns the record {"figure", "status",
"rows"}, each row a record {"label", "expected", "got", "ok"}, with ok
None for an informational row, and the status "fail" when any other
row is not ok.

The identities between characters of fixed subVOAs are checked here
too, each by a function that takes exactly its theorem's inputs and
returns a record of the same kind, so the thmC, thmD and ex81 figures
carry its rows: `check_thmC(code, g_rep, trunc48, g_nr=None)` is
Theorem C for rank 8, `check_parity(code, g_rep, g_nr, trunc48)` the
parity properties, and `check_group(code, gens, trunc48)` the group
theorem that the order of <gens> names, pq or p^2 q.  The group
theorems are one relation, k Ch^G = Ch^A + k Ch^B - Ch V, over the
subgroups that each shape names.  Fig7 and the half-swap hypotheses
compare with the thetas of A1(2)^n, D_n(2) and D_n*(2), n half the
rank, each the sum of nth powers of Jacobi thetas of q^2 that one
`product_sum` call evaluates (halved for D_n(2)) in `_jacobi_sum`.
"""

from functools import partial
from math import isqrt

from .characters import (
    character_cyclic, character_group, character_plus, trace_series,
)
from .codes import catalog_code
from .errors import DomainError
from .lattice import doubling_element, is_even, lift_order, theta_fixed
from .modfunc import eta_quotient, fixed_quotient, identify, is_replicable
from .perms import Perm, group_elements, parse_generators, parse_perm
from .qseries import DEN, product_sum, theta2, theta3, theta4

# hamming8 elements that several figures use, parsed where they are
# used: `cli` imports this module in every process
_REP = "(1,7)(2,4)(3,8)(5,6)"        # the 2^4 class whose lift doubles
_NR = "(1,2)(3,8)(4,7)(5,6)"         # the 2^4 class whose lift does not
_EX_G = "(2,8,4,6)(3,5)"             # the worked element of ex33 and ex53
_F21 = "(1,2,5,3,7,6,4), (2,5,7)(3,4,6)"   # order 7 and order 3 generators


def _row(label, expected, got, ok):
    """One table row; ok is None for an informational row."""
    return {"label": label, "expected": expected, "got": got, "ok": ok}


def _report(figure, rows):
    """The record of a figure or identity: it passes when no checked row
    fails."""
    ok = all(r["ok"] for r in rows if r["ok"] is not None)
    return {"figure": figure, "status": "pass" if ok else "fail",
            "rows": rows}


def _series_row(label, series, base48, expected):
    got = [series.coeff48(base48 + DEN * k) for k in range(len(expected))]
    return _row(label, expected, got, got == expected)


# Cycle type, generator, and the name of the resulting theta quotient,
# one row per conjugacy class with replicable quotient (tabulated).
_SINGLE_CLASSES = (
    ("1^8", "", "T_1A"),
    ("1^2 3^2", "(1,5,2)(3,7,8)", "T_3A"),
    ("2^4", _REP, "T_4A"),
    ("1^1 7^1", "(1,3,7,8,5,4,2)", "T_7A"),
    ("4^2", "(1,3,7,8)(2,5,4,6)", "T_8B"),
    ("2^1 6^1", "(1,3,7,8,2,6)(4,5)", "T_6b"),
)

# Generating sets for the 19 subgroup classes with replicable quotient,
# grouped by orbit type (tabulated).
_SUBGROUP_CLASSES = (
    ("", "T_1A"),
    ("(1,5,2)(3,7,8)", "T_3A"),
    ("(1,4,3)(5,8,7), (1,3)(5,7)", "T_3A"),
    (_REP, "T_4A"),
    ("(1,5)(2,6), (3,8)(4,7)", "T_4A"),
    ("(1,3,7,8,5,4,2)", "T_7A"),
    ("(1,4,3)(5,8,7), (1,7,3,4,6,5,8)", "T_7A"),
    ("(1,4)(3,6), (1,3,8,2)(4,5)", "T_7A"),
    ("(1,3,7,8)(2,5,4,6)", "T_8B"),
    ("(2,5)(3,4), (1,8)(2,5)(3,4)(6,7), (1,5)(2,8)(3,7)(4,6)", "T_8B"),
    ("(1,2)(3,7)(4,8)(5,6), (1,7)(2,3)(4,5)(6,8)", "T_8B"),
    ("(1,2)(3,7)(4,8)(5,6), (1,7)(2,3)(4,5)(6,8), (1,2,3)(4,6,5)", "T_8B"),
    ("(1,2,5)(3,7,4), (2,5)(3,4), (1,8)(2,5)(3,4)(6,7), (1,2)(3,6)(4,7)(5,8)",
     "T_8B"),
    ("(1,3,7,8,2,6)(4,5)", "T_6b"),
    ("(1,2)(3,7)(4,8)(5,6), (1,6,8)(2,4,5)", "T_6b"),
    ("(4,6)(5,7), (2,7,5)(3,6,4), (1,8)(2,3)(4,5)(6,7)", "T_6b"),
    ("(1,2,5)(3,7,4), (2,4)(3,5), (1,7)(2,4)(3,5)(6,8), (1,7)(2,4)", "T_6b"),
    ("(1,2,5)(3,7,4), (2,4)(3,5), (1,7)(2,3)(4,5)(6,8), (1,7)(2,4)", "T_6b"),
    ("(2,4)(3,5), (1,7)(2,4)(3,5)(6,8), (2,5)(3,4), (1,7)(2,4), (1,5,2)(3,4,7)",
     "T_6b"),
)


def _identifications(ham, rows):
    """One row per (orbit type or None, generators, name): the quotient
    of the fixed sublattice must be replicable and be the named series,
    and have the orbit type when one is given."""
    out = []
    for want_type, text, name in rows:
        gens = parse_generators(text, 8) if text else []
        got_type, quo = fixed_quotient(ham, gens, 30 * DEN)
        label = "%s  %s" % (want_type or got_type, text or "1")
        if want_type not in (None, got_type):
            out.append(_row(label, want_type, got_type, False))
            continue
        verdict = is_replicable(quo)["verdict"]
        identified, _ = identify(quo)
        ok = identified == name and verdict == "replicable-up-to-K_rep"
        out.append(_row(label, name, identified or verdict, ok))
    return out


def _verify_fig5(ham):
    # characters of the rank-8 fixed subVOAs through q^6 (tabulated); the
    # higher-rank rows of the same table need code inputs that are not
    # supplied, so they are not recomputed here
    rep, nr = parse_perm(_REP, 8), parse_perm(_NR, 8)
    t48 = 8 * DEN
    return [
        _series_row("2^4 rep character",
                    character_cyclic(ham, rep, t48)["character"], -16,
                    [1, 64, 1052, 8704, 53382, 264448, 1133112]),
        _series_row("2^4 nr character",
                    character_cyclic(ham, nr, t48)["character"], -16,
                    [1, 136, 2076, 17472, 106630, 529184, 2265656]),
        _series_row("fixed-kernel plus character",
                    character_plus(ham, t48, rep), -16,
                    [1, 56, 1052, 8640, 53382, 264160, 1133112]),
        _series_row("full plus character", character_plus(ham, t48), -16,
                    [1, 120, 2076, 17344, 106630, 528608, 2265656]),
    ]


_JACOBI = {2: theta2, 3: theta3, 4: theta4}


def _jacobi_sum(ks, n, trunc48):
    """The sum of θk(2τ)^n over k in ks, one `product_sum`: A1(2)^n for
    ks = (3,), D_n*(2) for (3, 2) and twice D_n(2) for (3, 4)."""
    return product_sum([(((k, n),), 1) for k in ks],
                       lambda k: _JACOBI[k](2, trunc48), trunc48)


def _verify_fig7(ham):
    # quotients theta/eta(q^2)^{N/2} for the three ranks (tabulated); the
    # rank-16 and rank-24 rows depend only on the named sublattice, so
    # they are recomputed from its closed form
    rep, nr = parse_perm(_REP, 8), parse_perm(_NR, 8)

    def row(label, n, theta, expected):
        # the longest row runs through q^7
        quo = eta_quotient(theta, ((2, n // 2),), 8 * DEN)
        return _series_row(label, quo, -2 * n, expected)

    return [
        row("rank 8 rep", 8, partial(theta_fixed, ham, [rep]),
            [1, 8, 28, 64, 134, 288, 568]),
        row("rank 8 nr", 8, partial(theta_fixed, ham, [nr]),
            [1, 24, 28, 192, 134, 864, 568]),
        row("rank 16 rep", 16, partial(_jacobi_sum, (3,), 8),
            [1, 16, 120, 576, 2076, 6304, 17344]),
        row("rank 16 nr", 16, partial(_jacobi_sum, (3, 2), 8),
            [1, 16, 376, 576, 6172, 6304, 52160]),
        row("rank 24 rep", 24, partial(_jacobi_sum, (3,), 12),
            [1, 24, 276, 2048, 11202, 49152, 184024, 614400, 1881471]),
        row("rank 24 nr", 24, partial(_jacobi_sum, (3, 2), 12),
            [1, 24, 276, 6144, 11202, 147456, 184024, 1843200, 1881471]),
    ]


def _verify_ex33(ham):
    theta = theta_fixed(ham, [parse_perm(_EX_G, 8)], 10 * DEN)
    return [_series_row("fixed theta of (2,8,4,6)(3,5)", theta, 0,
                        [1, 14, 30, 36, 62, 72, 68, 112, 126, 98])]


def _verify_ex34(ham):
    gens = parse_generators("(4,6)(5,7), (4,7)(5,6), (1,3)(2,8)", 8)
    _, quo = fixed_quotient(ham, gens, 12 * DEN)
    return [
        _series_row("quotient through q^3", quo, -DEN,
                    [1, 18, 150, 780, 2928]),
        # tail recomputed here; the printed q^4 term does not match it
        _series_row("quotient q^4..q^6 (recomputed)", quo, 4 * DEN,
                    [8892, 24032, 60840]),
        _row("printed q^4 term differs from recomputation", 88926,
             quo.coeff48(4 * DEN), None),
    ]


def _verify_ex53(ham):
    g = parse_perm(_EX_G, 8)
    return [
        _series_row("T(0,1)", trace_series(ham, g, 1, 7 * DEN), -16,
                    [1, 16, 64, 192, 510, 1216, 2688]),
        _series_row("T(0,0)", trace_series(ham, g, 0, 7 * DEN), -16,
                    [1, 248, 4124, 34752, 213126, 1057504, 4530744]),
        _series_row("T(0,2)", trace_series(ham, g, 2, 11 * DEN), -16,
                    [1, 0, -4, 0, 6, 0, -8, 0, 17, 0, -28]),
        _series_row("T(0,4)", trace_series(ham, g, 4, 7 * DEN), -16,
                    [1, -8, 28, -64, 134, -288, 568]),
        _series_row("T(0,6)", trace_series(ham, g, 6, 11 * DEN), -16,
                    [1, 0, -4, 0, 6, 0, -8, 0, 17, 0, -28]),
        _series_row("character of the fixed subVOA",
                    character_cyclic(ham, g, 8 * DEN)["character"], -16,
                    [1, 38, 550, 4432, 26914, 132760, 567756]),
    ]


def _verify_ex81(ham):
    f21 = parse_generators(_F21, 8)
    t48 = 8 * DEN
    ch7 = character_group(ham, f21[:1], t48)["character"]
    ch3 = character_group(ham, f21[1:], t48)["character"]
    full = trace_series(ham, Perm.identity(8), 0, t48)
    status = check_group(ham, f21, t48)["status"]
    return [
        _series_row("order 21 group",
                    character_group(ham, f21, t48)["character"], -16,
                    [1, 22, 242, 1762, 10460, 51078, 217266]),
        _series_row("order 7 subgroup", ch7, -16,
                    [1, 38, 596, 4974, 30468, 151102, 647298]),
        _series_row("order 3 subgroup", ch3, -16,
                    [1, 92, 1418, 11688, 71346, 353212, 1511748]),
        _series_row("combination Ch7 + 3 Ch3 - ChV", ch7 + 3 * ch3 - full,
                    -16, [3, 66, 726, 5286, 31380, 153234, 651798]),
        _row("identity verdict", "pass", status, status == "pass"),
    ]


def _verify_thmC(ham):
    rep, nr = parse_perm(_REP, 8), parse_perm(_NR, 8)
    t48 = 11 * DEN
    return (check_thmC(ham, rep, t48)["rows"]
            + check_thmC(ham, rep, t48, g_nr=nr)["rows"]
            + check_parity(ham, rep, nr, t48)["rows"])


def _verify_thmD(ham):
    return check_group(ham, parse_generators(_F21, 8), 8 * DEN)["rows"]


# ---------- identity checks ----------
#
# Each check's record holds its rows: first "hypotheses", which is
# either applicable or names the hypothesis that fails, then one row per
# coefficient comparison.  A failed hypothesis ends the check, so it
# is told apart from a failed comparison by its row.

def _hypotheses(reason=None):
    got = "applicable" if reason is None else "not-applicable: " + reason
    return _row("hypotheses", "applicable", got, reason is None)


def _compare(label, lhs, rhs, N=None, parity=None):
    """Whether lhs and rhs agree on their common window; given N, only
    on the powers q^(k - N/24) with k of the given parity."""
    bad = (lhs - rhs).coeffs
    if N is not None:
        bad = [e for e in bad
               if (e + 2 * N) % DEN == 0 and (e + 2 * N) // DEN % 2 == parity]
    got = "first mismatch at %s/48" % min(bad) if bad else "match"
    return _row(label, "match", got, not bad)


def _half_swap_reason(code, g, ks, shown, role, flavor, trunc48):
    """Why g is not a half swap, of cycle type 2^(N/2), whose fixed theta
    is _jacobi_sum(ks, N/2, window), shown as `shown`; None when it is."""
    half = code.n // 2
    if g.cycle_type() != ((2, half),):
        return "%s class must have cycle type 2^(N/2)" % role
    window = max(trunc48 + 2 * DEN, 12 * DEN)
    if not theta_fixed(code, [g], window, flavor=flavor).matches(
            _jacobi_sum(ks, half, window)):
        return "%s fixed theta is not the %s series" % (role, shown)
    return None


def _d_lattice_character(N, trunc48):
    """Character of the half-rank D lattice VOA in the doubled variable:
    half the eta quotient of twice D_n(2), n = N/2."""
    half = N // 2
    return eta_quotient(partial(_jacobi_sum, (3, 4), half), ((2, half),),
                        trunc48) / 2


def check_thmC(code, g_rep, trunc48, g_nr=None,
               flavor: str = "plain") -> dict:
    """Theorem C for a half swap g_rep whose lift doubles: ThmC-1, the
    rep quotient identity, or, given the half swap g_nr, ThmC-2, the nr
    quotient identity."""
    theorem = "ThmC-1" if g_nr is None else "ThmC-2"
    reason = _half_swap_reason(code, g_rep, (3,), "A1(2)^(N/2)", "first",
                               flavor, trunc48)
    if reason is None and lift_order(code, g_rep, flavor=flavor) == g_rep.order():
        reason = "first lift does not double, no kernel sublattice"
    if reason is None and g_nr is not None:
        reason = _half_swap_reason(code, g_nr, (3, 2), "D*(2)", "second",
                                   flavor, trunc48)
    if reason is not None:
        return _report(theorem, [_hypotheses(reason)])
    ch1 = character_cyclic(code, g_rep, trunc48, flavor=flavor)["character"]
    ch_ker_plus = character_plus(code, trunc48, g_rep, flavor=flavor)
    ch_d = _d_lattice_character(code.n, trunc48)
    if g_nr is None:
        label, g, rhs = "rep quotient identity", g_rep, ch1 - ch_ker_plus + ch_d
    else:
        ch2 = character_cyclic(code, g_nr, trunc48, flavor=flavor)["character"]
        ch_plus = character_plus(code, trunc48, flavor=flavor)
        label, g = "nr quotient identity", g_nr
        rhs = 2 * (ch2 - ch_plus) - (ch1 - ch_ker_plus) + ch_d
    lhs = trace_series(code, g, 1, trunc48, flavor)
    return _report(theorem, [
        _hypotheses(), _compare(label, lhs, rhs.truncate48(trunc48))])


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


def _group_shape(order):
    """The group theorem an order names, with its primes p < q:
    ("ThmD-pq", p, q) for p*q, ("Thm-p2q", p, q) for p^2*q, and
    (None, None, None) for any other order.  The smallest prime factor
    p of the order decides the shape."""
    p = next((d for d in range(2, isqrt(order) + 1) if order % d == 0), None)
    if p is not None:
        r = order // p
        if r > p and _is_prime(r):
            return "ThmD-pq", p, r
        if r % p == 0 and r // p > p and _is_prime(r // p):
            return "Thm-p2q", p, r // p
    return None, None, None


def _group_relation(label, code, k, gens, a_gens, b_gens, trunc48, flavor):
    """The rows of k Ch^G = Ch^A + k Ch^B - Ch V, with G, A and B the
    groups that gens, a_gens and b_gens generate, and V the full VOA."""
    ch_g, ch_a, ch_b = (
        character_group(code, s, trunc48, flavor=flavor)["character"]
        for s in (gens, a_gens, b_gens))
    ch_full = trace_series(code, Perm.identity(code.n), 0, trunc48, flavor=flavor)
    return [_hypotheses(),
            _compare(label, k * ch_g, ch_a + k * ch_b - ch_full)]


def _check_thmD(code, gens, elements, p, q, trunc48, flavor):
    # a group of order p*q is a semidirect product Z_q x| Z_p unless it
    # is cyclic, and then its elements of order p and q commute
    a = next(el for el in elements if el.order() == q)
    b = next(el for el in elements if el.order() == p)
    if a * b == b * a:
        return [_hypotheses("group is abelian, no semidirect structure")]
    return _group_relation("p*Ch^G = Ch^Zq + p*Ch^Zp - Ch V",
                           code, p, gens, [a], [b], trunc48, flavor)


def _check_p2q(code, gens, elements, p, q, trunc48, flavor):
    if all(x * y == y * x for x in gens for y in gens):
        return [_hypotheses("group is abelian")]
    # the averaging argument partitions the group into one p-Sylow orbit
    # and the q-Sylows, so no element may mix the two primes
    if any(el.order() not in (1, p, p * p, q) for el in elements):
        return [_hypotheses(
            "an element of mixed order breaks the Sylow partition")]
    a = next(el for el in elements if el.order() == q)
    n_q_elements = sum(1 for el in elements if el.order() == q)
    if n_q_elements == (q - 1) * p * p:
        # normal Sylow-p subgroup: the p^2 elements of p-power order
        psyl = [el for el in elements if el.order() in (p, p * p)]
        return _group_relation("q*Ch^G = Ch^P + q*Ch^Zq - Ch V",
                               code, q, gens, psyl, [a], trunc48, flavor)
    if n_q_elements == q - 1:
        # normal Z_q; the complement must be cyclic for the q Sylow-p
        # subgroups to cover the rest without overlap
        sq = next((el for el in elements if el.order() == p * p), None)
        if sq is None:
            return [_hypotheses("no cyclic subgroup of order %d" % (p * p))]
        return _group_relation("p2*Ch^G = p2*Ch^Zp2 + Ch^Zq - Ch V",
                               code, p * p, gens, [a], [sq], trunc48, flavor)
    return [_hypotheses("Sylow census matches neither semidirect shape")]


def check_parity(code, g_rep, g_nr, trunc48, flavor: str = "plain") -> dict:
    """The parity properties of the rep and nr half swaps: where their
    quotients and characters agree."""
    reason = (_half_swap_reason(code, g_rep, (3,), "A1(2)^(N/2)", "rep",
                                flavor, trunc48)
              or _half_swap_reason(code, g_nr, (3, 2), "D*(2)", "nr",
                                   flavor, trunc48))
    if reason is not None:
        return _report("parity-props", [_hypotheses(reason)])
    N = code.n
    rows = [_hypotheses()]
    quo_rep = trace_series(code, g_rep, 1, trunc48, flavor)
    quo_nr = trace_series(code, g_nr, 1, trunc48, flavor)
    parity = 0 if N % 16 == 8 else 1
    side = "even" if parity == 0 else "odd"
    rows.append(_compare(
        "rep and nr quotients agree on %s powers" % side,
        quo_rep, quo_nr, N, parity))
    if N % 16 == 8:
        ch_d = _d_lattice_character(N, trunc48)
        rows.append(_compare(
            "D-lattice character meets rep quotient on even powers",
            ch_d, quo_rep, N, 0))
        rows.append(_compare(
            "D-lattice character meets nr quotient on even powers",
            ch_d, quo_nr, N, 0))
    ch_nr = character_cyclic(code, g_nr, trunc48, flavor=flavor)["character"]
    ch_plus = character_plus(code, trunc48, flavor=flavor)
    rows.append(_compare(
        "nr character meets the negation-fixed character on even powers",
        ch_nr, ch_plus, N, 0))
    if N % 16 == 8 and lift_order(code, g_rep, flavor=flavor) > g_rep.order():
        ch_rep = character_cyclic(code, g_rep, trunc48,
                                  flavor=flavor)["character"]
        ch_ker = character_plus(code, trunc48, g_rep, flavor=flavor)
        rows.append(_compare(
            "rep character meets the kernel-plus character on even powers",
            ch_rep, ch_ker, N, 0))
    return _report("parity-props", rows)


def check_group(code, gens, trunc48, flavor: str = "plain") -> dict:
    """The group theorem that the order of <gens> names, on its lift:
    ThmD-pq for order p*q and Thm-p2q for p^2*q, with primes p < q.
    Any other order, the trivial group's included, names none and gives
    the record "group" with one not-applicable row; an odd lattice or a
    `lattice.doubling_element` gives the theorem's record with one."""
    elements = group_elements(gens) if gens else [Perm.identity(code.n)]
    theorem, p, q = _group_shape(len(elements))
    if theorem is None:
        return _report("group", [_hypotheses(
            "group of order %d is neither p*q nor p^2*q" % len(elements))])
    if not is_even(code, flavor):
        return _report(theorem, [_hypotheses(
            "the %s lattice of the code is odd" % flavor)])
    bad = doubling_element(code, elements, flavor)
    if bad is not None:
        return _report(theorem, [_hypotheses(
            "element %s has order doubling" % bad)])
    check = _check_thmD if theorem == "ThmD-pq" else _check_p2q
    return _report(theorem, check(code, gens, elements, p, q, trunc48, flavor))


_REGISTRY = {
    "fig1": lambda ham: _identifications(ham, _SINGLE_CLASSES),
    "fig2": lambda ham: _identifications(
        ham, ((None, text, name) for text, name in _SUBGROUP_CLASSES)),
    "fig5": _verify_fig5,
    "fig7": _verify_fig7,
    "ex33": _verify_ex33,
    "ex34": _verify_ex34,
    "ex53": _verify_ex53,
    "ex81": _verify_ex81,
    "thmC": _verify_thmC,
    "thmD": _verify_thmD,
}

FIGURE_IDS = tuple(_REGISTRY)


def verify_figure(figure_id: str) -> dict:
    """Recompute one recorded table on hamming8 and compare row by row."""
    if figure_id not in _REGISTRY:
        raise DomainError("unknown figure id %r; known: %s"
                          % (figure_id, ", ".join(FIGURE_IDS)))
    return _report(figure_id, _REGISTRY[figure_id](catalog_code("hamming8")))
