"""Recomputation of the recorded figure and example tables.

Every table row ships with the generator strings it was produced from
and the expected coefficients, and verification recomputes the row from
scratch and compares.  Expected values marked "tabulated" below are
reference rows copied from the source tables; the few marked
"recomputed" were frozen from this engine's own arithmetic after
cross-checking against the brute-force oracle, because the printed row
has a transcription problem (see ex34).  Failures are results, not
exceptions: callers get a per-row report.

The identities between characters of fixed subVOAs (Theorem C for rank
8, the pq and p^2 q group theorems, the parity properties) are checked
here too.  `verify_identity` runs one on given inputs and reports rows
of the same kind, so the thmC, thmD and ex81 figures carry its rows.
"""

from math import isqrt

from .characters import (
    _doubling_element, character_cyclic, character_group, character_plus,
    trace_series,
)
from .codes import catalog_code
from .errors import DomainError
from .lattice import (
    catalog_theta, is_even, lift_order, theta_fixed, theta_matches,
)
from .modfunc import eta_quotient, fixed_quotient, identify, is_replicable
from .perms import Perm, group_elements, parse_generators
from .qseries import DEN

class RowResult:
    """One verified table row; ok is None for informational rows."""

    def __init__(self, label, expected, got, ok):
        self.label = label
        self.expected = expected
        self.got = got
        self.ok = ok

    def to_json_obj(self):
        return {"label": self.label, "expected": self.expected,
                "got": self.got, "ok": self.ok}


class FigureReport:
    def __init__(self, figure, rows):
        self.figure = figure
        self.rows = rows

    @property
    def ok(self):
        return all(r.ok for r in self.rows if r.ok is not None)

    @property
    def status(self):
        return "pass" if self.ok else "fail"

    def to_json_obj(self):
        return {"figure": self.figure, "status": self.status,
                "rows": [r.to_json_obj() for r in self.rows]}


def _coeff_row(series, base48, count):
    return [series.coeff48(base48 + DEN * k) for k in range(count)]


def _series_row(label, series, base48, expected):
    got = _coeff_row(series, base48, len(expected))
    return RowResult(label, expected, got, got == expected)


def _gens(text, n=8):
    return parse_generators(text, n) if text else []


# Cycle type, generator, and the name of the resulting theta quotient,
# one row per conjugacy class with replicable quotient (tabulated).
_SINGLE_CLASSES = (
    ("1^8", "", "T_1A"),
    ("1^2 3^2", "(1,5,2)(3,7,8)", "T_3A"),
    ("2^4", "(1,7)(2,4)(3,8)(5,6)", "T_4A"),
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
    ("(1,7)(2,4)(3,8)(5,6)", "T_4A"),
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


def _fig_identifications(rows_spec, with_type):
    ham = catalog_code("hamming8")
    rows = []
    for entry in rows_spec:
        if with_type:
            want_type, text, name = entry
        else:
            text, name = entry
        got_type, quo = fixed_quotient(ham, _gens(text), 30 * DEN)
        if with_type and got_type != want_type:
            rows.append(RowResult(want_type + "  " + (text or "1"),
                                  want_type, got_type, False))
            continue
        label = "%s  %s" % (got_type, text or "1")
        verdict = is_replicable(quo).verdict
        identified, _ = identify(quo)
        ok = identified == name and verdict == "replicable-up-to-K_rep"
        rows.append(RowResult(label, name, identified or verdict, ok))
    return rows


def _verify_fig1():
    return _fig_identifications(_SINGLE_CLASSES, with_type=True)


def _verify_fig2():
    return _fig_identifications(_SUBGROUP_CLASSES, with_type=False)


# Characters of the rank-8 fixed subVOAs through q^6 (tabulated).  The
# higher-rank rows of the same table need code inputs that are not
# supplied, so they are not recomputed here.
_FIG5_ROWS = (
    ("2^4 rep character", [1, 64, 1052, 8704, 53382, 264448, 1133112]),
    ("2^4 nr character", [1, 136, 2076, 17472, 106630, 529184, 2265656]),
    ("fixed-kernel plus character",
     [1, 56, 1052, 8640, 53382, 264160, 1133112]),
    ("full plus character", [1, 120, 2076, 17344, 106630, 528608, 2265656]),
)


def _verify_fig5():
    ham = catalog_code("hamming8")
    rep = parse_generators("(1,7)(2,4)(3,8)(5,6)", 8)[0]
    nr = parse_generators("(1,2)(3,8)(4,7)(5,6)", 8)[0]
    t48 = 8 * DEN
    series = (
        character_cyclic(ham, rep, t48).character,
        character_cyclic(ham, nr, t48).character,
        character_plus(ham, t48, rep),
        character_plus(ham, t48),
    )
    return [_series_row(label, s, -16, expected)
            for (label, expected), s in zip(_FIG5_ROWS, series)]


# Quotients theta/eta(q^2)^{N/2} for the three ranks (tabulated).  The
# rank-16 and rank-24 rows depend only on the named sublattice, so they
# are recomputed from the catalog series.
_FIG7_ROWS = (
    ("rank 8 rep", 8, [1, 8, 28, 64, 134, 288, 568]),
    ("rank 8 nr", 8, [1, 24, 28, 192, 134, 864, 568]),
    ("rank 16 rep", 16, [1, 16, 120, 576, 2076, 6304, 17344]),
    ("rank 16 nr", 16, [1, 16, 376, 576, 6172, 6304, 52160]),
    ("rank 24 rep", 24,
     [1, 24, 276, 2048, 11202, 49152, 184024, 614400, 1881471]),
    ("rank 24 nr", 24,
     [1, 24, 276, 6144, 11202, 147456, 184024, 1843200, 1881471]),
)


def _verify_fig7():
    ham = catalog_code("hamming8")
    rep = parse_generators("(1,7)(2,4)(3,8)(5,6)", 8)[0]
    nr = parse_generators("(1,2)(3,8)(4,7)(5,6)", 8)[0]
    t48 = 8 * DEN                  # the longest row runs through q^7
    thetas = {
        "rank 8 rep": lambda t: theta_fixed(ham, [rep], t),
        "rank 8 nr": lambda t: theta_fixed(ham, [nr], t),
        "rank 16 rep": lambda t: catalog_theta("A1^8", 2, t),
        "rank 16 nr": lambda t: catalog_theta("D8*", 2, t),
        "rank 24 rep": lambda t: catalog_theta("A1^12", 2, t),
        "rank 24 nr": lambda t: catalog_theta("D12*", 2, t),
    }
    rows = []
    for label, n, expected in _FIG7_ROWS:
        quo = eta_quotient(thetas[label], {2: n // 2}, t48)
        rows.append(_series_row(label, quo, -2 * n, expected))
    return rows


def _verify_ex33():
    ham = catalog_code("hamming8")
    g = parse_generators("(2,8,4,6)(3,5)", 8)
    theta = theta_fixed(ham, g, 10 * DEN)
    return [_series_row("fixed theta of (2,8,4,6)(3,5)", theta, 0,
                        [1, 14, 30, 36, 62, 72, 68, 112, 126, 98])]


def _verify_ex34():
    ham = catalog_code("hamming8")
    gens = parse_generators("(4,6)(5,7), (4,7)(5,6), (1,3)(2,8)", 8)
    _, quo = fixed_quotient(ham, gens, 12 * DEN)
    rows = [
        _series_row("quotient through q^3", quo, -DEN,
                    [1, 18, 150, 780, 2928]),
        # tail recomputed here; the printed q^4 term does not match it
        _series_row("quotient q^4..q^6 (recomputed)", quo, 4 * DEN,
                    [8892, 24032, 60840]),
    ]
    got4 = quo.coeff48(4 * DEN)
    rows.append(RowResult("printed q^4 term differs from recomputation",
                          88926, got4, None))
    return rows


_EX53_ROWS = (
    (1, [1, 16, 64, 192, 510, 1216, 2688]),
    (0, [1, 248, 4124, 34752, 213126, 1057504, 4530744]),
    (2, [1, 0, -4, 0, 6, 0, -8, 0, 17, 0, -28]),
    (4, [1, -8, 28, -64, 134, -288, 568]),
    (6, [1, 0, -4, 0, 6, 0, -8, 0, 17, 0, -28]),
)


def _verify_ex53():
    ham = catalog_code("hamming8")
    g = parse_generators("(2,8,4,6)(3,5)", 8)[0]
    rows = []
    for j, expected in _EX53_ROWS:
        series = trace_series(ham, g, j, len(expected) * DEN)
        rows.append(_series_row("T(0,%d)" % j, series, -16, expected))
    report = character_cyclic(ham, g, 8 * DEN)
    rows.append(_series_row("character of the fixed subVOA",
                            report.character, -16,
                            [1, 38, 550, 4432, 26914, 132760, 567756]))
    return rows


_EX81_ROWS = (
    ("order 21 group", [1, 22, 242, 1762, 10460, 51078, 217266]),
    ("order 7 subgroup", [1, 38, 596, 4974, 30468, 151102, 647298]),
    ("order 3 subgroup", [1, 92, 1418, 11688, 71346, 353212, 1511748]),
)


def _verify_ex81():
    ham = catalog_code("hamming8")
    h1 = parse_generators("(1,2,5,3,7,6,4)", 8)
    h2 = parse_generators("(2,5,7)(3,4,6)", 8)
    t48 = 8 * DEN
    chars = (
        character_group(ham, h1 + h2, t48).character,
        character_group(ham, h1, t48).character,
        character_group(ham, h2, t48).character,
    )
    rows = [_series_row(label, s, -16, expected)
            for (label, expected), s in zip(_EX81_ROWS, chars)]
    full_char = trace_series(ham, Perm.identity(8), 0, t48)
    combo = chars[1] + 3 * chars[2] - full_char
    rows.append(_series_row("combination Ch7 + 3 Ch3 - ChV", combo,
                            -16, [3, 66, 726, 5286, 31380, 153234, 651798]))
    identity = verify_identity("ThmD-pq", ham, t48, group=h1 + h2)
    rows.append(RowResult("identity verdict", "pass", identity.status,
                          identity.ok))
    return rows


def _verify_thmC():
    ham = catalog_code("hamming8")
    rep = parse_generators("(1,7)(2,4)(3,8)(5,6)", 8)[0]
    nr = parse_generators("(1,2)(3,8)(4,7)(5,6)", 8)[0]
    t48 = 11 * DEN
    return (verify_identity("ThmC-1", ham, t48, g1=rep).rows
            + verify_identity("ThmC-2", ham, t48, g1=rep, g2=nr).rows
            + verify_identity("parity-props", ham, t48, g1=rep, g2=nr).rows)


def _verify_thmD():
    ham = catalog_code("hamming8")
    group = parse_generators("(1,2,5,3,7,6,4), (2,5,7)(3,4,6)", 8)
    return verify_identity("ThmD-pq", ham, 8 * DEN, group=group).rows


# ---------- identity checks ----------
#
# Each check returns its rows: first "hypotheses", which is either
# applicable or names the hypothesis that fails, then one row per
# coefficient comparison.  A failed hypothesis ends the check, so it
# is told apart from a failed comparison by its row.

def _hypotheses(reason=None):
    got = "applicable" if reason is None else "not-applicable: " + reason
    return RowResult("hypotheses", "applicable", got, reason is None)


def _compare(label, lhs, rhs, N=None, parity=None):
    """Whether lhs and rhs agree on their common window; given N, only
    on the powers q^(k - N/24) with k of the given parity."""
    bad = (lhs - rhs).coeffs
    if N is not None:
        bad = [e for e in bad
               if (e + 2 * N) % DEN == 0 and (e + 2 * N) // DEN % 2 == parity]
    got = "first mismatch at %s/48" % min(bad) if bad else "match"
    return RowResult(label, "match", got, not bad)


# the fixed theta of a half swap of each kind: catalog name at scale 2
# for half = N/2, and how a failed gate names it
_HALF_SWAP_THETAS = {"A1": ("A1^%d", "A1(2)^(N/2)"), "D*": ("D%d*", "D*(2)")}


def _half_swap_reason(code, g, kind, role, flavor, trunc48):
    """Why g is not a half swap, of cycle type 2^(N/2), whose fixed theta
    is the `kind` series; None when it is."""
    if g is None:
        return "%s class missing" % role
    half = code.n // 2
    if g.cycle_type() != {2: half}:
        return "%s class must have cycle type 2^(N/2)" % role
    name, shown = _HALF_SWAP_THETAS[kind]
    window = max(trunc48 + 2 * DEN, 12 * DEN)
    if not theta_matches(theta_fixed(code, [g], window, flavor=flavor),
                         catalog_theta(name % half, 2, window)):
        return "%s fixed theta is not the %s series" % (role, shown)
    return None


def _d_lattice_character(N, trunc48):
    """Character of the half-rank D lattice VOA in the doubled variable."""
    half = N // 2
    return eta_quotient(lambda t: catalog_theta("D%d" % half, 2, t),
                        {2: half}, trunc48)


def _check_thmC(which, code, g1, g2, trunc48, flavor):
    reason = _half_swap_reason(code, g1, "A1", "first", flavor, trunc48)
    if reason is None and lift_order(code, g1, flavor=flavor) == g1.order():
        reason = "first lift does not double, no kernel sublattice"
    if reason is None and which == "ThmC-2":
        reason = _half_swap_reason(code, g2, "D*", "second", flavor, trunc48)
    if reason is not None:
        return [_hypotheses(reason)]
    ch1 = character_cyclic(code, g1, trunc48, flavor=flavor).character
    ch_ker_plus = character_plus(code, trunc48, g1, flavor=flavor)
    ch_d = _d_lattice_character(code.n, trunc48)
    if which == "ThmC-1":
        lhs1 = trace_series(code, g1, 1, trunc48, flavor)
        rhs1 = (ch1 - ch_ker_plus + ch_d).truncate48(trunc48)
        return [_hypotheses(), _compare("rep quotient identity", lhs1, rhs1)]
    ch2 = character_cyclic(code, g2, trunc48, flavor=flavor).character
    ch_plus = character_plus(code, trunc48, flavor=flavor)
    lhs2 = trace_series(code, g2, 1, trunc48, flavor)
    rhs2 = (2 * (ch2 - ch_plus) - (ch1 - ch_ker_plus) + ch_d).truncate48(trunc48)
    return [_hypotheses(), _compare("nr quotient identity", lhs2, rhs2)]


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


def _check_thmD(code, gens, elements, trunc48, flavor):
    order = len(elements)
    # order must be p*q with q > p primes, q = 1 mod p, and nonabelian
    pq = sorted({el.order() for el in elements} - {1})
    if len(pq) != 2:
        return [_hypotheses("group of order %d is not of p*q shape" % order)]
    p, q = pq
    if (not _is_prime(p) or not _is_prime(q)
            or p * q != order or (q - 1) % p):
        return [_hypotheses("group of order %d is not of p*q shape" % order)]
    a = next(el for el in elements if el.order() == q)
    b = next(el for el in elements if el.order() == p)
    if a * b == b * a:
        return [_hypotheses("group is abelian, no semidirect structure")]
    ch_g = character_group(code, gens, trunc48, flavor=flavor).character
    ch_q = character_group(code, [a], trunc48, flavor=flavor).character
    ch_p = character_group(code, [b], trunc48, flavor=flavor).character
    ch_full = trace_series(code, Perm.identity(code.n), 0, trunc48, flavor=flavor)
    return [_hypotheses(),
            _compare("p*Ch^G = Ch^Zq + p*Ch^Zp - Ch V",
                     p * ch_g, ch_q + p * ch_p - ch_full)]


def _check_p2q(code, gens, elements, trunc48, flavor):
    order = len(elements)
    candidates = [(p, q) for p in range(2, isqrt(order) + 1)
                  if order % (p * p) == 0 and (q := order // (p * p)) > p
                  and _is_prime(p) and _is_prime(q)]
    if not candidates:
        return [_hypotheses("group order %d is not p^2*q" % order)]
    p, q = candidates[0]
    if all(x * y == y * x for x in gens for y in gens):
        return [_hypotheses("group is abelian")]
    # the averaging argument partitions the group into one p-Sylow orbit
    # and the q-Sylows, so no element may mix the two primes
    if any(el.order() not in (1, p, p * p, q) for el in elements):
        return [_hypotheses(
            "an element of mixed order breaks the Sylow partition")]
    a = next(el for el in elements if el.order() == q)
    n_q_elements = sum(1 for el in elements if el.order() == q)
    ch_g = character_group(code, gens, trunc48, flavor=flavor).character
    ch_q = character_group(code, [a], trunc48, flavor=flavor).character
    ch_full = trace_series(code, Perm.identity(code.n), 0, trunc48, flavor=flavor)
    if n_q_elements == (q - 1) * p * p:
        # normal Sylow-p subgroup: the p^2 elements of p-power order
        psyl = [el for el in elements if el.order() in (p, p * p)]
        ch_p2 = character_group(code, psyl, trunc48, flavor=flavor).character
        return [_hypotheses(),
                _compare("q*Ch^G = Ch^P + q*Ch^Zq - Ch V",
                         q * ch_g, ch_p2 + q * ch_q - ch_full)]
    if n_q_elements == q - 1:
        # normal Z_q; the complement must be cyclic for the q Sylow-p
        # subgroups to cover the rest without overlap
        sq = next((el for el in elements if el.order() == p * p), None)
        if sq is None:
            return [_hypotheses("no cyclic subgroup of order %d" % (p * p))]
        ch_p2 = character_group(code, [sq], trunc48, flavor=flavor).character
        return [_hypotheses(),
                _compare("p2*Ch^G = p2*Ch^Zp2 + Ch^Zq - Ch V",
                         p * p * ch_g, p * p * ch_p2 + ch_q - ch_full)]
    return [_hypotheses("Sylow census matches neither semidirect shape")]


def _check_parity(code, g_rep, g_nr, trunc48, flavor):
    reason = (_half_swap_reason(code, g_rep, "A1", "rep", flavor, trunc48)
              or _half_swap_reason(code, g_nr, "D*", "nr", flavor, trunc48))
    if reason is not None:
        return [_hypotheses(reason)]
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
    ch_nr = character_cyclic(code, g_nr, trunc48, flavor=flavor).character
    ch_plus = character_plus(code, trunc48, flavor=flavor)
    rows.append(_compare(
        "nr character meets the negation-fixed character on even powers",
        ch_nr, ch_plus, N, 0))
    if N % 16 == 8 and lift_order(code, g_rep, flavor=flavor) > g_rep.order():
        ch_rep = character_cyclic(code, g_rep, trunc48, flavor=flavor).character
        ch_ker = character_plus(code, trunc48, g_rep, flavor=flavor)
        rows.append(_compare(
            "rep character meets the kernel-plus character on even powers",
            ch_rep, ch_ker, N, 0))
    return rows


def _check_group(which, code, gens, trunc48, flavor):
    """Gate both group theorems on a lifted group of the same order."""
    if not gens:
        return [_hypotheses("needs a group of generators")]
    if not is_even(code, flavor):
        return [_hypotheses("the %s lattice of the code is odd" % flavor)]
    elements = group_elements(gens)
    bad = _doubling_element(code, elements, flavor)
    if bad is not None:
        return [_hypotheses("element %s has order doubling" % bad)]
    check = _check_thmD if which == "ThmD-pq" else _check_p2q
    return check(code, gens, elements, trunc48, flavor)


def verify_identity(which, code, trunc48, g1=None, g2=None, group=None,
                    flavor: str = "plain") -> FigureReport:
    """Run one of the character identities as a report of rows.

    The first row says whether the hypotheses hold; when they do not,
    it names the one that fails and no comparison follows.
    """
    if which in ("ThmC-1", "ThmC-2"):
        rows = _check_thmC(which, code, g1, g2, trunc48, flavor)
    elif which in ("ThmD-pq", "Thm-p2q"):
        rows = _check_group(which, code, group, trunc48, flavor)
    elif which == "parity-props":
        rows = _check_parity(code, g1, g2, trunc48, flavor)
    else:
        raise DomainError("unknown identity %r" % which)
    return FigureReport(which, rows)


_REGISTRY = {
    "fig1": _verify_fig1,
    "fig2": _verify_fig2,
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


def verify_figure(figure_id: str) -> FigureReport:
    """Recompute one recorded table and compare row by row."""
    if figure_id not in _REGISTRY:
        raise DomainError("unknown figure id %r; known: %s"
                          % (figure_id, ", ".join(FIGURE_IDS)))
    return FigureReport(figure_id, _REGISTRY[figure_id]())
