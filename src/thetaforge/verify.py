"""Recomputation of the recorded figure and example tables.

Every table row ships with the generator strings it was produced from
and the expected coefficients, and verification recomputes the row from
scratch and compares.  Expected values marked "tabulated" below are
reference rows copied from the source tables; the few marked
"recomputed" were frozen from this engine's own arithmetic after
cross-checking against the brute-force oracle, because the printed row
has a transcription problem (see ex34).  Failures are results, not
exceptions: callers get a per-row report.
"""

from __future__ import annotations

from .characters import (
    character_cyclic, character_group, character_plus, trace_series,
    verify_identity,
)
from .codes import catalog_code
from .errors import DomainError
from .lattice import catalog_theta, kernel_theta, theta_fixed
from .modfunc import eta_quotient, identify, is_replicable, theta_quotient
from .perms import Perm, orbit_type, parse_generators, type_str
from .qseries import DEN

FIGURE_IDS = ("fig1", "fig2", "fig5", "fig7", "ex33", "ex34", "ex53",
              "ex81", "thmC", "thmD")


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


def _identified_quotient(code, gens, trunc48):
    theta = theta_fixed(code, gens, trunc48)
    quo = theta_quotient(theta, type_str(orbit_type(gens, code.n)), N=code.n)
    report = is_replicable(quo)
    report.identified_as, report.constant_delta = identify(quo)
    return report


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
        gens = _gens(text)
        report = _identified_quotient(ham, gens, 30 * DEN)
        got_type = type_str(orbit_type(gens, 8))
        if with_type and got_type != want_type:
            rows.append(RowResult(want_type + "  " + (text or "1"),
                                  want_type, got_type, False))
            continue
        label = "%s  %s" % (got_type, text or "1")
        got = report.identified_as or report.verdict
        ok = (report.identified_as == name
              and report.verdict == "replicable-up-to-K_rep")
        rows.append(RowResult(label, name, got, ok))
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
        character_plus(lambda t: kernel_theta(ham, rep, t), t48, rank=8),
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
    theta = theta_fixed(ham, gens, 12 * DEN)
    quo = theta_quotient(theta, type_str(orbit_type(gens, 8)), N=8)
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
    result = verify_identity("ThmD-pq", ham, t48, group=h1 + h2)
    rows.append(RowResult("identity verdict", "pass", result.status,
                          result.ok))
    return rows


def _identity_rows(result):
    rows = [RowResult("hypotheses", "applicable",
                      result.status if result.status == "not-applicable"
                      else "applicable", result.status != "not-applicable")]
    for label, ok, mismatch in result.checks:
        got = "match" if ok else "first mismatch at %s/48" % mismatch
        rows.append(RowResult(label, "match", got, ok))
    return rows


def _verify_thmC():
    ham = catalog_code("hamming8")
    rep = parse_generators("(1,7)(2,4)(3,8)(5,6)", 8)[0]
    nr = parse_generators("(1,2)(3,8)(4,7)(5,6)", 8)[0]
    t48 = 11 * DEN
    rows = _identity_rows(verify_identity("ThmC-1", ham, t48, g1=rep))
    rows += _identity_rows(
        verify_identity("ThmC-2", ham, t48, g1=rep, g2=nr))
    rows += _identity_rows(
        verify_identity("parity-props", ham, t48, g1=rep, g2=nr))
    return rows


def _verify_thmD():
    ham = catalog_code("hamming8")
    group = parse_generators("(1,2,5,3,7,6,4), (2,5,7)(3,4,6)", 8)
    return _identity_rows(verify_identity("ThmD-pq", ham, 8 * DEN,
                                          group=group))


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


def verify_figure(figure_id: str) -> FigureReport:
    """Recompute one recorded table and compare row by row."""
    if figure_id not in _REGISTRY:
        raise DomainError("unknown figure id %r; known: %s"
                          % (figure_id, ", ".join(FIGURE_IDS)))
    return FigureReport(figure_id, _REGISTRY[figure_id]())
