"""Graded characters of fixed subVOAs over code-lattice vertex algebras.

A permutation automorphism of the code lifts to the lattice vertex
algebra; the lift has the same order as the lattice automorphism or
twice that, and the doubling verdict is computable both from codewords
and from lattice vectors.  Traces of lift powers are theta-over-eta
quotients, twisted by a sign character on even powers, and averaging
them gives the character of the fixed subVOA.  The identities relating
these characters across subgroups are exposed as executable checks.

Every eta division goes through `modfunc.eta_quotient`, and callers
hand it each theta as a function of the window, never a padded series.
"""

from __future__ import annotations

from .codes import BinaryCode
from .errors import DomainError, ThetaforgeError
from .lattice import (
    catalog_theta,
    doubling_code_criterion,
    doubling_lattice_criterion,
    flavor_theta,
    kernel_theta,
    lift_order,
    theta_twisted,
)
from .modfunc import eta_product, eta_quotient
from .perms import Perm, group_elements
from .qseries import DEN, QSeries


class LiftInfo:
    """Lift data for one automorphism: order, doubling, kernel theta."""

    def __init__(self, g, lattice_order, lift_order, doubling,
                 code_doubling, witness, kernel_theta=None):
        self.g = g
        self.lattice_order = lattice_order
        self.lift_order = lift_order
        self.doubling = doubling
        self.code_doubling = code_doubling
        self.witness = witness
        self.kernel_theta = kernel_theta


class CharacterReport:
    """Assembled character plus the per-power traces that built it."""

    def __init__(self, description, c, lift_order, doubling, per_j, character):
        self.description = description
        self.c = c
        self.lift_order = lift_order
        self.doubling = doubling
        self.per_j = per_j
        self.character = character

    def to_json_obj(self):
        obj = self.character.to_json_obj()
        obj["doubling"] = self.doubling
        obj["lift_order"] = self.lift_order
        obj["per_j"] = {str(j): s.to_json_obj()
                        for j, s in sorted(self.per_j.items())}
        return obj


def _doubling_element(code: BinaryCode, elements, flavor: str):
    """The first even-order element whose lift doubles its order, or None.

    The flavor's lattice criterion decides, as in `lift_order`.
    """
    return next((el for el in elements if el.order() % 2 == 0
                 and lift_order(code, el, flavor=flavor) > el.order()), None)


def lift_info(code: BinaryCode, g: Perm, trunc48=None,
              flavor: str = "plain") -> LiftInfo:
    """Evaluate both doubling criteria; attach the kernel theta if asked.

    The codeword and lattice-vector criteria provably agree for the
    plain glueing; for the quarter-shift flavors the lattice criterion
    decides and the codeword verdict is reported alongside.
    """
    m = g.order()
    code_flag, witness = doubling_code_criterion(code, g)
    lat_flag, _ = doubling_lattice_criterion(code, g, flavor=flavor)
    if flavor == "plain" and code_flag != lat_flag:
        raise ThetaforgeError("doubling criteria disagree on %s" % g)
    kernel = None
    if lat_flag and trunc48 is not None:
        kernel = kernel_theta(code, g, trunc48, flavor=flavor)
    return LiftInfo(g, m, m * (2 if lat_flag else 1), lat_flag,
                    code_flag, witness, kernel)


def trace_series(code: BinaryCode, g: Perm, j: int, trunc48: int,
                 flavor: str = "plain") -> QSeries:
    """Trace of the j-th power of the lift, as a q-series.

    theta of the g^j-fixed sublattice over the eta product of the cycle
    type of g^j, with the sign twist by <v, g^{j/2} v> on even j when
    the lift order is even.
    """
    n = lift_order(code, g, flavor=flavor)
    if not 0 <= j < n:
        raise DomainError("power %d outside the lift order %d" % (j, n))
    return eta_quotient(lambda t: theta_twisted(code, g, j, t, flavor=flavor),
                        (g ** (j % g.order())).cycle_type(), trunc48)


def _character(terms, N):
    """Mean of the trace series, checked as the character of a rank-N VOA."""
    ch = sum(terms[1:], terms[0]) / len(terms)
    if ch.valuation48() != -2 * N:
        raise ThetaforgeError("character pole is off")
    for e, c in ch.coeffs.items():
        if (e + 2 * N) % DEN or not isinstance(c, int) or c < 0:
            raise ThetaforgeError(
                "character has a non-dimension coefficient %s at %s/48" % (c, e))
    return ch


def character_cyclic(code: BinaryCode, g: Perm, trunc48: int,
                     flavor: str = "plain") -> CharacterReport:
    """Character of the subVOA fixed by the cyclic group of the lift."""
    n = lift_order(code, g, flavor=flavor)
    per = {j: trace_series(code, g, j, trunc48, flavor=flavor)
           for j in range(n)}
    ch = _character(list(per.values()), code.n)
    return CharacterReport("<%s>" % g, code.n, n, n != g.order(), per, ch)


def character_group(code: BinaryCode, gens, trunc48: int,
                    flavor: str = "plain", cap: int = 10000) -> CharacterReport:
    """Character of the subVOA fixed by lifting a whole subgroup.

    Only supported when no element's lift doubles in order, so the
    lifted group is isomorphic to the permutation group; any doubling
    element is reported and the computation refused.
    """
    elements = group_elements(gens, cap)
    bad = _doubling_element(code, elements, flavor)
    if bad is not None:
        raise DomainError(
            "element %s lifts with order doubling; "
            "the fixed-group character is not a plain average" % bad)
    ch = _character([eta_quotient(lambda t: flavor_theta(code, [el], flavor, t),
                                  el.cycle_type(), trunc48)
                     for el in elements], code.n)
    desc = "<%s>" % ", ".join(str(p) for p in gens)
    return CharacterReport(desc, code.n, len(elements), False, {}, ch)


def character_plus(source, trunc48: int, rank=None,
                   flavor: str = "plain") -> QSeries:
    """Character of the subVOA fixed by lifting negation.

    Half of theta/eta^N plus the contribution of the -id twist, which
    depends only on the rank: eta(q)^N/eta(q^2)^N.  source is a code,
    or a lattice theta with the rank passed separately: a precomputed
    series, or a function of the window as `eta_quotient` takes it.
    """
    if isinstance(source, BinaryCode):
        N = source.n
        theta_of = lambda t: flavor_theta(source, [], flavor, t)
    else:
        if rank is None:
            raise DomainError("a bare theta series needs its lattice rank")
        N = int(rank)
        theta_of = source.truncate48 if isinstance(source, QSeries) else source
    if N < 8 or N % 8:
        raise DomainError("rank must be a multiple of 8, at least 8; got %s" % N)
    fixed_part = eta_quotient(theta_of, {1: N}, trunc48)
    neg_part = eta_quotient(lambda t: eta_product({1: N}, t), {2: N}, trunc48)
    return (fixed_part + neg_part) / 2


# ---------- identity verification ----------

class VerifyResult:
    """Outcome of one identity check: pass, fail, or not applicable."""

    def __init__(self, which, status, checks, detail=""):
        self.which = which
        self.status = status
        self.checks = checks
        self.detail = detail

    @property
    def ok(self):
        return self.status == "pass"

    def to_json_obj(self):
        return {
            "which": self.which,
            "status": self.status,
            "detail": self.detail,
            "checks": [{"label": lab, "ok": ok, "first_mismatch48": mm}
                       for lab, ok, mm in self.checks],
        }


def _not_applicable(which, reason):
    return VerifyResult(which, "not-applicable", [], reason)


def _compare(label, lhs, rhs, checks):
    mm = lhs.first_mismatch48(rhs)
    checks.append((label, mm is None, mm))


def _compare_on_parity(label, lhs, rhs, base48, stride48, parity, checks):
    """Compare coefficients at base + stride*k for k of the given parity.

    stride48 is one inner power: DEN for ordinary characters, 2*DEN for
    quotients whose numerator and denominator are both series in q^2.
    """
    t = min(lhs.trunc48, rhs.trunc48)
    bad = []
    for e in set(lhs.coeffs) | set(rhs.coeffs):
        if e >= t or (e - base48) % stride48:
            continue
        if ((e - base48) // stride48) % 2 != parity:
            continue
        if lhs.coeffs.get(e, 0) != rhs.coeffs.get(e, 0):
            bad.append(e)
    mm = min(bad) if bad else None
    checks.append((label, mm is None, mm))


def _is_half_cycle_type(g, N):
    return g.cycle_type() == {2: N // 2}


def _matches_catalog(theta, name, scale):
    ref = catalog_theta(name, scale, theta.trunc48)
    return theta.matches(ref)


def _d_lattice_character(N, trunc48):
    """Character of the half-rank D lattice VOA in the doubled variable."""
    half = N // 2
    return eta_quotient(lambda t: catalog_theta("D%d" % half, 2, t),
                        {2: half}, trunc48)


def _quotient_by_eta2(code, g, trunc48, flavor):
    return eta_quotient(lambda t: flavor_theta(code, [g], flavor, t),
                        {2: code.n // 2}, trunc48)


def _verify_thmC(which, code, g1, g2, trunc48, flavor):
    N = code.n
    win = max(trunc48 + 2 * DEN, 12 * DEN)
    if not _is_half_cycle_type(g1, N):
        return _not_applicable(which, "first class must have cycle type 2^(N/2)")
    th1 = flavor_theta(code, [g1], flavor, win)
    if not _matches_catalog(th1, "A1^%d" % (N // 2), 2):
        return _not_applicable(which, "first fixed theta is not the A1(2)^(N/2) series")
    info = lift_info(code, g1, flavor=flavor)
    if not info.doubling:
        return _not_applicable(which, "first lift does not double, no kernel sublattice")
    checks = []
    ch1 = character_cyclic(code, g1, trunc48, flavor=flavor).character
    ch_ker_plus = character_plus(
        lambda t: kernel_theta(code, g1, t, flavor=flavor), trunc48, rank=N)
    ch_d = _d_lattice_character(N, trunc48)
    lhs1 = _quotient_by_eta2(code, g1, trunc48, flavor)
    rhs1 = (ch1 - ch_ker_plus + ch_d).truncate48(trunc48)
    if which == "ThmC-1":
        _compare("rep quotient identity", lhs1, rhs1, checks)
    else:
        if g2 is None:
            return _not_applicable(which, "second class missing")
        if not _is_half_cycle_type(g2, N):
            return _not_applicable(which, "second class must have cycle type 2^(N/2)")
        th2 = flavor_theta(code, [g2], flavor, win)
        if not _matches_catalog(th2, "D%d*" % (N // 2), 2):
            return _not_applicable(
                which, "second fixed theta is not the D*(2) series")
        ch2 = character_cyclic(code, g2, trunc48, flavor=flavor).character
        ch_plus = character_plus(code, trunc48, flavor=flavor)
        lhs2 = _quotient_by_eta2(code, g2, trunc48, flavor)
        rhs2 = (2 * (ch2 - ch_plus) - (ch1 - ch_ker_plus) + ch_d).truncate48(trunc48)
        _compare("nr quotient identity", lhs2, rhs2, checks)
    status = "pass" if all(ok for _, ok, _ in checks) else "fail"
    return VerifyResult(which, status, checks)


def _split_prime_power(n):
    """n = p**k for prime p, else (None, None)."""
    for p in range(2, n + 1):
        if p * p > n and n > 1:
            return n, 1
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else (None, None)
    return None, None


def _group_survey(code, gens, flavor, cap=10000):
    elements = group_elements(gens, cap)
    bad = _doubling_element(code, elements, flavor)
    if bad is not None:
        return None, "element %s has order doubling" % bad
    return elements, None


def _verify_thmD(code, gens, trunc48, flavor):
    which = "ThmD-pq"
    elements, bad = _group_survey(code, gens, flavor)
    if bad:
        return _not_applicable(which, bad)
    order = len(elements)
    # order must be p*q with q > p primes, q = 1 mod p, and nonabelian
    pq = sorted({el.order() for el in elements} - {1})
    if len(pq) != 2:
        return _not_applicable(which, "group of order %d is not of p*q shape" % order)
    p, q = pq
    pp, pk = _split_prime_power(p)
    qp, qk = _split_prime_power(q)
    if pk != 1 or qk != 1 or p * q != order or (q - 1) % p:
        return _not_applicable(which, "group of order %d is not of p*q shape" % order)
    a = next(el for el in elements if el.order() == q)
    b = next(el for el in elements if el.order() == p)
    if a * b == b * a:
        return _not_applicable(which, "group is abelian, no semidirect structure")
    checks = []
    ch_g = character_group(code, gens, trunc48, flavor=flavor).character
    ch_q = character_group(code, [a], trunc48, flavor=flavor).character
    ch_p = character_group(code, [b], trunc48, flavor=flavor).character
    ch_full = trace_series(code, Perm.identity(code.n), 0, trunc48, flavor=flavor)
    _compare("p*Ch^G = Ch^Zq + p*Ch^Zp - Ch V",
             p * ch_g, ch_q + p * ch_p - ch_full, checks)
    status = "pass" if all(ok for _, ok, _ in checks) else "fail"
    return VerifyResult(which, status, checks)


def _verify_p2q(code, gens, trunc48, flavor):
    which = "Thm-p2q"
    elements, bad = _group_survey(code, gens, flavor)
    if bad:
        return _not_applicable(which, bad)
    order = len(elements)
    candidates = [(p, q) for p in range(2, order) for q in range(p + 1, order)
                  if p * p * q == order
                  and _split_prime_power(p) == (p, 1)
                  and _split_prime_power(q) == (q, 1)]
    if not candidates:
        return _not_applicable(which, "group order %d is not p^2*q" % order)
    p, q = candidates[0]
    if all(x * y == y * x for x in gens for y in gens):
        return _not_applicable(which, "group is abelian")
    # the averaging argument partitions the group into one p-Sylow orbit
    # and the q-Sylows, so no element may mix the two primes
    if any(el.order() not in (1, p, p * p, q) for el in elements):
        return _not_applicable(
            which, "an element of mixed order breaks the Sylow partition")
    a = next(el for el in elements if el.order() == q)
    n_q_elements = sum(1 for el in elements if el.order() == q)
    checks = []
    ch_g = character_group(code, gens, trunc48, flavor=flavor).character
    ch_q = character_group(code, [a], trunc48, flavor=flavor).character
    ch_full = trace_series(code, Perm.identity(code.n), 0, trunc48, flavor=flavor)
    if n_q_elements == (q - 1) * p * p:
        # normal Sylow-p subgroup: the p^2 elements of p-power order
        psyl = [el for el in elements if el.order() in (p, p * p)]
        ch_p2 = character_group(code, psyl, trunc48, flavor=flavor).character
        _compare("q*Ch^G = Ch^P + q*Ch^Zq - Ch V",
                 q * ch_g, ch_p2 + q * ch_q - ch_full, checks)
    elif n_q_elements == q - 1:
        # normal Z_q; the complement must be cyclic for the q Sylow-p
        # subgroups to cover the rest without overlap
        sq = next((el for el in elements if el.order() == p * p), None)
        if sq is None:
            return _not_applicable(
                which, "no cyclic subgroup of order %d" % (p * p))
        ch_p2 = character_group(code, [sq], trunc48, flavor=flavor).character
        _compare("p2*Ch^G = p2*Ch^Zp2 + Ch^Zq - Ch V",
                 p * p * ch_g, p * p * ch_p2 + ch_q - ch_full, checks)
    else:
        return _not_applicable(
            which, "Sylow census matches neither semidirect shape")
    status = "pass" if all(ok for _, ok, _ in checks) else "fail"
    return VerifyResult(which, status, checks)


def _verify_parity(code, g_rep, g_nr, trunc48, flavor):
    which = "parity-props"
    N = code.n
    win = max(trunc48 + 2 * DEN, 12 * DEN)
    if g_rep is None or g_nr is None:
        return _not_applicable(which, "needs both half-cycle classes")
    if not (_is_half_cycle_type(g_rep, N) and _is_half_cycle_type(g_nr, N)):
        return _not_applicable(which, "both classes must have cycle type 2^(N/2)")
    th_rep = flavor_theta(code, [g_rep], flavor, win)
    th_nr = flavor_theta(code, [g_nr], flavor, win)
    if not _matches_catalog(th_rep, "A1^%d" % (N // 2), 2):
        return _not_applicable(which, "rep fixed theta is not the A1(2)^(N/2) series")
    if not _matches_catalog(th_nr, "D%d*" % (N // 2), 2):
        return _not_applicable(which, "nr fixed theta is not the D*(2) series")
    base = -2 * N
    checks = []
    quo_rep = _quotient_by_eta2(code, g_rep, trunc48, flavor)
    quo_nr = _quotient_by_eta2(code, g_nr, trunc48, flavor)
    parity = 0 if N % 16 == 8 else 1
    side = "even" if parity == 0 else "odd"
    _compare_on_parity("rep and nr quotients agree on %s powers" % side,
                       quo_rep, quo_nr, base, DEN, parity, checks)
    if N % 16 == 8:
        ch_d = _d_lattice_character(N, trunc48)
        _compare_on_parity("D-lattice character meets rep quotient "
                           "on even powers",
                           ch_d, quo_rep, base, DEN, 0, checks)
        _compare_on_parity("D-lattice character meets nr quotient "
                           "on even powers",
                           ch_d, quo_nr, base, DEN, 0, checks)
    ch_nr = character_cyclic(code, g_nr, trunc48, flavor=flavor).character
    ch_plus = character_plus(code, trunc48, flavor=flavor)
    _compare_on_parity("nr character meets the negation-fixed character "
                       "on even powers", ch_nr, ch_plus, base, DEN, 0, checks)
    info = lift_info(code, g_rep, flavor=flavor)
    if N % 16 == 8 and info.doubling:
        ch_rep = character_cyclic(code, g_rep, trunc48, flavor=flavor).character
        ch_ker = character_plus(
            lambda t: kernel_theta(code, g_rep, t, flavor=flavor), trunc48,
            rank=N)
        _compare_on_parity("rep character meets the kernel-plus character "
                           "on even powers", ch_rep, ch_ker, base, DEN, 0, checks)
    status = "pass" if all(ok for _, ok, _ in checks) else "fail"
    return VerifyResult(which, status, checks)


def verify_identity(which, code, trunc48, g1=None, g2=None, group=None,
                    flavor: str = "plain"):
    """Run one of the character identities as an executable check.

    Returns a VerifyResult whose status separates a failed hypothesis
    ("not-applicable") from a failed coefficient comparison ("fail").
    """
    if which in ("ThmC-1", "ThmC-2"):
        return _verify_thmC(which, code, g1, g2, trunc48, flavor)
    if which == "ThmD-pq":
        if not group:
            return _not_applicable(which, "needs a group of generators")
        return _verify_thmD(code, group, trunc48, flavor)
    if which == "Thm-p2q":
        if not group:
            return _not_applicable(which, "needs a group of generators")
        return _verify_p2q(code, group, trunc48, flavor)
    if which == "parity-props":
        return _verify_parity(code, g1, g2, trunc48, flavor)
    raise DomainError("unknown identity %r" % which)
