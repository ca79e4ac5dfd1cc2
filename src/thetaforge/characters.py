"""Graded characters of fixed subVOAs over code-lattice vertex algebras.

A permutation automorphism of the code lifts to the lattice vertex
algebra; the lift has the same order as the lattice automorphism or
twice that, and `lattice.lift_order` decides which from the basis
rows of the code.  Traces of lift powers are theta-over-eta quotients,
twisted by a sign character on even powers, and averaging them gives
the character of the fixed subVOA.  The identities relating these
characters across subgroups are checked in `verify`.

`character_cyclic` and `character_group` return the record {"lift_order",
"doubling", "per_j", "character"}: the lift order (for a group, the
group order), whether the lift doubles, the trace series of each power
j of a cyclic lift (none for a group) and the character series.  `cli`
writes it out, and `verify` reads its "character".

Every trace, of a cyclic power, a group element or the full lattice,
goes through `_trace`.  `character_plus(code, trunc48, g=None,
flavor=...)` adds the -id twist to the trace of the full lattice, or
with g of even order m to the kernel sublattice of g over eta^N, read
off the traces as the mean of T(0,0) and T(0,m), and
eta(τ)^N/eta(2τ)^N as one signed `modfunc.eta_product`.  Every theta/eta
division goes through `modfunc.eta_quotient`, and callers hand it each
theta as a function of the window, never a padded series.
"""

from functools import cache
from math import gcd

from .codes import BinaryCode
from .errors import DomainError, ThetaforgeError
from .lattice import doubling_element, lift_order, require_even, theta_twisted
from .modfunc import eta_product, eta_quotient
from .perms import Perm, group_elements, orbits
from .qseries import DEN, QSeries


def trace_series(code: BinaryCode, g: Perm, j: int, trunc48: int,
                 flavor: str = "plain") -> QSeries:
    """Trace of the j-th power of the lift, as a q-series.

    theta of the g^j-fixed sublattice over the eta product of the cycle
    type of g^j, with the sign twist by <v, g^{j/2} v> on even j when
    the lift order is even.  The flavor's lattice must be even.
    """
    require_even(code, flavor)
    n = lift_order(code, g, flavor=flavor)
    if not 0 <= j < n:
        raise DomainError("power %d outside the lift order %d" % (j, n))
    return _trace(code, g, j, trunc48, flavor)


# QSeries instances are never mutated, so sharing them is safe
@cache
def _trace(code, g, j, trunc48, flavor):
    """trace_series for a j already known to lie below the lift order,
    or j = ord g for the twisted part of `character_plus`; computed once
    per code, element, power, window and flavor, so the characters that
    `verify` checks more than once are traced once."""
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
                     flavor: str = "plain") -> dict:
    """Character of the subVOA fixed by the cyclic group of the lift.

    The traces are rational series and powers of the lift that generate
    the same subgroup are Galois conjugate, so T_j = T_gcd(j,n): one
    trace is computed per divisor of the lift order n (and one for
    j = 0), and reused for every other j.
    """
    require_even(code, flavor)
    n = lift_order(code, g, flavor=flavor)
    per = {}
    for j in range(n):
        d = gcd(j, n)
        per[j] = per[d] if d < j else _trace(code, g, j, trunc48, flavor)
    ch = _character(list(per.values()), code.n)
    return {"lift_order": n, "doubling": n != g.order(), "per_j": per,
            "character": ch}


def character_group(code: BinaryCode, gens, trunc48: int,
                    flavor: str = "plain") -> dict:
    """Character of the subVOA fixed by lifting a whole subgroup.

    Only supported on an even lattice and when no element's lift
    doubles in order, so the lifted group is isomorphic to the
    permutation group; any doubling element is reported and the
    computation refused.
    """
    require_even(code, flavor)
    elements = group_elements(gens)
    bad = doubling_element(code, elements, flavor)
    if bad is not None:
        raise DomainError(
            "element %s lifts with order doubling; "
            "the fixed-group character is not a plain average" % bad)
    # An element's trace reads only its cycles as point sets (the fixed
    # subcode, the orbit blocks and the cycle type), so each partition
    # is traced once and its series reused for every element with it.
    # A repeat that is not an automorphism is refused, as its own trace
    # would refuse it.
    traces, terms = {}, []
    for el in elements:
        cycles = tuple(orbits([el], code.n))
        if cycles not in traces:
            traces[cycles] = _trace(code, el, 1, trunc48, flavor)
        else:
            code.require_automorphism(el)
        terms.append(traces[cycles])
    return {"lift_order": len(elements), "doubling": False, "per_j": {},
            "character": _character(terms, code.n)}


def character_plus(code: BinaryCode, trunc48: int, g=None,
                   flavor: str = "plain") -> QSeries:
    """Character of the subVOA fixed by lifting negation.

    Half of theta/eta^N plus the contribution of the -id twist, which
    depends only on the rank N = code.n: eta(q)^N/eta(q^2)^N.  theta is
    the flavor's lattice of the code, or with g of even order m its
    kernel sublattice (see `lattice.kernel_theta`), whose theta/eta^N is
    the mean of the traces T(0,0) and T(0,m).  The mean is checked as a
    character by `_character`, like every other.
    """
    require_even(code, flavor)
    N = code.n
    if N < 8 or N % 8:
        raise DomainError("rank must be a multiple of 8, at least 8; got %s" % N)
    if g is None:
        fixed_part = _trace(code, Perm.identity(N), 0, trunc48, flavor)
    else:
        m = g.order()
        if m % 2:
            raise DomainError(
                "kernel sublattice needs an automorphism of even order")
        # the traces that `character_cyclic` of a doubling g has cached;
        # the twisted one refuses a non-automorphism
        fixed_part = (_trace(code, g, 0, trunc48, flavor)
                      + _trace(code, g, m, trunc48, flavor)) / 2
    neg_part = eta_product(((1, N), (2, -N)), trunc48)
    return _character([fixed_part, neg_part], N)
