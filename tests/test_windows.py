"""Every entry point returns exactly the window it was asked for.

A series entry point given a window w (in 48ths) must return a series
exact below w, with trunc48 == w, or raise PrecisionError; a shorter
series would pass for an exact answer.  Windows run from one q-power
up and are drawn off the integer grid as well as on it.
"""

from hypothesis import given, settings, strategies as st

from thetaforge.characters import (
    character_cyclic, character_group, character_plus, trace_series,
)
from thetaforge.codes import catalog_code
from thetaforge.lattice import (
    kernel_theta, lift_order, theta_fixed, theta_twisted,
)
from thetaforge.modfunc import (
    MT_NAMES, eta_product, eta_quotient, mckay_thompson, orbit_degree,
    theta_quotient,
)
from thetaforge.perms import parse_generators
from thetaforge.qseries import DEN, PrecisionError
from thetaforge.verify import _theta_a1_2, _theta_d_2, _theta_dstar_2

from oracles import hamming8_class_representatives

HAM = catalog_code("hamming8")
CLASSES = hamming8_class_representatives()
EVEN_CLASSES = [g for g in CLASSES if g.order() % 2 == 0]
# groups whose lifts never double, so character_group averages them
PLAIN_GROUPS = [parse_generators(text, 8) for text in (
    "(1,2)(3,8)(4,7)(5,6), (1,3)(2,8)(4,6)(5,7)",
    "(1,5,2)(3,7,8)",
)]

windows = st.integers(min_value=DEN, max_value=5 * DEN)
half_ranks = st.integers(1, 12)
even_flavors = st.sampled_from(["plain", "super1"])
all_flavors = st.sampled_from(["plain", "super0", "super1"])
classes = st.sampled_from(CLASSES)


def _trace(draw, w):
    g, flavor = draw(classes), draw(even_flavors)
    j = draw(st.integers(0, lift_order(HAM, g, flavor=flavor) - 1))
    return trace_series(HAM, g, j, w, flavor=flavor)


def _eta_quotient(draw, w):
    g, flavor = draw(classes), draw(all_flavors)
    return eta_quotient(lambda t: theta_fixed(HAM, [g], t, flavor=flavor),
                        g.cycle_type(), w)


def _theta_quotient(draw, w):
    g = draw(classes)
    # the documented window is the theta's less 2N + 48 for degree N
    theta = theta_fixed(HAM, [g], w + 2 * orbit_degree(g.cycle_type()) + DEN,
                        flavor=draw(even_flavors))
    return theta_quotient(theta, g.cycle_type())


def _character_plus(draw, w):
    # the full lattice, or the kernel sublattice of an even-order class
    g = draw(st.none() | st.sampled_from(EVEN_CLASSES))
    return character_plus(HAM, w, g, flavor=draw(even_flavors))


ENTRY_POINTS = {
    "theta_fixed": lambda draw, w: theta_fixed(
        HAM, [draw(classes)], w, flavor=draw(all_flavors)),
    "theta_twisted": lambda draw, w: theta_twisted(
        HAM, draw(classes), draw(st.integers(0, 8)), w,
        flavor=draw(all_flavors)),
    "kernel_theta": lambda draw, w: kernel_theta(
        HAM, draw(st.sampled_from(EVEN_CLASSES)), w, flavor=draw(all_flavors)),
    "theta_a1_2": lambda draw, w: _theta_a1_2(draw(half_ranks), w),
    "theta_d_2": lambda draw, w: _theta_d_2(draw(half_ranks), w),
    "theta_dstar_2": lambda draw, w: _theta_dstar_2(draw(half_ranks), w),
    "eta_product": lambda draw, w: eta_product(
        draw(classes).cycle_type(), w),
    "eta_quotient": _eta_quotient,
    "trace_series": _trace,
    "character_cyclic": lambda draw, w: character_cyclic(
        HAM, draw(classes), w, flavor=draw(even_flavors))["character"],
    "character_group": lambda draw, w: character_group(
        HAM, draw(st.sampled_from(PLAIN_GROUPS)), w,
        flavor=draw(even_flavors))["character"],
    "character_plus": _character_plus,
    "mckay_thompson": lambda draw, w: mckay_thompson(
        draw(st.sampled_from(MT_NAMES)), w),
    "theta_quotient": _theta_quotient,
}


@given(st.sampled_from(sorted(ENTRY_POINTS)), windows, st.data())
@settings(max_examples=120, deadline=None)
def test_every_entry_point_delivers_the_window_asked_for(name, w, data):
    try:
        got = ENTRY_POINTS[name](data.draw, w)
    except PrecisionError:
        return
    assert got.trunc48 == w, (name, w)

