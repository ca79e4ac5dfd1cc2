"""Test-side oracles and inputs shared by several test modules.

`make_series` is the checked, normalising series builder that the tests
and their strategies use; the package's `QSeries` constructor takes
clean data as it is.

The oracles are exhaustive and slow by design, so they live beside the
tests that use them and not in the package.  So do the fixed-subcode
shapes that pin a fixed theta series in closed form, which only the
lattice and acceptance tests ask about, and the full-window catalog
identification that `modfunc.identify` shortcuts with a prefix probe,
the hand-padded catalog builders that the eta-quotient table replaced,
the eta function as its explicit product, which the one eta kernel
`qseries.eta_power` replaced, the term-by-term convolution that judges
its packed big-int products, the sparse series product `mul` and
Miller's series power `power` that the tests compose their judges
from, which the two kernels `qseries.product_sum` and `eta_power`
replaced in the package, the pairs that fill a whole Faber square,
the codeword walks that the basis-row doubling criteria replaced,
the closed-form thetas of the small reference lattices, whose name
grammar the one half-swap builder `verify._jacobi_sum` replaced,
the dilation q -> q^m, the codeword listing, the coefficients at whole
powers and the thetas with a rational weight and shift, which only tests
ask for, the tuple-per-codeword census and the codeword images h(B) that the
bit-plane census replaced, the inverse of a permutation, which the
census stopped asking for, the census keys of a self-dual code by the
MacWilliams identity, and the argparse parser that `cli.parse_args`
replaced.
"""

import argparse
from collections import Counter
from fractions import Fraction
from itertools import permutations as _all_perms, product
from math import comb, gcd, isqrt, prod
from pathlib import Path
import re

from thetaforge.codes import BinaryCode
from thetaforge.errors import DomainError
from thetaforge.lattice import (
    _coset_parity, _orbit_blocks, _paired_blocks, _twist_parity,
)
from thetaforge.modfunc import MT_NAMES, mckay_thompson, strip_constant
from thetaforge.perms import Perm, parse_generators
from thetaforge.qseries import (
    DEN, PrecisionError, QSeries, _norm_coeff, exact_div, exact_int,
    exact_rational, rational_power, theta2, theta3, theta4,
)
from thetaforge.verify import FIGURE_IDS

HALF = Fraction(1, 2)


# ---------- the checked series builder ----------

def convolve(a, b, n):
    """The first n coefficients of the product of the coefficient lists
    a and b, summed term by term."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


def every_pair(K):
    """Every (n, k) with 1 <= n <= k <= K: the pairs that have
    `modfunc._faber_rows` fill its whole K x K square."""
    return [(n, k) for n in range(1, K + 1) for k in range(n, K + 1)]


def make_series(coeffs, trunc48):
    """The series with these coefficients below trunc48, in the form
    `QSeries` stores: exponents and the bound must be ints and values
    ints or Fractions, zeros and terms at or past trunc48 are dropped,
    and a whole Fraction becomes an int.  The package builds each series
    from data in that form already, so only tests need the checks."""
    trunc48 = exact_int(trunc48)
    clean = {}
    for e, c in coeffs.items():
        e = exact_int(e)
        if e >= trunc48:
            continue
        c = exact_rational(c, "coefficient")
        if c:
            clean[e] = c
    return QSeries(clean, trunc48)



# ---------- the series product and power the two kernels replaced ----------

def mul(a, b):
    """The product of two series by a sparse convolution over their
    sorted terms, exact below the smaller of each lead plus the other's
    window: `QSeries.__mul__` before `qseries.product_sum` and
    `qseries.eta_power` made every product the package takes."""
    t = min(a.valuation48() + b.trunc48,
            b.valuation48() + a.trunc48)
    out = {}
    a = sorted(a.coeffs.items())
    b = sorted(b.coeffs.items())
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            if e >= t:
                break
            out[e] = out.get(e, 0) + c1 * c2
    clean = {}
    for e, c in out.items():
        if c:
            clean[e] = _norm_coeff(c)
    return QSeries(clean, t)


def power(f, r):
    """Exact f**r for an int or a Fraction r by J.C.P. Miller's power
    recurrence (Knuth, TAOCP vol. 2, 4.7): `QSeries.__pow__` before
    `qseries.eta_power` took every power the package raises.

    With f = c q^v (1 + h) the result is c**r q^(r v) (1 + h)**r,
    exact below trunc48 - v + r v, the window of h shifted by r v.
    Integer powers and inverses take the same path.  Requires c**r
    to be an exact rational and r*v to stay on the exponent grid.
    Indexed by steps of the stride s of h, (1 + h)**r = sum f_n q^(n s)
    solves

        n q f_n = sum_{k>=1} ((p + q) k - q n) h_k f_{n-k},  r = p/q,

    run over the nonzero h_k alone: a sparse theta's power pays for its
    terms, not for its window.
    """
    r = exact_rational(r, "power")
    if r == 1:
        return f
    if not r:
        if f.trunc48 <= 0:
            raise PrecisionError("cannot represent 1 below truncation 0")
        return QSeries.monomial(1, 0, f.trunc48)
    if not f.coeffs:
        if r > 0:
            return QSeries.zero(int(f.trunc48 * r))
        raise ValueError("cannot raise the zero series to a nonpositive power")
    v = f.valuation48()
    rv = r * v
    if rv.denominator != 1:
        raise ValueError("power %s of leading exponent %s/48 leaves the grid"
                         % (r, v))
    shift, window, c = int(rv), f.trunc48 - v, f.coeffs[v]
    h = {e - v: x if c == 1 else exact_div(x, c)
         for e, x in f.coeffs.items() if v < e < v + window}
    s = gcd(*h) or max(window, 1)
    terms = max(0, -(-window // s))
    p, q = r.numerator, r.denominator
    cr = 1 if c == 1 else rational_power(c, r)
    out = [1]
    nz = [(e // s, (p + q) * (e // s), x) for e, x in sorted(h.items())]
    for n in range(1, terms):
        nq = n * q
        acc = 0
        for k, pqk, x in nz:
            if k > n:
                break
            acc += (pqk - nq) * x * out[n - k]
        out.append(exact_div(acc, nq))
    if cr != 1:
        out = [_norm_coeff(cr * x) for x in out]
    return QSeries({shift + n * s: x for n, x in enumerate(out[:terms]) if x},
                   window + shift)


# ---------- listings and readings that only tests ask for ----------

def codewords(code: BinaryCode):
    """All codewords of code, in binary counting order over the basis
    rows: word w is the XOR of the rows whose bit is set in w."""
    code.require_listable()
    words = [0]
    for b in code.basis:
        words += [w ^ b for w in words]
    return words


def integer_coefficients(f, lo, hi):
    """Coefficients of f at the whole powers q^lo, ..., q^hi inclusive."""
    return [f.coeff48(k * DEN) for k in range(lo, hi + 1)]


def shifted_theta(weight, shift, trunc48, alternating=False):
    """Sum over n of (-1)^(n if alternating) q^(weight (n + shift)^2),
    exact below trunc48, by summing every term of |n| up to a bound.

    weight is a positive rational and shift a rational in [0, 1); every
    exponent below the window must be a whole number of 48ths.
    """
    weight, shift = Fraction(weight), Fraction(shift)
    # |n + shift| < sqrt(trunc48 / (48 weight)) for every term kept
    bound = isqrt(max(0, -(-Fraction(trunc48, DEN) // weight))) + 2
    out = {}
    for n in range(-bound, bound + 1):
        e = weight * (n + shift) ** 2 * DEN
        if e >= trunc48:
            continue
        if e.denominator != 1:
            raise ValueError("theta exponent %s/48 is off the grid" % e)
        sign = -1 if alternating and n % 2 else 1
        out[int(e)] = out.get(int(e), 0) + sign
    return make_series(out, trunc48)


def brute_int_theta(num, stride, offset, trunc48, alternating=False):
    """Sum over n of (-1)^(n if alternating) q^(num (stride n + offset)^2)
    below trunc48, term by term over a range of n so wide that every
    term left out lies at or above trunc48."""
    reach = (isqrt(max(trunc48, 0)) + 1 + abs(offset)) // stride + 1
    out = {}
    for n in range(-reach, reach + 1):
        e = num * (stride * n + offset) ** 2
        if e < trunc48:
            out[e] = out.get(e, 0) + (-1 if alternating and n % 2 else 1)
    return make_series({e: c for e, c in out.items() if c}, trunc48)


def brute_force_automorphisms(is_member, n, cap_degree=8):
    """All coordinate permutations preserving a predicate on masks.

    is_member(mask) must answer membership for the structure being
    preserved (here: a code's codeword set).  Exhaustive over S_n, so
    refuse degrees past cap_degree.
    """
    if n > cap_degree:
        raise DomainError(
            "brute-force automorphism search is limited to degree %d"
            % cap_degree)
    member_masks = [m for m in range(1 << n) if is_member(m)]
    out = []
    for images in _all_perms(range(n)):
        p = Perm(images)
        if all(is_member(p.apply_mask(m)) for m in member_masks):
            out.append(p)
    return out


def brute_fixed_words(code: BinaryCode, gens):
    """Codewords fixed by every generator, found by walking all of C.

    Keeps the oracles independent of `BinaryCode.fixed_subcode`, which
    solves for the same words by elimination.
    """
    return [w for w in codewords(code)
            if all(g.apply_mask(w) == w for g in gens)]


def weight_enumerator(code: BinaryCode):
    """Counts of codewords by Hamming weight, by walking all of C."""
    return Counter(w.bit_count() for w in codewords(code))


def direct_sum(a: BinaryCode, b: BinaryCode):
    """a ⊕ b, with b on the coordinates after a's; no verb builds one,
    and the catalog holds hamming8 ⊕ hamming8 as its rows."""
    return BinaryCode(a.n + b.n, list(a.basis) + [r << a.n for r in b.basis])


def inverse(p: Perm) -> Perm:
    """The inverse permutation, read off the images; the census pairs
    blocks by their least points and no longer asks for it."""
    inv = [0] * p.n
    for i, j in enumerate(p.images):
        inv[j] = i
    return Perm(inv)


def _images(code: BinaryCode, h: Perm):
    """h(B) for every codeword B in codewords() order, from h(basis rows)."""
    images = [0]
    for hrow in map(h.apply_mask, code.basis):
        images += [hw ^ hrow for hw in images]
    return images


def walk_doubling_code(code: BinaryCode, g: Perm):
    """The codeword walk that `lattice.doubling_code_criterion` replaced.

    The first codeword B, in codewords() order, with |B ∩ hB| ≡ 2 mod 4
    for h = g^(m/2), m even.  Returns (verdict, witness or None).
    """
    if not code.is_automorphism(g):
        raise DomainError("%s is not a code automorphism" % g)
    m = g.order()
    if m % 2:
        return False, None
    h = g ** (m // 2)
    for bmask, hmask in zip(codewords(code), _images(code, h)):
        if (bmask & hmask).bit_count() % 4 == 2:
            return True, bmask
    return False, None


def walk_doubling_lattice(code: BinaryCode, g: Perm, flavor: str):
    """The coset walk that `lattice.lift_order` replaced.

    Reads the parity of <v, g^(m/2) v> off each codeword coset, and off
    its quarter-shifted partner under a super flavor, in codewords()
    order.  Returns (verdict, witness or None).
    """
    parity = _coset_parity(flavor)
    if not code.is_automorphism(g):
        raise DomainError("%s is not a code automorphism" % g)
    m = g.order()
    if m % 2:
        return False, None
    h = g ** (m // 2)
    n = code.n
    pair_mask = sum(1 << i for i in range(n) if h.images[i] != i)
    self_mask = ((1 << n) - 1) ^ pair_mask
    for bmask, hmask in zip(codewords(code), _images(code, h)):
        key = ((bmask & self_mask).bit_count(), (bmask & pair_mask).bit_count(),
               (bmask & hmask & pair_mask).bit_count())
        if _twist_parity(0, n, *key):
            return True, bmask
        # On the quarter-shifted coset every coordinate alternates and
        # the coordinate sum is pinned mod 2, so the flags contribute
        # the coset parity.
        if parity is not None and (_twist_parity(1, n, *key) + parity) % 2:
            return True, bmask
    return False, None


def tuple_census_theta(code: BinaryCode, gens, trunc48: int, j=None,
                       twist: Perm = None) -> QSeries:
    """The popcount census that `lattice._census_theta` replaced.

    It builds one key tuple per codeword in Python, keys block shifts by
    Fractions, weights the two coordinate-sum halves of a coset by
    Fraction(k, 2) and builds each block product from `shifted_theta`
    above.  The engine now counts keys one column per mask,
    keys shifts by whole quarters and keeps twice each weight as an int;
    both must give the same series.
    """
    n = code.n
    sub = code.fixed_subcode(gens)
    blocks = _orbit_blocks(gens, n)
    # being fixed is linear, so checking the basis covers every codeword
    for row in sub.basis:
        for omask, _ in blocks:
            if row & omask not in (0, omask):
                raise DomainError(
                    "codeword %#x is not a union of orbit blocks" % row)
    sizes = sorted({size for _, size in blocks})
    nblocks = [sum(1 for _, s in blocks if s == size) for size in sizes]
    masks = [sum(m for m, s in blocks if s == size) for size in sizes]
    pair_mask = 0
    if twist is not None:
        partner = _paired_blocks(blocks, twist)
        pair_mask = sum(m for i, (m, _) in enumerate(blocks) if partner[i] != i)
    masks += [((1 << n) - 1) ^ pair_mask, pair_mask]
    # walk B in codewords() order with hB beside it (h is linear; with
    # no twist pair_mask is 0); a key is |B ∩ U_s| for each size s,
    # then p_self, p_pair and p_hh
    words = images = codewords(sub)
    if twist is not None:
        images = _images(sub, twist)
    keys = Counter(tuple((w & m).bit_count() for m in masks)
                   + ((w & hw & pair_mask).bit_count(),)
                   for w, hw in zip(words, images))

    # branch β = 0 is the coset a_B/2 + Z^N (even coordinate sum on the
    # a_Omega/4 glueing); β = 1 shifts every coordinate by a quarter more
    branches = ((0, None),) if j is None else ((0, 0), (1, j))
    census = Counter()
    for key, count in keys.items():
        for beta, parity in branches:
            odd = twist is not None and _twist_parity(beta, n, *key[-3:])
            coeff = -count if odd else count
            # quarter shifts on a twisted coset make odd blocks alternate
            alt = twist is not None and beta == 1
            low = Fraction(beta, 4)
            specs = []
            for size, total, bits in zip(sizes, nblocks, key):
                a = alt and size % 2 == 1
                specs += [((size, low + HALF, a), bits // size),
                          ((size, low, a), total - bits // size)]
            signature = tuple(sorted(s for s in specs if s[1]))
            if parity is None:
                census[signature] += coeff
                continue
            # Restrict to coordinate sum == parity mod 2: the indicator is
            # (1 + (-1)^parity (-1)^sum)/2, and (-1)^sum flips the
            # alternating flag of every odd-size block.
            flipped = tuple(sorted(((size, s, a != (size % 2 == 1)), mult)
                                   for (size, s, a), mult in signature))
            census[signature] += exact_div(coeff, 2)
            census[flipped] += exact_div(coeff * (-1) ** parity, 2)
    total = QSeries.zero(trunc48)
    for signature in sorted(census):
        coeff = census[signature]
        if coeff:
            total = total + _shifted_product(signature, trunc48) * coeff
    return total.truncate48(trunc48)


def _shifted_product(signature, trunc48):
    """Product over ((weight, shift, alt), multiplicity) of shifted thetas."""
    out = QSeries.monomial(1, 0, trunc48)
    for (weight, shift, alt), mult in signature:
        out = mul(out, power(shifted_theta(weight, shift, trunc48, alt), mult))
    return out.truncate48(trunc48)


def _krawtchouk(k, j, size):
    """K_k(j) on `size` coordinates: sum over i of (-1)^i C(j,i) C(size-j,k-i)."""
    return sum((-1) ** i * comb(j, i) * comb(size - j, k - i)
               for i in range(k + 1))


def macwilliams_census_keys(code: BinaryCode, gens):
    """The keys that `lattice._census_theta` counts with no twist, from
    the MacWilliams identity, with no walk over the fixed words.

    With C self-dual and O_1..O_m the orbits of <gens>, a union of
    orbits sum y_o O_o is in C = C^⊥ when y ⊥ π(c) for every c in C,
    where π(c)_o = |c ∩ O_o| mod 2.  So the fixed words are π(C)^⊥ in
    F_2^m, and their weight enumerator split by orbit size is the
    Krawtchouk transform of π(C)'s:
    A^⊥(k) = |π(C)|⁻¹ sum_j A(j) prod_s K_{k_s}(j_s) on the N_s orbits
    of size s.  A word with k_s orbits of each size s has the key
    (s k_s for each size s, |B|, 0, 0).
    """
    n = code.n
    if 2 * code.dim != n or any((a & b).bit_count() % 2
                                for a in code.basis for b in code.basis):
        raise ValueError("the MacWilliams census needs a self-dual code")
    # orbits by relabelling each point with the least point it meets
    label = list(range(n))
    moved = True
    while moved:
        moved = False
        for g in gens:
            for i, j in enumerate(g.images):
                if label[i] != label[j]:
                    label[i] = label[j] = min(label[i], label[j])
                    moved = True
    size = Counter(label)
    points, sizes = sorted(size), sorted(set(size.values()))
    # orbit o is bit o of a word of π(C); the orbits of one size make a class
    classes = [sum(1 << o for o, p in enumerate(points) if size[p] == s)
               for s in sizes]
    span = {0}
    for row in code.basis:
        image = sum((sum(row >> i & 1 for i in range(n) if label[i] == p) % 2) << o
                    for o, p in enumerate(points))
        if image not in span:
            span |= {w ^ image for w in span}
    enumerator = Counter(tuple((w & c).bit_count() for c in classes)
                         for w in span)
    keys = Counter()
    totals = [c.bit_count() for c in classes]
    for k in product(*(range(t + 1) for t in totals)):
        count = sum(a * prod(_krawtchouk(ks, js, t)
                             for ks, js, t in zip(k, j, totals))
                    for j, a in enumerator.items())
        if count % len(span):
            raise ValueError("the transform is not a whole count")
        if count:
            weights = tuple(s * ks for s, ks in zip(sizes, k))
            keys[weights + (sum(weights), 0, 0)] = count // len(span)
    return keys



def hamming8_class_representatives():
    """One automorphism per line of the hamming8 conjugacy-class file."""
    reps = []
    path = Path(__file__).parent / "data" / "hamming8_classes.txt"
    for line in path.read_text().splitlines():
        text = line.split("#", 1)[0].strip()
        if text:
            gens = parse_generators(text, 8)
            reps.append(gens[0] if gens else Perm.identity(8))
    return reps


def _cover_search(universe, blocks, admits):
    """Exact covers of ``universe`` by pairwise disjoint ``blocks``.

    Yields each cover as a tuple of masks.  ``admits`` filters complete
    covers, so callers can impose extra conditions on the partition.
    """
    def extend(covered, chosen):
        if covered == universe:
            if admits(chosen):
                yield tuple(chosen)
            return
        low = (~covered & universe) & -(~covered & universe)
        for b in blocks:
            if b & low and not b & covered:
                chosen.append(b)
                yield from extend(covered | b, chosen)
                chosen.pop()

    yield from extend(0, [])


def a_partition_order(code: BinaryCode, g: Perm):
    """Half-weight r when the fixed subcode is a disjoint partition basis.

    Looks for the configuration that pins the fixed theta series: g of
    cycle type r^{N/r}, fixed subcode of dimension N/2r spanned by
    pairwise disjoint words of weight 2r covering every coordinate.
    When found the fixed sublattice has the theta series of A1(r)^{N/r};
    returns r, or None when the shape is absent.
    """
    cycles = g.cycles()
    sizes = {len(c) for c in cycles}
    if len(sizes) != 1:
        return None
    r = sizes.pop()
    # uniform cycle type with no fixed points: the r-cycles cover Omega
    if r * len(cycles) != code.n or code.n % (2 * r):
        return None
    fixed = BinaryCode(code.n, brute_fixed_words(code, [g]))
    if fixed.dim * 2 * r != code.n:
        return None
    # Any sum of k >= 2 disjoint basis words has weight 2kr > 2r, so the
    # basis is exactly the set of minimal-weight fixed words.
    basis = [w for w in codewords(fixed) if bin(w).count("1") == 2 * r]
    if len(basis) != fixed.dim:
        return None
    union = 0
    for b in basis:
        if union & b:
            return None
        union |= b
    if union != (1 << code.n) - 1:
        return None
    return r


def d_partition_anchor(code: BinaryCode, g: Perm):
    """Anchor word when the fixed subcode has the D-shaped basis.

    Looks for cycle type 2^{N/2} with a fixed subcode of dimension
    N/4 + 1 spanned by pairwise disjoint weight-4 words B_1..B_{N/4}
    plus an anchor B_0 of weight N/2 meeting every B_j in exactly two
    coordinates.  When found the fixed sublattice has the theta series
    of D_{N/2}*(2); returns the anchor mask, or None.
    """
    cycles = g.cycles()
    if {len(c) for c in cycles} != {2} or 2 * len(cycles) != code.n:
        return None
    fixed = BinaryCode(code.n, brute_fixed_words(code, [g]))
    if 4 * (fixed.dim - 1) != code.n:
        return None
    words = codewords(fixed)
    quads = [w for w in words if bin(w).count("1") == 4]
    halves = [w for w in words if 2 * bin(w).count("1") == code.n]
    universe = (1 << code.n) - 1

    def anchored(blocks):
        return any(
            all(bin(b & w).count("1") == 2 for b in blocks)
            for w in halves)

    for blocks in _cover_search(universe, quads, anchored):
        for w in halves:
            if all(bin(b & w).count("1") == 2 for b in blocks):
                return w
    return None


def full_window_identify(f):
    """Catalog identification that builds every candidate over f's window.

    The loop `modfunc.identify` ran before it probed a short prefix
    first; the two must return the same (name, constant_delta).
    """
    if f.trunc48 <= 8 * DEN:
        raise PrecisionError("identification needs at least 8 positive q-powers")
    if f.is_zero() or f.valuation48() != -DEN or f.lead_coeff() != 1:
        return None, None
    f0, c = strip_constant(f)
    for name in MT_NAMES:
        entry, ce = strip_constant(mckay_thompson(name, f.trunc48))
        if f0.matches(entry):
            return name, c - ce
    return None, None


# ---------- eta as its product ----------

def oracle_eta(scale, trunc48):
    """eta(q^scale) as an explicit finite product of (1 - q^(scale*n)),
    shifted by q^(scale/24), exact below trunc48."""
    prod = {0: 1}
    n = 1
    while scale * n * DEN < trunc48:
        new = {}
        for e, c in prod.items():
            new[e] = new.get(e, 0) + c
            e2 = e + scale * n * DEN
            if e2 < trunc48:
                new[e2] = new.get(e2, 0) - c
        prod = {e: c for e, c in new.items() if c}
        n += 1
    # q^(scale/24) is 2*scale in 48ths
    return make_series({e + 2 * scale: c for e, c in prod.items()}, trunc48)


def dilate(f, m):
    """f with q replaced by q^m for a positive integer m."""
    return make_series({e * m: c for e, c in f.coeffs.items()}, f.trunc48 * m)


# ---------- the closed-form reference lattices ----------

# compiled, and cached by re, on first use
_CATALOG_RE = r"(A1|A2|K|E8|D(\d+)(\*?))(?:\^(\d+))?\Z"


def catalog_theta(name: str, scale: int, trunc48: int) -> QSeries:
    """Closed-form theta series of small reference lattices.

    name is a base name with an optional power suffix: A1, A2, K, E8,
    Dn, Dn* or e.g. "A1^4".  scale rescales the quadratic form by an
    integer; the A1(2) of rank-one fixed sublattices is
    catalog_theta("A1", 2, t).  Each base is a polynomial in the Jacobi
    thetas of q**scale, built directly below trunc48: A1 = θ3, E8 =
    (θ2⁸ + θ3⁸ + θ4⁸)/2, Dn = (θ3ⁿ + θ4ⁿ)/2 and Dn* = θ3ⁿ + θ2ⁿ.  A2 and
    K are the forms x² + xy + c y² with c = 1 and 2, which read
    (x + y/2)² + d y²/4 with d = 4c - 1; split on the parity of y they
    are θ3(2s) θ3(2ds) + θ2(2s) θ2(2ds) at s = scale.
    """
    match = re.match(_CATALOG_RE, name.replace(" ", ""))
    if match is None:
        raise DomainError("unknown catalog lattice %r" % name)
    if scale < 1:
        raise DomainError("scale must be a positive integer, got %r" % scale)
    count = int(match.group(4) or 1)
    base = match.group(1)
    s, t = scale, trunc48
    if base == "A1":
        series = theta3(s, t)
    elif base in ("A2", "K"):
        d = 3 if base == "A2" else 7
        series = (mul(theta3(2 * s, t), theta3(2 * d * s, t))
                  + mul(theta2(2 * s, t), theta2(2 * d * s, t)))
    elif base == "E8":
        series = (power(theta2(s, t), 8) + power(theta3(s, t), 8)
                  + power(theta4(s, t), 8)) / 2
    else:
        rank = int(match.group(2))
        if match.group(3):
            series = power(theta3(s, t), rank) + power(theta2(s, t), rank)
        else:
            series = (power(theta3(s, t), rank)
                      + power(theta4(s, t), rank)) / 2
    if count != 1:
        series = power(series, count)
    return series


# ---------- the catalog builders that `modfunc._CATALOG` replaced ----------

_PAD = 6 * DEN


def _build_t4a(t48):
    pad = t48 + _PAD
    eta1, eta2, eta4 = (oracle_eta(k, pad) for k in (1, 2, 4))
    return power(mul(power(eta2, 2), power(mul(eta1, eta4), -1)), 24)


def _build_t8b(t48):
    return power(dilate(_build_t4a((t48 + DEN) // 2), 2), Fraction(1, 2))


def _build_t16a(t48):
    return power(dilate(_build_t4a((t48 + 3 * DEN) // 4), 4), Fraction(1, 4))


def _build_t3a(t48):
    pad = t48 + _PAD
    u = mul(power(oracle_eta(1, pad), 6), power(oracle_eta(3, pad), -6))
    return power(u + 27 * power(u, -1), 2)


def _build_t6b(t48):
    return power(dilate(_build_t3a((t48 + DEN) // 2), 2), Fraction(1, 2))


def _build_t12a(t48):
    pad = t48 + _PAD
    eta = {k: oracle_eta(k, pad) for k in (1, 2, 3, 4, 6, 12)}
    num = mul(power(eta[2], 2), power(eta[6], 2))
    den = mul(mul(mul(eta[1], eta[4]), eta[3]), eta[12])
    return power(mul(num, power(den, -1)), 6)


def _build_t7a(t48):
    pad = t48 + _PAD
    eta = {k: oracle_eta(k, pad) for k in (1, 2, 7, 14)}
    a = mul(mul(eta[1], eta[7]), power(mul(eta[2], eta[14]), -1))
    return power(a + 4 * power(a, -2), 3)


def _build_t1a(t48):
    pad = t48 + _PAD
    f = power(mul(catalog_theta("E8", 1, pad), power(oracle_eta(1, pad), -8)),
              3)
    return f - 744


CATALOG_BUILDERS = {
    "T_1A": _build_t1a,
    "T_4A": _build_t4a,
    "T_8B": _build_t8b,
    "T_16a": _build_t16a,
    "T_3A": _build_t3a,
    "T_6b": _build_t6b,
    "T_12A": _build_t12a,
    "T_7A": _build_t7a,
}

# ---------- the argparse command line, as the CLI built it before ----------

_KREP_VERBS = ("replicable", "identify", "scan")   # verbs that take --krep


def _add_output(sub):
    sub.add_argument("--out", default=None, help="write output here")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false",
                     default=False)
    fmt.add_argument("--table", dest="table", action="store_true")


def _add_inputs(sub, group_flags=True, krep=False):
    sub.add_argument("--code", default="hamming8",
                     help="catalog name or path to a generator-matrix file")
    if group_flags:
        sub.add_argument("--group", default=None,
                         help="comma-separated permutations in cycle notation")
        sub.add_argument("--group-file", default=None,
                         help="file with one permutation per line")
    sub.add_argument("--flavor", default="plain",
                     choices=("plain", "super0", "super1"))
    sub.add_argument("--trunc", type=int, default=None,
                     help="integer q-powers to keep")
    if krep:
        sub.add_argument("--krep", type=int, default=12,
                         help="replicability bound K")
    _add_output(sub)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thetaforge",
        description="theta series, theta quotients, and characters of"
                    " fixed subVOAs for binary-code lattices")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("theta", "quotient", "replicable", "identify", "doubling",
                 "character"):
        _add_inputs(subs.add_parser(name), krep=name in _KREP_VERBS)
    verify = subs.add_parser("verify")
    verify.add_argument("figure", choices=FIGURE_IDS)
    _add_output(verify)
    scan = subs.add_parser("scan")
    scan.add_argument("file", help="one generating set per line")
    _add_inputs(scan, group_flags=False, krep=True)
    return parser
