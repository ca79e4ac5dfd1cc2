"""Theta series of code lattices and of their fixed sublattices.

A doubly even self-dual binary code C of length N yields an even
unimodular lattice: fix pairwise orthogonal vectors a_1 .. a_N of norm
2 and glue the half-sums a_B/2 for codewords B.  For length 24 codes of
minimum weight 8 there is a second glueing that adds cosets shifted by
a_Omega/4; applied to the Golay code it produces the Leech lattice.

A code automorphism permutes the a_i, so a subgroup G acts on the
lattice.  Vectors fixed by G are constant on each G-orbit of
coordinates, and range over cosets of codewords B fixed by G, which are
unions of orbits.  On such a coset every orbit block carries a shift of
0 or 1/2 (plus 1/4 on the a_Omega/4 cosets), kept as a whole number of
quarters, so its theta series is a product of one-dimensional shifted
thetas that depends on B only through how many blocks of each size B
contains.  The fixed subcode comes from GF(2) elimination on the basis
of C, so only it, not C, has to be small enough to count word by word
(dimension 24 or less).  One census counts its codewords by a tuple of
integer popcounts, |B ∩ U_s| for the union U_s of the size-s blocks,
without listing them: each coordinate is a 2^dim-bit plane over the
words, each key column a bit-sliced sum of the planes P_i & P_k of
weighted pairs (i, k) of least points of orbit blocks, and the words of
one key are one leaf of the all-ones selector split on those sums'
digit planes.  This is the size-refined weight enumerator of the fixed
code on the orbit set; for the trivial group it is Construction A, Θ =
W_C(θ₃(2τ), θ₂(2τ)).  Shift signatures are then built once per
distinct key, not once per codeword, and the census, the sum of count
times the product of the block thetas of each signature, is one packed
big-int evaluation (`qseries.product_sum`): each block theta is packed
once, and no series is multiplied by another.

Sign-twisted sums, needed for traces of lifted automorphisms, weight v
by (-1)^{<v, hv>} for an h that pairs up the orbit blocks.  The key
then also holds p_self = |B ∩ self-paired blocks|, p_pair = |B ∩
paired blocks| and p_hh = |B ∩ hB ∩ paired blocks|, and the pairing
on a coset is constant up to even terms and alternating flags on
odd-size blocks of the quarter-shifted cosets.  In eighths, with β = 1
on the a_Omega/4 cosets and 0 otherwise, its constant part is

    e8 = 4(1+β)·p_self + β·N + 4β·p_pair + 4·p_hh,

which must be a multiple of 8; the coset sign is (-1)^(e8/8).  No
lattice vectors and no codewords are ever listed here; brute-force
enumerators live in the test suite as oracles.

Order doubling needs no census either.  With h = g^{m/2}, the parity
of <v, hv> on the coset a_B/2 + Z^N is q(B) = |B ∩ hB|/2 mod 2, and on
a doubly even code q is GF(2)-linear (the cross terms 2<v, hw> of an
integral lattice are even), so the basis rows of C decide it
(`doubling_code_criterion`).  On the quarter-shifted cosets the e8 rule
adds |B|/2 + N/8 with β = 1, and |B|/2 is even, so those cosets add
only the constant N/8 + j, which `lift_order` applies at B = 0.
"""

from collections import Counter
from functools import cache

from .codes import BinaryCode
from .errors import DomainError
from .perms import Perm, orbit_type, orbits
from .qseries import QSeries, int_theta, product_sum

FLAVORS = ("plain", "super0", "super1")

# A factor is cached by value and shared by every census of its window;
# QSeries instances are never mutated, so sharing them is safe.
@cache
def _factor(size, quarters, alternating, trunc48):
    """Theta of an orbit block of `size` coordinates shifted by quarters/4:
    sum q^(size (n + quarters/4)^2), 3 size (4n + quarters)^2 in 48ths."""
    return int_theta(3 * size, 4, quarters, trunc48, alternating)


def _orbit_blocks(gens, n):
    """Coordinate orbits of the group generated by gens, as (mask, size)."""
    blocks = []
    for orb in orbits(gens, n):
        mask = 0
        for p in orb:
            mask |= 1 << p
        blocks.append((mask, len(orb)))
    return blocks


def _paired_blocks(blocks, h):
    """Pair up orbit blocks under h; h must permute them with h² trivial."""
    index = {mask: i for i, (mask, _) in enumerate(blocks)}
    partner = []
    for mask, _ in blocks:
        hmask = h.apply_mask(mask)
        if hmask not in index:
            raise DomainError("twist %s does not preserve the orbit blocks" % h)
        partner.append(index[hmask])
    for i, p in enumerate(partner):
        if partner[p] != i:
            raise DomainError("twist %s does not pair up the orbit blocks" % h)
    return partner


def _twist_parity(beta, n, p_self, p_pair, p_hh):
    """Parity of <v, hv> on one coset, from its popcount key.

    Blockwise, a self-paired block contributes 2|O|(x+s)² and a swapped
    pair 4|O|(x+s)(x'+s').  Dropping even terms and the alternating
    flags leaves the constant e8/8 of the module docstring.
    """
    e8 = 4 * (1 + beta) * p_self + beta * n + 4 * beta * p_pair + 4 * p_hh
    if e8 % 8:
        raise DomainError("twist sign exponent must be an integer")
    return e8 // 8 % 2


def _row_patterns(k):
    """Pattern of each of k basis rows over the 2^k words in binary
    counting order over the basis rows: bit w of pattern b is bit b of
    w, so 2^b zeros then 2^b ones, repeated, built by doubling shifts."""
    patterns = []
    for b in range(k):
        half = 1 << b
        x, length = ((1 << half) - 1) << half, half << 1
        while length < 1 << k:
            x |= x << length
            length <<= 1
        patterns.append(x)
    return patterns


def _digit_planes(terms):
    """Digit planes, least significant first, of the bit-sliced sum of
    t copies of plane P over the (P, t) terms, added with ripple carries."""
    digits = []
    for plane, t in terms:
        digits += [0] * (t.bit_length() - len(digits))
        for pos in range(t.bit_length()):
            carry = plane if t >> pos & 1 else 0
            i = pos
            while carry:
                if i == len(digits):
                    digits.append(0)
                digits[i], carry = digits[i] ^ carry, digits[i] & carry
                i += 1
    return digits


def _census_keys(code: BinaryCode, columns) -> Counter:
    """Counter of the popcount keys of the codewords of code, none listed.

    A column is a list of ((i, k), t) entries; its value on a word B is
    the sum of t over the entries with i and k in B.  In binary counting
    order over the basis rows, word w is the XOR of the rows whose bit
    is set in w, so coordinate i over all words is the 2^k-bit plane
    P_i, the XOR of the patterns of the rows that contain i, and an
    entry is the plane P_i & P_k.  Each column is a bit-sliced sum of
    planes, and the words of one key are one leaf of the all-ones
    selector split on every column's digit planes.  Coordinates in the
    same rows share a plane, added once with its summed weight, and
    identical columns share one slot.  A key packs 8 bits per column:
    each census column's weights sum to at most n <= 64, so a sum fits.
    """
    code.require_listable()
    n = code.n
    vectors = [0] * n       # bit b of vectors[i]: row b contains i
    planes = [0] * n
    for b, (row, pattern) in enumerate(zip(code.basis,
                                           _row_patterns(code.dim))):
        while row:
            low = row & -row
            i = low.bit_length() - 1
            vectors[i] |= 1 << b
            planes[i] ^= pattern
            row ^= low
    plane = dict(zip(vectors, planes))
    slots, shifts, weights = {}, [], []
    for column in map(tuple, columns):
        if column not in slots:
            slots[column] = shift = 8 * len(slots)
            counts = Counter()
            for (i, k), t in column:
                counts[vectors[i], vectors[k]] += t
            digits = _digit_planes((plane[a] & plane[b], t)
                                   for (a, b), t in counts.items())
            weights += [(d, 1 << shift + bit)
                        for bit, d in enumerate(digits) if d]
        shifts.append(slots[column])
    leaves = [((1 << (1 << code.dim)) - 1, 0)]
    for digit, weight in weights:
        halves = []
        for sel, key in leaves:
            on = sel & digit
            if on:
                halves.append((on, key + weight))
            if on != sel:
                halves.append((sel ^ on, key))
        leaves = halves
    return Counter({tuple(key >> shift & 255 for shift in shifts): sel.bit_count()
                    for sel, key in leaves})


def _census_theta(code: BinaryCode, gens, trunc48: int, j=None,
                  twist: Perm = None) -> QSeries:
    """Theta series of the <gens>-fixed sublattice from a popcount census.

    j is None for the plain glueing, else the coset parity of the
    a_Omega/4 glueing.  twist, when given, weights each vector v by
    (-1)^{<v, twist(v)>}; it must pair up the orbit blocks.
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
    sizes, nblocks = zip(*orbit_type(gens, n))
    partner = _paired_blocks(blocks, twist) if twist else range(len(blocks))
    # a fixed word holds a block iff it holds its least point p; a key is
    # |B ∩ U_s| per size s, p_self, p_pair and p_hh, at p and its partner q
    least = [(m & -m).bit_length() - 1 for m, _ in blocks]
    ends = [(p, least[q], s) for p, q, (_, s) in zip(least, partner, blocks)]
    columns = [[((p, p), s) for p, _, s in ends if s == size]
               for size in sizes]
    columns += [[((p, p), s) for p, q, s in ends if p == q],
                [((p, p), s) for p, q, s in ends if p != q],
                [((p, q), s) for p, q, s in ends if p != q]]
    keys = _census_keys(sub, columns)

    # branch β = 0 is the coset a_B/2 + Z^N (even coordinate sum on the
    # a_Omega/4 glueing); β = 1 shifts every coordinate by a quarter more.
    # census holds twice each weight, so that every weight is an int
    branches = ((0, None),) if j is None else ((0, 0), (1, j))
    census = Counter()
    for key, count in keys.items():
        for beta, parity in branches:
            odd = twist is not None and _twist_parity(beta, n, *key[-3:])
            coeff = -count if odd else count
            # quarter shifts on a twisted coset make odd blocks alternate
            alt = twist is not None and beta == 1
            # shifts in quarters: β/4 off B, β/4 + 1/2 on B
            specs = []
            for size, total, bits in zip(sizes, nblocks, key):
                a = alt and size % 2 == 1
                specs += [((size, beta + 2, a), bits // size),
                          ((size, beta, a), total - bits // size)]
            signature = tuple(sorted(s for s in specs if s[1]))
            if parity is None:
                census[signature] += 2 * coeff
                continue
            # Restrict to coordinate sum == parity mod 2: the indicator is
            # (1 + (-1)^parity (-1)^sum)/2, and (-1)^sum flips the
            # alternating flag of every odd-size block.
            flipped = tuple(sorted(((size, s, a != (size % 2 == 1)), mult)
                                   for (size, s, a), mult in signature))
            census[signature] += coeff
            census[flipped] += coeff * (-1) ** parity
    return product_sum(census.items(), lambda spec: _factor(*spec, trunc48),
                       trunc48) / 2


def _coset_parity(flavor):
    """None for the plain glueing, else the a_Omega/4 coset parity."""
    if flavor not in FLAVORS:
        raise DomainError("unknown lattice flavor %r" % flavor)
    return None if flavor == "plain" else int(flavor[-1])


def is_even(code: BinaryCode, flavor: str) -> bool:
    """Whether the flavor's glueing of code gives an even lattice.

    Every glueing needs a doubly even code; the a_Omega/4 glueing with
    coset parity j also needs N ≡ 0 mod 8 and N/8 ≡ j mod 2, the norm
    of a_Omega/4 plus the coordinate-sum parity.
    """
    j = _coset_parity(flavor)
    return code.is_doubly_even() and (
        j is None or (code.n % 8 == 0 and code.n // 8 % 2 == j))


def require_even(code: BinaryCode, flavor: str) -> None:
    """Refuse an odd lattice before anything is computed on it.

    Quotients, replicability, traces and characters are defined for
    even lattices only.
    """
    if not is_even(code, flavor):
        raise DomainError("the %s lattice of the code is odd" % flavor)


def theta_fixed(code: BinaryCode, gens, trunc48: int,
                flavor: str = "plain") -> QSeries:
    """Theta series of the sublattice fixed by the subgroup <gens>.

    Exponents count half the norm, so the series of an even lattice has
    integer exponents.  gens may be empty, giving the full lattice.
    flavor picks the glueing: "plain", or "super0"/"super1" for the
    a_Omega/4 construction with coset parity j = 0 or 1; that lattice
    is even and unimodular when N/8 == j mod 2, and the Golay code with
    "super1" gives the Leech lattice.
    """
    return _census_theta(code, gens, trunc48, j=_coset_parity(flavor))


def theta_twisted(code: BinaryCode, g: Perm, j: int, trunc48: int,
                  flavor: str = "plain") -> QSeries:
    """Sign-twisted theta series of the sublattice fixed by g^j.

    Vectors are weighted by (-1)^{<v, g^{j/2} v>}.  For odd j (or odd
    order m of g) the weight is trivial and the plain fixed theta is
    returned, and so it is when 2m divides j: then g^j = 1 and the
    weight is <v, v> mod 2, trivial on an even lattice.  g must be an
    automorphism of the code.  flavor picks the glueing, as in
    theta_fixed.
    """
    parity = _coset_parity(flavor)
    code.require_automorphism(g)
    m = g.order()
    gj = g ** (j % m)
    if j % 2 or m % 2 or j % (2 * m) == 0:
        return theta_fixed(code, [gj], trunc48, flavor=flavor)
    h = g ** (j // 2 % m)
    return _census_theta(code, [gj], trunc48, j=parity, twist=h)


def kernel_theta(code: BinaryCode, g: Perm, trunc48: int,
                 flavor: str = "plain") -> QSeries:
    """Theta series of the sublattice where the doubling sign is +1.

    For g of even order m the index-2 sublattice is cut out by
    <v, g^{m/2} v> being even; its theta is the average of the plain
    and twisted series.
    """
    m = g.order()
    if m % 2:
        raise DomainError("kernel sublattice needs an automorphism of even order")
    # theta_twisted refuses a non-automorphism before any census
    twisted = theta_twisted(code, g, m, trunc48, flavor=flavor)
    full = theta_fixed(code, [], trunc48, flavor=flavor)
    return ((full + twisted) / 2).truncate48(trunc48)


def doubling_code_criterion(code: BinaryCode, g: Perm):
    """Order-doubling test on the basis rows of a doubly even code.

    The standard lift of g to the lattice vertex algebra has twice the
    order of g exactly when some codeword B has |B ∩ g^{m/2}B| ≡ 2
    mod 4 (m even).  That parity is linear in B (module docstring), so
    the witness, the first basis row with it, is also the first such
    word in binary counting order over the basis rows.  Returns
    (verdict, witness codeword mask or None).
    """
    if not code.is_doubly_even():
        raise DomainError("doubling needs a doubly even code")
    code.require_automorphism(g)
    m = g.order()
    if m % 2:
        return False, None
    h = g ** (m // 2)
    for b in code.basis:
        if (b & h.apply_mask(b)).bit_count() % 4 == 2:
            return True, b
    return False, None


def lift_order(code: BinaryCode, g: Perm, flavor: str = "plain") -> int:
    """Order of the standard lift of g: ord(g) or twice that.

    The code criterion decides; the a_Omega/4 glueing with coset parity
    j also doubles at the coset of B = 0 when N/8 + j is odd.
    """
    parity = _coset_parity(flavor)
    doubled, _ = doubling_code_criterion(code, g)
    m = g.order()
    # the e8 rule at B = 0 and β = 1 is N/8 mod 2; it refuses N ≢ 0 mod 8.
    # An even a_Omega/4 lattice has N/8 ≡ j mod 2, so it fires only on odd
    # lattices, which only `doubling` and the ThmC and parity checks reach.
    if parity is not None and m % 2 == 0:
        doubled |= (_twist_parity(1, code.n, 0, 0, 0) + parity) % 2 == 1
    return 2 * m if doubled else m


def doubling_element(code: BinaryCode, elements, flavor: str):
    """The first even-order element whose lift doubles its order, or None;
    `lift_order` decides under the flavor's glueing."""
    return next((el for el in elements if el.order() % 2 == 0
                 and lift_order(code, el, flavor=flavor) > el.order()), None)
