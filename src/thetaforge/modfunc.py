"""Eta products, theta quotients, and Faber-polynomial replicability.

Dividing a fixed-sublattice theta series by the eta product of the
orbit type and raising the result to 24/N gives a q-expansion with a
simple pole at infinity.  This module builds those eta products and
quotients, tests replicability of such a series on the K x K square of
its Faber coefficients, and matches candidates against a small catalog
of T_nX series of monstrous moonshine.  The catalog is a table of eta
quotients: each series is a constant plus a sum of them, each term a
coefficient and one tuple of (length, count) pairs, the denominator's
counts negated, that is evaluated as one `eta_product`; T_1A = j - 744
too, through the Γ0(2) Hauptmodul eta(τ)^24 / eta(2τ)^24.  A candidate is
compared first on the 8 positive powers identification needs, and only
a catalog series that agrees there is built over the full window.

`eta_product`, `eta_quotient` and `theta_quotient` each end in one call
of `qseries.eta_power`, the one eta kernel.  Every theta/eta division in
the package goes through `eta_quotient` or `theta_quotient`: a result
exact below t needs the numerator through t + 2N for an eta product of
degree N.  `fixed_quotient` is the one path
from a code, a group and a flavor to the labelled quotient
(theta/eta_g)^(24/N), and the rank N is read off the degree of the
orbit type.  Orbit types, eta exponents and the catalog terms are the
(length, count) pairs of `perms`.
"""

from functools import cache
from math import gcd
from operator import mul

from . import perms
from .errors import DomainError, ThetaforgeError
from .lattice import require_even, theta_fixed
from .qseries import DEN, PrecisionError, eta_power, exact_div, exact_int


def orbit_degree(orbit_type):
    """Number of points moved or fixed: sum of length * count."""
    return sum(t * r for t, r in orbit_type)


def eta_product(pairs, trunc48):
    """Product of eta(q^t)^count over the (length, count) pairs, counts
    of either sign, exact below trunc48; each catalog row is kept by
    `mckay_thompson`'s cache, so this one keeps nothing."""
    return eta_power(1, tuple((t, -r) for t, r in pairs), 1, trunc48)


def eta_quotient(numerator, orbit_type, trunc48):
    """numerator / eta_product(orbit_type), exact below trunc48, for
    an orbit type given as sorted (length, count) pairs.

    numerator(window) returns a series of valuation >= 0 exact below
    window; a precomputed series passes its own truncate48.  An eta
    product of degree N starts at q^(N/24), 2N in 48ths, so the
    numerator is needed through trunc48 + 2N.  A shorter numerator
    raises PrecisionError.
    """
    return eta_power(numerator(trunc48 + 2 * orbit_degree(orbit_type)),
                     orbit_type, 1, trunc48)


def theta_quotient(theta, orbit_type):
    """(theta / eta_product)^(24/N) for an orbit type of degree N,
    given as sorted (length, count) pairs.

    N is the rank of the lattice and must be a positive multiple of 8.
    The result starts at q^-1 and is exact below theta.trunc48 - 2N - 48,
    the window that theta gives it.  A theta exact only below 4N, which
    leaves theta / eta_product no window, raises PrecisionError, before
    a rank off the multiples of 8 is refused.
    """
    if theta.is_zero() or theta.valuation48() != 0 or theta.lead_coeff() != 1:
        raise DomainError("theta series must start with constant term 1")
    N = orbit_degree(orbit_type)
    if theta.trunc48 <= 4 * N:
        raise PrecisionError(
            "theta exact below %d/48 leaves no window for the quotient by"
            " an eta product of degree %d" % (theta.trunc48, N))
    if N % 8:
        raise DomainError("rank must be a positive multiple of 8, got %d" % N)
    # 24/N is 3 or 1 at ranks 8 and 24, and a Fraction only at rank 16
    return eta_power(theta, orbit_type, exact_div(24, N),
                     theta.trunc48 - 2 * N - DEN)


def fixed_quotient(code, gens, trunc48, flavor="plain"):
    """The quotient of the <gens>-fixed sublattice of the flavor's
    lattice, labelled by its orbit type.

    Returns (label, quotient): the orbit type written as "1^2 3^2" and
    theta_quotient of the fixed theta series exact below trunc48.  The
    flavor's lattice must be even.
    """
    require_even(code, flavor)
    # theta_fixed refuses a generator of the wrong degree before the
    # orbits are walked
    theta = theta_fixed(code, gens, trunc48, flavor=flavor)
    otype = perms.orbit_type(gens, code.n)
    return perms.type_str(otype), theta_quotient(theta, otype)


# ---------- Faber polynomials and replicability ----------

def strip_constant(f):
    """Split f into (f - constant term, constant term), the constant an
    int or a Fraction as f stores it (0 when f has none)."""
    c = f.coeffs.get(0, 0)
    return (f - c if c else f), c


def _check_hauptmodul_shape(f):
    if f.is_zero() or f.valuation48() != -DEN or f.lead_coeff() != 1:
        raise DomainError("need a series of the form q^-1 + O(q)")
    for e in f.exponents48():
        if e % DEN:
            raise DomainError("series has exponent %s/48 off the integer grid" % e)


def _faber_rows(f, K_rep, pairs):
    """Faber rows of f on the K x K square: rows[k][j] = G_{j,k}, the
    coefficient of q^j in F_k, for 1 <= j, k <= K_rep (index 0 unused),
    filled where the (j, k) of pairs and the row-1 check need them.

    f must be q^-1 + sum_{t>=1} a_t q^t, its constant removed, exact
    through q^(2*K_rep); G is all ints when f is.  F_{k+1} = f*F_k -
    sum_{n<k} a_{k-n} F_n - (k+1) a_k gives the relation (j, k):
    G_{j,k+1} = a_{j+k} + G_{j+1,k} + S(j, k), where S(j, k) =
    sum_{i<j} G_{i,k} a_{j-i} - sum_{n<k} a_{k-n} G_{j,n} reads only
    earlier anti-diagonals j + k.  By the symmetry j G_{j,k} = k G_{k,j},
    anti-diagonal sigma starts at its middle: G_{m,m+1} = (m+1) X and
    G_{m+1,m} = m X with X = a_{2m} + S(m, m) at sigma = 2m+1, and
    G_{m,m} = m a_{2m-1} + ((m+1) S(m, m-1) + (m-1) S(m-1, m)) / 2 at
    sigma = 2m.  Relation (j, sigma-j-1) walks out for j down to
    low(sigma), each mirror an exact division, and for sigma <= K+1
    its step onto row 1 must give G_{1,sigma-1} = (sigma-1) a_{sigma-1},
    a check.  With s = gcd{t+1 : a_t != 0}, G_{j,k} = 0 unless s | j+k:
    only those anti-diagonals are walked, and the sums step by s.

    Row 1 is G_{1,k} = k a_k.  Each anti-diagonal sigma <= K+1 is walked
    to low(sigma) = 2, for the check.  Above it, low(sigma) is planned
    from the top down as the least of min(n, k) over the (n, k) of pairs
    on sigma and of low(sigma') - sigma' + sigma + 1 over the walked
    sigma' >= sigma + 2: the walk of sigma' to j reads anti-diagonal
    sigma at index j - sigma' + sigma + 1 and above.  A sigma' = 2m
    walked to its middle G_{m,m} alone counts as walked to m - 1, since
    S(m-1, m) reads one index lower.  low(sigma) is never below
    max(2, sigma - K), and sigma is skipped when low(sigma) > sigma // 2.
    So each sigma is walked exactly as far as the pairs need, and an
    entry that no pair needs may stay 0.
    """
    K = exact_int(K_rep, "K_rep")
    if K < 1:
        raise DomainError("K_rep must be at least 1")
    _check_hauptmodul_shape(f)
    if f.coeffs.get(0, 0):
        raise DomainError("constant term must be removed before tabulation")
    if f.trunc48 <= 2 * K * DEN:
        raise PrecisionError(
            "replicability at K_rep=%d needs coefficients through q^%d" % (K, 2 * K))

    a = [f.coeff48(t * DEN) for t in range(2 * K)]
    # s = 2K+1 for f = q^-1: every G_{j,k} is 0 and none lies on that stride
    s = gcd(*(t + 1 for t, c in enumerate(a) if c)) or 2 * K + 1
    sigmas = range(-(-4 // s) * s, 2 * K + 1, s)
    need = {}   # sigma -> the least min(n, k) of the pairs on it
    for n, k in pairs:
        need[n + k] = min(n, k, need.get(n + k, n))
    low, reach, gap = {}, 0, max(s, 2)
    for sigma in reversed(sigmas):
        if sigma + gap in low:   # the nearest walked sigma' >= sigma + 2
            j = low[sigma + gap]
            # G_{m,m} alone reads as far down as a step from m - 1
            reach = max(reach, sigma + gap - j + (sigma + gap == 2 * j))
        j = min(need.get(sigma, sigma), sigma + 1 - reach)
        j = max(j, 2, sigma - K) if sigma > K + 1 else 2
        if j <= sigma // 2:
            low[sigma] = j
    rows = [[0] * (K + 1) for _ in range(K + 1)]   # rows[k][j] = G_{j,k}
    cols = [[0] * (K + 1) for _ in range(K + 1)]   # cols[j][k] = G_{j,k}

    def pair(j, k, g):   # G_{j,k} = g and its mirror G_{k,j} = j g / k
        rows[k][j] = cols[j][k] = g
        rows[j][k] = cols[k][j] = exact_div(j * g, k)

    def S(j, k):
        i0, n0 = (-k - 1) % s + 1, k % s + 1   # first i, n on the stride
        # an a slice that wraps below 0 meets an empty row or column slice
        return (sum(map(mul, rows[k][i0:j:s], a[j - i0:0:-s]))
                - sum(map(mul, cols[j][n0:k:s], a[k - n0:0:-s])))

    def step(j, k):      # G_{j,k} by relation (j, k-1)
        return a[j + k - 1] + cols[j + 1][k - 1] + S(j, k - 1)

    for k in range(1, K + 1):
        pair(1, k, k * a[k])
    for sigma in sigmas:
        if sigma not in low:
            continue
        m, odd = divmod(sigma, 2)
        if odd:
            pair(m, m + 1, (m + 1) * (a[2 * m] + S(m, m)))
        else:
            pair(m, m, m * a[2 * m - 1] + exact_div(
                (m + 1) * S(m, m - 1) + (m - 1) * S(m - 1, m), 2))
        for j in range(m - 1, low[sigma] - 1, -1):
            pair(j, sigma - j, step(j, sigma - j))
        if sigma <= K + 1 and step(1, sigma - 1) != cols[1][sigma - 1]:
            raise ThetaforgeError(
                "Faber table asymmetric at (1, %d)" % (sigma - 1))
    return rows


def is_replicable(f, K_rep=12):
    """Bounded replicability check: a[n][k] must match a[r][s] whenever
    the pairs share their gcd and lcm.  The constant term is stripped
    before tabulation, and the Faber rows are walked only as far as the
    compared pairs need.  Never a proof, only a verdict up to K_rep.

    Returns the record {"verdict", "K_rep", "violations"}, each violation
    a list [n, k, r, s] of two entries that should agree and do not.
    """
    f0, _ = strip_constant(f)
    K = exact_int(K_rep, "K_rep")
    classes = {}
    compared = []   # (n, k, r, s): a[n][k] against its class's first a[r][s]
    for n in range(1, K + 1):
        for k in range(n, K + 1):
            key = (gcd(n, k), n * k)
            if key in classes:
                compared.append((n, k, *classes[key]))
            else:
                classes[key] = (n, k)
    try:
        rows = _faber_rows(f0, K, [x for c in compared
                                   for x in (c[:2], c[2:])])
    except PrecisionError:
        return {"verdict": "insufficient-precision", "K_rep": K_rep,
                "violations": []}
    # a[n][k] = G_{k,n}/n and a[r][s] = G_{s,r}/r, compared without a
    # division
    violations = [[n, k, r, s] for n, k, r, s in compared
                  if rows[n][k] * r != rows[r][s] * n]
    verdict = "not-replicable" if violations else "replicable-up-to-K_rep"
    return {"verdict": verdict, "K_rep": K, "violations": violations}


# ---------- catalog of closed-form expansions ----------

# name -> (constant, terms): the series is constant + sum c * eta_product
# over its terms (c, pairs), the numerator's pairs then the denominator's
# with counts negated; each row's comment writes it as in Conway and
# Norton's tables, eta(kτ)^r as k^r.  T_1A = j - 744 with j = (t + 256)^3
# / t^2 for the Γ0(2) Hauptmodul t = eta(τ)^24 / eta(2τ)^24.  T_7A is
# a^3 + 12 + 48 a^-3 + 64 a^-6, a = eta(τ) eta(7τ) / (eta(2τ) eta(14τ)).
_CATALOG = {
    # 24 + 1^24/2^24 + 196608·2^24/1^24 + 16777216·2^48/1^48
    "T_1A": (24, [(1, ((1, 24), (2, -24))), (196608, ((2, 24), (1, -24))),
                  (16777216, ((2, 48), (1, -48)))]),
    "T_4A": (0, [(1, ((2, 48), (1, -24), (4, -24)))]),   # 2^48/1^24 4^24
    "T_8B": (0, [(1, ((4, 24), (2, -12), (8, -12)))]),   # 4^24/2^12 8^12
    "T_16a": (0, [(1, ((8, 12), (4, -6), (16, -6)))]),   # 8^12/4^6 16^6
    # 54 + 1^12/3^12 + 729·3^12/1^12
    "T_3A": (54, [(1, ((1, 12), (3, -12))), (729, ((3, 12), (1, -12)))]),
    # 2^6/6^6 + 27·6^6/2^6
    "T_6b": (0, [(1, ((2, 6), (6, -6))), (27, ((6, 6), (2, -6)))]),
    # 2^12 6^12/1^6 3^6 4^6 12^6
    "T_12A": (0, [(1, ((2, 12), (6, 12), (1, -6), (3, -6), (4, -6),
                       (12, -6)))]),
    # 12 + 1^3 7^3/2^3 14^3 + 48·2^3 14^3/1^3 7^3 + 64·2^6 14^6/1^6 7^6
    "T_7A": (12, [(1, ((1, 3), (7, 3), (2, -3), (14, -3))),
                  (48, ((2, 3), (14, 3), (1, -3), (7, -3))),
                  (64, ((2, 6), (14, 6), (1, -6), (7, -6)))]),
}

MT_NAMES = tuple(_CATALOG)


# QSeries instances are never mutated, so sharing them is safe
@cache
def mckay_thompson(name, trunc48):
    """Closed-form expansion of the named catalog series, q^-1 + O(1);
    built once per name and window, and shared."""
    if name not in _CATALOG:
        raise DomainError("unknown series %r; catalog has %s"
                          % (name, ", ".join(MT_NAMES)))
    constant, terms = _CATALOG[name]
    out = sum((c * eta_product(pairs, trunc48) for c, pairs in terms),
              constant)
    if (out.valuation48() != -DEN or out.lead_coeff() != 1
            or not out.is_integral()):
        raise ThetaforgeError(
            "catalog series %s is not an integral q^-1 + O(1)"
            " expansion below %d/48" % (name, trunc48))
    return out


def identify(f):
    """Match f against the catalog, ignoring constant terms.

    Needs at least 8 positive integer powers of f.  Returns a
    (name, constant_delta) pair, or (None, None) when nothing in the
    catalog matches on the full comparable window.  Each candidate is
    built through q^8 first and over the full window only if it agrees
    there; a mismatch on the prefix is a mismatch on the full window.
    """
    if f.trunc48 <= 8 * DEN:
        raise PrecisionError("identification needs at least 8 positive q-powers")
    if f.is_zero() or f.valuation48() != -DEN or f.lead_coeff() != 1:
        return None, None
    f0, c = strip_constant(f)
    probe = min(f.trunc48, 9 * DEN)
    for name in MT_NAMES:
        if not f0.matches(strip_constant(mckay_thompson(name, probe))[0]):
            continue
        entry, ce = strip_constant(mckay_thompson(name, f.trunc48))
        if f0.matches(entry):
            return name, c - ce
    return None, None
