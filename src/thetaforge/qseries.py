"""Truncated q-series with exact rational coefficients.

Exponents live on the grid (1/48)Z and are stored as integer multiples
of 1/48.  48 is the least common denominator of every exponent that
shows up in this package: eta prefactors contribute 1/24, half-norm
theta exponents contribute 1/2, and the quarter-shifted thetas of the
super-code construction contribute 1/16.

A series knows its coefficients exactly for all exponents strictly
below ``trunc48`` (also in 48ths) and nothing beyond.  Arithmetic
propagates truncations honestly, so multiplying by a series with a
negative leading exponent shrinks the window the way it should, and
truncating never widens a window: asking for more than is known is a
PrecisionError.  Every exponent and window, in and out, is in 48ths.
Coefficients are ints or Fractions, never floats, and so are powers: a
float raises TypeError.  A whole number is always stored as an int: a
Fraction never has denominator 1.  Every coefficient division goes
through `exact_div`, which returns an int whenever the quotient is
whole, so the coefficients of integral series stay ints through
products, powers and divisions.

A Fraction is made only for a value that is not whole, by `_fraction`,
whose one caller is `exact_div`.  This module does not
import `fractions` (with it `decimal` and `numbers`) until then, so a
job whose values are all whole never loads it; until it is loaded no
Fraction can exist, and type checks look the class up in `sys.modules`.

Only this module calls ``QSeries(coeffs, trunc48)``, which checks
nothing, and `thetaforge` does not export the class: outside values
enter through `monomial`, the scalar operators and the checked
arguments of the builders.  Products are sparse convolutions.  A
series is divided only by a scalar.  Every power f**r (r an int or a
Fraction, not 0 or 1), eta product, eta quotient and theta quotient is
one call of `eta_power`, which runs Euler's divisor-sum recurrence for
(num / prod eta(q^t)^count)^power: each term is two dot products of
the earlier terms against small numbers, or one when an integral
numerator's whole power is split off and multiplied back by packed
big-int products, and no eta series is built.
With no eta factor it is J.C.P. Miller's power recurrence, summed
over the nonzero terms of num only, so a rational power f**r costs
O(T^2) for T terms, less when f is sparse; with f = c q^v (1 + ...) it
is exact below trunc48 - v + r v, and f**1 is f itself.
"""

from math import gcd, isqrt
from operator import mul
import sys

from .errors import PrecisionError

DEN = 48


def _fraction(n, d):
    """The Fraction n/d, for n/d not whole; the one place `fractions`
    is imported."""
    from fractions import Fraction
    return Fraction(n, d)


def _is_rational(x):
    """Whether x is an int or a Fraction.  No Fraction exists before
    `fractions` is loaded, so the check does not load it."""
    if isinstance(x, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _norm_coeff(c):
    if isinstance(c, int) or c.denominator != 1:
        return c
    return c.numerator


def exact_div(a, b):
    """a / b for ints or Fractions: an int when the quotient is whole,
    else a Fraction (never one with denominator 1)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return _fraction(a, b) if r else q
    return _norm_coeff(a / b)


def exact_int(n, what="exponent"):
    """An integer argument from outside (an exponent or bound in 48ths,
    a count, a rank); only an int is taken, never a truncated one."""
    if not isinstance(n, int):
        raise TypeError("%s %r is not an int" % (what, n))
    return n


def exact_rational(r, what):
    """A rational argument from outside (a power, a base or a
    coefficient), as an int when it is whole; a float is refused, not
    rounded."""
    if not _is_rational(r):
        raise TypeError("%s %r is not an int or a Fraction" % (what, r))
    return _norm_coeff(r)


def iroot(n, k):
    """Exact integer k-th root of n >= 0, or None if n is not a k-th power."""
    if n < 0:
        return None
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** k == n else None


def rational_power(c, r):
    """Exact c**r for rational c and r, or raise ValueError.

    Negative bases are only allowed for integer r.  A whole result is
    an int, and a negative power of an int is a Fraction, never a float.
    """
    c = exact_rational(c, "base")
    r = exact_rational(r, "power")
    k = r.denominator
    roots = c.numerator, c.denominator
    if k != 1:
        if c <= 0:
            raise ValueError("cannot take a fractional power of %s exactly" % c)
        roots = iroot(roots[0], k), iroot(roots[1], k)
        if None in roots:
            raise ValueError("%s has no exact %d-th root" % (c, k))
    num, den = roots if r >= 0 else roots[::-1]
    p = abs(r.numerator)
    return exact_div(num ** p, den ** p)


class QSeries:
    """A q-series known exactly below its truncation exponent.

    ``coeffs`` maps exponent (in 48ths) to a nonzero int or Fraction;
    ``trunc48`` is the exclusive bound below which the series is exact.
    The constructor takes both as they are and checks nothing: every
    exponent is an int below trunc48 and every whole value an int.
    Instances are immutable by convention: no method mutates self.
    """

    __slots__ = ("coeffs", "trunc48")

    def __init__(self, coeffs, trunc48):
        self.coeffs = coeffs
        self.trunc48 = trunc48

    # ---------- constructors ----------

    @classmethod
    def zero(cls, trunc48):
        return cls({}, exact_int(trunc48))

    @classmethod
    def monomial(cls, coeff, exp48, trunc48):
        coeff = exact_rational(coeff, "coefficient")
        exp48, trunc48 = exact_int(exp48), exact_int(trunc48)
        if not coeff or exp48 >= trunc48:
            return cls.zero(trunc48)
        return cls({exp48: coeff}, trunc48)

    # ---------- inspection ----------

    def is_zero(self):
        return not self.coeffs

    def valuation48(self):
        """Smallest known exponent, or trunc48 for the zero series."""
        return min(self.coeffs) if self.coeffs else self.trunc48

    def lead_coeff(self):
        if not self.coeffs:
            raise ValueError("zero series has no leading coefficient")
        return self.coeffs[self.valuation48()]

    def coeff48(self, e48):
        if exact_int(e48) >= self.trunc48:
            raise PrecisionError(
                "coefficient at %s/48 is beyond the truncation %s/48"
                % (e48, self.trunc48))
        return self.coeffs.get(e48, 0)

    def exponents48(self):
        return sorted(self.coeffs)

    def is_integral(self):
        """True when all exponents are integers and coefficients are integers."""
        return all(e % DEN == 0 and isinstance(c, int)
                   for e, c in self.coeffs.items())

    def matches(self, other):
        """Coefficientwise equality below the smaller truncation."""
        t = min(self.trunc48, other.trunc48)
        for a, b in ((self.coeffs, other.coeffs), (other.coeffs, self.coeffs)):
            for e, c in a.items():
                if e < t and c != b.get(e, 0):
                    return False
        return True

    # ---------- arithmetic ----------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.trunc48 == other.trunc48 and self.coeffs == other.coeffs

    __hash__ = None

    def __neg__(self):
        return QSeries({e: -c for e, c in self.coeffs.items()}, self.trunc48)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            if not _is_rational(other):
                return NotImplemented
            other = QSeries.monomial(other, 0, self.trunc48)
        t = min(self.trunc48, other.trunc48)
        out = {e: c for e, c in self.coeffs.items() if e < t}
        for e, c in other.coeffs.items():
            if e < t:
                s = out.get(e, 0) + c
                if s:
                    out[e] = _norm_coeff(s)
                else:
                    out.pop(e, None)
        return QSeries(out, t)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        if not (isinstance(other, QSeries) or _is_rational(other)):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            if not _is_rational(other):
                return NotImplemented
            if not other:
                return QSeries.zero(self.trunc48)
            return QSeries(
                {e: _norm_coeff(c * other) for e, c in self.coeffs.items()},
                self.trunc48)
        t = min(self.valuation48() + other.trunc48,
                other.valuation48() + self.trunc48)
        out = {}
        a = sorted(self.coeffs.items())
        b = sorted(other.coeffs.items())
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

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        """self / other for a nonzero int or Fraction; a series divides
        no series (see `eta_power`)."""
        if not _is_rational(other):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("series divided by zero")
        return QSeries(
            {e: exact_div(c, other) for e, c in self.coeffs.items()},
            self.trunc48)

    def __pow__(self, r):
        """Exact f**r for an int or a Fraction r: `eta_power` with no eta
        factor.

        With f = c q^v (1 + h) the result is c**r q^(r v) (1 + h)**r,
        exact below trunc48 - v + r v, the window of h shifted by r v.
        Integer powers and inverses take the same path.  Requires c**r
        to be an exact rational and r*v to stay on the exponent grid.
        """
        r = exact_rational(r, "power")
        if r == 1:
            return self
        if not r:
            if self.trunc48 <= 0:
                raise PrecisionError("cannot represent 1 below truncation 0")
            return QSeries.monomial(1, 0, self.trunc48)
        if not self.coeffs:
            if r > 0:
                return QSeries.zero(int(self.trunc48 * r))
            raise ValueError("cannot raise the zero series to a nonpositive power")
        v = self.valuation48()
        rv = r * v
        if rv.denominator != 1:
            raise ValueError("power %s of leading exponent %s/48 leaves the grid"
                             % (r, v))
        return eta_power(self, (), r, self.trunc48 - v + int(rv))

    def truncate48(self, t48):
        """Drop all terms at exponent >= t48 (48ths); never widens the window."""
        t48 = exact_int(t48)
        if t48 > self.trunc48:
            raise PrecisionError(
                "cannot truncate at %s/48: the series is exact only below %s/48"
                % (t48, self.trunc48))
        return QSeries({e: c for e, c in self.coeffs.items() if e < t48}, t48)

    # ---------- serialization ----------

    def to_json_obj(self):
        pairs = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            pairs.append([e, c if isinstance(c, int)
                          else "%d/%d" % (c.numerator, c.denominator)])
        return {"lead_num48": self.valuation48(),
                "trunc_num48": self.trunc48,
                "coeffs": pairs}

    def __repr__(self):
        return "QSeries(%d terms, trunc %s/48)" % (len(self.coeffs), self.trunc48)


# ---------- the basic series ----------

def _packed_product(a, b, n):
    """The first n coefficients of the product of the int lists a and b,
    from one big-int product (Kronecker substitution: von zur Gathen and
    Gerhard, Modern Computer Algebra, 8.4; Harvey 2009).

    A list x becomes the int sum x_k X^k with X = 2^W.  No coefficient
    of the product exceeds max|a| max|b| min(len) in size, so W is its
    bit length plus a sign bit, rounded up to whole bytes, which
    `to_bytes` packs and splits.  Every slot is read with a bias of
    2^(W-1), which puts a signed coefficient in [0, X).
    """
    a, b = a[:n], b[:n]
    bound = (max(1, *map(abs, a)) * max(1, *map(abs, b))
             * min(len(a), len(b)))
    w = bound.bit_length() // 8 + 1   # bytes in a slot
    bias = 1 << (8 * w - 1)
    pad = bias.to_bytes(w, "little")

    def pack(x):
        return (int.from_bytes(b"".join((c + bias).to_bytes(w, "little")
                                        for c in x), "little")
                - int.from_bytes(pad * len(x), "little"))

    raw = ((pack(a) * pack(b) + int.from_bytes(pad * n, "little"))
           & ((1 << (8 * w * n)) - 1)).to_bytes(w * n, "little")
    return [int.from_bytes(raw[i:i + w], "little") - bias
            for i in range(0, w * n, w)]


def eta_power(num, counts, power, trunc48):
    """(num / prod eta(q^t)^count)^power, exact below trunc48.

    num is an int, a Fraction or a series, the (t, count) pairs have
    t >= 1 and counts of either sign, and power is an int or a Fraction.
    With num = c q^v h, h_0 = 1, and E = prod (1 - q^(tn))^count, the
    result is c**power q^((v - 2N) power) f for N = sum t count, and
    f = (h/E)^(p/q).  By Euler, S = -D log E = sum sigma(m) q^m with
    D = q d/dq and sigma(m) = sum of d count over t | d | m.  Indexed
    by steps of the common exponent stride, with D counting steps, one
    of three paths runs:

    - No eta factor (E = 1, S = 0): J.C.P. Miller's power recurrence
      (Knuth, TAOCP vol. 2, 4.7)

          n q f_n = sum_{k>=1} ((p + q) k - q n) h_k f_{n-k},

      run over the nonzero h_k alone: a sparse theta's power pays for
      its terms, not for its window.
    - Eta factors, h all ints and p/q a whole number p >= 1 (an
      `eta_product` or `eta_quotient`, a rank 8 or 24 quotient):
      f = h^p E^-p.  E^-p comes from n f_n = sum_{k>=1} p S_k f_{n-k},
      one dot product per term, and h^p and the product with it from
      `_packed_product`, p big-int products in all (none for h = 1).
    - Otherwise (a Fraction power such as rank 16's 3/2, or an h with
      a Fraction): f solves h Df = (p/q) f (Dh + h S), that is

          n q f_n = sum_{k>=1} (p U_k - q (n-k) h_k) f_{n-k},  U = Dh + h S,

      two dot products of earlier terms against small numbers per term.
      h^(p/q) has no product form, and packing takes only ints.

    A series num must be exact below trunc48 - (v - 2N) power + v.
    """
    power, trunc48 = exact_rational(power, "power"), exact_int(trunc48)
    eta, degree = [], 0   # the factors of E, and N
    for t, r in counts:
        t, r = exact_int(t, "eta length"), exact_int(r, "eta count")
        if t < 1:
            raise ValueError("eta lengths must be positive integers")
        if r:
            eta.append((t, r))
            degree += t * r
    series = isinstance(num, QSeries)
    if series and not num.coeffs:
        raise PrecisionError("the numerator is 0 below %d/48, so its lead"
                             " is unknown" % num.trunc48)
    v = num.valuation48() if series else 0
    c = num.coeffs[v] if series else exact_rational(num, "numerator")
    shift = (v - 2 * degree) * power
    if shift.denominator != 1:
        raise ValueError("power %s takes the lead %s/48 off the grid"
                         % (power, shift / power))
    shift = int(shift)
    window = trunc48 - shift
    if series and num.trunc48 - v < window:
        raise PrecisionError(
            "the eta quotient below %d/48 needs a numerator exact below"
            " %d/48, not %d/48" % (trunc48, window + v, num.trunc48))
    h = {e - v: x if c == 1 else exact_div(x, c)
         for e, x in num.coeffs.items() if v < e < v + window} if series else {}
    s = gcd(*h, *[DEN * t for t, _ in eta]) or max(window, 1)
    terms = max(0, -(-window // s))
    p, q = power.numerator, power.denominator
    cr = 1 if c == 1 else rational_power(c, power)
    f = [1]
    if eta:
        sig = [0] * terms      # S on the stride, in steps a = 48d/s
        for t, r in eta:
            for a in range(DEN * t // s, terms, DEN * t // s):
                for k in range(a, terms, a):
                    sig[k] += r * a
        hs = [0] * terms
        for e, x in h.items():
            hs[e // s] = x
        # (1 + h)^p E^-p for whole p and h, else the recurrence with U
        split = q == 1 and p > 0 and all(type(x) is int for x in hs)
        if h and not split:   # U = Dh + h S
            sig = [k * hk + sk + sum(map(mul, hs[1:k], sig[k - 1:0:-1]))
                   for k, (hk, sk) in enumerate(zip(hs, sig))]
        u = [p * x for x in sig]
        if split or not h:   # E^-p: n q f_n = sum_k p S_k f_{n-k}
            for n in range(1, terms):
                f.append(exact_div(sum(map(mul, u[n:0:-1], f)), n * q))
            if h:
                hs[0] = 1
                hp = hs
                for _ in range(p - 1):
                    hp = _packed_product(hp, hs, terms)
                f = _packed_product(f, hp, terms)
        else:
            hq, nf = [q * x for x in hs], [0]   # nf[n] = n f_n
            for n in range(1, terms):
                acc = (sum(map(mul, u[n:0:-1], f))
                       - sum(map(mul, hq[n:0:-1], nf)))
                f.append(exact_div(acc, n * q))
                nf.append(n * f[n])
    else:   # E = 1, U = Dh: Miller's recurrence over the nonzero h_k
        nz = [(e // s, (p + q) * (e // s), x) for e, x in sorted(h.items())]
        for n in range(1, terms):
            nq = n * q
            acc = 0
            for k, pqk, x in nz:
                if k > n:
                    break
                acc += (pqk - nq) * x * f[n - k]
            f.append(exact_div(acc, nq))
    if cr != 1:
        f = [_norm_coeff(cr * x) for x in f]
    return QSeries({shift + n * s: x for n, x in enumerate(f[:terms]) if x},
                   trunc48)


def int_theta(num, stride, offset, trunc48, alternating=False):
    """Sum over n of (-1)^(n if alternating) q^(num (stride n + offset)^2),
    the exponents in 48ths: the integer core of every theta series.

    num and stride are positive ints and offset is any int.  The terms
    below trunc48 are those with |stride n + offset| <= bound, where
    bound = isqrt((trunc48 - 1) // num); there are none when trunc48 <= 0.
    """
    for x in (num, stride, offset):
        exact_int(x, "theta parameter")
    trunc48 = exact_int(trunc48)
    if num < 1 or stride < 1:
        raise ValueError("theta parameters must be positive")
    bound = isqrt((trunc48 - 1) // num) if trunc48 > 0 else -1
    coeffs = {}
    for n in range(-((bound + offset) // stride),
                   (bound - offset) // stride + 1):
        e = num * (stride * n + offset) ** 2
        c = coeffs.get(e, 0) + (-1 if alternating and n % 2 else 1)
        if c:
            coeffs[e] = c
        else:
            del coeffs[e]
    return QSeries(coeffs, trunc48)


def theta2(t, trunc48):
    """Jacobi theta_2 of q**t: sum q^(t(n+1/2)^2/2), 6t (2n+1)^2 in 48ths."""
    return int_theta(6 * t, 2, 1, trunc48)


def theta3(t, trunc48):
    """Jacobi theta_3 of q**t: sum q^(t n^2/2), 24t n^2 in 48ths."""
    return int_theta(24 * t, 1, 0, trunc48)


def theta4(t, trunc48):
    """Jacobi theta_4 of q**t: sum (-1)^n q^(t n^2/2)."""
    return int_theta(24 * t, 1, 0, trunc48, alternating=True)
