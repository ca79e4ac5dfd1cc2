"""Permutations of coordinates 1..n, their orbits and small groups.

Permutations are stored as tuples of 0-based images.  The text syntax
is disjoint-cycle notation on 1-based points, e.g. "(2,8,4,6)(3,5)",
with "()" for the identity.

An orbit type, a cycle type or a set of eta exponents has one form in
the package, sorted (length, count) pairs such as ((1, 2), (2, 1), (4, 1)):
`orbit_type` and `Perm.cycle_type` produce it and `type_str` prints it
as "1^2 2^1 4^1"; nothing parses it back.
"""

import re
from collections import Counter
from math import lcm

from .errors import DomainError, ParseError, read_lines

# Largest group closure, and so the largest group whose character is
# averaged element by element.
GROUP_ELEMENT_CAP = 10000


class Perm:
    """A permutation of {0, ..., n-1}, acting on the left."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @property
    def n(self):
        return len(self.images)

    def __mul__(self, other):
        """self * other means: apply other first, then self."""
        if self.n != other.n:
            raise DomainError("permutation degree mismatch: %d vs %d"
                              % (self.n, other.n))
        return Perm(self.images[j] for j in other.images)

    def __pow__(self, k):
        if k < 0:
            k %= self.order()
        out = Perm.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            base = base * base
        return out

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def cycles(self):
        """Nontrivial cycles as tuples of 0-based points, each starting
        at its smallest point."""
        out = []
        for orbit in orbits([self], self.n):
            cyc = [orbit[0]]
            for _ in orbit[1:]:
                cyc.append(self.images[cyc[-1]])
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Cycle lengths including fixed points, as sorted (length,
        count) pairs."""
        return orbit_type([self], self.n)

    def order(self):
        return lcm(*(length for length, _ in self.cycle_type()))

    def apply_mask(self, mask):
        """Push a coordinate subset (bitmask, bit i = point i) forward."""
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << self.images[low.bit_length() - 1]
            mask ^= low
        return out

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(%s)" % ",".join(str(p + 1) for p in c) for c in cycs)

    def __repr__(self):
        return "Perm(%s)" % str(self)


_TOKEN = r"\(|\)|,|\s+|\d+"   # compiled, and cached by re, on first use


def parse_perm(text, n):
    """Parse one permutation in cycle notation on points 1..n."""
    token = re.compile(_TOKEN)
    pos = 0
    images = list(range(n))
    touched = set()
    cycle = None
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            raise ParseError("unexpected token %r in permutation %r"
                             % (text[pos], text))
        tok = m.group()
        pos = m.end()
        if tok.isspace():
            continue
        if tok == "(":
            if cycle is not None:
                raise ParseError("nested '(' in permutation %r" % text)
            cycle = []
        elif tok == ")":
            if cycle is None:
                raise ParseError("unmatched ')' in permutation %r" % text)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
            cycle = None
        elif tok == ",":
            if cycle is None:
                raise ParseError("',' outside a cycle in permutation %r" % text)
        else:
            if cycle is None:
                raise ParseError("point %s outside a cycle in permutation %r"
                                 % (tok, text))
            p = int(tok) - 1
            if not 0 <= p < n:
                raise ParseError("point %s out of range 1..%d in %r"
                                 % (tok, n, text))
            if p in touched:
                raise ParseError("point %s repeated in permutation %r"
                                 % (tok, text))
            touched.add(p)
            cycle.append(p)
    if cycle is not None:
        raise ParseError("unclosed '(' in permutation %r" % text)
    return Perm(images)


def parse_generators(text, n):
    """Parse a generating set: permutations separated by whitespace,
    commas or semicolons at paren depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if depth == 0 and ch in ",; \t\n":
            if "".join(cur).strip():
                parts.append("".join(cur).strip())
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unmatched ')' in %r" % text)
        cur.append(ch)
    if depth != 0:
        raise ParseError("unclosed '(' in %r" % text)
    if "".join(cur).strip():
        parts.append("".join(cur).strip())
    if not parts:
        raise ParseError("no permutations found in %r" % text)
    return [parse_perm(p, n) for p in parts]


def read_group_file(path, n):
    """One generating set per file: one permutation per nonempty line;
    '#' starts a comment."""
    gens = [parse_perm(text, n) for _, text in read_lines(path)]
    if not gens:
        raise ParseError("no permutations found in %s" % path)
    return gens


def orbits(gens, n):
    """Orbits of the group generated by gens on {0..n-1}, as sorted
    tuples sorted by smallest point."""
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        orbit, todo = [start], [start]
        while todo:
            i = todo.pop()
            for g in gens:
                j = g.images[i]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
                    todo.append(j)
        out.append(tuple(sorted(orbit)))
    return out


def orbit_type(gens, n):
    """Orbit sizes of the group generated by gens, as sorted (size,
    count) pairs."""
    return tuple(sorted(Counter(map(len, orbits(gens, n))).items()))


def type_str(ot):
    """Render orbit-type pairs as e.g. '1^2 2^1 4^1'."""
    return " ".join("%d^%d" % part for part in ot)


def group_elements(gens):
    """All elements of the generated group, by breadth-first closure."""
    if not gens:
        raise DomainError("empty generating set")
    n = gens[0].n
    ident = Perm.identity(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g * p
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > GROUP_ELEMENT_CAP:
                        raise DomainError("group closure exceeded %d elements"
                                          % GROUP_ELEMENT_CAP)
        frontier = nxt
    return sorted(seen, key=lambda p: p.images)
