"""Binary linear codes on up to 64 coordinates.

Codewords are bitmasks (bit i = coordinate i+1), addition is XOR, and a
code is held as a row-reduced basis.  The built-in catalog is one table
of generator rows by name: the extended Hamming code of length 8, its
direct sum with itself, and the extended Golay code of length 24 in
(I | B) form.
"""

from .errors import DomainError, ParseError, read_lines

HAMMING8_ROWS = [
    "10000111",
    "01001011",
    "00101101",
    "00011110",
]

_GOLAY_B = [
    "110111000101",
    "101110001011",
    "011100010111",
    "111000101101",
    "110001011011",
    "100010110111",
    "000101101111",
    "001011011101",
    "010110111001",
    "101101110001",
    "011011100011",
    "111111111110",
]

GOLAY24_ROWS = [
    ("0" * i + "1" + "0" * (11 - i)) + b for i, b in enumerate(_GOLAY_B)
]


def _mask_from_row(row):
    mask = 0
    for i, ch in enumerate(row):
        if ch == "1":
            mask |= 1 << i
        elif ch != "0":
            raise ParseError("invalid character %r in code row %r" % (ch, row))
    return mask


def mask_to_points(mask):
    """1-based coordinates of a bitmask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _reduce(basis, word):
    """word with each basis row XORed in whose lowest bit it has."""
    for b in basis:
        if word & (b & -b):
            word ^= b
    return word


class BinaryCode:
    """A binary linear code, stored as a reduced row-echelon basis."""

    __slots__ = ("n", "basis")

    def __init__(self, n, rows):
        if not 1 <= n <= 64:
            raise DomainError("code length %d outside 1..64" % n)
        self.n = n
        basis = []
        for row in rows:
            row = int(row)
            if row >> n:
                raise DomainError("codeword 0x%x exceeds length %d" % (row, n))
            row = _reduce(basis, row)
            if row:
                basis.append(row)
        # back-substitute so each pivot appears in one row only
        basis.sort(key=lambda r: r & -r)
        for i, b in enumerate(basis):
            low = b & -b
            for j in range(len(basis)):
                if j != i and basis[j] & low:
                    basis[j] ^= b
        self.basis = tuple(basis)

    # ---------- constructors ----------

    @classmethod
    def from_rows_text(cls, rows):
        rows = [r.strip() for r in rows if r.strip()]
        if not rows:
            raise ParseError("no generator rows given")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ParseError("generator rows have differing lengths")
        return cls(n, [_mask_from_row(r) for r in rows])

    @classmethod
    def from_file(cls, path):
        rows = [text for _, text in read_lines(path)]
        if not rows:
            raise ParseError("no generator rows in %s" % path)
        return cls.from_rows_text(rows)

    # ---------- inspection ----------

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, mask):
        return _reduce(self.basis, mask) == 0

    def require_listable(self):
        """Refuse a code of dimension above 24, too large to list or to
        count by its 2^dim words."""
        if self.dim > 24:
            raise DomainError(
                "refusing to enumerate 2^%d codewords" % self.dim)

    def is_doubly_even(self):
        # wt(a ⊕ b) = wt(a) + wt(b) - 2|a ∩ b|, so the rows decide it
        rows = self.basis
        return all(r.bit_count() % 4 == 0 for r in rows) and all(
            (a & b).bit_count() % 2 == 0 for a in rows for b in rows)

    # ---------- symmetry ----------

    def is_automorphism(self, perm):
        if perm.n != self.n:
            return False
        return all(self.contains(perm.apply_mask(b)) for b in self.basis)

    def require_automorphism(self, perm):
        """Refuse a permutation that is not an automorphism of the code."""
        if not self.is_automorphism(perm):
            raise DomainError("%s is not an automorphism of the code" % perm)

    def fixed_subcode(self, gens):
        """Subcode of words fixed by every generator.

        A word w = Σ x_i b_i is fixed exactly when g(w) ⊕ w = 0 for
        every generator g, which is linear in x.  Each basis row b gets
        the defect d = (g(b) ⊕ b for every g), packed into one int, and
        rows are eliminated on d while carrying their codeword along;
        a row whose d reduces to 0 is a fixed word.  No codeword is
        enumerated, so C itself may be too large to list.

        Raises if some generator is not an automorphism of the code,
        naming the offender.
        """
        for g in gens:
            if g.n != self.n:
                raise DomainError(
                    "permutation %s acts on %d points, code has length %d"
                    % (g, g.n, self.n))
            self.require_automorphism(g)
        pivots = {}
        fixed = []
        for w in self.basis:
            d = sum((g.apply_mask(w) ^ w) << (j * self.n)
                    for j, g in enumerate(gens))
            while d:
                low = d & -d
                if low not in pivots:
                    pivots[low] = (d, w)
                    break
                pd, pw = pivots[low]
                d ^= pd
                w ^= pw
            else:
                fixed.append(w)
        return BinaryCode(self.n, fixed)

    def __eq__(self, other):
        return (isinstance(other, BinaryCode)
                and self.n == other.n and self.basis == other.basis)

    def __hash__(self):
        return hash((self.n, self.basis))

    def __repr__(self):
        return "BinaryCode(n=%d, dim=%d)" % (self.n, self.dim)


# the golay24 rows are a constant, whose weights the tests check
_CATALOG = {
    "hamming8": HAMMING8_ROWS,
    "golay24": GOLAY24_ROWS,
    "hamming8+hamming8": [r + "0" * 8 for r in HAMMING8_ROWS]
    + ["0" * 8 + r for r in HAMMING8_ROWS],
}

CATALOG_CODES = tuple(_CATALOG)


def catalog_code(name):
    """Fetch a built-in code by one of the CATALOG_CODES names."""
    if name not in _CATALOG:
        raise DomainError("unknown catalog code %r" % name)
    return BinaryCode.from_rows_text(_CATALOG[name])


def load_code(source):
    """Resolve a code from a catalog name or a file path; a catalog name
    wins over a file of that name."""
    if source in _CATALOG:
        return catalog_code(source)
    try:
        return BinaryCode.from_file(source)
    except OSError as exc:
        raise DomainError(
            "%r is neither a catalog code nor a readable file (%s)"
            % (source, exc)) from None
