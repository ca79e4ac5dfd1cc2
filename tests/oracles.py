"""Test-side oracles and inputs shared by several test modules.

The oracles are exhaustive and slow by design, so they live beside the
tests that use them and not in the package.
"""

from itertools import permutations as _all_perms
from pathlib import Path

from thetaforge.errors import DomainError
from thetaforge.perms import Perm, parse_generators


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
