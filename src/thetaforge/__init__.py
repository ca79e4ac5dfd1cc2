"""Exact q-series tools for code-lattices and their fixed-sublattice thetas.

The pieces fit together in one pipeline: a binary code and a group of
coordinate permutations determine a fixed sublattice, its theta series,
an eta-product denominator, a modular-function quotient that can be
tested for replicability, and finally the character of the subVOA fixed
by the lifted automorphisms.
"""

__version__ = "0.1.0"

from .qseries import DEN, PrecisionError

__all__ = ["DEN", "PrecisionError", "__version__"]
