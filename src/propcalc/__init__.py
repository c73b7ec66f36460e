"""Exact-arithmetic computer algebra for colored PROPs over rational chain complexes.

Subpackages cover color profiles and their permutation groupoids, skeletal
Sigma-bimodules with their vertical/horizontal monoidal products, free and
quasi-free PROPs as decorated directed acyclic graphs with a typed expression
language, endomorphism PROPs over bounded chain complexes of Q-vector spaces,
algebra checking, homotopy transfer along (co)fibrations, and the
operad-to-PROP bridge.  All arithmetic is exact (ints and Fractions, see
propcalc.linalg); every operation is deterministic and pure.
"""

from propcalc.profiles import Palette, Profile, Permutation, OrbitKey, canonicalize_profile
from propcalc.chains import ChainComplex, ChainMap

__all__ = [
    "Palette",
    "Profile",
    "Permutation",
    "OrbitKey",
    "canonicalize_profile",
    "ChainComplex",
    "ChainMap",
]

__version__ = "0.1.0"
