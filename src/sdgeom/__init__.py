"""Combinatorial differential geometry engine: nilpotent simplex algebra,
combinatorial differential forms, distributions, and principal connections,
each cross-validated against classical coordinate oracles."""

from .nil import NilElement, canonicalize, lift_smooth

__all__ = ["NilElement", "canonicalize", "lift_smooth"]
__version__ = "0.1.0"
