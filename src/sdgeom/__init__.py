"""Combinatorial differential geometry engine: nilpotent simplex algebra,
combinatorial differential forms, distributions, and principal connections,
each cross-validated against classical coordinate oracles."""

from .nil import NilElement, canonicalize

__all__ = ["NilElement", "canonicalize"]
__version__ = "0.1.0"
