"""Exact simulation of chiral excitation flows in small gauge-field networks."""

__version__ = "0.1.0"
