"""Exact simulation of chiral excitation flows in small gauge-field networks."""

__version__ = "0.1.0"

# The disorder families of ``experiments.disorder_sweep``, defined here so
# that the CLI's parser can offer them without importing numpy.
DISORDER_KINDS = ("frequency", "hopping_strength", "hopping_phase")
