"""Exact simulation of chiral excitation flows in small gauge-field networks."""

from . import criteria, dynamics, errors, experiments, floquet, hilbert, models, oracles
from .dynamics import ChiralityVerdict, Direction, Trajectory, chirality_order, eigendecompose, evolve
from .hilbert import Hopping, OnSite, Statistics, SubspaceBasis, build_hamiltonian, enumerate_basis
from .models import (
    NetworkSpec,
    asgf,
    chiral_n_node,
    chiral_operator,
    gauge_transform,
    ladder,
    landau_gauge,
    sgf_ring,
    three_body_spin,
)

__version__ = "0.1.0"

__all__ = [
    "ChiralityVerdict",
    "Direction",
    "Hopping",
    "NetworkSpec",
    "OnSite",
    "Statistics",
    "SubspaceBasis",
    "Trajectory",
    "asgf",
    "build_hamiltonian",
    "chiral_n_node",
    "chiral_operator",
    "chirality_order",
    "criteria",
    "dynamics",
    "eigendecompose",
    "enumerate_basis",
    "errors",
    "evolve",
    "experiments",
    "floquet",
    "gauge_transform",
    "hilbert",
    "ladder",
    "landau_gauge",
    "models",
    "oracles",
    "sgf_ring",
    "three_body_spin",
]
