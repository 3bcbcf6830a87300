"""Numerical laboratory for spectral asymptotics of planar Laplacians."""

__version__ = "0.1.0"
