"""Metropolis Markov chains on finite Coxeter groups, driven exactly
through Iwahori-Hecke algebra multiplication.

Modules
-------
coxeter   group families, lengths, action tables, Poincare polynomials
hecke     T-tilde basis arithmetic on sparse dicts, products
chains    Metropolis kernels, scans, exact evolution, num/den distributions, TV / chi-square
spectral  irrep data and closed-form chi-square / mixing bounds
sampler   exact stationary sampling and length moments
cli       command-line front end (``hecke-metro``)
"""

__version__ = "0.1.0"
