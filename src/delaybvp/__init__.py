"""Eigenvalue and eigenfunction machinery for a second-order boundary value
problem with a retarded argument and spectral-parameter-dependent
transmission conditions at an interior interface.

The package computes shooting solutions of

    y''(x) + q(x) y(x - Delta(x)) + lambda y(x) = 0

on [0, pi/2) u (pi/2, pi], locates eigenvalues as roots of the
characteristic function, cross-validates the integrator against a Volterra
fixed-point oracle, and checks closed-form asymptotic predictions for the
eigenvalues and eigenfunctions against the computed spectrum.
"""

from .problem import ProblemSpec, QNorms, q_norms, validate, check_refined_conditions
from .dde_solver import SolutionSegment, ShootingResult, integrate_segment, shoot
from .spectral import Eigenpair, scan_roots, localize_near_n
from .asymptotics import AsymptoticEstimate, kl_integrals, predict_s, predict_eigenfunction

__all__ = [
    "ProblemSpec",
    "QNorms",
    "q_norms",
    "validate",
    "check_refined_conditions",
    "SolutionSegment",
    "ShootingResult",
    "integrate_segment",
    "shoot",
    "Eigenpair",
    "scan_roots",
    "localize_near_n",
    "AsymptoticEstimate",
    "kl_integrals",
    "predict_s",
    "predict_eigenfunction",
]

__version__ = "0.1.0"
