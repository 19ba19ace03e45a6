"""cknlab: numerical laboratory for a family of weighted interpolation
inequalities, their explicit Barenblatt optimizers, linearized spectral gaps,
and the entropy decay of the associated weighted fast-diffusion flow."""

__version__ = "0.1.0"

from .params import (DerivedExponents, ProblemParams, derive, kappa,
                     kappa_numeric, mass_from_multiplier, validate)
from .profiles import (AnalyticProfile, RadialProfile, barenblatt_mass,
                       default_grid, el_residual, energy, gradient_norm,
                       quotient, w_gamma_star, w_star, weighted_norm)
from .quadrature import integrate, log_beta_integral, sphere_area

__all__ = [
    "__version__",
    "ProblemParams", "DerivedExponents", "validate", "derive",
    "mass_from_multiplier", "kappa", "kappa_numeric",
    "integrate", "sphere_area", "log_beta_integral",
    "RadialProfile", "AnalyticProfile", "default_grid", "w_star",
    "w_gamma_star", "barenblatt_mass", "weighted_norm",
    "gradient_norm", "quotient", "energy", "el_residual",
]
