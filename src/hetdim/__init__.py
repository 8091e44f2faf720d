"""Numerical laboratory for heterodimensional cycles born from pairs of
homoclinic tangencies to an index-1 saddle.

The package instantiates concrete diffeomorphism families in the saddle
normal form, forges secondary tangencies with the admissibility properties
the construction needs, certifies invariant cone fields and strong-stable
leaves along return orbits, and solves for heterodimensional cycles at
explicit parameter values, emitting self-verifying certificates.
"""

__version__ = "0.1.0"

from .saddle import (Multipliers, SaddleModel, SplitVector, build_model, check_conditions,
                     model_from_json)
from .local import CrossFormResult, solve_cross_form, strong_derivative_bounds
from .global_map import GlobalMapCoeffs, Strip, coeffs_from_json, k_star, locate_strip
from .tangency import (TangencyBranch, TransverseHomoclinic, find_transverse_homoclinics,
                       forge_admissible_tangency, solve_secondary_tangency,
                       verify_tangency_branch)
from .cones import (ConeWitness, LeafSample, invariant_cu_subspace,
                    invariant_s_subspace, leaf_exponent_fit, strong_stable_leaf)
from .cycles import (CycleCertificate, PeriodTwoOrbit, certificate_to_json,
                     index2_criterion, orbit_index, replay_certificate_dict,
                     solve_hetdim_general, solve_hetdim_symmetric, solve_period2,
                     solve_period2_with_s, verify_transverse_connection)
from .flows import (AbsConfig, FlowExponents, abs_quotient_step, check_c3prime,
                    equilibrium_exponents, simulate_poincare)

__all__ = [name for name in dir() if not name.startswith("_")]
