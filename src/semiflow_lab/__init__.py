"""Numerical laboratory for analytic semiflows of the unit disk and their
weighted composition semigroups on Hardy and weighted Bergman spaces.

The package namespace holds the entry points; report types and helpers
that only their own module uses stay in that module."""

from .analytic import (AnalyticFn, derivative, disk_samples, eps_ladder,
                       neville_extrapolate, principal_power, unit_circle)
from .cocycle import Cocycle, limsup_probe, make_coboundary, verify_cocycle
from .criteria import (SupScanConfig, bergman_criterion, direct_decay_probe,
                       hardy_criterion, sufficiency_probe, uniform_bound_verdict)
from .flow import (Semiflow, estimate_generator, fixed_points_check, resolve_flow,
                   verify_semiflow)
from .intertwine import (AbstractOperator, check_intertwiner, commutant_check,
                         extract_semigroup, load_bundle, recover_symbols, save_bundle)
from .operators import (OperatorMatrix, OperatorSemigroup, WeightedCompOp, composition_op,
                        matrix, multiplication_op, norm2, norm_lower_bound, semigroup_op)
from .spaces import (RadialWeight, SpaceSpec, bergman_norm, carleson_measure,
                     growth_bound_check, hardy_norm, is_regular, test_function)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
