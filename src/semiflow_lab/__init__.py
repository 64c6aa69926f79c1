"""Numerical laboratory for analytic semiflows of the unit disk and their
weighted composition semigroups on Hardy and weighted Bergman spaces."""

from .analytic import (AnalyticFn, derivative, disk_samples, eps_ladder,
                       neville_extrapolate, principal_power, taylor_coefficients,
                       unit_circle)
from .cocycle import (Cocycle, CocycleVerificationReport, LimsupProbe, limsup_probe,
                      make_coboundary, sup_norm, verify_cocycle)
from .criteria import (CriterionReport, CriterionSample, DecayTable, SufficiencyProbe,
                       SupScanConfig, bergman_criterion, direct_decay_probe,
                       hardy_criterion, sufficiency_probe, uniform_bound_verdict)
from .flow import (FlowVerificationReport, Semiflow, estimate_generator,
                   fixed_points_check, resolve_flow, verify_semiflow)
from .intertwine import (AbstractOperator, ExtractionReport, IntertwinerReport,
                         check_intertwiner, commutant_check, extract_semigroup,
                         load_bundle, recover_symbols, save_bundle)
from .operators import (OperatorMatrix, OperatorSemigroup, PowerIterationResult,
                        WeightedCompOp, composition_op, matrix, multiplication_op,
                        norm2, norm_lower_bound, semigroup_op)
from .spaces import (CarlesonSquare, QuadConfig, RadialWeight, RegularityReport,
                     SpaceSpec, bergman_norm, carleson_measure, growth_bound_check,
                     hardy_norm, is_regular, pairing, test_function)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
