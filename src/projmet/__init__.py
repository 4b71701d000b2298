"""Metrizability of projective structures on a coordinate chart.

Given a torsion-free affine connection, decide whether its projective class
(the connections sharing its unparameterised geodesics) contains the
Levi-Civita connection of some metric.  The metrizability equation is
prolonged to a linear connection on an auxiliary bundle; its covariant
constant sections are found by exact Taylor-jet recursion at a base point,
and every solution is reconstructed into a candidate metric and verified.
"""

from .errors import *  # noqa: F401,F403
from .exprcore import (Chart, DifferentialForm, Potential, RationalExpr,
                       exterior_derivative, homotopy_potential,
                       potential_of_closed_1form)
from .tensorfield import (TensorField, contract, covariant_derivative,
                          kron_delta, outer, reweight, trace_free_part)
from .projconn import (AffineConnection, ProjectiveData, beta_form,
                       bianchi_contracted_check, decompose_curvature,
                       full_curvature, projective_change, ricci, specialize)
from .tractor import (TractorCurvature, TractorSection, connection_matrices,
                      curvature_on_section, section_basis, section_dim,
                      tractor_curvature, tractor_derivative, transform_section,
                      transform_values)
from .mobility import (JetSolution, degree_of_mobility, parallel_transport,
                       residual)
from .metricize import (MetricCandidate, RiemannSplit, candidate_from_metric,
                        constant_curvature_check, det_field, equivalence_defect,
                        geodesic_compare, is_levi_civita, levi_civita,
                        metric_inverse, projective_equivalence,
                        reconstruct_metric, riemann_split, write_trace_csv)
from .cli import analyze_connection, run_analysis

__version__ = "0.1.0"
