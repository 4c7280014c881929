"""Numerical conformal geometry: tractor calculus for embedded submanifolds,
conformal circles and first integrals, at desk scale."""

from .tensors import ArrayField, DiffBackend, Index
from .riemann import CurvaturePack, GeometrySpec, curvature_pack, rescale
from .tractor import (hodge_star, parallel_transport, scale_tractor,
                      thomas_D, tractor_curvature, tractor_volume_form)
from .submanifold import EmbeddingSpec, SubmanifoldPack, submanifold_pack
from .subtractor import (ClassificationReport, SubTractorContext, classify,
                         gauss_codazzi_ricci_residuals,
                         mean_curvature_tractor, transformation_residuals)
from .circles import (CircleTrajectory, CurveState, conformal_circle_rhs,
                      curve_tractors, integrate_circle)
from .firstint import (SplitTractor, bgg_split, conserved_quantity,
                       ky_residual, zero_locus_scan)
from . import geolib

__version__ = "0.1.0"
