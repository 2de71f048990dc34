"""nervekit: nerves of good covers on finite metric spaces, with the explicit
homotopy equivalences, homology verification and stability pipelines.
"""

__version__ = "0.1.0"

from .complex import BarycentricPoint, SimplicialComplex, realization_distance
from .cone import (ConePoint, CylinderPoint, CylinderSpace, cone_distance,
                   DEFAULT_L)
from .cover import (Cover, CoverError, build_ball_cover, goodness_report,
                    greedy_net, intersections)
from .homology import betti, gf2_rank, nerve_matches_space, vr_complex
from .metric import (ApproximationReport, FiniteMetricSpace, MetricError,
                     PointMap, check_approximation, check_strainer,
                     comparison_angle, gh_distance_bound,
                     gh_distance_exhaustive)
from .nerve import nerve_of
from .partition import PartitionOfUnity, estimate_lipschitz
from .retraction import (Contraction, build_contractions, cone_retraction_phi,
                         full_cylinder_retraction, homotopy_F, homotopy_H,
                         radial_projection, simplexwise_retraction)
from .stability import (Chart, ChartAtlas, GluingConfig, LiftedCover,
                        build_gluing_atlas, glue_homotopies, glue_maps,
                        homotopy_equivalence_via_nerves, lift_cover)

__all__ = [
    "ApproximationReport", "BarycentricPoint", "Chart", "ChartAtlas",
    "ConePoint", "Contraction", "Cover", "CoverError", "CylinderPoint",
    "CylinderSpace", "DEFAULT_L", "FiniteMetricSpace", "GluingConfig",
    "LiftedCover", "MetricError", "PartitionOfUnity", "PointMap",
    "SimplicialComplex", "betti", "build_ball_cover", "build_contractions",
    "build_gluing_atlas", "check_approximation", "check_strainer",
    "comparison_angle", "cone_distance", "cone_retraction_phi",
    "estimate_lipschitz", "full_cylinder_retraction", "gf2_rank",
    "gh_distance_bound", "gh_distance_exhaustive", "glue_homotopies",
    "glue_maps", "goodness_report", "greedy_net",
    "homotopy_equivalence_via_nerves", "homotopy_F", "homotopy_H",
    "intersections", "lift_cover", "nerve_matches_space", "nerve_of",
    "radial_projection", "realization_distance", "simplexwise_retraction",
    "vr_complex",
]
