"""Rate regions for the cognitive interference channel with a cooperating destination."""

from .capacity import (
    HiRegimeReport,
    InputJoint,
    V12V2Joint,
    capacity_degraded_z,
    capacity_semidet_hi,
    degraded_z_polygon,
    hi_regime_falsify,
    reduced_region,
    reduced_region_semidet,
    reduction_factorization,
    semidet_hi_polygon,
    v2_equals_y2_lift,
    violation_gaps,
)
from .channel import ChannelSpec, ClassReport, classify, dump_channel, load_channel
from .inner import (
    InnerConstants,
    InnerFactorization,
    SamplerConfig,
    admissible,
    assemble_joint,
    inner_constants,
    inner_region,
    region_for_distribution,
    sample_factorizations,
)
from .outer import (
    InputLaw,
    SearchConfig,
    V12Joint,
    outer_polygon,
    outer_region_estimate,
)
from .pmf import ConditionalFactor, JointPMF, joint_from_factors
from .polytope import (
    LinearSystem,
    Region2D,
    polygon_extract,
    project_to_plane,
    region_contains,
    region_from_dict,
    region_from_vertices,
    region_to_dict,
    regions_close,
    support,
)

__version__ = "0.1.0"
