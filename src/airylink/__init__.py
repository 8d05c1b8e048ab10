"""airylink: wave-optics simulation of curved-beam multi-user links.

A 2D (transverse x, depth z) simulator for millimeter-wave downlinks where
a knife-edge obstacle shadows part of the service area. Cubic-phase analog
beams steer energy around the edge; a zero-forcing digital stage separates
the users; everything downstream (condition numbers, SINR, sum rates,
parameter search) is built on one FFT propagation core with an independent
quadrature oracle behind it.
"""

from .beams import AiryParams, airy_weights, build_codebook
from .channels import (
    beam_responses,
    diffraction_channel,
    greens_channel,
    remark1_calibration,
)
from .config import load_scenario, parse_scenario_text
from .errors import (
    AirylinkError,
    ConfigError,
    GridError,
    ModelMismatchError,
    SingularChannelError,
)
from .experiments import (
    FieldCut,
    MixedOptimizationResult,
    SweepResult,
    run_baseline_scan,
    run_fieldmap,
    run_mixed_optimization,
    run_robustness_sweep,
    run_shadow_scan,
)
from .geometry import (
    ArrayGeometry,
    Carrier,
    GridSpec,
    KnifeEdgeObstacle,
    ScenarioConfig,
    UserPosition,
    classify_user,
    fraunhofer_distance,
    geometric_angle,
)
from .optimizer import SearchOutcome, SearchTrace, coarse_to_fine_search
from .propagation import (
    IntensityMap,
    band_limit,
    embed_aperture,
    intensity_map,
    launch_aperture,
    propagate_angular_spectrum,
)

__version__ = "0.1.0"
