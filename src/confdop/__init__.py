"""Special-conformal spacetime transforms, null-ray Doppler models, and a
spacecraft tracking simulator with an estimator for the group rate alpha."""

__version__ = "0.1.0"

from .conformal import (
    Event,
    GroupParameter,
    conformal_factor,
    differential_map,
    flow_oracle,
    hill_differentials,
    hill_transform,
    hill_velocity,
    interval_scale,
    interval_squared,
    invariant_ratio,
    line_element_squared,
    slope_transform,
    transform_finite,
    transform_inverse_finite,
)
from .constants import (
    ASTRONOMICAL_UNIT,
    HUBBLE_RATE,
    PIONEER_ANOMALY_RATE,
    SPEED_OF_LIGHT,
)
from .errors import (
    ConfdopError,
    ConfigInvalid,
    DegenerateDesign,
    DomainCrossing,
    MalformedCsv,
    ManifestMismatch,
    NotPastCone,
    SingularTransform,
    SlopeSingular,
    StepDivergence,
    ZeroRadius,
    ZeroRange,
    ZeroSigma,
)
from .estimator import FitResult, MetricDecision, bootstrap_alpha, decide_metric, fit_alpha
from .manifest import RunManifest, build_manifest, load_manifest, verify_manifest, write_manifest
from .tracking import (
    AnomalyResidual,
    SimConfig,
    TrackingTable,
    anomaly_residuals,
    read_records_csv,
    simulate,
    write_records_csv,
)
from .wave import (
    SignComparison,
    doppler_model_conformal,
    hubble_alpha_correction,
    hubble_prediction,
    inbound_ray_coords,
    inbound_ray_differentials,
    sign_comparison_report,
    wavelength_map,
)
