"""Simulator for high-dimensional prepare-and-measure QKD with self-healing
Bessel-Gaussian vector modes: spin-orbit state preparation, obstructed
free-space propagation, scattering matrices, and GLLP security analysis.
"""

from .fields import (
    CircularComponents,
    PolarizedField,
    ScalarField,
    TransverseGrid,
    horizontally_polarized,
    inner_product,
    to_circular,
    to_linear,
)
from .modes import (
    ModeFamily,
    ModeSpec,
    binary_bessel_hologram,
    evaluate_bg,
    evaluate_lg,
    evaluate_mode,
    full_reconstruction_distance,
    nondiffracting_distance,
    shadow_length,
)
from .jones import (
    ALL_LABELS,
    HalfWavePlate,
    HorizontalPolarizer,
    MubBasis,
    MubCheckResult,
    MubLabel,
    OpticalTrain,
    QPlate,
    QuarterWavePlate,
    apply_element,
    check_mub,
    mub_state_vector,
    prepare_state,
    preparation_train,
)
from .propagation import (
    ChannelSpec,
    ObstacleSpec,
    apply_obstacle,
    back_propagate,
    propagate,
    propagate_scalar,
    transmit_to_station,
)
from .channel import (
    CountRates,
    CountsTable,
    DetectionKind,
    DetectionModel,
    ScatteringMatrix,
    SpdcConfig,
    heralded_input,
    measure_projection,
    scattering_matrix,
    simulate_counts,
    spdc_overlap,
)
from .security import (
    KeyRateResult,
    PhotonStatistics,
    QberResult,
    SecurityReport,
    hd_entropy,
    key_rate,
    multiphoton_fraction,
    mutual_information,
    qber_from_matrix,
    security_report,
)
from .selfheal import SelfHealingResult, self_healing_fidelity, selfheal_scan
from .errors import ConfigError, GridMismatchError, PreconditionError, UnsupportedModeError

__version__ = "0.1.0"
