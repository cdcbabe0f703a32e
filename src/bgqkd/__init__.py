"""Simulator for high-dimensional prepare-and-measure QKD with self-healing
Bessel-Gaussian vector modes: spin-orbit state preparation, obstructed
free-space propagation, scattering matrices, and GLLP security analysis.

The package namespace holds the API of the README's library overview; every
other name is imported from its own module.
"""

from .fields import ScalarField, TransverseGrid
from .modes import (
    ModeFamily,
    ModeSpec,
    binary_bessel_hologram,
    nondiffracting_distance,
    shadow_length,
)
from .jones import MubCheckResult, check_mub, mub_state_vector
from .propagation import ChannelSpec, ObstacleSpec
from .channel import (
    CountsTable,
    DetectionModel,
    ScatteringMatrix,
    scattering_matrix,
    simulate_counts,
    spdc_overlap,
)
from .security import (
    KeyRateResult,
    QberResult,
    SecurityReport,
    hd_entropy,
    key_rate,
    multiphoton_fraction,
    mutual_information,
    qber_from_matrix,
    security_report,
)
from .selfheal import selfheal_scan
from .errors import ConfigError, UnsupportedModeError

__version__ = "0.1.0"
