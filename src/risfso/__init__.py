"""Statistical simulator and closed-form analytics for FSO links relayed
by a reconfigurable reflecting surface, under Gamma-Gamma turbulence and
pointing-error fading."""

from .errors import (
    AccuracyError,
    ConfigError,
    DegenerateParametersError,
    DomainError,
    MergeError,
    RisFsoError,
    UnsupportedDomainError,
)
from .numerics import meijer_g_1330, parabolic_cylinder_d
from .channel import (
    LinkConfig,
    PointingGeometry,
    RandomStream,
    TurbulenceParams,
    derive_turbulence,
    pdf_b,
    sample_aggregate,
    sample_h_a,
    sample_h_p,
)
from .analytic import (
    AsymptoticProfile,
    MomentSummary,
    amount_of_fading,
    asymptotic_outage,
    asymptotic_profile,
    average_ber,
    channel_capacity,
    generalized_moment,
    mgf,
    moments,
    oracle_metric,
    outage_probability,
)
from .montecarlo import (
    McEstimate,
    confidence_interval,
    estimate,
    estimate_grid,
    merge,
)

__version__ = "0.1.0"
