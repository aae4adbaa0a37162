"""Expected-capacity loss of finite-state slow-fading Gaussian channels.

Library surface: channel preparation and the ergodic capacity, the marginal
utility envelope and layered power allocation behind the one-block expected
capacity, additive/multiplicative gap reports, worst-case parameter
families, a brute-force certifier, and one-bit fading-paper brackets.
"""

from .allocation import (
    PowerAllocation,
    closed_form_routes,
    expected_capacity,
    expected_rate_of,
    optimal_allocation,
)
from .channel import FadingDistribution, PreparedChannel, entropy, ergodic_capacity, prepare
from .errors import InternalConsistencyError, ValidationError
from .fading_paper import FadingPaperReport, fading_paper_report, worst_case_fp_bracket
from .gaps import Analysis, CapacityReport, analyze, full_analysis
from .muf import (
    MufChain,
    build_chain,
    dominating_muf,
    envelope_integral,
    intersection,
    muf_value,
)
from .oracle import OracleResult, brute_force_expected_capacity
from .worst_case import (
    additive_family,
    high_snr_instance,
    low_snr_instance,
    multiplicative_family,
    sweep,
    sweep_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "FadingDistribution",
    "PreparedChannel",
    "prepare",
    "ergodic_capacity",
    "entropy",
    "MufChain",
    "muf_value",
    "intersection",
    "build_chain",
    "dominating_muf",
    "envelope_integral",
    "PowerAllocation",
    "optimal_allocation",
    "expected_capacity",
    "closed_form_routes",
    "expected_rate_of",
    "CapacityReport",
    "Analysis",
    "analyze",
    "full_analysis",
    "additive_family",
    "multiplicative_family",
    "high_snr_instance",
    "low_snr_instance",
    "sweep",
    "sweep_to_csv",
    "OracleResult",
    "brute_force_expected_capacity",
    "FadingPaperReport",
    "fading_paper_report",
    "worst_case_fp_bracket",
    "ValidationError",
    "InternalConsistencyError",
    "__version__",
]
