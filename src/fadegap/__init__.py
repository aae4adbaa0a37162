"""Expected-capacity loss of finite-state slow-fading Gaussian channels.

Library surface: channel preparation and the ergodic capacity, the marginal
utility envelope and layered power allocation behind the one-block expected
capacity, additive/multiplicative gap reports, worst-case parameter
families, a brute-force certifier, and one-bit fading-paper brackets.

``import fadegap`` loads only the analysis pipeline (``errors``, ``channel``,
``muf``, ``allocation`` and ``gaps``).  The worst-case families of
``worst_case``, the certifier of ``oracle`` and the brackets of
``fading_paper`` load on first access to one of their names.  Exact
arithmetic (``fractions``, ``numbers``) loads only with an input that
needs it, so a float channel runs without it.
"""

import importlib

from .allocation import (
    PowerAllocation,
    closed_form_routes,
    expected_capacity,
    expected_rate_of,
    optimal_allocation,
)
from .channel import FadingDistribution, PreparedChannel, entropy, ergodic_capacity, prepare
from .errors import InternalConsistencyError, ValidationError
from .gaps import Analysis, CapacityReport, analyze, full_analysis
from .muf import (
    MufChain,
    build_chain,
    dominating_muf,
    envelope_integral,
    intersection,
    muf_value,
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

#: Public names served on first access, with the module that defines them.
_ON_FIRST_USE = {
    "additive_family": "worst_case",
    "multiplicative_family": "worst_case",
    "high_snr_instance": "worst_case",
    "low_snr_instance": "worst_case",
    "sweep": "worst_case",
    "sweep_to_csv": "worst_case",
    "OracleResult": "oracle",
    "brute_force_expected_capacity": "oracle",
    "FadingPaperReport": "fading_paper",
    "fading_paper_report": "fading_paper",
    "worst_case_fp_bracket": "fading_paper",
}


def __getattr__(name):
    """Import the module behind a public name on its first access (PEP 562)
    and keep the name, so later lookups never come back here."""
    try:
        module = _ON_FIRST_USE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
