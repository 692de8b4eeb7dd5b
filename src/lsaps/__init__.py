"""Penalized spectral smoothing with locally self-adjustive
regularization, CV-based parameter selection, second-derivative peak
detection, and a synthetic Lorentzian benchmark harness.
"""

from .localfit import floor_weights, local_quadratic_curvature
from .peaks import detect_peaks
from .select import CvCurve, SelectionResult, select_parameter
from .sim import (
    Background,
    LorentzianPeak,
    SimScenario,
    add_noise,
    generate_clean,
    rrse_second_derivative,
    run_benchmark,
    snr,
)
from .smoothers import (
    smooth_gaussian,
    smooth_lsa_ps,
    smooth_ps,
    smooth_savitzky_golay,
)

__all__ = [
    "Background",
    "CvCurve",
    "LorentzianPeak",
    "SelectionResult",
    "SimScenario",
    "add_noise",
    "detect_peaks",
    "floor_weights",
    "generate_clean",
    "local_quadratic_curvature",
    "rrse_second_derivative",
    "run_benchmark",
    "select_parameter",
    "smooth_gaussian",
    "smooth_lsa_ps",
    "smooth_ps",
    "smooth_savitzky_golay",
    "snr",
]

__version__ = "0.1.0"
