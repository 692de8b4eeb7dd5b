"""Penalized spectral smoothing with locally self-adjustive
regularization, CV-based parameter selection, second-derivative peak
detection, and a synthetic Lorentzian benchmark harness.

The names of ``__all__``, and the submodules, such as ``lsaps.sim``,
are loaded on first use (PEP 562), so that ``import lsaps.cli`` loads
no module that ``lsaps smooth`` does not run.
"""

import importlib

_MODULES = {
    "localfit": ("floor_weights", "local_quadratic_curvature"),
    "peaks": ("detect_peaks",),
    "select": ("CvCurve", "SelectionResult", "select_parameter"),
    "sim": ("Background", "LorentzianPeak", "SimScenario", "add_noise", "generate_clean",
            "rrse_second_derivative", "run_benchmark", "snr"),
    "smoothers": ("smooth_gaussian", "smooth_lsa_ps", "smooth_ps", "smooth_savitzky_golay"),
}
_SOURCE = {name: module for module, names in _MODULES.items() for name in names}
_SUBMODULES = {*_MODULES, "cli", "errors", "linalg"}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
