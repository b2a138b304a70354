"""Histogram-based QoE modeling for HTTP adaptive streaming sessions.

The public names below are loaded from their modules on first use
(PEP 562), so importing one module, such as ``hasqoe.cli``, loads only
what that module imports.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The module that defines each public name.
_MODULES = {
    "baselines": ("MODEL_STATISTICS", "BaselineCoefficients", "baseline_matrix"),
    "errors": ("DegenerateMetricError", "HasQoEError", "UsageError", "ValidationError"),
    "evaluation": (
        "EvaluationReport",
        "SplitMetrics",
        "SplitProtocol",
        "evaluate_predictions",
        "linear_compensate",
        "pcc",
        "rmse",
        "run_split_protocol",
    ),
    "fitting": (
        "FitReport",
        "LabeledDataset",
        "LinearModel",
        "baseline_runner",
        "design_matrix",
        "fit",
        "fit_baseline_coefficients",
        "fixed_weights_runner",
        "refit_runner",
    ),
    "io": ("paper_weights",),
    "model": (
        "DEFAULT_INTERRUPTION_EDGES",
        "DOWN_SWITCH_BINS",
        "N_PARAMETERS",
        "ModelWeights",
        "feature_matrix",
        "predict_matrix",
    ),
    "traces": (
        "FeatureVector",
        "InterruptionEvent",
        "SessionTrace",
        "SwitchEvent",
        "bin_interruption",
        "bin_quality",
        "classify_switch",
        "extract_features",
        "interruption_degradation",
        "perceptual_quality",
        "predict",
    ),
    "synth": (
        "GeneratorConfig",
        "QualityWalk",
        "StallDurations",
        "generate_labeled_dataset",
        "generate_session",
        "generate_sessions",
    ),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
