"""Grey-box extremum-seeking personalization of kinematic synergies.

Simulated-subject model (preference map + iteration-domain learning
dynamics + motor noise), identification toolkit, the grey-box
personalizer, a black-box ES baseline, a planar reaching plant, and an
experiment harness.

Each exported name is imported from its submodule on first use (PEP
562), so ``import synergy_es`` loads no submodule, and building a subject
or a ``Personalizer`` loads neither the harness, sysid, plant, plotting
nor baseline code.
"""

import importlib

# submodule -> the names it exports here
_EXPORTS = {
    "baseline": ("BlackBoxEs",),
    "harness": ("EpisodeTrace", "ExperimentConfig", "compare_traces",
                "convergence_iteration", "read_trace_csv", "run_batch",
                "run_episode", "summarize_batch", "write_trace_csv"),
    "personalizer": ("BandPassFilter", "GradCurvObserver", "Personalizer",
                     "PersonalizerConfig", "StepRecord", "SwitchedOptimizer"),
    "plant": ("ArmGeometry", "ReachOutcome", "ReachTask", "ShoulderProfile",
              "default_geometry", "default_profile", "default_task",
              "export_hand_path", "objective", "simulate_reach"),
    "subject": ("AdaptationDynamics", "MotorNoise", "NonConcaveMapError",
                "PreferenceMap", "SimulatedSubject", "load_subject",
                "save_subject", "static_subject", "subject_a", "subject_b"),
    "sysid": ("WhitenessReport", "fit_adaptation_lti", "fit_preference_map",
              "identify_from_records", "whiteness_test"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, or a submodule that exports some, imported on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
