"""Grey-box extremum-seeking personalization of kinematic synergies.

Simulated-subject model (preference map + iteration-domain learning
dynamics + motor noise), identification toolkit, the grey-box
personalizer, a black-box ES baseline, a planar reaching plant, and an
experiment harness.
"""

from .baseline import BlackBoxEs
from .harness import (EpisodeTrace, ExperimentConfig, compare_traces,
                      convergence_iteration, read_trace_csv, run_batch,
                      run_episode, summarize_batch, write_trace_csv)
from .personalizer import (BandPassFilter, GradCurvObserver, Personalizer,
                           PersonalizerConfig, StepRecord, SwitchedOptimizer)
from .plant import (ArmGeometry, ReachOutcome, ReachTask, ShoulderProfile,
                    default_geometry, default_profile, default_task,
                    export_hand_path, objective, simulate_reach)
from .subject import (AdaptationDynamics, MotorNoise, NonConcaveMapError,
                      PreferenceMap, SimulatedSubject, load_subject,
                      save_subject, static_subject, subject_a, subject_b)
from .sysid import (WhitenessReport, fit_adaptation_lti, fit_preference_map,
                    identify_from_records, whiteness_test)

__version__ = "0.1.0"
