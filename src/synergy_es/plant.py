"""Planar two-link reaching plant driven by the kinematic synergy law.

The elbow tracks shoulder flexion through the scalar synergy
(elbow rate = theta * shoulder rate, integrated exactly for constant
theta), forward kinematics give the hand path, and the task objective
scores end-point error and completion time with saturated terms:

    J = 0.25 * 100 / max(0.25, err_cm^2) + 16.67 * 3 / max(0.5, t_f)

Distances are in centimeters and times in seconds; that is the only
reading under which both terms normalize to a 0..100 range.
"""

from dataclasses import dataclass

import numpy as np

P_MAX_CM = 10.0
T_MAX_S = 3.0
STOP_SPEED_CM_S = 1.0


def _check_fields(obj, positive=(), finite=(), points=()):
    """Raise ValueError naming the first field of obj that cannot work."""
    for name in (*positive, *finite, *points):
        value = getattr(obj, name)
        if name in points and np.shape(value) != (2,):
            raise ValueError(f"{name} = {value} must be two values")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} = {value} must be finite")
        if name in positive and not value > 0:
            raise ValueError(f"{name} = {value} must be positive")


@dataclass
class ArmGeometry:
    upper_arm_cm: float = 30.0
    forearm_hand_cm: float = 35.0
    shoulder_xy: tuple = (0.0, 0.0)

    def __post_init__(self):
        _check_fields(self, positive=("upper_arm_cm", "forearm_hand_cm"),
                      points=("shoulder_xy",))


@dataclass
class ReachTask:
    start_target: tuple
    end_target: tuple
    time_limit_s: float = T_MAX_S
    success_radius_cm: float = 5.0

    def __post_init__(self):
        _check_fields(self, positive=("time_limit_s", "success_radius_cm"),
                      points=("start_target", "end_target"))


@dataclass
class ShoulderProfile:
    """Minimum-jerk shoulder flexion ramp sampled at the headset rate."""

    peak_flexion_rad: float = 0.75
    duration_s: float = 1.5
    sample_rate_hz: float = 90.0
    start_flexion_rad: float = 0.45

    def __post_init__(self):
        # a peak of 0 is a valid profile: the arm never moves
        _check_fields(self, positive=("duration_s", "sample_rate_hz"),
                      finite=("peak_flexion_rad", "start_flexion_rad"))

    def angle(self, t):
        """Shoulder flexion angle at time t (monotone, zero end velocity)."""
        tau = np.clip(np.asarray(t, dtype=float) / self.duration_s, 0.0, 1.0)
        ramp = 10 * tau ** 3 - 15 * tau ** 4 + 6 * tau ** 5
        return self.start_flexion_rad + self.peak_flexion_rad * ramp


@dataclass
class ReachOutcome:
    end_error_cm: float
    completion_time_s: float
    completed: bool
    hand_path: np.ndarray  # (n, 3): t, x, y


# elbow flexion with the hand initially raised toward the chest
_ELBOW_START_RAD = 1.9


def _hand_position(geom, shoulder_angle, elbow_flexion):
    """Sagittal-plane hand point; x forward, y up, flexion raises the arm."""
    sx, sy = geom.shoulder_xy
    ex = sx + geom.upper_arm_cm * np.sin(shoulder_angle)
    ey = sy - geom.upper_arm_cm * np.cos(shoulder_angle)
    fa = shoulder_angle + elbow_flexion
    hx = ex + geom.forearm_hand_cm * np.sin(fa)
    hy = ey - geom.forearm_hand_cm * np.cos(fa)
    return np.array([hx, hy])


def default_geometry():
    return ArmGeometry()


def default_profile():
    return ShoulderProfile()


def default_task(geom=None, profile=None):
    """Targets 23 cm apart: start at the initial hand point, end forward."""
    geom = geom or default_geometry()
    profile = profile or default_profile()
    start = _hand_position(geom, profile.start_flexion_rad, _ELBOW_START_RAD)
    end = start + np.array([23.0, 0.0])
    return ReachTask(tuple(start), tuple(end))


def simulate_reach(geom, task, theta, profile):
    """Integrate the synergy-coupled reach and score the outcome.

    The elbow extends proportionally to shoulder flexion:
    elbow(t) = elbow(0) - theta * (shoulder(t) - shoulder(0)).
    The reach stops at the first sample where hand speed drops below
    1 cm/s after motion onset, or at the task time limit.
    """
    if not np.isfinite(theta):
        raise ValueError("synergy value must be finite")
    dt = 1.0 / profile.sample_rate_hz
    times = np.arange(0.0, task.time_limit_s + dt / 2, dt)
    shoulder = profile.angle(times)
    elbow = _ELBOW_START_RAD - float(theta) * (shoulder - shoulder[0])
    path = np.column_stack((times, *_hand_position(geom, shoulder, elbow)))
    speeds = np.linalg.norm(np.diff(path[:, 1:], axis=0), axis=1) / dt
    moving = speeds >= STOP_SPEED_CM_S
    stop_idx = times.size - 1
    if moving.any():
        onset = int(np.argmax(moving))
        rest = np.nonzero(~moving[onset:])[0]
        if rest.size:
            stop_idx = onset + int(rest[0])
    t_f = float(times[stop_idx]) if moving.any() and stop_idx < times.size - 1 \
        else float(task.time_limit_s)
    end_error = float(np.linalg.norm(path[stop_idx, 1:] - np.asarray(task.end_target)))
    completed = end_error <= task.success_radius_cm and t_f <= task.time_limit_s
    return ReachOutcome(end_error, t_f, completed, path)


def objective(outcome):
    """Saturated accuracy + speed score; each term lies in (0, 100.02]."""
    err_sq = outcome.end_error_cm ** 2
    accuracy = 0.25 * P_MAX_CM ** 2 / max(0.25, err_sq)
    speed = 16.67 * T_MAX_S / max(0.5, outcome.completion_time_s)
    return accuracy + speed


def export_hand_path(path_array, csv_path):
    """Write a hand path as CSV columns t, x, y."""
    np.savetxt(csv_path, path_array, fmt="%.6f", delimiter=",",
               header="t,x,y", comments="")
