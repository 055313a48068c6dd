"""Planar two-link reaching plant driven by the kinematic synergy law.

The elbow tracks shoulder flexion through the scalar synergy
(elbow rate = theta * shoulder rate, integrated exactly for constant
theta), forward kinematics give the hand path, and the task objective
scores end-point error and completion time with saturated terms:

    J = 0.25 * 100 / max(0.25, err_cm^2) + 16.67 * 3 / max(0.5, t_f)

Distances are in centimeters and times in seconds; that is the only
reading under which both terms normalize to a 0..100 range.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import check_fields

P_MAX_CM = 10.0
T_MAX_S = 3.0
STOP_SPEED_CM_S = 1.0
# arm sweeps kept by simulate_reach: one serves a whole theta sweep, and a
# few arms or profiles evaluated in turn still find theirs
_SWEEP_CACHE_SIZE = 8


@dataclass(frozen=True)
class ArmGeometry:
    upper_arm_cm: float = 30.0
    forearm_hand_cm: float = 35.0
    shoulder_xy: tuple = (0.0, 0.0)

    def __post_init__(self):
        check_fields(self, positive=("upper_arm_cm", "forearm_hand_cm"),
                     lengths={"shoulder_xy": 2})


@dataclass(frozen=True)
class ReachTask:
    start_target: tuple
    end_target: tuple
    time_limit_s: float = T_MAX_S
    success_radius_cm: float = 5.0

    def __post_init__(self):
        check_fields(self, positive=("time_limit_s", "success_radius_cm"),
                     lengths={"start_target": 2, "end_target": 2})


@dataclass(frozen=True)
class ShoulderProfile:
    """Minimum-jerk shoulder flexion ramp sampled at the headset rate."""

    peak_flexion_rad: float = 0.75
    duration_s: float = 1.5
    sample_rate_hz: float = 90.0
    start_flexion_rad: float = 0.45

    def __post_init__(self):
        # a peak of 0 is a valid profile: the arm never moves
        check_fields(self, positive=("duration_s", "sample_rate_hz"),
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


def _elbow_point(upper_arm_cm, shoulder_xy, shoulder_angle):
    """Sagittal-plane elbow joint; x forward, y up, flexion raises the arm."""
    sx, sy = shoulder_xy
    return (sx + upper_arm_cm * np.sin(shoulder_angle),
            sy - upper_arm_cm * np.cos(shoulder_angle))


def _hand_point(forearm_hand_cm, elbow_xy, shoulder_angle, elbow_flexion):
    """Hand point at the end of the forearm from the elbow joint."""
    ex, ey = elbow_xy
    fa = shoulder_angle + elbow_flexion
    return (ex + forearm_hand_cm * np.sin(fa),
            ey - forearm_hand_cm * np.cos(fa))


def _hand_position(geom, shoulder_angle, elbow_flexion):
    """Hand point [x, y] of one arm pose."""
    elbow_xy = _elbow_point(geom.upper_arm_cm, geom.shoulder_xy, shoulder_angle)
    return np.array(_hand_point(geom.forearm_hand_cm, elbow_xy, shoulder_angle,
                                elbow_flexion))


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


@functools.lru_cache(maxsize=_SWEEP_CACHE_SIZE)
def _arm_sweep(geom, time_limit_s, profile):
    """The theta-independent half of a reach, computed once per arm,
    time limit and profile.

    Returns dt, the sample times, the shoulder angles, the shoulder
    flexion from its start and the elbow-joint coordinates, all read-only
    since every reach on this key shares them.
    """
    dt = 1.0 / profile.sample_rate_hz
    times = np.arange(0.0, time_limit_s + dt / 2, dt)
    shoulder = profile.angle(times)
    flex = shoulder - shoulder[0]
    ex, ey = _elbow_point(geom.upper_arm_cm, geom.shoulder_xy, shoulder)
    for arr in (times, shoulder, flex, ex, ey):
        arr.flags.writeable = False
    return dt, times, shoulder, flex, ex, ey


def simulate_reach(geom, task, theta, profile):
    """Integrate the synergy-coupled reach and score the outcome.

    The elbow extends proportionally to shoulder flexion:
    elbow(t) = elbow(0) - theta * (shoulder(t) - shoulder(0)).
    The reach stops at the first sample where hand speed drops below
    1 cm/s after motion onset, or at the task time limit. The part that
    does not depend on theta comes from the arm sweep cached on the
    plant objects, whose float fields make equal objects compute equal bits.
    The part that does is a fixed sequence of array operations written
    into a fresh hand path, in the order of the per-sample formulas, and
    the end error is sqrt(dx*dx + dy*dy) on Python floats, so its bits do
    not depend on the BLAS kernel.
    """
    if not math.isfinite(theta):
        raise ValueError("synergy value must be finite")
    dt, times, shoulder, flex, ex, ey = _arm_sweep(geom, task.time_limit_s,
                                                   profile)
    forearm = geom.forearm_hand_cm
    path = np.empty((times.size, 3))
    path[:, 0] = times
    hx, hy = path[:, 1], path[:, 2]
    # the forearm angle shoulder + elbow, as _hand_point computes it
    fa = float(theta) * flex
    np.subtract(_ELBOW_START_RAD, fa, out=fa)
    np.add(shoulder, fa, out=fa)
    np.multiply(forearm, np.sin(fa), out=hx)
    np.add(ex, hx, out=hx)
    np.multiply(forearm, np.cos(fa, out=fa), out=hy)
    np.subtract(ey, hy, out=hy)
    # norm(diff(path[:, 1:]), axis=1) for real input is sqrt(dx*dx + dy*dy)
    dx, dy = hx[1:] - hx[:-1], hy[1:] - hy[:-1]
    moving = np.sqrt(dx * dx + dy * dy) / dt >= STOP_SPEED_CM_S
    # the first sample at rest after the first one in motion; none (the
    # time limit) when the hand never moves or is still moving at the end
    stop_idx = times.size - 1
    t_f = task.time_limit_s
    if moving.size:
        onset = int(moving.argmax())
        rest = onset + int(moving[onset:].argmin())
        if moving[onset] and not moving[rest]:
            stop_idx = rest
            t_f = float(times[rest])
    end_x, end_y = task.end_target
    dx_end = float(hx[stop_idx]) - end_x
    dy_end = float(hy[stop_idx]) - end_y
    end_error = math.sqrt(dx_end * dx_end + dy_end * dy_end)
    completed = end_error <= task.success_radius_cm
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
