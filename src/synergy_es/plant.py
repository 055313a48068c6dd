"""Planar two-link reaching plant driven by the kinematic synergy law.

The elbow tracks shoulder flexion through the scalar synergy
(elbow rate = theta * shoulder rate, integrated exactly for constant
theta), forward kinematics give the hand path, and the task objective
scores end-point error and completion time with saturated terms:

    J = 0.25 * 100 / max(0.25, err_cm^2) + 16.67 * 3 / max(0.5, t_f)

Distances are in centimeters and times in seconds; that is the only
reading under which both terms normalize to a 0..100 range.

A reach computes its hand path only where the shoulder moves, fills the
still tail with the last hand point and tests squared steps against one
threshold per arm sweep; the bits are those of the per-sample formulas.
"""

import functools
import math
import sys
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
        if not math.isfinite(1.0 / self.sample_rate_hz):
            raise ValueError(f"sample_rate_hz = {self.sample_rate_hz} must have a "
                             "finite sample period")

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


def _hand_position(geom, shoulder_angle, elbow_flexion):
    """Hand point [x, y] of one arm pose: the forearm's end from the elbow joint."""
    ex, ey = _elbow_point(geom.upper_arm_cm, geom.shoulder_xy, shoulder_angle)
    fa = shoulder_angle + elbow_flexion
    return np.array((ex + geom.forearm_hand_cm * np.sin(fa),
                     ey - geom.forearm_hand_cm * np.cos(fa)))


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

    Returns the sample times, then the shoulder angles, the shoulder
    flexion from its start and the elbow-joint coordinates over the
    moving prefix, and the stop threshold on a squared step. All arrays
    are read-only since every reach on this key shares them.

    The moving prefix ends 2 samples after the first from which the
    shoulder angle keeps its bits, or at the last sample. The bits are
    compared as int64: a 0.0 after a -0.0 is a change, a repeated NaN is
    not. From that first still sample on, every hand point is the same
    elementwise function of the same bits, so every step is 0 and not
    moving; the prefix keeps the first still step, so the stop rule reads
    the same onset and rest.
    The threshold is the smallest double s with sqrt(s) / dt >= 1 cm/s:
    both roundings are correct and monotone, so s >= it gives the speed
    test's answer for every s >= 0, inf and NaN.
    A sample count past sys.maxsize raises a ValueError naming the time
    limit and the rate; the count is computed as np.arange computes it,
    before anything is allocated.
    """
    dt = 1.0 / profile.sample_rate_hz
    count = (time_limit_s + dt / 2) / dt
    if not count < sys.maxsize:
        raise ValueError(f"time_limit_s = {time_limit_s} at sample_rate_hz = "
                         f"{profile.sample_rate_hz} gives {count} samples, "
                         f"more than {sys.maxsize}")
    times = np.arange(0.0, time_limit_s + dt / 2, dt)
    shoulder = profile.angle(times)
    bits = shoulder.view(np.int64)
    changed = np.flatnonzero(bits != bits[-1])
    still = int(changed[-1]) + 1 if changed.size else 0
    shoulder = shoulder[:still + 2]
    flex = shoulder - shoulder[0]
    ex, ey = _elbow_point(geom.upper_arm_cm, geom.shoulder_xy, shoulder)
    for arr in (times, shoulder, flex, ex, ey):
        arr.flags.writeable = False
    return times, shoulder, flex, ex, ey, _stop_step_sq(dt)


def _stop_step_sq(dt):
    """The smallest double s with sqrt(s) / dt >= STOP_SPEED_CM_S."""
    def moving(s):
        return math.sqrt(s) / dt >= STOP_SPEED_CM_S
    step = STOP_SPEED_CM_S * dt
    s = step * step  # inf, not OverflowError, past the float range
    while not moving(s):
        s = math.nextafter(s, math.inf)
    while s > 0 and moving(math.nextafter(s, 0.0)):
        s = math.nextafter(s, 0.0)
    return s


def simulate_reach(geom, task, theta, profile):
    """Integrate the synergy-coupled reach and score the outcome.

    The elbow extends proportionally to shoulder flexion:
    elbow(t) = elbow(0) - theta * (shoulder(t) - shoulder(0)).
    The reach stops at the first sample where hand speed drops below
    1 cm/s after motion onset, or at the task time limit. The part that
    does not depend on theta comes from the arm sweep cached on the
    plant objects, whose float fields make equal objects compute equal bits.
    The part that does is a fixed sequence of array operations written
    into a fresh hand path, in the order of the per-sample formulas, over
    the sweep's moving prefix; the still tail is filled with the prefix's
    last hand point, and each squared step is compared with the sweep's
    threshold. The end error is sqrt(dx*dx + dy*dy) on Python floats, so
    its bits do not depend on the BLAS kernel.
    """
    if not math.isfinite(theta):
        raise ValueError("synergy value must be finite")
    times, shoulder, flex, ex, ey, stop_sq = _arm_sweep(geom, task.time_limit_s,
                                                        profile)
    forearm = geom.forearm_hand_cm
    prefix = shoulder.size
    path = np.empty((times.size, 3))
    path[:, 0] = times
    hx, hy = path[:prefix, 1], path[:prefix, 2]
    # the forearm angle shoulder + elbow, as _hand_position computes it
    fa = float(theta) * flex
    np.subtract(_ELBOW_START_RAD, fa, out=fa)
    np.add(shoulder, fa, out=fa)
    np.multiply(forearm, np.sin(fa), out=hx)
    np.add(ex, hx, out=hx)
    np.multiply(forearm, np.cos(fa, out=fa), out=hy)
    np.subtract(ey, hy, out=hy)
    path[prefix:, 1] = hx[-1]
    path[prefix:, 2] = hy[-1]
    dx, dy = hx[1:] - hx[:-1], hy[1:] - hy[:-1]
    moving = dx * dx + dy * dy >= stop_sq
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
    dx_end = float(path[stop_idx, 1]) - end_x
    dy_end = float(path[stop_idx, 2]) - end_y
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
