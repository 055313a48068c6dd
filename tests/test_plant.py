"""Tests for the reaching plant and task objective."""

import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import synergy_es

from synergy_es.plant import (_ELBOW_START_RAD, STOP_SPEED_CM_S, ArmGeometry,
                              ReachOutcome, ReachTask, ShoulderProfile,
                              _hand_position, default_geometry,
                              default_profile, default_task, export_hand_path,
                              objective, simulate_reach)

NAN, INF = float("nan"), float("inf")
# default arm, profile rate and peak for the stop rule's edge cases
STOP_RULE_EDGE = dict(theta=1.7, upper=30.0, forearm=35.0, shoulder=(0.0, 0.0),
                      peak=0.75, start=0.45, rate=90.0, field="duration_s",
                      value=0.2)


def outcome(err, tf):
    return ReachOutcome(err, tf, err <= 5.0 and tf <= 3.0, np.zeros((1, 3)))


def reference_reach(geom, task, theta, profile):
    """simulate_reach with the hand path built one sample at a time."""
    dt = 1.0 / profile.sample_rate_hz
    times = np.arange(0.0, task.time_limit_s + dt / 2, dt)
    shoulder = profile.angle(times)
    elbow = _ELBOW_START_RAD - float(theta) * (shoulder - shoulder[0])
    path = np.empty((times.size, 3))
    for i, t in enumerate(times):
        path[i, 0] = t
        path[i, 1:] = _hand_position(geom, shoulder[i], elbow[i])
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
    dx, dy = path[stop_idx, 1:] - np.asarray(task.end_target)
    end_error = math.sqrt(dx * dx + dy * dy)
    completed = end_error <= task.success_radius_cm and t_f <= task.time_limit_s
    return ReachOutcome(end_error, t_f, completed, path)


class TestObjective:
    def test_both_saturation_floors(self):
        # 0.4 cm => err^2 = 0.16 < 0.25; 0.4 s < 0.5 s
        assert_allclose(objective(outcome(0.4, 0.4)), 200.02, atol=1e-2)

    def test_failure_corner(self):
        assert_allclose(objective(outcome(10.0, 3.0)), 16.92, atol=1e-2)

    def test_midpoint(self):
        assert_allclose(objective(outcome(1.0, 1.0)), 75.01, atol=1e-2)

    def test_monotone_in_error_and_time(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            e1, e2 = sorted(rng.uniform(0.0, 30.0, 2))
            t1, t2 = sorted(rng.uniform(0.05, 3.0, 2))
            assert objective(outcome(e1, t1)) >= objective(outcome(e2, t1)) - 1e-12
            assert objective(outcome(e1, t1)) >= objective(outcome(e1, t2)) - 1e-12

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            v = objective(outcome(rng.uniform(0, 50), rng.uniform(0.01, 3.0)))
            assert 0.0 < v <= 200.02 + 1e-9


class TestGeometryAndProfile:
    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            ArmGeometry(upper_arm_cm=-1.0)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            ShoulderProfile(duration_s=0.0)

    @pytest.mark.parametrize("cls, field, value", [
        (ArmGeometry, "upper_arm_cm", NAN),
        (ArmGeometry, "forearm_hand_cm", INF),
        (ArmGeometry, "shoulder_xy", (0.0, NAN)),
        (ArmGeometry, "shoulder_xy", (0.0,)),
        (ShoulderProfile, "duration_s", NAN),
        (ShoulderProfile, "sample_rate_hz", 0.0),
        (ShoulderProfile, "sample_rate_hz", -90.0),
        (ShoulderProfile, "sample_rate_hz", INF),
        (ShoulderProfile, "peak_flexion_rad", NAN),
        (ShoulderProfile, "start_flexion_rad", -INF),
        (ReachTask, "time_limit_s", -1.0),
        (ReachTask, "time_limit_s", NAN),
        (ReachTask, "success_radius_cm", 0.0),
        (ReachTask, "start_target", (NAN, 0.0)),
        (ReachTask, "end_target", (23.0, 0.0, 0.0)),
    ], ids=lambda v: repr(v) if isinstance(v, tuple) else None)
    def test_unworkable_field_rejected_by_name(self, cls, field, value):
        kwargs = {"start_target": (0.0, 0.0), "end_target": (23.0, 0.0)} \
            if cls is ReachTask else {}
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            cls(**kwargs)

    @pytest.mark.parametrize("make, field, value", [
        (default_geometry, "upper_arm_cm", -1.0),
        (default_geometry, "shoulder_xy", (0.0, NAN)),
        (default_task, "time_limit_s", 0.0),
        (default_profile, "duration_s", 0.0),
        (default_profile, "sample_rate_hz", 45.0),
    ])
    def test_fields_cannot_be_assigned(self, make, field, value):
        """A field set after construction would skip its check: with
        duration_s = 0.0 a reach would come back with a NaN error."""
        obj = make()
        before = asdict(obj)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, value)
        assert asdict(obj) == before

    def test_minimum_jerk_monotone(self):
        prof = default_profile()
        t = np.linspace(0, prof.duration_s, 200)
        ang = prof.angle(t)
        assert (np.diff(ang) >= -1e-12).all()
        assert_allclose(ang[0], prof.start_flexion_rad, atol=1e-12)
        assert_allclose(ang[-1], prof.start_flexion_rad + prof.peak_flexion_rad,
                        atol=1e-12)

    def test_default_targets_23cm_apart(self):
        task = default_task()
        d = np.linalg.norm(np.asarray(task.end_target)
                           - np.asarray(task.start_target))
        assert_allclose(d, 23.0, atol=1e-9)
        assert task.time_limit_s == 3.0
        assert task.success_radius_cm == 5.0


class TestSimulateReach:
    def test_zero_synergy_freezes_elbow(self):
        geom, prof = default_geometry(), default_profile()
        task = default_task(geom, prof)
        out = simulate_reach(geom, task, 0.0, prof)
        # hand stays on a circle of the locked-arm endpoint radius
        sh = np.asarray(geom.shoulder_xy)
        radii = np.linalg.norm(out.hand_path[:, 1:] - sh, axis=1)
        assert np.ptp(radii) < 1e-9

    def test_no_motion_until_time_limit(self):
        geom = default_geometry()
        prof = ShoulderProfile(peak_flexion_rad=0.0)
        task = default_task(geom, default_profile())
        out = simulate_reach(geom, task, 1.5, prof)
        assert out.completion_time_s == task.time_limit_s
        assert_allclose(out.end_error_cm, 23.0, atol=1e-6)
        assert not out.completed

    def test_deterministic(self):
        geom, prof = default_geometry(), default_profile()
        task = default_task(geom, prof)
        o1 = simulate_reach(geom, task, 1.6, prof)
        o2 = simulate_reach(geom, task, 1.6, prof)
        assert o1.end_error_cm == o2.end_error_cm
        assert o1.completion_time_s == o2.completion_time_s
        assert (o1.hand_path == o2.hand_path).all()

    def test_interior_error_minimum(self):
        geom, prof = default_geometry(), default_profile()
        task = default_task(geom, prof)
        thetas = np.arange(0.8, 2.4 + 1e-9, 0.01)
        errs = np.array([simulate_reach(geom, task, th, prof).end_error_cm
                         for th in thetas])
        i = int(np.argmin(errs))
        assert 0 < i < len(thetas) - 1  # interior minimum
        assert (np.abs(np.diff(errs)) < 2.0).all()  # continuity in theta

    def test_near_optimal_reach_completes(self):
        geom, prof = default_geometry(), default_profile()
        task = default_task(geom, prof)
        out = simulate_reach(geom, task, 1.7, prof)
        assert out.completed
        assert out.completion_time_s < task.time_limit_s

    def test_composition_unimodal(self):
        geom, prof = default_geometry(), default_profile()
        task = default_task(geom, prof)
        thetas = np.arange(0.8, 2.4 + 1e-9, 0.02)
        js = np.array([objective(simulate_reach(geom, task, th, prof))
                       for th in thetas])
        # one rising and one falling stretch, allowing plateaus
        d = np.sign(np.round(np.diff(js), 9))
        d = d[d != 0]
        switches = int(np.sum(np.diff(d) != 0))
        assert switches <= 1
        assert js.argmax() not in (0, len(js) - 1)

    def test_nonfinite_theta_rejected(self):
        geom, prof = default_geometry(), default_profile()
        task = default_task(geom, prof)
        with pytest.raises(ValueError):
            simulate_reach(geom, task, float("inf"), prof)

    @given(theta=st.floats(-5.0, 5.0), upper=st.floats(5.0, 60.0),
           forearm=st.floats(5.0, 60.0), duration=st.floats(0.1, 4.0),
           rate=st.floats(10.0, 240.0))
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_bitwise_equal_to_per_sample_loop(self, theta, upper, forearm,
                                              duration, rate):
        geom = ArmGeometry(upper_arm_cm=upper, forearm_hand_cm=forearm)
        prof = ShoulderProfile(duration_s=duration, sample_rate_hz=rate)
        task = default_task(geom, prof)
        out = simulate_reach(geom, task, theta, prof)
        ref = reference_reach(geom, task, theta, prof)
        assert np.array_equal(out.hand_path, ref.hand_path)
        assert out.end_error_cm == ref.end_error_cm
        assert out.completion_time_s == ref.completion_time_s
        assert out.completed == ref.completed
        assert out.completion_time_s <= task.time_limit_s
        assert not out.completed or out.end_error_cm <= task.success_radius_cm
        dt = 1.0 / rate
        times = out.hand_path[:, 0]
        assert np.array_equal(times, np.arange(times.size) * dt)
        assert times[-1] <= task.time_limit_s + dt / 2 < times[-1] + dt

    @given(theta=st.floats(-5.0, 5.0), upper=st.floats(5.0, 60.0),
           forearm=st.floats(5.0, 60.0),
           shoulder=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
           peak=st.floats(-1.5, 1.5), start=st.floats(-1.0, 1.5),
           duration=st.floats(0.1, 4.0), rate=st.floats(10.0, 240.0),
           limit=st.floats(0.1, 4.0),
           field=st.sampled_from(["peak_flexion_rad", "duration_s",
                                  "sample_rate_hz", "start_flexion_rad"]),
           value=st.floats(0.2, 3.0))
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    # the stop rule's edges on the default arm: a one-sample reach (the
    # limit under half a sample), motion still on at the time limit, and
    # motion from sample 0
    @example(**STOP_RULE_EDGE, duration=1.5, limit=0.004)
    @example(**STOP_RULE_EDGE, duration=3.0, limit=1.0)
    @example(**STOP_RULE_EDGE, duration=0.1, limit=3.0)
    def test_cached_sweep_never_mixes_arms(self, theta, upper, forearm,
                                           shoulder, peak, start, duration,
                                           rate, limit, field, value):
        geom_a = ArmGeometry(upper, forearm, shoulder)
        geom_b = ArmGeometry(forearm, upper, shoulder[::-1])
        prof = ShoulderProfile(peak, duration, rate, start)
        task = replace(default_task(geom_a, prof), time_limit_s=limit)
        # two arms in turn on one profile and task
        for geom in (geom_a, geom_b, geom_a):
            assert_same_outcome(simulate_reach(geom, task, theta, prof),
                                reference_reach(geom, task, theta, prof))
        # a changed profile reads no stale sweep
        prof = replace(prof, **{field: value})
        fresh = ShoulderProfile(**asdict(prof))
        out = simulate_reach(geom_a, task, theta, prof)
        assert_same_outcome(out, reference_reach(geom_a, task, theta, fresh))
        assert_same_outcome(out, simulate_reach(geom_a, task, theta, fresh))
        # a caller writing into its hand path changes no later reach
        out.hand_path[:] = np.nan
        assert_same_outcome(simulate_reach(geom_a, task, theta, prof),
                            reference_reach(geom_a, task, theta, fresh))

    @pytest.mark.parametrize("field, equal_values", [
        ("sample_rate_hz", (90.0, np.float32(90.0))),  # a float32 dt before
        ("start_flexion_rad", (0.0, -0.0)),
        ("duration_s", (2.0, 2, np.array(2.0))),  # a 0-d array is unhashable
    ], ids=["float32", "signed_zero", "int_and_0d_array"])
    def test_equal_values_of_other_types_or_bits_keep_their_own_sweep(
            self, field, equal_values):
        """Equal values of any numeric type build equal profiles whose field
        is the same float, so they share one sweep: the float64 reach."""
        geom = default_geometry()
        task = default_task(geom, default_profile())
        profs = [ShoulderProfile(**{field: v}) for v in equal_values]
        for prof in profs:
            assert prof == profs[0] and hash(prof) == hash(profs[0])
            assert_float_bits(getattr(prof, field), equal_values[0])
        ref = reference_reach(geom, task, 1.7, profs[0])
        assert ref.hand_path.dtype == np.float64
        for prof in (*profs, *profs):
            assert_same_outcome(simulate_reach(geom, task, 1.7, prof), ref)

    @given(data=st.data(), theta=st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    def test_field_representation_changes_no_object_and_no_reach(self, data,
                                                                  theta):
        values = data.draw(plant_values())
        other = data.draw(plant_values())
        objs = [build_plant(values, data.draw(written(values))) for _ in "ab"]
        again = build_plant(other, data.draw(written(other)))
        for a, b, c, (cls, fields) in zip(*objs, again, PLANT_FIELDS.items()):
            assert a == b and hash(a) == hash(b)
            assert (a == c) == (values[cls] == other[cls])
            for name, value in zip(fields, values[cls]):
                stored = getattr(a, name)
                if isinstance(value, tuple):
                    assert type(stored) is tuple and len(stored) == 2
                    for s, v in zip(stored, value):
                        assert_float_bits(s, v)
                else:
                    assert_float_bits(stored, value)
        (geom, task, prof), (geom_b, task_b, prof_b) = objs
        assert_same_outcome(simulate_reach(geom, task, theta, prof),
                            reference_reach(geom_b, task_b, theta, prof_b))


# every outcome of the 81-point grid as a line of bits (hand path by hash)
GRID_OUTCOMES = """
import hashlib
import numpy as np
from synergy_es.plant import (default_geometry, default_profile, default_task,
                              objective, simulate_reach)
geom, prof = default_geometry(), default_profile()
task = default_task(geom, prof)
lines = []
for theta in 0.8 + 0.02 * np.arange(81):
    out = simulate_reach(geom, task, theta, prof)
    lines.append(" ".join((hashlib.sha256(out.hand_path.tobytes()).hexdigest(),
                           out.end_error_cm.hex(), out.completion_time_s.hex(),
                           str(out.completed), objective(out).hex())))
"""


@pytest.mark.parametrize("coretype", ["Nehalem", "Prescott"])
def test_reach_grid_on_kernels_without_fma(coretype):
    """OPENBLAS_CORETYPE makes OpenBLAS pick an older CPU's kernels, which
    do not fuse products. A reach calls no BLAS (the end error is
    sqrt(dx*dx + dy*dy) on floats, not a BLAS dot), so every outcome of
    the grid, and its J, keeps its bits."""
    src = os.path.dirname(os.path.dirname(synergy_es.__file__))
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", GRID_OUTCOMES + "print(*lines, sep='\\n')"],
                          env=env, check=True, capture_output=True, text=True, timeout=300)
    scope = {}
    exec(GRID_OUTCOMES, scope)
    assert done.stdout.splitlines() == scope["lines"]


# each plant class -> its fields and the range of values drawn for each;
# a 2-tuple of ranges is a point
PLANT_FIELDS = {
    ArmGeometry: {"upper_arm_cm": (5, 60), "forearm_hand_cm": (5, 60),
                  "shoulder_xy": ((-20, 20), (-20, 20))},
    ReachTask: {"start_target": ((-10, 60), (-60, 10)),
                "end_target": ((-10, 60), (-60, 10)),
                "time_limit_s": (0.25, 4), "success_radius_cm": (0.5, 10)},
    ShoulderProfile: {"peak_flexion_rad": (-1.5, 1.5), "duration_s": (0.25, 4),
                      "sample_rate_hz": (10, 240), "start_flexion_rad": (-1, 1.5)},
}


def eighths(lo, hi):
    """Multiples of 1/8: exact in float32, a few whole, 0 where in range."""
    return st.integers(int(lo * 8), int(hi * 8)).map(lambda n: n / 8)


def plant_values():
    """{class: tuple of field values}, floats and points as 2-tuples."""
    def field(bounds):
        if isinstance(bounds[0], tuple):
            return st.tuples(*map(eighths, *zip(*bounds)))
        return eighths(*bounds)
    return st.fixed_dictionaries({
        cls: st.tuples(*map(field, fields.values()))
        for cls, fields in PLANT_FIELDS.items()})


def representations(value):
    """Ways a caller may write the float value."""
    reps = [value, np.float32(value), np.array(value), np.float64(value)]
    if value == int(value):
        reps.append(int(value))
    if value == 0:
        reps.append(-0.0)
    return reps


def written(values):
    """values with each number written one of its ways; a point as a
    tuple of those or as a float64 or float32 array."""
    def point(xy):
        return st.one_of(st.tuples(*(st.sampled_from(representations(v))
                                     for v in xy)),
                         st.sampled_from([np.array(xy),
                                          np.array(xy, dtype=np.float32)]))
    return st.fixed_dictionaries({
        cls: st.tuples(*(point(v) if isinstance(v, tuple)
                         else st.sampled_from(representations(v))
                         for v in vals))
        for cls, vals in values.items()})


def build_plant(values, written_values):
    """The geometry, task and profile of written_values (values as written)."""
    return [cls(**dict(zip(PLANT_FIELDS[cls], written_values[cls])))
            for cls in PLANT_FIELDS]


def assert_float_bits(stored, value):
    """stored is a float with the float64 bits of value, -0.0 as 0.0."""
    assert type(stored) is float
    assert stored.hex() == (float(value) + 0.0).hex()


def assert_same_outcome(out, ref):
    assert out.hand_path.tobytes() == ref.hand_path.tobytes()
    assert out.hand_path.dtype == ref.hand_path.dtype
    assert out.end_error_cm == ref.end_error_cm
    assert out.completion_time_s == ref.completion_time_s
    assert out.completed == ref.completed


def test_hand_path_export(tmp_path):
    geom, prof = default_geometry(), default_profile()
    task = default_task(geom, prof)
    out = simulate_reach(geom, task, 1.5, prof)
    path = tmp_path / "hand.csv"
    export_hand_path(out.hand_path, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == out.hand_path.shape[0] + 1
