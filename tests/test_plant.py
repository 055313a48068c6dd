"""Tests for the reaching plant and task objective."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from synergy_es.plant import (ArmGeometry, ReachOutcome, ReachTask,
                              ShoulderProfile, default_geometry,
                              default_profile, default_task, export_hand_path,
                              objective, simulate_reach)


def outcome(err, tf):
    return ReachOutcome(err, tf, err <= 5.0 and tf <= 3.0, np.zeros((1, 3)))


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


def test_hand_path_export(tmp_path):
    geom, prof = default_geometry(), default_profile()
    task = default_task(geom, prof)
    out = simulate_reach(geom, task, 1.5, prof)
    path = tmp_path / "hand.csv"
    export_hand_path(out.hand_path, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == out.hand_path.shape[0] + 1
