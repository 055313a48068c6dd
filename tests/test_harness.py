"""Tests for episode running, traces, batches, configs and comparisons."""

import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from synergy_es.cli import main
from synergy_es.config import read_config, write_config
from synergy_es.harness import (CONVERGENCE_HOLD, ExperimentConfig,
                                compare_traces, convergence_iteration,
                                read_trace_csv, run_batch, run_episode,
                                summarize_batch, write_trace_csv)
from synergy_es.personalizer import PersonalizerConfig
from synergy_es.subject import subject_a


class TestEpisode:
    def test_fixed_algorithm_settles_to_map_value(self):
        cfg = ExperimentConfig(subject="A", algorithm="fixed", noise_std=0.0,
                               fixed_theta=1.0, iterations=150)
        trace = run_episode(cfg)
        js = trace.column("J")
        subj = subject_a(noise_std=0.0)
        target = subj.map.value(1.0) * subj.dynamics.steady_state_gain()
        # settles monotonically toward the steady-state output
        assert abs(js[-1] - target) < 1e-6
        assert (np.diff(js[:20]) > -1e-9).all()

    def test_determinism_identical_bytes(self, tmp_path):
        cfg = ExperimentConfig(subject="A", algorithm="greybox", seeds=(42,))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(run_episode(cfg), p1)
        write_trace_csv(run_episode(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shared_tuning_reaches_both_optima(self):
        for name in ("A", "B"):
            cfg = ExperimentConfig(subject=name, algorithm="greybox",
                                   noise_std=0.0)
            trace = run_episode(cfg)
            hats = trace.column("theta_hat")
            from synergy_es.harness import make_subject
            ths = make_subject(name, 0).optimum()
            assert abs(np.median(hats[-25:]) - ths) < 0.1

    def test_iteration_count_must_cover_warmup(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="greybox", iterations=4)
        # the black-box loop has no warmup
        trace = run_episode(ExperimentConfig(algorithm="blackbox", iterations=4))
        assert len(trace.rows) == 4

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="magic")

    def test_trace_iterations_contiguous(self):
        cfg = ExperimentConfig(subject="B", algorithm="blackbox",
                               iterations=40)
        trace = run_episode(cfg)
        assert [r.iteration for r in trace.rows] == list(range(40))


class TestSweep:
    def test_sweep_law_spot_values(self):
        cfg = ExperimentConfig(subject="A", algorithm="sweep", noise_std=0.0)
        trace = run_episode(cfg)
        thetas = trace.column("theta_applied")
        assert_allclose(thetas[0], 0.8, atol=1e-12)
        assert_allclose(thetas[125], 1.8, atol=1e-12)
        assert_allclose(thetas[200], 2.4, atol=1e-12)
        assert len(trace.rows) == 201

    def test_noise_free_sweep_peak_near_optimum(self):
        cfg = ExperimentConfig(subject="A", algorithm="sweep", noise_std=0.0)
        trace = run_episode(cfg)
        thetas = trace.column("theta_applied")
        js = trace.column("J")
        ths = subject_a().optimum()
        # transient lag shifts the peak slightly past the map optimum
        assert abs(thetas[int(np.argmax(js))] - ths) < 0.1

    def test_noisy_sweep_mean_tracks_noise_free(self):
        base = run_episode(ExperimentConfig(subject="A", algorithm="sweep",
                                            noise_std=0.0))
        ref = base.column("J")
        acc = np.zeros_like(ref)
        nseeds = 20
        for seed in range(nseeds):
            cfg = ExperimentConfig(subject="A", algorithm="sweep",
                                   seeds=(seed,))
            acc += run_episode(cfg).column("J")
        mean = acc / nseeds
        band = 2 * 16.81 / np.sqrt(nseeds)
        assert np.mean(np.abs(mean - ref) <= band) > 0.93


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(subject="B", algorithm="greybox", seeds=(3,),
                               iterations=60)
        trace = run_episode(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert loaded == trace

    def test_header_and_metadata(self, tmp_path):
        cfg = ExperimentConfig(subject="A", algorithm="blackbox", seeds=(5,),
                               iterations=30)
        trace = run_episode(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        text = path.read_text()
        assert "# config_hash:" in text
        assert "iteration,theta_applied,theta_hat,J" in text

    def test_blank_lines_skipped(self, tmp_path):
        cfg = ExperimentConfig(subject="A", algorithm="fixed", iterations=5)
        trace = run_episode(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n\n")
        assert read_trace_csv(path) == trace

    def test_config_hash_changes_with_fields(self):
        c1 = ExperimentConfig(subject="A")
        c2 = ExperimentConfig(subject="B")
        c3 = ExperimentConfig(subject="A", iterations=151)
        assert c1.config_hash() != c2.config_hash()
        assert c1.config_hash() != c3.config_hash()
        assert c1.config_hash() == ExperimentConfig(subject="A").config_hash()

    @pytest.mark.parametrize("algorithm", ["greybox", "blackbox", "sweep",
                                           "fixed"])
    @pytest.mark.parametrize("subject", ["A", "B"])
    @given(seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=3, deadline=None, database=None, derandomize=True)
    def test_round_trip_property(self, tmp_path_factory, algorithm, subject,
                                 seed):
        """A seed gives the same trace and the same CSV bytes every run, and
        the trace survives a CSV write and read exactly (NaN cells
        included)."""
        cfg = ExperimentConfig(subject=subject, algorithm=algorithm)
        trace, again = run_episode(cfg, seed), run_episode(cfg, seed)
        assert again == trace
        out = tmp_path_factory.mktemp("trace")
        write_trace_csv(trace, out / "trace.csv")
        write_trace_csv(again, out / "again.csv")
        assert (out / "trace.csv").read_bytes() == (out / "again.csv").read_bytes()
        assert read_trace_csv(out / "trace.csv") == trace


def _changed(value):
    if isinstance(value, tuple):
        return tuple(v + 0.1 for v in value)
    return value + 1 if isinstance(value, int) else value * 1.5


class TestConfig:
    @pytest.mark.parametrize("section,cls", [("personalizer", PersonalizerConfig)])
    def test_every_nested_field_enters_hash(self, section, cls):
        base = ExperimentConfig()
        for f in fields(cls):
            nested = replace(getattr(base, section),
                             **{f.name: _changed(f.default)})
            changed = replace(base, **{section: nested})
            assert changed.config_hash() != base.config_hash(), f.name

    def test_personalizer_ini_round_trip(self, tmp_path):
        cfg = PersonalizerConfig(**{f.name: _changed(f.default)
                                    for f in fields(PersonalizerConfig)})
        path = tmp_path / "p.ini"
        write_config(path, {"personalizer": cfg.as_dict()})
        back = PersonalizerConfig.from_mapping(read_config(path)["personalizer"])
        assert back == cfg

    @pytest.mark.parametrize("section", ["experiment", "personalizer"])
    def test_unknown_ini_key_exits_2(self, tmp_path, capsys, section):
        path = tmp_path / "exp.ini"
        path.write_text(f"[{section}]\nno_such_key = 1\n")
        rc = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "no_such_key" in capsys.readouterr().err


class TestBatch:
    def test_single_seed_batch_equals_episode(self, tmp_path):
        cfg = ExperimentConfig(subject="A", algorithm="greybox", seeds=(7,),
                               output_dir=str(tmp_path), noise_std=0.0)
        summary, traces = run_batch(cfg)
        alone = run_episode(cfg, 7)
        assert traces[0] == alone
        assert summary["episodes"] == 1
        assert (tmp_path / "summary_greybox.csv").exists()
        assert (tmp_path / "theta_greybox.svg").exists()
        assert (tmp_path / "performance_greybox.svg").exists()

    def test_failure_records_type_and_traceback(self, tmp_path):
        cfg = ExperimentConfig(subject=str(tmp_path / "missing.ini"),
                               algorithm="fixed", output_dir=str(tmp_path))
        summary, traces = run_batch(cfg, theta_star=1.5)
        assert summary["aborted"] and traces == []
        (fail,) = summary["failures"]
        assert fail["seed"] == 0
        assert fail["type"] == "FileNotFoundError"
        assert "missing.ini" in fail["message"]
        assert fail["traceback"].startswith("Traceback")
        assert "FileNotFoundError" in fail["traceback"]

    def test_summary_recomputable_from_traces(self, tmp_path):
        cfg = ExperimentConfig(subject="A", algorithm="greybox",
                               seeds=tuple(range(5)), output_dir=str(tmp_path),
                               noise_std=0.0)
        summary, traces = run_batch(cfg)
        again = summarize_batch(traces, summary["theta_star"])
        for key in ("median_convergence_iteration", "median_final_theta"):
            assert summary[key] == again[key]

    def test_convergence_iteration_definition(self):
        hats = np.full(100, 2.0)
        hats[:40] = 1.0
        assert convergence_iteration(hats, 2.0) == 40
        assert convergence_iteration(np.full(20, 2.0), 2.0) is None  # < hold
        wob = np.full(100, 2.0)
        wob[:40] = 1.0
        wob[50] = 2.5  # breaks every window that covers it
        assert convergence_iteration(wob, 2.0) == 51

    # runs of hits and misses, so that windows held for CONVERGENCE_HOLD
    # iterations and runs just short of it both occur; 0-200 iterations
    @given(runs=st.lists(st.tuples(st.booleans(), st.integers(1, 40)), max_size=30))
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_convergence_iteration_matches_window_loop(self, runs):
        def window_loop(ok):  # the definition, one window at a time
            for i in range(len(ok) - CONVERGENCE_HOLD + 1):
                if all(ok[i:i + CONVERGENCE_HOLD]):
                    return i
            return None

        ok = [hit for hit, length in runs for _ in range(length)][:200]
        hats = [2.0 if hit else 2.5 for hit in ok]
        got = convergence_iteration(hats, 2.0)
        want = window_loop(ok)
        assert got == want
        assert type(got) is type(want)


class TestCompare:
    def test_differential_report(self, tmp_path):
        good = ExperimentConfig(subject="A", algorithm="greybox",
                                seeds=tuple(range(4)), noise_std=0.0)
        bad = ExperimentConfig(subject="A", algorithm="blackbox",
                               seeds=tuple(range(4)), noise_std=0.0)
        ta = [run_episode(good, s) for s in range(4)]
        tb = [run_episode(bad, s) for s in range(4)]
        ths = subject_a().optimum()
        rep = compare_traces(ta, tb, ths)
        assert rep["set_a_total"] == rep["set_b_total"] == 4
        assert rep["set_a_success"] >= rep["set_b_success"]
