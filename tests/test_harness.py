"""Tests for episode running, traces, batches, configs and comparisons."""

import csv
import gc
import math
import os
import struct
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from synergy_es import harness
from synergy_es.cli import main
from synergy_es.config import read_config, write_config
from synergy_es.baseline import BlackBoxEs
from synergy_es.harness import (ALGORITHMS, CONVERGENCE_HOLD, CONVERGENCE_TOL,
                                TRACE_COLUMNS, EpisodeTrace, ExperimentConfig,
                                _format_floats, _parse_floats, compare_traces,
                                convergence_iteration, make_subject,
                                read_trace_csv, run_batch, run_episode,
                                summarize_batch, write_trace_csv)
from synergy_es.personalizer import (DEFAULT_CONFIG, DEFAULT_L, Personalizer,
                                     PersonalizerConfig, StepRecord)
from synergy_es.plant import ArmGeometry, ReachTask, ShoulderProfile
from synergy_es.subject import MotorNoise, save_subject, subject_a, subject_b


def trace_of(rows, metadata):
    """The trace of rows, one StepRecord or tuple per iteration, transposed
    into the columns EpisodeTrace takes."""
    return EpisodeTrace(list(zip(*rows)) or [()] * len(TRACE_COLUMNS), metadata)


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

    def test_shared_design_leaks_no_state(self):
        # interleaved episodes on one config, so on one design, equal runs
        # on a fresh config with a design of its own
        cfg = ExperimentConfig(subject="B", algorithm="greybox")
        traces = [(seed, run_episode(cfg, seed)) for seed in (3, 5, 3)]
        for seed, trace in traces:
            fresh = replace(cfg, personalizer=PersonalizerConfig())
            assert fresh.personalizer.design is not cfg.personalizer.design
            assert run_episode(fresh, seed) == trace

    def test_iteration_count_must_cover_warmup(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="greybox", iterations=4)
        # the black-box loop has no warmup
        trace = run_episode(ExperimentConfig(algorithm="blackbox", iterations=4))
        assert len(trace.columns.iteration) == 4

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="magic")

    def test_missing_subject_file_rejected(self, tmp_path):
        path = str(tmp_path / "missing.ini")
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(subject=path)
        assert str(exc.value) == f"{path!r} is neither A, B nor a subject file"
        # a path is a str: an int would name an open file descriptor
        for subject in (None, 2):
            with pytest.raises(ValueError, match="is neither A, B nor a subject"):
                ExperimentConfig(subject=subject)

    def test_trace_iterations_contiguous(self):
        cfg = ExperimentConfig(subject="B", algorithm="blackbox",
                               iterations=40)
        trace = run_episode(cfg)
        assert trace.columns.iteration == list(range(40))


class TestSweep:
    def test_sweep_law_spot_values(self):
        cfg = ExperimentConfig(subject="A", algorithm="sweep", noise_std=0.0)
        trace = run_episode(cfg)
        thetas = trace.column("theta_applied")
        assert_allclose(thetas[0], 0.8, atol=1e-12)
        assert_allclose(thetas[125], 1.8, atol=1e-12)
        assert_allclose(thetas[200], 2.4, atol=1e-12)
        assert len(trace.columns.iteration) == 201

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


# float columns by kind: all finite, all NaN, no finite value, mixed
FLOAT_COLUMNS = {
    "finite": [1.5, -0.0, 1e-300, 0.1, 5e-324, -1e300, 0.0],
    "nan": [math.nan] * 5,
    "nonfinite": [math.nan, math.inf, -math.inf, math.inf],
    "mixed": [1.5, math.nan, -0.0, math.inf, 1e-300, -math.inf, 0.1],
    "mixed-nan-last": [-0.0, 2.0, math.nan],
    "empty": [],
}


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(subject="B", algorithm="greybox", seeds=(3,),
                               iterations=60)
        trace = run_episode(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert loaded == trace

    @pytest.mark.parametrize("key", ["subject_id", "algorithm"])
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_line_break_in_metadata_rejected_by_key(self, tmp_path, key, brk):
        """A metadata value is one '# key: value' line; a break would start
        a line that reads as other metadata or as the header."""
        trace = run_episode(ExperimentConfig(algorithm="fixed", iterations=3))
        trace.metadata[key] = f"left{brk}right"
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=f"metadata {key} "):
            write_trace_csv(trace, path)
        assert not path.exists()

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

    @pytest.mark.parametrize("subject", "AB")
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bytes_equal_row_wise_writer(self, tmp_path, algorithm, subject):
        trace = run_episode(ExperimentConfig(subject=subject, algorithm=algorithm,
                                             seeds=(4,)))
        write_trace_csv(trace, tmp_path / "columns.csv")
        _write_row_wise(trace, tmp_path / "rows.csv")
        assert (tmp_path / "columns.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()
        assert read_trace_csv(tmp_path / "columns.csv") == trace

    def test_odd_cells_bytes_and_round_trip(self, tmp_path):
        """Non-finite floats become empty cells (read back as NaN), -0.0 and
        subnormals keep their bits, and branch text is csv-quoted."""
        nan, inf = math.nan, math.inf
        rows = [StepRecord(0, nan, inf, -inf, -0.0, 5e-324, 1.5, ""),
                StepRecord(1, 1.0, -0.0, 3.0, 0.0, nan, -1e-310, 'a,b "c"'),
                StepRecord(2, 0.1, -inf, 1e300, 2.0, inf, 0.0, "gradient")]
        trace = trace_of(rows, {"config_hash": "x", "seed": 7,
                                "subject_id": "odd", "algorithm": "fixed"})
        write_trace_csv(trace, tmp_path / "columns.csv")
        _write_row_wise(trace, tmp_path / "rows.csv")
        text = (tmp_path / "columns.csv").read_bytes()
        assert text == (tmp_path / "rows.csv").read_bytes()
        assert b'\r\n1,1.0,-0.0,3.0,0.0,,-1e-310,"a,b ""c"""\r\n' in text
        loaded = read_trace_csv(tmp_path / "columns.csv")
        expected = trace_of(
            [StepRecord(0, nan, nan, nan, -0.0, 5e-324, 1.5, ""),
             StepRecord(1, 1.0, -0.0, 3.0, 0.0, nan, -1e-310, 'a,b "c"'),
             StepRecord(2, 0.1, nan, 1e300, 2.0, nan, 0.0, "gradient")],
            trace.metadata)
        assert loaded == expected
        for name in TRACE_COLUMNS[1:-1]:  # float columns, sign of zero included
            assert loaded.column(name).tobytes() == expected.column(name).tobytes()
        assert loaded.column("branch") == expected.column("branch")

    def test_short_row_and_header_only_messages(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(run_episode(ExperimentConfig(algorithm="fixed",
                                                     iterations=3)), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines) + "3,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}: trace row 3 has 2 cells, expected 8"
        path.write_text("".join(lines[:5]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}: trace has no rows"

    def test_bad_cell_named_in_row_order(self, tmp_path):
        """The first cell that does not parse, in row order, is reported
        with its file, row and column, also when an earlier column of a
        later row is bad too."""
        path = tmp_path / "trace.csv"
        write_trace_csv(run_episode(ExperimentConfig(algorithm="fixed",
                                                     iterations=8)), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for row, column, cell in ((5, "theta_applied", "x"), (3, "J", "abc"),
                                  (6, "iteration", "6.0")):
            cells = lines[5 + row].split(",")  # 4 metadata lines, header
            cells[TRACE_COLUMNS.index(column)] = cell
            lines[5 + row] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}: row 3, column J: cannot parse 'abc'"

    @pytest.mark.parametrize("branch", ["a\rb", "a\r\nb", "x\n# seed: 9",
                                        "\r", "\n#", '"\n"'])
    def test_quoted_line_breaks_round_trip(self, tmp_path, branch):
        """A line break in a quoted cell reads back as written, also when
        the line after it starts with '#': metadata ends at the header."""
        rows = [StepRecord(0, 1.0, 1.0, 2.0, 0.0, 0.0, 0.0, branch),
                StepRecord(1, 1.5, 1.5, 2.5, 0.0, 0.0, 0.0, "newton")]
        trace = trace_of(rows, {"config_hash": "x", "seed": 3,
                                "subject_id": "A", "algorithm": "greybox"})
        write_trace_csv(trace, tmp_path / "trace.csv")
        loaded = read_trace_csv(tmp_path / "trace.csv")
        assert loaded == trace
        assert loaded.column("branch") == [branch, "newton"]

    def test_metadata_line_after_header_is_a_short_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(run_episode(ExperimentConfig(algorithm="fixed",
                                                     iterations=3)), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:6] + ["# seed: 9\n"] + lines[6:]),
                        encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}: trace row 1 has 1 cells, expected 8"

    @given(cells=st.lists(st.tuples(*[st.floats()] * 6,
                                    st.text(',"\r\n# ab', max_size=6)),
                          min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_writer_matches_csv_on_generated_rows(self, tmp_path_factory, cells):
        """Any floats (NaN, +-inf, -0.0, subnormals) and any branch text
        give csv.writer's bytes, and the file reads back as the trace with
        each non-finite float turned into NaN."""
        trace = trace_of([StepRecord(i, *row) for i, row in enumerate(cells)],
                         {"config_hash": "h", "seed": 1, "subject_id": "B",
                          "algorithm": "blackbox"})
        out = tmp_path_factory.mktemp("trace")
        write_trace_csv(trace, out / "columns.csv")
        _write_row_wise(trace, out / "rows.csv")
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()
        finite = trace_of(
            [StepRecord(i, *[v if math.isfinite(v) else math.nan for v in row[:6]],
                        row[6]) for i, row in enumerate(cells)], trace.metadata)
        loaded = read_trace_csv(out / "columns.csv")
        assert loaded == finite
        for name in TRACE_COLUMNS[1:-1]:  # float columns, sign of zero included
            assert loaded.column(name).tobytes() == finite.column(name).tobytes()

    @pytest.mark.parametrize("values", FLOAT_COLUMNS.values(), ids=FLOAT_COLUMNS)
    def test_float_columns_equal_the_per_cell_rule(self, values):
        """Each column is formatted and parsed as cell by cell: repr of a
        finite float, an empty cell otherwise, and an empty cell read as
        NaN; -0.0 and 1e-300 keep their bits."""
        texts = _format_floats(values)
        assert texts == [repr(v) if math.isfinite(v) else "" for v in values]
        want = [float(t) if t else math.nan for t in texts]
        assert list(map(repr, _parse_floats(tuple(texts)))) == list(map(repr, want))

    @pytest.mark.parametrize("texts", [("1.0", "abc"), ("", "abc"), ("x",)])
    def test_float_column_with_a_bad_cell_raises(self, texts):
        with pytest.raises(ValueError):
            _parse_floats(texts)

    def test_mixed_float_column_round_trip(self, tmp_path):
        """A trace whose J column mixes finite and NaN cells, which no loop
        writes, gives the row-wise bytes and reads back as written."""
        trace = run_episode(ExperimentConfig(subject="B", algorithm="blackbox",
                                             iterations=30))
        columns = trace.columns._replace(
            J=[math.nan if i % 4 == 1 else j for i, j in enumerate(trace.columns.J)])
        mixed = EpisodeTrace(columns, trace.metadata)
        write_trace_csv(mixed, tmp_path / "columns.csv")
        _write_row_wise(mixed, tmp_path / "rows.csv")
        assert (tmp_path / "columns.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()
        loaded = read_trace_csv(tmp_path / "columns.csv")
        assert loaded == mixed
        assert loaded.column("J").tobytes() == mixed.column("J").tobytes()

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


def _write_row_wise(trace, path):
    """The row-by-row writer that write_trace_csv replaced, kept as the byte
    oracle: one formatted cell per field, one csv row per StepRecord."""
    def cell(value):
        if isinstance(value, float):
            return repr(value) if math.isfinite(value) else ""
        return value

    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key in ("config_hash", "seed", "subject_id", "algorithm"):
            fh.write(f"# {key}: {trace.metadata[key]}\n")
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in zip(*trace.columns):  # the cells in TRACE_COLUMNS order
            writer.writerow([cell(value) for value in row])


def _odd_trace(nan=math.nan, zero=0.0, seed=2, length=3):
    rows = [StepRecord(i, 1.0 + i, nan, 2.0, zero, -1e-310, 0.5, "newton")
            for i in range(length)]
    return trace_of(rows, {"config_hash": "h", "seed": seed,
                           "subject_id": "A", "algorithm": "greybox"})


class TestTraceEquality:
    def test_distinct_nan_objects_are_equal(self):
        assert float("nan") is not math.nan
        assert _odd_trace(nan=float("nan")) == _odd_trace(nan=math.nan)

    def test_signed_zeros_are_equal(self):
        assert _odd_trace(zero=-0.0) == _odd_trace(zero=0.0)

    @pytest.mark.parametrize("column", TRACE_COLUMNS[1:])
    @pytest.mark.parametrize("row", [0, 2])
    def test_one_changed_cell_is_unequal(self, column, row):
        trace = _odd_trace()
        changed = [list(row) for row in zip(*trace.columns)]
        index = TRACE_COLUMNS.index(column)
        changed[row][index] = "gradient" if column == "branch" else 0.25
        other = trace_of([StepRecord(*r) for r in changed], trace.metadata)
        assert other != trace and trace != other

    def test_changed_metadata_or_length_is_unequal(self):
        assert _odd_trace(seed=3) != _odd_trace()
        assert _odd_trace(length=2) != _odd_trace()
        assert _odd_trace(length=0) != _odd_trace()


def _exact(rows):
    # repr is exact for floats and makes NaN equal NaN
    return [tuple(map(repr, r)) for r in rows]


def _tracked_reachable(obj):
    """How many objects the collector tracks that obj reaches, classes and
    what they reach aside."""
    seen, todo = set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) not in seen and gc.is_tracked(o) and not isinstance(o, type):
            seen.add(id(o))
            todo.extend(gc.get_referents(o))
    return len(seen)


class TestTraceColumns:
    """A trace is held as one list per StepRecord field, as a loop's is;
    its rows are built from them on access."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("subject", "AB")
    def test_rows_rebuild_the_trace(self, algorithm, subject):
        cfg = ExperimentConfig(subject=subject, algorithm=algorithm, iterations=60)
        trace = run_episode(cfg, 5)
        assert trace_of(trace.rows, trace.metadata) == trace
        assert all(type(r) is StepRecord for r in trace.rows)
        subj = make_subject(subject, 5)
        if algorithm in ("greybox", "blackbox"):
            loop = (Personalizer if algorithm == "greybox" else BlackBoxEs)(
                cfg.personalizer)
            loop.run(subj.step, cfg.iterations)
            assert _exact(loop.columns) == _exact(trace.columns)
        else:  # the open-loop rows: the schedule, J, zeros and no branch
            assert _exact(trace.rows) == _exact(
                StepRecord(i, th, th, subj.step(th), 0.0, 0.0, 0.0, "")
                for i, th in enumerate(trace.columns.theta_applied))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("subject", "AB")
    def test_cells_have_their_fields_types(self, tmp_path, algorithm, subject):
        # the writer's repr and the bits of column() rely on exact types
        trace = run_episode(ExperimentConfig(subject=subject, algorithm=algorithm,
                                             iterations=30))
        write_trace_csv(trace, tmp_path / "t.csv")
        types = list(StepRecord.__annotations__.values())
        for tr in (trace, read_trace_csv(tmp_path / "t.csv")):
            for name, kind, values in zip(TRACE_COLUMNS, types, tr.columns):
                assert {type(v) for v in values} == {kind}, name

    def test_no_tracked_object_per_iteration(self):
        # a StepRecord, a tuple subclass, stays tracked by the collector
        # for as long as it lives; a trace of floats, ints and strs holds
        # none, so its episodes set off no collections
        short, long = (run_episode(ExperimentConfig(iterations=n)) for n in (10, 150))
        loop = Personalizer()
        loop.run(subject_a().step, 150)
        gc.collect()
        for columns in (long.columns, loop.columns):
            assert not any(map(gc.is_tracked, (v for values in columns for v in values)))
        assert _tracked_reachable(long) == _tracked_reachable(short)

    def test_constructor_copies_and_rejects_ragged_columns(self):
        trace = _odd_trace()
        columns = [list(values) for values in trace.columns]
        copied = EpisodeTrace(columns, trace.metadata)
        assert copied == trace
        columns[3][0] = 9.0
        assert copied == trace
        with pytest.raises(ValueError, match="trace has 7 columns, expected 8"):
            EpisodeTrace(columns[:7], trace.metadata)
        with pytest.raises(ValueError, match="trace has 7 columns, expected 8"):
            trace_of([r[:7] for r in zip(*trace.columns)], trace.metadata)
        for name in TRACE_COLUMNS[1:]:
            ragged = [list(values) for values in trace.columns]
            ragged[TRACE_COLUMNS.index(name)].pop()
            with pytest.raises(ValueError, match=f"trace column {name} has 2 values, "
                                                 "iteration has 3"):
                EpisodeTrace(ragged, trace.metadata)
        for iterations in ([0, 2, 1], [1, 2, 3]):
            with pytest.raises(ValueError, match="contiguous from 0"):
                EpisodeTrace([iterations, *columns[1:]], trace.metadata)

    @pytest.mark.parametrize("length, message", [
        (3, "trace has 3 columns, expected 8"),
        # 8 rows pass the count and length checks; row 0 is no 0..7
        (8, "trace iterations must be contiguous from 0")])
    def test_constructor_rejects_rows(self, length, message):
        rows = [StepRecord(i, 1.0 + i, 0.5, 2.0, 0.0, -1e-310, 0.5, "newton")
                for i in range(length)]
        with pytest.raises(ValueError, match=message):
            EpisodeTrace(rows, {})


def _changed(value):
    # a changed config must still build: omega_o x 1.5 and L + 0.1 each
    # give an unstable observer, omega_o x 1.05 and L - 0.1 do not
    if isinstance(value, tuple):
        return tuple(v - 0.1 for v in value)
    return value + 1 if isinstance(value, int) else value * 1.05


# the personalizer defaults as values of other numeric types
OTHER_PERSONALIZER = {"observer_gain": np.array(DEFAULT_L),
                      "bounds": np.array([0.8, 2.4]),
                      "dither_amplitude": np.array(0.02),
                      "filter_gain": np.float32(0.5), "filter_q": 5,
                      "theta_0": np.float32(1.0),
                      "warmup_iterations": np.int64(8)}
# config class -> (keyword values as floats, the same values as ints,
# exact float32s, int64s, 0-d arrays and -0.0)
OTHER_NUMERIC_TYPES = {
    ArmGeometry: ({"upper_arm_cm": 30.0, "shoulder_xy": (0.0, 0.0)},
                  {"upper_arm_cm": np.int64(30),
                   "shoulder_xy": np.array([-0.0, 0.0])}),
    ReachTask: ({"start_target": (1.5, -2.0), "end_target": (24.5, -2.0),
                 "time_limit_s": 3.0},
                {"start_target": np.array([1.5, -2], dtype=np.float32),
                 "end_target": [np.float64(24.5), -2], "time_limit_s": 3}),
    ShoulderProfile: ({"peak_flexion_rad": 0.75, "duration_s": 1.5,
                       "sample_rate_hz": 90.0, "start_flexion_rad": 0.0},
                      {"peak_flexion_rad": np.float32(0.75),
                       "duration_s": np.array(1.5),
                       "sample_rate_hz": np.int64(90),
                       "start_flexion_rad": -0.0}),
    MotorNoise: ({"mean": 0.0, "std": 1.0, "seed": 3},
                 {"mean": -0.0, "std": np.float32(1.0)}),
    PersonalizerConfig: ({}, OTHER_PERSONALIZER),
    ExperimentConfig: ({"noise_std": 1.0, "fixed_theta": 1.0, "seeds": (0, 1)},
                       {"iterations": np.int64(40), "seeds": [np.int64(0), 1],
                        "noise_std": np.float32(1.0),
                        "fixed_theta": np.array(1),
                        "personalizer": PersonalizerConfig(**OTHER_PERSONALIZER)}),
}
# (config class, keyword values one of which cannot work, its error)
BAD_VALUES = [
    (ArmGeometry, {"upper_arm_cm": 0}, "upper_arm_cm = 0.0 must be positive"),
    (ReachTask, {"start_target": (0.0,), "end_target": (23.0, 0.0)},
     "start_target must have 2 values, not (0.0,)"),
    (ShoulderProfile, {"start_flexion_rad": np.nan},
     "start_flexion_rad = nan must be finite"),
    (MotorNoise, {"std": np.float32(-1)}, "noise_std = -1.0 must be >= 0"),
    (MotorNoise, {"mean": np.inf}, "noise_mean = inf must be finite"),
    (PersonalizerConfig, {"gain": np.float32(-1)}, "k = -1.0 must be positive"),
    (PersonalizerConfig, {"observer_gain": (1.5, 0.25)},
     "L must have 5 values, not (1.5, 0.25)"),
    (PersonalizerConfig, {"warmup_iterations": 8.0},
     "warmup_iterations = 8.0 must be an integer"),
    (ExperimentConfig, {"iterations": np.int64(0)},
     "iterations = 0 must be positive"),
    (ExperimentConfig, {"noise_std": -0.5}, "noise_std = -0.5 must be >= 0"),
    (ExperimentConfig, {"fixed_theta": (1.0, 2.0)},
     "fixed_theta = (1.0, 2.0) must be one number"),
    (ExperimentConfig, {"seeds": (1.5,)}, "seeds = (1.5,) must be integers"),
    (ExperimentConfig, {"seeds": ("a",)}, "seeds = ('a',) must be integers"),
    (ExperimentConfig, {"seeds": 3}, "seeds = 3 must be integers"),
    (ExperimentConfig, {"seeds": (3, np.int64(3), 4)},
     "seed 3 is repeated in seeds = (3, 3, 4)"),
    (ExperimentConfig, {"seeds": (1, np.int64(-2))}, "seed = -2 must be >= 0"),
]


class TestConfig:
    @pytest.mark.parametrize("section,cls", [("personalizer", PersonalizerConfig)])
    def test_every_nested_field_enters_hash(self, section, cls):
        base = ExperimentConfig()
        for f in fields(cls):
            nested = replace(getattr(base, section),
                             **{f.name: _changed(f.default)})
            changed = replace(base, **{section: nested})
            assert changed.config_hash() != base.config_hash(), f.name

    def test_default_configs_share_one_design(self):
        a, b = ExperimentConfig(), ExperimentConfig(subject="B")
        assert a.personalizer is b.personalizer
        assert a.personalizer.design is b.personalizer.design

    def test_personalizer_ini_round_trip(self, tmp_path):
        cfg = PersonalizerConfig(**{f.name: _changed(f.default)
                                    for f in fields(PersonalizerConfig)})
        path = tmp_path / "p.ini"
        write_config(path, {"personalizer": cfg.as_dict()})
        back = PersonalizerConfig.from_mapping(read_config(path)["personalizer"])
        assert back == cfg

    @pytest.mark.parametrize("algorithm", ["greybox", "blackbox"])
    def test_array_and_float32_values_build_the_default_config(self, algorithm):
        """Values of other numeric types are stored as the float-built
        object stores them: each object equals, hashes and reprs as it,
        and the configs hash and run as the default."""
        for cls, (floats, others) in OTHER_NUMERIC_TYPES.items():
            if cls is ExperimentConfig:
                floats = {**floats, "algorithm": algorithm, "iterations": 40}
            ref, obj = cls(**floats), cls(**{**floats, **others})
            assert obj == ref, cls.__name__
            for f in fields(ref):  # float bits and types, -0.0 as 0.0
                ours, theirs = getattr(obj, f.name), getattr(ref, f.name)
                assert type(ours) is type(theirs), (cls.__name__, f.name)
                assert repr(ours) == repr(theirs), (cls.__name__, f.name)
            if cls.__hash__ is not None:
                assert hash(obj) == hash(ref), cls.__name__
            if cls is MotorNoise:  # float samples: J computes in float64
                samples = [obj.sample() for _ in range(5)]
                assert samples == [ref.sample() for _ in range(5)]
                assert {type(j) for j in samples} == {float}
            if cls is ExperimentConfig:
                assert obj.config_hash() == ref.config_hash()
                assert run_episode(obj) == run_episode(ref)

    @pytest.mark.parametrize("cls, kwargs, message", BAD_VALUES,
                             ids=[f"{cls.__name__}-{next(iter(kw))}"
                                  for cls, kw, _ in BAD_VALUES])
    def test_bad_value_rejected_by_label(self, cls, kwargs, message):
        with pytest.raises(ValueError) as exc:
            cls(**kwargs)
        assert str(exc.value) == message

    def test_config_hash_is_computed_once_per_config(self):
        cfg = ExperimentConfig(subject="B", algorithm="blackbox", seeds=(1, 2))
        first = cfg.config_hash()
        assert cfg.config_hash() is first  # stored, not computed again
        assert first == ExperimentConfig._hash.func(cfg)  # a fresh computation
        for changed in (replace(cfg, iterations=151), replace(cfg, algorithm="greybox"),
                        replace(cfg, personalizer=PersonalizerConfig(gain=0.04))):
            assert changed.config_hash() != first
            assert changed.config_hash() == ExperimentConfig._hash.func(changed)
        # the seeds of a batch share its hash
        assert replace(cfg, seeds=(3,)).config_hash() == first

    def test_experiment_config_cannot_be_assigned(self):
        """A field set after construction would skip its check: a negative
        noise_std would run a whole episode."""
        cfg = ExperimentConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.noise_std = -5.0
        assert cfg.noise_std is None
        assert replace(cfg, noise_std=2).noise_std == 2.0

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

    @pytest.mark.parametrize("algorithm", ["greybox", "sweep"])
    def test_subject_file_read_once_per_batch(self, tmp_path, monkeypatch, algorithm):
        # the batch builds its subject once and reseeds it per seed; its
        # traces are the ones each seed's episode gives alone
        path = tmp_path / "subject.ini"
        save_subject(path, subject_b(seed=9))
        cfg = ExperimentConfig(subject=str(path), algorithm=algorithm,
                               seeds=(4, 0, 7), output_dir=str(tmp_path / "out"))
        loads, load = [], harness.load_subject
        monkeypatch.setattr(harness, "load_subject",
                            lambda p: loads.append(p) or load(p))
        _, traces = run_batch(cfg)
        assert loads == [str(path)]
        assert traces == [run_episode(cfg, seed) for seed in cfg.seeds]

    def test_failure_records_type_and_traceback(self, tmp_path):
        # noise this large overflows J to inf: the loop's finite-J check fails
        cfg = ExperimentConfig(subject="A", algorithm="blackbox", noise_std=1e308,
                               output_dir=str(tmp_path))
        summary, traces = run_batch(cfg, theta_star=1.5)
        assert summary["aborted"] and traces == []
        (fail,) = summary["failures"]
        assert fail["seed"] == 0
        assert fail["type"] == "ValueError"
        assert fail["message"] == "non-finite performance measurement (sensor fault)"
        assert fail["traceback"].startswith("Traceback")
        assert "ValueError" in fail["traceback"]

    def test_malformed_subject_file_raises_before_output(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[subject]\nlambda = -1 2 0\n")  # no dynamics
        cfg = ExperimentConfig(subject=str(path), output_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError) as exc:
            run_batch(cfg, theta_star=1.0)
        assert str(exc.value) == f"{path}: [subject] phi: missing"
        assert not (tmp_path / "out").exists()

    def test_map_with_no_maximum_needs_theta_star(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[subject]\nlambda = 1 0 0\nphi = 0.5\ngamma = 0.5\n"
                        "psi = 1\n")
        cfg = ExperimentConfig(subject=str(path), algorithm="fixed", iterations=3,
                               seeds=(0, 1), output_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError) as exc:
            run_batch(cfg)
        assert str(exc.value) == (f"{path}: map is not strictly concave "
                                  "(lam[0] >= 0); no unique maximum")
        assert not (tmp_path / "out").exists()
        # given theta*, the batch runs on the map as it is
        summary, traces = run_batch(cfg, theta_star=1.0)
        assert not summary["aborted"] and len(traces) == 2

    def test_summary_recomputable_from_traces(self, tmp_path):
        cfg = ExperimentConfig(subject="A", algorithm="greybox",
                               seeds=tuple(range(5)), output_dir=str(tmp_path),
                               noise_std=0.0)
        summary, traces = run_batch(cfg)
        again = summarize_batch(traces, summary["theta_star"])
        for key in ("median_convergence_iteration", "median_final_theta"):
            assert summary[key] == again[key]

    def test_empty_summary_reads_none(self):
        # no warning (an error here) from a median of nothing
        assert summarize_batch([], 1.5) == {
            "episodes": 0, "converged": 0, "median_convergence_iteration": None,
            "iqr_convergence": None, "median_final_theta": None,
            "per_seed_convergence": [], "per_seed_final_theta": []}

    def test_convergence_iteration_definition(self):
        hats = np.full(100, 2.0)
        hats[:40] = 1.0
        assert convergence_iteration(hats, 2.0) == 40
        assert convergence_iteration(np.full(20, 2.0), 2.0) is None  # < hold
        wob = np.full(100, 2.0)
        wob[:40] = 1.0
        wob[50] = 2.5  # breaks every window that covers it
        assert convergence_iteration(wob, 2.0) == 51
        gap = np.full(60, 2.0)
        gap[10] = math.nan  # never within the tolerance
        assert convergence_iteration(gap, 2.0) == 11
        short = np.full(100, 2.0)
        short[CONVERGENCE_HOLD - 1] = 2.5  # ends a run one short of the hold
        assert convergence_iteration(short, 2.0) == CONVERGENCE_HOLD
        assert convergence_iteration([], 2.0) is None
        # |0.1 - 0.0| is CONVERGENCE_TOL exactly in floats: not within it
        assert convergence_iteration([0.1] * CONVERGENCE_HOLD, 0.0) is None
        inside = math.nextafter(0.1, 0.0)  # one ulp inside
        assert convergence_iteration([inside] * CONVERGENCE_HOLD, 0.0) == 0

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


def _numpy_summary(traces, theta_star):
    """Per trace, (convergence iteration, final theta) by the numpy
    expressions summarize_batch used before it ran on Python floats: the
    oracle of its bits."""
    out = []
    for tr in traces:
        hats = tr.column("theta_hat")
        with np.errstate(invalid="ignore"):  # inf - inf
            ok = np.abs(np.asarray(hats, dtype=float) - theta_star) < CONVERGENCE_TOL
        counts = np.concatenate(([0], np.cumsum(ok)))
        held = counts[CONVERGENCE_HOLD:] - counts[:-CONVERGENCE_HOLD]
        hits = np.flatnonzero(held == CONVERGENCE_HOLD)
        out.append((int(hits[0]) if hits.size else None,
                    float(np.median(hats[-CONVERGENCE_HOLD:]))))
    return out


def _bits(value):
    return None if value is None else struct.pack("<d", value)


# theta_hat values: near theta* = 1.5 (converged or not), signed zeros,
# non-finite values and NaNs of either sign, and any float
_HAT = st.one_of(st.floats(1.35, 1.65), st.floats(),
                 st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                                  -math.nan, 1.45, 1.55]))


class TestSummarizeBits:
    @given(runs=st.lists(st.lists(st.tuples(_HAT, st.integers(1, 30)), min_size=1,
                                  max_size=6), min_size=1, max_size=4),
           theta_star=st.one_of(st.just(1.5), st.sampled_from([0.0, -0.0, math.inf,
                                                               math.nan])))
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def test_summary_bits_equal_numpy_expressions_property(self, runs, theta_star):
        """Traces of 1-80 rows: shorter than CONVERGENCE_HOLD, even and odd
        final windows, NaN, +-inf and signed zeros."""
        traces = []
        for trace_runs in runs:
            hats = [h for h, length in trace_runs for _ in range(length)][:80]
            traces.append(trace_of(
                [StepRecord(i, h, h, 0.0, 0.0, 0.0, 0.0, "") for i, h in enumerate(hats)],
                {}))
        summary = summarize_batch(traces, theta_star)
        want = _numpy_summary(traces, theta_star)
        got = list(zip(summary["per_seed_convergence"], summary["per_seed_final_theta"]))
        assert [(c, type(c), _bits(f)) for c, f in got] == \
            [(c, type(c), _bits(f)) for c, f in want]


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
        # a trace read back from CSV scores as the trace it was written from
        for i, tr in enumerate(ta):
            write_trace_csv(tr, tmp_path / f"{i}.csv")
        read = [read_trace_csv(tmp_path / f"{i}.csv") for i in range(4)]
        assert compare_traces(read, tb, ths) == rep

    # set A's final theta_hats (each after a first row of 9.0), theta*, tol
    # and its successes: the comparison is strict, so a final theta_hat
    # exactly tol away fails; set B, empty, scores 0 of 0
    @pytest.mark.parametrize("finals, theta_star, tol, wins", [
        ([1.75, 1.25], 1.5, 0.25, 0),
        ([math.nextafter(1.75, 0), 1.25], 1.5, 0.25, 1),
        ([0.1, math.nextafter(0.1, 0)], 0.0, CONVERGENCE_TOL, 1),
        ([], 1.5, CONVERGENCE_TOL, 0)])
    def test_success_is_the_last_rows_theta_hat(self, finals, theta_star, tol, wins):
        traces = [trace_of([StepRecord(0, 9.0, 9.0, 0.0, 0.0, 0.0, 0.0, ""),
                            StepRecord(1, f, f, 0.0, 0.0, 0.0, 0.0, "")], {})
                  for f in finals]
        assert compare_traces(traces, [], theta_star, tol) == {
            "set_a_success": wins, "set_a_total": len(finals),
            "set_b_success": 0, "set_b_total": 0, "a_minus_b": wins}
