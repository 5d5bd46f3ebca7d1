"""Dispersion measure, time-series bucketing, and artifact writing."""

import csv
import json

import numpy as np
import pytest

from chainmesh.metrics import (MetricsReport, SeriesRecorder, gini,
                               write_artifacts)


def gini_naive(values):
    """Independent double-loop definition of the dispersion measure."""
    x = [float(v) for v in values]
    n = len(x)
    total = sum(x)
    if n == 0 or total == 0:
        return None
    num = sum(abs(a - b) for a in x for b in x)
    return num / (2.0 * n * total)


class TestGini:
    def test_equal_shares_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_single_holder_approaches_one(self):
        assert gini([0, 0, 0, 10]) == pytest.approx(3 / 4)

    def test_all_zero_is_absent(self):
        assert gini([0, 0, 0]) is None

    def test_empty_is_absent(self):
        assert gini([]) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([1, -1])

    def test_matches_naive_oracle_on_random_vectors(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            x = rng.integers(0, 50, size=n)
            expected = gini_naive(x)
            got = gini(x)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_scale_invariant(self):
        x = [1, 4, 2, 9]
        assert gini(x) == pytest.approx(gini([v * 1000 for v in x]))


def confirmed_per_minute(times_s, duration_min):
    rec = SeriesRecorder(duration_min)
    for t in times_s:
        rec.record_confirmed(t)
    return rec.throughput


class TestPerMinute:
    def test_buckets_by_minute(self):
        assert confirmed_per_minute([1.0, 59.9, 60.0, 61.0, 150.0], 3.0) \
            == [2, 2, 1]

    def test_overflow_clips_into_last_bucket(self):
        assert confirmed_per_minute([179.0, 185.0], 3.0) == [0, 0, 2]

    def test_empty(self):
        assert confirmed_per_minute([], 2.0) == [0, 0]


def make_report(**over):
    base = dict(scenario="t", seed=1, duration_min=2.0,
                intra_blocks_per_min=10.0, inter_blocks_per_min=8.0,
                confirmed_blocks=16, attached_blocks=20,
                mean_finality_s=4.2, mean_tip_pool=3.0, final_tip_pool=2,
                confirmation_gini=0.1, conservation_ok=True)
    base.update(over)
    return MetricsReport(**base)


class TestArtifacts:
    def test_writes_full_artifact_set(self, tmp_path):
        rec = SeriesRecorder(2.0)
        rec.sample_tip_pool(0.5, 3)
        rec.sample_tip_pool(1.5, 4)
        rec.record_finality("b1", 2.25)
        rec.record_confirmed(10.0)
        rec.record_confirmed(70.0)
        write_artifacts(tmp_path, rec, make_report(),
                        ["genesis -1 0 - confirmed 1/1"],
                        ['{"chain": 0}'])
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"tip_pool.csv", "finality.csv", "throughput.csv",
                         "metrics.json", "dag_snapshot.txt", "events.log"}

    def test_csv_headers_and_rows(self, tmp_path):
        rec = SeriesRecorder(2.0)
        rec.sample_tip_pool(1.0, 7)
        rec.record_finality("blk", 3.5)
        rec.record_confirmed(61.0)
        write_artifacts(tmp_path, rec, make_report(), [], [])
        with open(tmp_path / "tip_pool.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["time_s", "count"], ["1.0", "7"]]
        with open(tmp_path / "finality.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["block_id", "seconds"], ["blk", "3.5"]]
        with open(tmp_path / "throughput.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["minute", "confirmed"], ["0", "0"], ["1", "1"]]

    def test_metrics_json_sorted_and_complete(self, tmp_path):
        rec = SeriesRecorder(2.0)
        report = make_report(double_spend={"detected": 9.0})
        write_artifacts(tmp_path, rec, report, [], [])
        text = (tmp_path / "metrics.json").read_text()
        data = json.loads(text)
        assert data["scenario"] == "t"
        assert data["double_spend"] == {"detected": 9.0}
        keys = list(data)
        assert keys == sorted(keys)

    def test_snapshot_and_event_log_lines(self, tmp_path):
        rec = SeriesRecorder(2.0)
        write_artifacts(tmp_path, rec, make_report(), ["line-a", "line-b"],
                        ["{\"e\": 1}"])
        assert (tmp_path / "dag_snapshot.txt").read_text() == "line-a\nline-b\n"
        assert (tmp_path / "events.log").read_text() == "{\"e\": 1}\n"
