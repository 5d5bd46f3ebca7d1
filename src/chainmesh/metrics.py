"""Run metrics: throughput, finality, tip-pool series, and dispersion.

A run's `SeriesRecorder` keeps each series in the form its artifact prints:
the confirmations as per-minute counts, not as their times, and the
tip-pool samples and finality seconds as flat columns of machine numbers.
`write_json` writes every JSON file, of a run and of a batch."""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


def gini(values: Sequence[float]) -> float | None:
    """Mean absolute difference over twice the mean, None if all mass is zero.

    Equals 0 for perfectly even shares and approaches 1 when a single
    participant holds everything.
    """
    x = np.asarray(list(values), dtype=float)
    if np.any(x < 0):
        raise ValueError("dispersion is defined for non-negative values")
    total = x.sum()
    if total == 0:
        return None
    n = x.size
    x = np.sort(x)
    # Sorted-prefix identity for the pairwise |xi - xj| double sum.
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * x).sum() - (n + 1) * x.sum()) / (n * x.sum()))


class SeriesRecorder:
    """Accumulates the series a run of `duration_min` minutes exports as CSV
    artifacts: the tip-pool samples, each confirmed block's finality, and
    the blocks confirmed in each whole minute, counted as they confirm; a
    confirmation past the last minute counts in it. Each sample and each
    finality is kept as its own value, column by column, not folded into
    a running sum."""

    def __init__(self, duration_min: float):
        self.tip_times = array("d")         # seconds of each sample
        self.tip_counts = array("q")        # tip-pool size at each sample
        self.finality_ids: list[str] = []   # each confirmed block's id
        self.finality_s = array("d")        # and its seconds to confirm
        self.throughput = [0] * max(1, math.ceil(duration_min))

    def sample_tip_pool(self, time_s: float, count: int) -> None:
        self.tip_times.append(round(float(time_s), 6))
        self.tip_counts.append(int(count))

    def record_finality(self, block_id: str, seconds: float) -> None:
        self.finality_ids.append(block_id)
        self.finality_s.append(round(float(seconds), 6))

    def record_confirmed(self, time_s: float) -> None:
        last = len(self.throughput) - 1
        self.throughput[min(last, int(time_s // 60.0))] += 1


@dataclass(frozen=True)
class MetricsReport:
    """Headline numbers for one finished run."""

    scenario: str
    seed: int
    duration_min: float
    intra_blocks_per_min: float         # proposal pipelines finished, honest
    inter_blocks_per_min: float         # valid blocks confirmed on the ledger
    confirmed_blocks: int
    attached_blocks: int
    mean_finality_s: float | None
    mean_tip_pool: float | None
    final_tip_pool: int | None
    confirmation_gini: float | None
    conservation_ok: bool
    double_spend: Mapping[str, float] | None = None

    def to_mapping(self) -> dict:
        """Every field by name; a run without double-spend has no entry."""
        data = asdict(self)
        if self.double_spend is None:
            del data["double_spend"]
        return data


def write_json(path: str | Path, data: Mapping) -> None:
    """Write `data` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_artifacts(out_dir: str | Path, recorder: SeriesRecorder,
                    report: MetricsReport, snapshot_lines: Iterable[str],
                    event_lines: Iterable[str]) -> None:
    """Write the CSV/JSON/snapshot/event-log artifact set for one run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in (
            ("tip_pool.csv", ("time_s", "count"),
             zip(recorder.tip_times, recorder.tip_counts)),
            ("finality.csv", ("block_id", "seconds"),
             zip(recorder.finality_ids, recorder.finality_s)),
            ("throughput.csv", ("minute", "confirmed"),
             enumerate(recorder.throughput))):
        with open(out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    write_json(out / "metrics.json", report.to_mapping())
    for name, lines in (("dag_snapshot.txt", snapshot_lines),
                        ("events.log", event_lines)):
        with open(out / name, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
