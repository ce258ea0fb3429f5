"""The report fixture: 16 report groups of 504 records, and the time `emit_report` takes on it.

12 dyads x 42 months, at steps 0, 1, 3 and 6, for two digest kinds and two
sources (model and conflictology): 16 (step, kind, source) groups of one
record per dyad-month, each scored once. Model scores are Dirichlet draws
leaning towards the actual state; conflictology scores are flat Dirichlet
draws.

Run as a script to time one `emit_report` at a given resample count:

    PYTHONPATH=src python tests/report_fixture.py --n-boot 1000

It prints the wall time, the peak resident set size of the process before
and after the report, and the data rows of metrics.csv (16 groups x 3
metrics = 48) and of per_class.csv.
"""

from __future__ import annotations

import argparse
import csv
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from nexus.evaluation import ForecastRecord, emit_report

N_DYADS, N_MONTHS = 12, 42
STEPS = (0, 1, 3, 6)
KINDS = ("low_context", "high_context")
FIRST_MONTH = 24_000  # 2000-01


def report_records(seed: int = 0) -> tuple[list[ForecastRecord], list[ForecastRecord]]:
    """(model records, conflictology records) over the same structure."""
    rng = np.random.default_rng(seed)
    actual = rng.integers(0, 4, size=(N_DYADS, N_MONTHS))
    model, baseline = [], []
    for step in STEPS:
        for kind in KINDS:
            for d in range(N_DYADS):
                for m in range(N_MONTHS):
                    state = int(actual[d, m])
                    lean = 1.0 + 2.0 * (np.arange(4) == state)
                    for records, source, alpha in (
                        (model, "model", lean),
                        (baseline, "conflictology", np.ones(4)),
                    ):
                        probs = rng.dirichlet(alpha)
                        records.append(ForecastRecord(
                            f"d{d:02d}", FIRST_MONTH + m, step,
                            tuple(probs.tolist()), state, source, kind,
                        ))
    return model, baseline


def _data_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.DictReader(fh))


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-boot", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    model, baseline = report_records(args.seed)
    before = _peak_rss_mib()
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        emit_report(model, baseline, out, n_boot=args.n_boot, seed=args.seed)
        wall = time.perf_counter() - start
        rows = {name: _data_rows(Path(out) / name) for name in ("metrics.csv", "per_class.csv")}
    print(
        f"emit_report n_boot={args.n_boot}: {wall:.2f} s, "
        f"peak RSS {_peak_rss_mib():.0f} MiB ({before:.0f} MiB before the report), "
        + ", ".join(f"{name} {n} rows" for name, n in rows.items())
    )


if __name__ == "__main__":
    main()
