"""Kernel timings: the GP objective at five series lengths and one pooled country fit.

The kernels, on inputs built in-process from seeded numpy draws:
  - ``gp_trend._log_marginal_and_grad`` on one series of n = 24, 42, 54,
    72 and 240 months (240 is the length of a real UCDP series);
  - ``gp_trend.fit_hierarchical`` on one country of 3 dyads and 72 months
    at ``max_iter=20``.

Each time is the minimum over ``--batches`` batches of the mean time per
call in the batch; ``timeit``'s autorange sizes a batch to at least 0.2 s.
Run as a script, with the BLAS thread cap set before Python starts:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python tests/bench_kernels.py

It prints one line per kernel and then one JSON line with the times, the
machine, the Python, numpy and scipy versions and the BLAS thread cap.
``--src DIR`` times the ``nexus`` package of another source tree instead;
the objective's inputs come from that tree's own ``_series_data``.

Paired mode compares two trees in alternating subprocesses:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python tests/bench_kernels.py \\
        --src . --against OTHER_TREE --pairs 10 --out BENCH_micro.json

Pair i runs the ``--against`` tree ("before") first when i is even and
the ``--src`` tree ("after") first when i is odd. The file records every
pair's two times per kernel, each side's median, the median after/before
ratio and how many pairs "after" won.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

import numpy as np
import scipy

LENGTHS = (24, 42, 54, 72, 240)
FIT_DYADS, FIT_MONTHS, FIT_MAX_ITER = 3, 72, 20
SEED = 0


def _series(dyad_id: str, n: int, rng):
    """A dyad of n months whose counts follow a slow random-walk trend, as the GP assumes."""
    from nexus.ingest import DyadMonthSeries

    trend = 1.5 + 0.3 * rng.standard_normal(n).cumsum() / math.sqrt(n / 12)
    raw = rng.poisson(np.exp(trend.clip(-3.0, 6.0)))
    return DyadMonthSeries(dyad_id, "c", np.arange(24_000, 24_000 + n), np.log1p(raw), raw)


def kernels() -> dict:
    """Kernel name -> a call of it on its seeded input, in the ``nexus`` first on ``sys.path``."""
    from nexus import gp_trend  # after main() has put the chosen tree first

    rng = np.random.default_rng(SEED)
    params = gp_trend.KernelParams(12.0, 1.3, 0.4)
    calls = {}
    for n in LENGTHS:
        data = gp_trend._series_data(_series("d", n, rng))
        calls[f"log_marginal_and_grad_n{n}"] = (
            lambda data=data: gp_trend._log_marginal_and_grad(*data, params)
        )
    country = [_series(f"d{i}", FIT_MONTHS, rng) for i in range(FIT_DYADS)]
    prior = gp_trend.PriorSpec(math.log(12.0), 1.0)
    calls[f"fit_hierarchical_{FIT_DYADS}x{FIT_MONTHS}"] = (
        lambda: gp_trend.fit_hierarchical(country, prior, max_iter=FIT_MAX_ITER)
    )
    return calls


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "machine": f"{platform.system()} {platform.machine()}, {cpu}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_thread_cap": {
            name: os.environ.get(name, "unset") for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def time_kernels(batches: int) -> dict:
    """Kernel name -> the minimum over `batches` batches of seconds per call."""
    times = {}
    for name, call in kernels().items():
        timer = timeit.Timer(call)
        number, _ = timer.autorange()
        times[name] = min(timer.repeat(repeat=batches, number=number)) / number
    return times


def run_tree(src: Path, batches: int) -> dict:
    """``time_kernels`` of the tree `src`, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--src", str(src), "--batches", str(batches)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])["seconds_per_call"]


def paired(src: Path, against: Path, pairs: int, batches: int) -> dict:
    runs = []
    for i in range(pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        tree = {"before": against, "after": src}
        runs.append({side: run_tree(tree[side], batches) for side in order})
        print(f"pair {i + 1}/{pairs}, {order[0]} first:", json.dumps(runs[-1]), flush=True)
    summary = {}
    for name in runs[0]["before"]:
        before = [run["before"][name] for run in runs]
        after = [run["after"][name] for run in runs]
        summary[name] = {
            "before_median_s": statistics.median(before),
            "after_median_s": statistics.median(after),
            "median_ratio": statistics.median(a / b for a, b in zip(after, before)),
            "after_wins": sum(a < b for a, b in zip(after, before)),
            "pairs": len(runs),
        }
    return {"batches": batches, "kernels": summary, "runs": runs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, help="source tree whose src/ holds nexus (default: this one)")
    parser.add_argument("--batches", type=int, default=7)
    parser.add_argument("--against", type=Path, help="paired mode: the tree timed as 'before'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="paired mode: write the JSON record here")
    args = parser.parse_args()
    src = args.src or Path(__file__).resolve().parents[1]
    if args.against is not None:
        record = {**environment(), **paired(src, args.against, args.pairs, args.batches)}
        for name, row in record["kernels"].items():
            print(f"{name}: before {row['before_median_s'] * 1e6:.1f} us, after "
                  f"{row['after_median_s'] * 1e6:.1f} us, ratio {row['median_ratio']:.3f}, "
                  f"after won {row['after_wins']}/{row['pairs']}")
        if args.out is not None:
            args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return
    sys.path.insert(0, str(src / "src"))
    times = time_kernels(args.batches)
    for name, seconds in times.items():
        print(f"{name}: {seconds * 1e6:.1f} us per call, minimum of {args.batches} batches")
    print(json.dumps({**environment(), "batches": args.batches, "seconds_per_call": times}))


if __name__ == "__main__":
    main()
