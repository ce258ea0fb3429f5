"""How far the GP iteration cap changes the state labels, per seed.

    python3 nexus_bench/cap_check.py --workload long-history --seeds 101-110

Run from the root of a checkout that has ``src/nexus``. For each seed it
fits the train-window and full-window trends twice, once with the
benchmark's cap (``workloads.GP_MAX_ITER``) and once at the program's
default, labels both, and counts the dyad-months whose state differs. It
prints one line per seed and, last, one JSON object with the totals. The
numbers of the first baseline are in BASELINE.json under ``gp_cap``.
"""

from __future__ import annotations

import argparse
import json
import logging
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pipeline  # noqa: E402
import stages  # noqa: E402
from corpus import ensure_corpus  # noqa: E402
from workloads import GP_MAX_ITER, TAU, WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def compare(wl, seed: int, out: Path) -> dict:
    inputs = stages.load_inputs(ensure_corpus(wl, seed, ROOT / ".bench_work" / "corpus"))
    _, dyads = stages.label_articles(inputs, wl.window, wl.dyads, out)
    series = {d: stages.aggregate(inputs.events, d, wl.window, out) for d in dyads}
    states, seconds = [], []
    for max_iter in (GP_MAX_ITER, None):
        start = time.perf_counter()
        fits = pipeline.fit_windows(wl, series, pipeline.Units(), out, max_iter)
        seconds.append(time.perf_counter() - start)
        _, _, train, val = stages.label(
            series, fits["train"], fits["full"], TAU, wl.train_end, wl.window[1], out
        )
        states.append({(i, d, m): s for i, part in enumerate((train, val))
                       for d, ms in part.items() for m, s in ms.items()})
    capped, default = states
    return {
        "seed": seed,
        "months": len(default),
        "differ": sum(capped.get(k) != s for k, s in default.items()),
        "gp_s_capped": round(seconds[0], 3),
        "gp_s_default": round(seconds[1], 3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="one seed, or a range such as 101-110")
    args = parser.parse_args()
    logging.disable(logging.WARNING)
    wl = WORKLOADS[args.workload]
    out = ROOT / ".bench_work" / f"cap_check-{wl.name}"
    rows = []
    for seed in _seeds(args.seeds):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rows.append(compare(wl, seed, out))
        print(json.dumps(rows[-1]), flush=True)
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({
        "workload": wl.name,
        "max_iter": GP_MAX_ITER,
        "seeds": args.seeds,
        "months": sum(r["months"] for r in rows),
        "differ": sum(r["differ"] for r in rows),
        "seeds_identical": sum(r["differ"] == 0 for r in rows),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
