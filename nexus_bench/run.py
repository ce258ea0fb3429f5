"""Pipeline benchmark: run one workload for a while and print its metrics.

    python3 nexus_bench/run.py --workload long-history --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that has ``src/nexus``. The corpus for
(workload, seed) is generated first, or reused from ``.bench_work/corpus``.
Then fresh child processes each run the whole pipeline once, back to back,
until ``--seconds`` have passed (at least MIN_CHILDREN of them). BLAS and
OpenMP in the children are capped at THREADS threads.

Every metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, medians over the
children. With ``--trace 1`` the children alternate untraced and traced
(at least TRACE_PAIRS pairs), and the metrics are the per-layer ones from
the traced children plus ``trace.overhead_frac``.

Output checks, all of which must hold for ``"correct": true``:
- the loaders reject no row of the generated files;
- no unit fails: the inputs are well-formed, so a failed unit is a fault;
- the model and conflictology records have the same structure;
- the model's mean AUROC beats conflictology's, from the same metrics.csv;
- every child writes byte-identical labels, digests, forecasts and metrics;
- every child reports the same counts and quality metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
THREADS = 1
MIN_CHILDREN = 3  # untraced, with --trace 0
TRACE_PAIRS = 4  # untraced-traced pairs, at least, with --trace 1
MAX_SECONDS = 150  # stop starting children after this, whatever --seconds says
DEADLINE = 175  # a child still running this long after the start is killed
END_TO_END = (
    ("pipeline_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("model_auroc", "1"),
    ("model_ap", "1"),
    ("label_agreement", "1"),
    ("unit_success_rate", "1"),
)
# Reported by every child; must repeat exactly for a fixed seed.
EXACT = ("model_auroc", "model_ap", "conflictology_auroc", "label_agreement",
         "attempted", "failed", "row_errors", "hashes")


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(workload: str, corpus: Path, out: Path, trace: bool, timeout: float) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--corpus", str(corpus), "--out", str(out), "--trace", str(int(trace))],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"child run failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nexus" / "__init__.py").is_file():
        print(f"error: no src/nexus under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from corpus import ensure_corpus
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    corpus = ensure_corpus(wl, args.seed, WORK / "corpus")

    runs: list[dict] = []
    start = time.perf_counter()  # the corpus is ready: generation is not timed
    min_children = 2 * TRACE_PAIRS if args.trace else MIN_CHILDREN
    while len(runs) < min_children or time.perf_counter() - start < args.seconds:
        if time.perf_counter() - start > MAX_SECONDS:
            break
        traced = bool(args.trace) and len(runs) % 2 == 1
        out = WORK / "out" / f"{wl.name}-{args.seed}-{len(runs)}"
        run = run_child(wl.name, corpus, out, traced, DEADLINE - (time.perf_counter() - start))
        run["traced"] = traced
        if traced:
            shutil.copyfile(out / "spans.jsonl", WORK / f"spans-{wl.name}-{args.seed}.jsonl")
        shutil.rmtree(out)
        runs.append(run)

    first = runs[0]
    repeat = all(r.get(k) == first.get(k) for r in runs for k in EXACT)
    checks = {
        "row_errors == 0": first["row_errors"] == 0,
        "failed units == 0": all(r["failed"] == 0 for r in runs),
        "model and baseline structures equal": all(r["structure_equal"] for r in runs),
        "model_auroc > conflictology auroc":
            first.get("model_auroc", 0.0) > first.get("conflictology_auroc", 1.0),
        "same outputs and counts in every child": repeat,
    }
    untraced = [r for r in runs if not r["traced"]]
    attempted, failed = first["attempted"], first["failed"]
    metrics: dict[str, dict] = {}
    if args.trace:
        traced = [r for r in runs if r["traced"]]
        for name, (_, unit) in traced[0]["layers"].items():
            values = [r["layers"][name][0] for r in traced]
            repeat &= unit != "count" or len(set(values)) == 1
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        # Each traced child against the untraced child just before it, so that
        # both ran in the same stretch of machine speed.
        pairs = [(runs[i]["pipeline_s"], runs[i + 1]["pipeline_s"])
                 for i in range(0, len(runs) - 1, 2)]
        overheads = [(t - u) / u for u, t in pairs]
        print("children trace.overhead_frac " + " ".join(f"{x:.4f}" for x in overheads))
        metrics["trace.overhead_frac"] = {"value": statistics.median(overheads), "unit": "1"}
        checks["same outputs and counts in every child"] = repeat
    else:
        values = {key: _median(untraced, key) for key, _ in END_TO_END[:3]}
        values.update({key: first.get(key, float("nan")) for key, _ in END_TO_END[3:6]})
        values["unit_success_rate"] = 1.0 - failed / attempted
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, digest in sorted(first["hashes"].items()):
        print(f"sha256 {name} {digest}")
    print(f"error_rate {failed / attempted} 1 ({failed} of {attempted} units failed)")
    print(f"children {len(untraced)} untraced, {len(runs) - len(untraced)} traced")
    for key in ("pipeline_s", "setup_s"):
        print(f"children {key} " + " ".join(f"{r[key]:.4f}" for r in runs))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
