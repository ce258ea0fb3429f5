"""One measured pipeline run in a fresh process.

    PYTHONPATH=src python3 nexus_bench/child.py --workload NAME --corpus DIR --out DIR --trace 0|1

Times set-up (``import nexus.*`` plus the four loaders) and the pipeline
(from loaded inputs to the written report), reads this process's peak RSS,
scores the outputs and prints one JSON object. Only the standard library is
imported before the set-up clock starts.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mean_point(metrics_csv: Path, source: str, metric: str) -> float:
    """Mean over (step, kind) groups of the point value of one metric and source."""
    with open(metrics_csv, newline="", encoding="utf-8") as fh:
        points = [
            float(row["point"])
            for row in csv.DictReader(fh)
            if row["source"] == source and row["metric"] == metric
        ]
    return statistics.fmean(points) if points else float("nan")


def _label_agreement(truth: dict, labelled: list[dict]) -> float:
    """Share of dyad-months with fatalities whose pipeline state is the planted one."""
    from corpus import month_str

    agree = total = 0
    for part in labelled:
        for dyad, ls in part.items():
            planted = truth[dyad]
            state_of = dict(zip(planted["months"], planted["states"]))
            raw_of = dict(zip(planted["months"], planted["raw"]))
            for month, state in zip(ls.months, ls.states):
                key = month_str(int(month))
                if raw_of[key] > 0:
                    total += 1
                    agree += int(state) == state_of[key]
    return agree / total if total else float("nan")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import stages  # imports nexus.*

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(stages.LAYERS)
    inputs = stages.load_inputs(args.corpus)
    setup_s = time.perf_counter() - _T0

    import pipeline
    from workloads import WORKLOADS

    start = time.perf_counter()
    result = pipeline.run(WORKLOADS[args.workload], inputs, args.out)
    pipeline_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(result.units.attempted.values()),
        "failed": sum(result.units.failed.values()),
        "failed_by_unit": dict(result.units.failed),
        "row_errors": inputs.row_errors,
        "structure_equal": stages.structure_key(result.model_records)
        == stages.structure_key(result.baseline_records),
        "hashes": {p.name: _sha256(p) for p in result.outputs},
    }
    if result.metrics_csv is not None:
        report["model_auroc"] = _mean_point(result.metrics_csv, "model", "auroc")
        report["model_ap"] = _mean_point(result.metrics_csv, "model", "ap")
        report["conflictology_auroc"] = _mean_point(result.metrics_csv, "conflictology", "auroc")
    with open(args.corpus / "truth.json", encoding="utf-8") as fh:
        truth = json.load(fh)
    report["label_agreement"] = _label_agreement(truth, [result.labels_train, result.labels_val])

    if tracer is not None:
        tracer.restore()
        tracer.counts["gp_trend.fit_failures"] = result.units.failed["dyad_fit"]
        tracer.write_spans(args.out / "spans.jsonl")
        report["layers"] = tracer.layer_metrics(stages.LAYERS)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
