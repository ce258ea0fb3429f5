"""Check that the intermediate files of a pipeline run load and save back to the same bytes.

    PYTHONPATH=src python tests/roundtrip_outputs.py DIR --corpus CORPUS

Every ``trend_*``, ``series_*``, ``labels_*``, ``model_step*`` and
``forecasts_step*`` file and ``article_labels.jsonl`` and ``digests.jsonl`` in
DIR is read with the package's loader and what it returns is written with the
matching saver into a temporary directory; the digests are read with the
articles of ``CORPUS/articles.jsonl``, the corpus of the run. The script exits
1, naming the file, at the first file whose bytes differ or the first of those
kinds DIR has no file of; a file its loader rejects raises, naming it.
Otherwise it prints how many files of each kind it checked.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from nexus import digests, evaluation, gp_trend, ingest, state_labels, stepshift


def _load_forecasts(path: Path) -> list:
    step, kind = re.fullmatch(r"forecasts_step(\d+)_(.+)\.csv", path.name).groups()
    return evaluation.load_forecasts_csv(path, int(step), kind)


def resave_labels(loaded: dict, path: Path) -> None:
    """Save the month -> state maps of ``load_labels_csv`` as the ``LabeledSeries`` they hold."""
    state_labels.save_labels_csv({
        dyad: state_labels.LabeledSeries(dyad, np.array(list(by_month), dtype=int),
                                         np.array(list(by_month.values()), dtype=int))
        for dyad, by_month in loaded.items()
    }, path)


def kinds(articles_by_id: dict[str, ingest.Article]) -> dict:
    """File-name pattern: (load(path), save(loaded, path)); digests read ``articles_by_id``."""
    return {
        "trend_*.json": (gp_trend.load_trend_fit, gp_trend.save_trend_fit),
        "series_*.json": (ingest.load_series, ingest.save_series),
        "labels_*.csv": (state_labels.load_labels_csv, resave_labels),
        "article_labels.jsonl": (ingest.load_labels_file, ingest.save_labels_file),
        "digests.jsonl": (lambda path: digests.load_digests(path, articles_by_id),
                          digests.save_digests),
        "model_step*.json": (stepshift.load_model, stepshift.save_model),
        "forecasts_step*.csv": (_load_forecasts, evaluation.save_forecasts_csv),
    }


def check(
    out_dir: Path, articles_by_id: dict[str, ingest.Article]
) -> tuple[dict[str, int], str | None]:
    """Files checked per pattern, and what is wrong with the first bad one (None if none is)."""
    counts: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for pattern, (load, save) in kinds(articles_by_id).items():
            paths = sorted(out_dir.glob(pattern))
            if not paths:
                return counts, f"{out_dir}: no {pattern} file"
            for path in paths:
                resaved = Path(tmp) / path.name
                save(load(path), resaved)
                if resaved.read_bytes() != path.read_bytes():
                    return counts, f"{path}: saving what was loaded writes other bytes"
            counts[pattern] = len(paths)
    return counts, None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path)
    parser.add_argument("--corpus", type=Path, required=True,
                        help="the run's corpus directory, whose articles.jsonl the digests name")
    args = parser.parse_args()
    articles, _ = ingest.load_articles(args.corpus / "articles.jsonl")
    counts, error = check(args.dir, {a.article_id: a for a in articles})
    if error is not None:
        sys.exit(error)
    print(f"{args.dir}: the same bytes after load and save for",
          ", ".join(f"{n} {pattern}" for pattern, n in counts.items()))


if __name__ == "__main__":
    main()
