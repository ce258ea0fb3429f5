"""``nexus.pipeline.run`` against the benchmark's driver, on one tiny generated corpus.

Both drivers run the same stages with the same settings, so every file
they both write has the same bytes; only the benchmark builds a retrieval
index and writes ``index_<dyad>.bin``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "nexus_bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus  # noqa: E402
import pipeline as bench_pipeline  # noqa: E402
import stages  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from nexus import pipeline, stepshift  # noqa: E402

TINY = replace(
    WORKLOADS["many-forecasts"],
    name="tiny",
    countries=(2, 1),
    months=36,
    train_months=24,
    articles_per_month=3.0,
    topics=3,
    dim=32,
    steps=(0, 1),
    n_boot=20,
    epochs=300,
    min_topic_size=10,
)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_same_files_as_the_benchmark_driver_and_one_pool_per_digest(tmp_path, monkeypatch):
    inputs, reference, port = tmp_path / "corpus", tmp_path / "reference", tmp_path / "port"
    inputs.mkdir()
    reference.mkdir()
    corpus.generate(TINY, 5, inputs)
    result = bench_pipeline.run(TINY, stages.load_inputs(inputs), reference)
    assert sum(result.units.failed.values()) == 0

    pool, pooled = stepshift.pool_embedding, []

    def counted(digest, embeddings):
        pooled.append(digest)
        return pool(digest, embeddings)

    monkeypatch.setattr(stepshift, "pool_embedding", counted)
    pipeline.run(inputs, port, window=TINY.window, train_end=TINY.train_end,
                 n_dyads=TINY.dyads, steps=TINY.steps, n_boot=TINY.n_boot, epochs=TINY.epochs,
                 min_topic_size=TINY.min_topic_size)

    expected = _files(reference)
    indexes = [name for name in expected if name.startswith("index_")]
    assert len(indexes) == TINY.dyads
    for name in indexes:
        del expected[name]
    written = _files(port)
    assert sorted(written) == sorted(expected)
    assert [name for name in written if written[name] != expected[name]] == []
    n_digests = written["digests.jsonl"].count(b"\n")
    assert n_digests > 0 and len(pooled) == n_digests
