"""Exact cosine nearest-neighbour retrieval over unit vectors, for the benchmark only.

Vectors are L2-normalized at insertion, so cosine similarity is a dot
product. :meth:`HnswIndex.search` scores a query against every stored row
with one matrix-vector product and returns the top k, ties broken by
ascending id; answers do not depend on insertion order. The program does
not call this module: the digests rank each topic's in-month articles
themselves. The pipeline benchmark in ``nexus_bench/`` still builds and
saves one index per dyad through the names kept here (the module,
``HnswIndex``, the one-field ``HnswConfig``, ``build_index``, ``save`` and
the ``brute_force_search`` alias), and nothing reads the file ``save``
writes. The module is deleted once the benchmark stops calling it
(ROADMAP item 1).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _files
from .digests import normalize

_MAGIC = b"HNSW"


@dataclass(frozen=True)
class HnswConfig:
    """Index settings; the seed is recorded in the file and changes no answer."""

    seed: int = 0


class HnswIndex:
    """Append-only rows of L2-normalized vectors with exact top-k search."""

    def __init__(self, dim: int, config: HnswConfig | None = None):
        self.dim = int(dim)
        self.config = config or HnswConfig()
        self.ids: list[str] = []
        self._row: dict[str, int] = {}
        self._rows: list[np.ndarray] = []

    @property
    def vectors(self) -> np.ndarray:
        return np.array(self._rows, dtype=np.float32).reshape(len(self._rows), self.dim)

    def insert(self, article_id: str, vector) -> None:
        """Append one vector; an id already in the index raises ValueError."""
        v = normalize(vector)
        if v.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {v.shape[0]} != {self.dim}")
        if article_id in self._row:
            raise ValueError(f"duplicate id {article_id!r} in the index")
        self._row[article_id] = len(self.ids)
        self.ids.append(article_id)
        self._rows.append(v)

    def search(self, query, k: int, allowed: set[str] | None = None) -> list[tuple[str, float]]:
        """Exact top-k (id, cosine similarity), descending, ties by ascending id.

        ``allowed`` restricts the candidates; ids in it that are not indexed are ignored.
        """
        if len(self.ids) == 0:
            raise ValueError("search on empty index")
        if k < 1:
            raise ValueError(f"k must be >= 1: {k}")
        # every row is scored, so a row's similarity does not depend on `allowed`
        sims = self.vectors @ normalize(query)
        names = self.ids if allowed is None else [a for a in allowed if a in self._row]
        rows = [self._row[aid] for aid in names]
        ranked = sorted(zip(names, sims[rows].tolist()), key=lambda pair: (-pair[1], pair[0]))
        return ranked[:k]

    # the benchmark's tracer patches and calls the method by this name
    brute_force_search = search

    def save(self, path: str | Path) -> None:
        """Write magic, u32 header length, JSON header, little-endian float32 rows."""
        header = {"dim": self.dim, "count": len(self.ids), "seed": self.config.seed,
                  "ids": self.ids}
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        parts = [_MAGIC, struct.pack("<I", len(blob)), blob, self.vectors.astype("<f4").tobytes()]
        _files.write_atomic(path, lambda fh: fh.writelines(parts))


def build_index(
    ids: list[str], vectors: np.ndarray, config: HnswConfig | None = None
) -> HnswIndex:
    """Index a whole id/vector matrix in insertion order."""
    vectors = np.asarray(vectors, dtype=np.float32)
    if vectors.shape[0] != len(ids):
        raise ValueError("id count does not match matrix rows")
    index = HnswIndex(dim=vectors.shape[1], config=config)
    for aid, vec in zip(ids, vectors):
        index.insert(aid, vec)
    return index
