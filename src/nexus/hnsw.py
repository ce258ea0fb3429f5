"""Exact cosine nearest-neighbour retrieval over unit vectors.

Vectors are L2-normalized at insertion, so cosine similarity is a dot
product. :meth:`HnswIndex.search` scores a query against every stored row
with one matrix-vector product and returns the top k, ties broken by
ascending id; answers do not depend on insertion order. The digests ask
for k = 1 inside one topic of one dyad, a few hundred vectors, where an
exact scan is cheaper than an approximate graph. The module was an HNSW
graph index once; its names (the module, ``HnswIndex``, the one-field
``HnswConfig``, ``build_index``, ``save`` and the ``brute_force_search``
alias) stay because the pipeline benchmark in ``nexus_bench/`` calls them.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _files

logger = logging.getLogger(__name__)

_MAGIC = b"HNSW"


@dataclass(frozen=True)
class HnswConfig:
    """Index settings; the seed is recorded in the file and changes no answer."""

    seed: int = 0


def normalize(vector) -> np.ndarray:
    """Unit-normalize to float32; zero vectors are rejected."""
    v = np.asarray(vector, dtype=np.float32)
    if v.ndim != 1:
        raise ValueError("vector must be one-dimensional")
    norm = float(np.linalg.norm(v))
    if not math.isfinite(norm) or norm == 0.0:
        raise ValueError("vector has zero or non-finite norm")
    return v / np.float32(norm)


class HnswIndex:
    """Append-only matrix of L2-normalized vectors with exact top-k search."""

    def __init__(self, dim: int, config: HnswConfig | None = None):
        self.dim = int(dim)
        self.config = config or HnswConfig()
        self.ids: list[str] = []
        self._row: dict[str, int] = {}
        self._vectors = np.zeros((0, self.dim), dtype=np.float32)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors[: len(self.ids)]

    def insert(self, article_id: str, vector) -> None:
        """Insert one vector; duplicate ids replace the stored vector with a warning."""
        v = normalize(vector)
        if v.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {v.shape[0]} != {self.dim}")
        if article_id in self._row:
            logger.warning("duplicate id %s: replacing stored vector", article_id)
            self._vectors[self._row[article_id]] = v
            return
        idx = len(self.ids)
        if idx == self._vectors.shape[0]:
            grown = np.zeros((max(2 * idx, 256), self.dim), dtype=np.float32)
            grown[:idx] = self._vectors
            self._vectors = grown
        self._vectors[idx] = v
        self.ids.append(article_id)
        self._row[article_id] = idx

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

    def __contains__(self, article_id: str) -> bool:
        return article_id in self._row

    def save(self, path: str | Path) -> None:
        """Write magic, u32 header length, JSON header, little-endian float32 rows."""
        header = {"dim": self.dim, "count": len(self.ids), "seed": self.config.seed,
                  "ids": self.ids}
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        parts = [_MAGIC, struct.pack("<I", len(blob)), blob, self.vectors.astype("<f4").tobytes()]
        _files.write_atomic(path, lambda fh: fh.writelines(parts))

    @classmethod
    def load(cls, path: str | Path) -> "HnswIndex":
        """Read a saved index; a truncated or inconsistent file raises ValueError naming it."""
        data = Path(path).read_bytes()
        try:
            if data[:4] != _MAGIC:
                raise ValueError("not an index file")
            (header_len,) = struct.unpack_from("<I", data, 4)
            header = json.loads(data[8 : 8 + header_len])
            dim, count = int(header["dim"]), int(header["count"])
            ids = [str(x) for x in header["ids"]]
            matrix = data[8 + header_len :]
            if len(ids) != count or len(matrix) != 4 * count * dim:
                raise ValueError(f"{len(ids)} ids, {len(matrix)} bytes for {count} x {dim}")
            index = cls(dim, HnswConfig(seed=int(header["seed"])))
        except (struct.error, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: corrupt index file: {exc}") from exc
        index._vectors = np.frombuffer(matrix, dtype="<f4").reshape(count, dim).astype(np.float32)
        index.ids = ids
        index._row = {aid: i for i, aid in enumerate(ids)}
        return index


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
