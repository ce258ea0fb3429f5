"""Seeded synthetic corpus in the exact on-disk formats the ingest loaders read.

Per dyad, a latent log-intensity h(t) is drawn from the Matérn-3/2 GP and
monthly fatalities from Poisson(exp(h)). A fatal month carries up to
``max_events`` events, and each event has a gold article whose headline
matches the event's up to case, spacing and trailing punctuation. A share
of events reuse the headline of another dyad's event in the same month,
which makes their article ambiguous. Every dyad-month also has the same
number of background articles, labelled only through classifier
probabilities; every ``UNLABELLED_EVERY``-th falls below the 0.8 filter
threshold. Counts do not depend on the seed, so neither does most of the
work.

Each article embedding is a topic centroid, plus ``signal`` times the
planted slope and level of its month and each of the next six months along
fixed directions (one pair per lead), plus noise. Gold articles also move
``signal`` times along a violent direction. At ``signal = 0`` the
embeddings carry nothing about the states, which makes the negative
control for leakage.

Only well-formed rows are written: malformed-input handling is the
loaders' concern and is not what this benchmark measures.

Files written into the corpus directory:

- ``events.jsonl``, ``articles.jsonl``, ``dyad_probs.jsonl``,
  ``embeddings.f32`` with ``embeddings.meta.json``: the program's inputs
- ``truth.json``: the planted raw counts and four-state labels, read only
  by the benchmark to score ``label_agreement``
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
from pathlib import Path

import numpy as np

import workloads
from workloads import AMBIGUOUS_SHARE, AMPLITUDE, LENGTH_SCALE, TAU, UNLABELLED_EVERY, Workload

INPUT_FILES = (
    "events.jsonl",
    "articles.jsonl",
    "dyad_probs.jsonl",
    "embeddings.f32",
    "embeddings.meta.json",
)
LEADS = 7  # an article carries the planted slope of its month and the 6 after it

_WORDS = (
    "army rebels militia border province capital convoy ceasefire talks "
    "shelling raid ambush checkpoint village district market clashes patrol "
    "offensive withdrawal envoy refugees aid council statement minister "
    "protest strike drone airstrike garrison highway bridge river harbour "
    "mountain valley coalition faction commander negotiators observers "
    "mission report sources officials residents witnesses agency network "
    "election budget harvest drought trade port mining school hospital"
).split()
_ACTORS = (
    "government forces", "national army", "liberation front", "popular militia",
    "border guards", "federal police", "islands movement", "northern alliance",
)


def month_str(index: int) -> str:
    year, month0 = divmod(index, 12)
    return f"{year:04d}-{month0 + 1:02d}"


def _date_str(index: int, day: int) -> str:
    return f"{month_str(index)}-{day:02d}"


def matern32_sample(n: int, length_scale: float, amplitude: float, rng) -> np.ndarray:
    """One zero-mean Matérn-3/2 path on a unit monthly grid."""
    t = np.arange(n, dtype=float)
    r = np.sqrt(3.0) * np.abs(t[:, None] - t[None, :]) / length_scale
    gram = amplitude**2 * (1.0 + r) * np.exp(-r) + 1e-9 * np.eye(n)
    return np.linalg.cholesky(gram) @ rng.standard_normal(n)


def central_derivative(values: np.ndarray) -> np.ndarray:
    """Central differences inside, one-sided at the endpoints."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / 2.0
    out[0] = values[1] - values[0]
    out[-1] = values[-1] - values[-2]
    return out


def planted_states(derivative: np.ndarray, raw: np.ndarray, tau: float = TAU) -> np.ndarray:
    """The four-state rule: 0 Peace when raw is 0, else 1 / 2 / 3 by the sign of the slope."""
    states = np.full(derivative.shape, 2)
    states[derivative > tau] = 1
    states[derivative < -tau] = 3
    states[raw == 0] = 0
    return states


def corpus_key(wl: Workload, seed: int) -> str:
    """Cache key: the workload, the seed, and the source of this generator and its constants."""
    source = Path(__file__).read_bytes() + Path(workloads.__file__).read_bytes()
    spec = hashlib.sha256(repr(wl).encode() + source).hexdigest()[:10]
    return f"{wl.name}-s{seed}-{spec}"


def ensure_corpus(wl: Workload, seed: int, root: Path) -> Path:
    """The corpus directory for (workload, seed), generated once and cached."""
    out = Path(root) / corpus_key(wl, seed)
    if (out / "truth.json").exists():
        return out
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    generate(wl, seed, tmp)
    os.replace(tmp, out)
    return out


def _text(rng, n_tokens: int) -> str:
    return " ".join(_WORDS[i] for i in rng.integers(0, len(_WORDS), size=n_tokens))


def _headline(rng, serial: int) -> str:
    a, b = rng.choice(len(_ACTORS), size=2, replace=False)
    return f"{_ACTORS[a]} and {_ACTORS[b]} clash near {_text(rng, 3)} report {serial}"


def _perturb(headline: str, rng) -> str:
    """A headline that normalizes to the same key: case, spacing, trailing punctuation."""
    variant = int(rng.integers(3))
    if variant == 0:
        return headline.upper() + "."
    if variant == 1:
        return "  " + headline.replace(" ", "  ") + " !"
    return headline.capitalize()


def generate(wl: Workload, seed: int, out: Path) -> None:
    """Write the corpus of (workload, seed) into ``out``; same inputs, same bytes."""
    rng = np.random.Generator(np.random.PCG64([seed, zlib.crc32(wl.name.encode())]))
    lo = wl.window[0]
    n = wl.months

    topics = rng.standard_normal((wl.topics, wl.dim))
    topics /= np.linalg.norm(topics, axis=1, keepdims=True)
    # one direction per lead for the planted slope, one per lead for its level
    signal_dirs = rng.standard_normal((2 * LEADS, wl.dim))
    signal_dirs /= np.linalg.norm(signal_dirs, axis=1, keepdims=True)
    noise_sd = 0.6 / np.sqrt(wl.dim)

    dyads: list[tuple[str, str]] = []
    for c, n_dyads in enumerate(wl.countries):
        dyads.extend((f"c{c:02d}", f"c{c:02d}-d{d}") for d in range(n_dyads))

    events: list[dict] = []
    articles: list[dict] = []
    probs: list[dict] = []
    ids: list[str] = []
    vectors: list[np.ndarray] = []
    truth: dict[str, dict] = {}
    headlines_by_month: dict[int, list[tuple[str, str]]] = {}
    serial = 0

    def embed(topic: int, upcoming: np.ndarray, violent_dir: np.ndarray | None) -> np.ndarray:
        v = topics[topic] + wl.signal * upcoming @ signal_dirs
        if violent_dir is not None:
            v = v + wl.signal * 0.5 * violent_dir
        return v + noise_sd * rng.standard_normal(wl.dim)

    background = 0  # classifier-labelled articles written so far
    for country, dyad in dyads:
        h = wl.level + matern32_sample(n, LENGTH_SCALE, AMPLITUDE, rng)
        raw = rng.poisson(np.exp(np.minimum(h, 7.0)))
        slope = central_derivative(h)
        ahead = np.minimum(np.arange(n)[:, None] + np.arange(LEADS), n - 1)
        upcoming = np.hstack([slope[ahead], 0.5 * (h[ahead] - wl.level) / AMPLITUDE])
        truth[dyad] = {
            "months": [month_str(lo + t) for t in range(n)],
            "raw": [int(x) for x in raw],
            "states": [int(s) for s in planted_states(slope, raw)],
        }
        violent_dir = rng.standard_normal(wl.dim)
        violent_dir /= np.linalg.norm(violent_dir)

        for t in range(n):
            month = lo + t
            if raw[t] > 0:
                n_events = int(min(raw[t], wl.max_events))
                split = 1 + rng.multinomial(raw[t] - n_events, np.full(n_events, 1.0 / n_events))
                for fatalities in split:
                    serial += 1
                    others = [h_ for d_, h_ in headlines_by_month.get(month, []) if d_ != dyad]
                    shared = others and rng.random() < AMBIGUOUS_SHARE
                    headline = others[int(rng.integers(len(others)))] if shared else _headline(rng, serial)
                    day = int(rng.integers(1, 29))
                    events.append(
                        {
                            "event_id": f"e{serial:06d}",
                            "dyad_id": dyad,
                            "country_id": country,
                            "date": _date_str(month, day),
                            "fatalities": int(fatalities),
                            "headline": headline,
                        }
                    )
                    if shared:
                        continue  # the other dyad's gold article already carries it
                    headlines_by_month.setdefault(month, []).append((dyad, headline))
                    aid = f"g{serial:06d}"
                    articles.append(
                        {
                            "article_id": aid,
                            "date": _date_str(month, day),
                            "headline": _perturb(headline, rng),
                            "body": _text(rng, int(rng.integers(40, 120))),
                        }
                    )
                    ids.append(aid)
                    vectors.append(
                        embed(serial % wl.topics, upcoming[t], violent_dir)
                    )
            # the same number of articles every run: int(rate * t) steps evenly
            n_articles = int(wl.articles_per_month * (t + 1)) - int(wl.articles_per_month * t)
            for _ in range(n_articles):
                serial += 1
                background += 1
                aid = f"a{serial:06d}"
                day = int(rng.integers(1, 29))
                articles.append(
                    {
                        "article_id": aid,
                        "date": _date_str(month, day),
                        "headline": _text(rng, 8),
                        "body": _text(rng, int(rng.integers(40, 160))),
                    }
                )
                ids.append(aid)
                vectors.append(embed(serial % wl.topics, upcoming[t], None))
                if background % UNLABELLED_EVERY == 0:
                    p_own = float(rng.uniform(0.3, 0.75))
                else:
                    p_own = float(rng.uniform(0.82, 0.99))
                row = {dyad: round(p_own, 4)}
                other = dyads[int(rng.integers(len(dyads)))][1]
                if other != dyad:
                    row[other] = round(float(rng.uniform(0.0, 1.0 - p_own)), 4)
                probs.append({"article_id": aid, "probs": row})

    def write_jsonl(name: str, rows: list[dict]) -> None:
        with open(out / name, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    write_jsonl("events.jsonl", events)
    write_jsonl("articles.jsonl", articles)
    write_jsonl("dyad_probs.jsonl", probs)
    np.ascontiguousarray(np.stack(vectors), dtype="<f4").tofile(out / "embeddings.f32")
    with open(out / "embeddings.meta.json", "w", encoding="utf-8") as fh:
        json.dump({"dim": wl.dim, "ids": ids}, fh)
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
