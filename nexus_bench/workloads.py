"""The benchmark's three workloads.

Each workload fixes the shape of the synthetic corpus (how many countries,
dyads, months, articles and events) and the pipeline settings that size the
work of each layer. The seed is not part of a workload: it is a benchmark
argument, so the same workload can be run on fresh corpora.

Why each workload exists, and which layer it is sized to load, is in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

# The four-state rule's threshold; the benchmark's planted states use it too.
TAU = 0.25
# First month of every corpus: 2010-01 as a flat month index.
START_MONTH = 2010 * 12
# The same in every workload:
LENGTH_SCALE = 3.0  # of the planted trend, and the median of the fit's prior
AMPLITUDE = 1.5  # of the planted trend
AMBIGUOUS_SHARE = 0.05  # events whose headline another dyad's event shares
UNLABELLED_EVERY = 10  # every n-th classifier row falls below the 0.8 threshold
MAX_TOPICS = 21  # cluster_topics' cap
# Iterations per GP optimiser start, passed to fit_hierarchical (the
# program's default is 200). With the cap every start runs the same number
# of iterations whatever the seed, so GP work varies little between corpora;
# uncapped, it varies by 30-70% from one seed to the next. BASELINE.json
# records, per workload, how the capped labels compare with uncapped ones,
# and the traced run counts the starts stopped at the cap.
GP_MAX_ITER = 20


@dataclass(frozen=True)
class Workload:
    name: str
    # corpus shape
    countries: tuple[int, ...]  # dyads per country
    months: int
    train_months: int  # the first train_months months are the training window
    articles_per_month: float  # classifier-labelled articles per dyad-month
    level: float  # mean of the planted log-intensity; sets how many months have events
    max_events: int  # events per fatal dyad-month, at most
    topics: int  # true topics shared by all dyads
    dim: int
    signal: float  # strength of the planted signal in the embeddings
    # pipeline settings
    steps: tuple[int, ...]
    n_boot: int
    epochs: int
    min_topic_size: int

    @property
    def window(self) -> tuple[int, int]:
        return START_MONTH, START_MONTH + self.months - 1

    @property
    def train_end(self) -> int:
        return START_MONTH + self.train_months - 1

    @property
    def dyads(self) -> int:
        return sum(self.countries)


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Pooled GP fits: multi-dyad countries, the longest series, little text.
        Workload(
            name="long-history",
            countries=(3, 3),
            months=72,
            train_months=54,
            articles_per_month=1.0,
            level=3.0,
            max_events=1,
            topics=4,
            dim=128,
            signal=4.0,
            steps=(0, 3),
            n_boot=20,
            epochs=1000,
            min_topic_size=25,
        ),
        # Retrieval: short series, each with a large article corpus.
        Workload(
            name="dense-news",
            countries=(1,) * 6,
            months=48,
            train_months=30,
            articles_per_month=3.5,
            level=4.0,
            max_events=2,
            topics=8,
            dim=384,
            signal=4.0,
            steps=(0, 3),
            n_boot=20,
            epochs=2000,
            min_topic_size=40,
        ),
        # Forecasting and evaluation: many unpooled dyads, every step, and
        # enough records and bootstrap resamples to dominate.
        Workload(
            name="many-forecasts",
            countries=(1,) * 12,
            months=42,
            train_months=24,
            articles_per_month=1.5,
            level=3.0,
            max_events=1,
            topics=3,
            dim=128,
            signal=4.0,
            steps=(0, 1, 3, 6),
            n_boot=15,
            epochs=1000,
            min_topic_size=30,
        ),
    )
}
