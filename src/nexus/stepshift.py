"""Step-shifted training-pair construction and the softmax forecasting head.

A pair joins the digest at month m with the escalation state at m + s;
one model is trained per (step, digest kind). Features are mean-pooled
member-article embeddings (the interface point where an external encoder
could supply digest-level vectors instead). They do not depend on s, so
``run_steps`` pools every digest once, before the first step, and each
step only pairs those pooled rows with its labels. The head's objective,
class-weighted cross-entropy plus an L2 penalty, is strictly convex;
scipy's L-BFGS-B finds its one minimiser from zero weights, so a forecast
depends on the data and the objective, not on a step size. Every digest
kind covers the same dyad-months, so every kind is scored on the same
(dyad, month) test rows; ``run_steps`` raises if they differ.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from . import _files, months
from .digests import HIGH_CONTEXT, LOW_CONTEXT, Digest
from .evaluation import N_CLASSES, ForecastRecord

logger = logging.getLogger(__name__)

DEFAULT_STEPS = (0, 1, 3, 6)
L2 = 1e-3  # the penalty on ||W||^2 in the training objective


class TrainingCollapseError(RuntimeError):
    """The loss at the weights training returned is not finite."""

    def __init__(self, n_iter: int, loss: float):
        super().__init__(f"training collapsed after {n_iter} iterations (loss {loss})")
        self.n_iter = n_iter


@dataclass(frozen=True)
class TrainConfig:
    """``epochs >= 1`` caps the L-BFGS-B iterations; a model stopped by it
    has ``converged`` False. The name predates the optimiser and is kept
    because callers pass ``TrainConfig(epochs=...)``."""

    epochs: int = 2000

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1: {self.epochs}")


@dataclass
class TrainingPair:
    """The pooled digest of (dyad_id, digest_month) and the state at target_month."""

    dyad_id: str
    digest_month: int
    target_month: int
    features: np.ndarray
    target: int


@dataclass
class SoftmaxModel:
    weights: np.ndarray  # (4, D + 1), bias in the last column
    class_weights: np.ndarray
    config: TrainConfig
    final_loss: float = float("nan")
    n_iter: int = 0
    converged: bool = False
    step: int | None = None
    kind: str | None = None

    def __post_init__(self) -> None:
        shape = self.weights.shape
        if len(shape) != 2 or shape[0] != N_CLASSES or shape[1] < 2:
            raise ValueError(f"weights must be shaped (4, D + 1) with D >= 1, not {shape}")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if self.class_weights.shape != (N_CLASSES,):
            raise ValueError(f"class_weights must have 4 entries: {self.class_weights.shape}")
        if self.n_iter < 0:
            raise ValueError(f"n_iter must be non-negative: {self.n_iter}")
        if self.step is not None and self.step < 0:
            raise ValueError(f"step must be non-negative: {self.step}")
        if self.kind not in (None, LOW_CONTEXT, HIGH_CONTEXT):
            raise ValueError(f"kind is not {LOW_CONTEXT}, {HIGH_CONTEXT} or None: {self.kind!r}")


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------

def pool_embedding(digest: Digest, embeddings) -> np.ndarray:
    """L2-normalized arithmetic mean of the member snippet-article embeddings.

    The mean has no context window, so a digest of any length pools whole.
    An encoder with a context window that takes this place owns its token
    budget: it truncates or chunks its input.
    """
    vectors = [
        np.asarray(embeddings.get(aid), dtype=float)
        for aid in digest.snippet_ids
        if aid in embeddings
    ]
    if not vectors:
        raise ValueError(f"digest {digest.dyad_id}/{months.format_month(digest.month)} "
                         "has no member embeddings")
    mean = np.mean(vectors, axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        raise ValueError(f"digest {digest.dyad_id}/{months.format_month(digest.month)} "
                         "pools to a zero vector")
    return mean / norm


# ---------------------------------------------------------------------------
# Dataset construction
# ---------------------------------------------------------------------------

def build_dataset(
    pooled: dict[tuple[str, int], np.ndarray],
    labels_train: dict[str, dict[int, int]],
    labels_val: dict[str, dict[int, int]],
    step: int,
    train_end: int,
    test_start: int,
    val_end: int,
) -> tuple[list[TrainingPair], list[TrainingPair], int]:
    """(train pairs, test pairs, dropped count) for one forecast step.

    ``pooled`` maps one kind's (dyad, month) keys to their pooled feature
    vectors; the keys are paired in sorted order. Train pairs require
    month + step <= train_end with the target drawn from the train-window
    labels; test pairs start at test_start and read validation labels,
    dropping anything past val_end. A negative step would pair a digest
    with an earlier month's state and is an error.
    """
    if step < 0:
        raise ValueError(f"step must be non-negative: {step}")
    train: list[TrainingPair] = []
    test: list[TrainingPair] = []
    dropped = 0
    for dyad_id, m in sorted(pooled):
        target_month = m + step
        if target_month <= train_end:
            labels, pairs = labels_train, train
        elif m >= test_start and target_month <= val_end:
            labels, pairs = labels_val, test
        else:
            continue
        state = labels.get(dyad_id, {}).get(target_month)
        if state is None:
            dropped += 1
            continue
        pairs.append(
            TrainingPair(
                dyad_id=dyad_id,
                digest_month=m,
                target_month=target_month,
                features=pooled[dyad_id, m],
                target=int(state),
            )
        )
    if dropped:
        logger.info("step %d: dropped %d pairs with missing labels", step, dropped)
    return train, test, dropped


def class_weights(targets) -> np.ndarray:
    """w_c = N / (4 n_c) for present classes; absent classes weigh zero."""
    targets = np.asarray(targets, dtype=int)
    if targets.size == 0:
        raise ValueError("no targets")
    counts = np.bincount(targets, minlength=N_CLASSES)
    if np.count_nonzero(counts) < 2:
        raise ValueError("class weighting needs at least two classes present")
    weights = np.zeros(N_CLASSES)
    present = counts > 0
    weights[present] = targets.size / (N_CLASSES * counts[present])
    return weights


# ---------------------------------------------------------------------------
# Softmax head
# ---------------------------------------------------------------------------

def _with_bias(features: np.ndarray) -> np.ndarray:
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def loss_and_grad(
    weights: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    sample_class_weights: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray]:
    """Class-weighted mean cross-entropy plus l2 * ||W||^2, with its gradient."""
    x = _with_bias(features)
    y = np.asarray(targets, dtype=int)
    n = x.shape[0]
    probs = _softmax(x @ weights.T)
    w_rows = sample_class_weights[y]
    with np.errstate(divide="ignore"):
        log_p = np.log(probs[np.arange(n), y])
    loss = float(-np.mean(w_rows * log_p) + l2 * np.sum(weights**2))
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    grad = (delta * w_rows[:, None]).T @ x / n + 2.0 * l2 * weights
    return loss, grad


def train_softmax(pairs: list[TrainingPair], config: TrainConfig = TrainConfig()) -> SoftmaxModel:
    """Minimise ``loss_and_grad`` (penalty ``L2``) with one L-BFGS-B call.

    Starts from zero weights and stops at scipy's default tolerances or
    after ``config.epochs`` iterations, so the result is deterministic.
    The class weights are the balanced ones of ``class_weights``. Raises
    ``TrainingCollapseError`` if the loss at the result is not finite.
    """
    if not pairs:
        raise ValueError("no training pairs")
    features = np.stack([p.features for p in pairs])
    targets = np.array([p.target for p in pairs], dtype=int)
    cw = class_weights(targets)
    shape = (N_CLASSES, features.shape[1] + 1)

    def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad = loss_and_grad(flat.reshape(shape), features, targets, cw, L2)
        return loss, grad.ravel()

    result = minimize(objective, np.zeros(shape[0] * shape[1]), jac=True, method="L-BFGS-B",
                      options={"maxiter": config.epochs})
    loss, n_iter = float(result.fun), int(result.nit)
    if not np.isfinite(loss):
        raise TrainingCollapseError(n_iter, loss)
    return SoftmaxModel(result.x.reshape(shape), cw, config, final_loss=loss, n_iter=n_iter,
                        converged=bool(result.success))


def predict(model: SoftmaxModel, features) -> np.ndarray:
    """Class probabilities: (4,) for one feature vector, (n, 4) for an (n, D) matrix."""
    features = np.asarray(features, dtype=float)
    x = _with_bias(features)
    if x.shape[1] != model.weights.shape[1]:
        raise ValueError(
            f"feature dimension {x.shape[1] - 1} does not match model "
            f"{model.weights.shape[1] - 1}"
        )
    probs = _softmax(x @ model.weights.T)
    return probs[0] if features.ndim == 1 else probs


# ---------------------------------------------------------------------------
# Per-step, per-kind runs
# ---------------------------------------------------------------------------

def run_steps(
    digests_by_kind: dict[str, list[Digest]],
    labels_train: dict[str, dict[int, int]],
    labels_val: dict[str, dict[int, int]],
    embeddings,
    train_end: int,
    test_start: int,
    val_end: int,
    steps=DEFAULT_STEPS,
    config: TrainConfig = TrainConfig(),
) -> dict[tuple[int, str], tuple[SoftmaxModel, list[ForecastRecord]]]:
    """One trained model plus its test-set forecast records per (step, kind).

    Pools every digest once, before the first step, whether or not a step
    pairs it. Raises ``ValueError`` if a kind repeats a (dyad, month), a
    digest fails ``pool_embedding``, or the kinds' test (dyad, digest
    month) keys differ.
    """
    pooled: dict[str, dict[tuple[str, int], np.ndarray]] = {}
    for kind in sorted(digests_by_kind):
        vectors = pooled[kind] = {}
        for d in digests_by_kind[kind]:
            if (d.dyad_id, d.month) in vectors:
                raise ValueError(f"two {d.kind} digests for {d.dyad_id}/"
                                 f"{months.format_month(d.month)}")
            vectors[d.dyad_id, d.month] = pool_embedding(d, embeddings)
    out: dict[tuple[int, str], tuple[SoftmaxModel, list[ForecastRecord]]] = {}
    for step in steps:
        datasets = {
            kind: build_dataset(rows, labels_train, labels_val, step,
                                train_end, test_start, val_end)
            for kind, rows in pooled.items()
        }
        keys = {tuple((p.dyad_id, p.digest_month) for p in test)
                for _, test, _ in datasets.values()}
        if len(keys) > 1:
            raise ValueError(f"step {step}: the digest kinds' test (dyad, month) keys differ")
        for kind, (train, test, _) in datasets.items():
            model = train_softmax(train, config)
            model.step, model.kind = step, kind
            probs = predict(model, np.stack([p.features for p in test])) if test else []
            records = [
                ForecastRecord(dyad_id=p.dyad_id, month=p.target_month, step=step,
                               probabilities=tuple(row.tolist()), actual=p.target,
                               source="model", kind=kind)
                for p, row in zip(test, probs)
            ]
            out[(step, kind)] = (model, records)
            logger.info(
                "step %d kind %s: %d train pairs, %d test records, final loss %.4f "
                "after %d iterations (converged: %s)",
                step, kind, len(train), len(records), model.final_loss, model.n_iter,
                model.converged,
            )
    return out


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------

def save_model(model: SoftmaxModel, path: str | Path) -> None:
    _files.write_json(path, {
        "weights": [[float(v) for v in row] for row in model.weights],
        "class_weights": [float(v) for v in model.class_weights],
        "config": {"epochs": model.config.epochs},
        "final_loss": model.final_loss,
        "n_iter": model.n_iter,
        "converged": model.converged,
        "step": model.step,
        "kind": model.kind,
    })


def load_model(path: str | Path) -> SoftmaxModel:
    return _files.read_json(path, lambda payload: SoftmaxModel(
        weights=_files.numbers(payload, "weights", ndim=2),
        class_weights=_files.numbers(payload, "class_weights"),
        config=TrainConfig(_files.field(_files.field(payload, "config", dict), "epochs", int)),
        final_loss=_files.field(payload, "final_loss", float),
        n_iter=_files.field(payload, "n_iter", int),
        converged=_files.field(payload, "converged", bool),
        step=_files.field(payload, "step", int, null=True),
        kind=_files.field(payload, "kind", str, null=True),
    ))
