"""Candidate ranking model with an abstention slot.

A small feed-forward scorer, implemented directly on numpy with hand-written
gradients. Each candidate is scored from six cosine similarities (country and
feature-class embeddings against projected mention / other-mentions / document
vectors) concatenated with eight numeric features. Per-candidate scores pass
through a sigmoid, a constant-bias abstention slot is appended, and a softmax
over the resulting vector yields the distribution the cross-entropy loss is
trained on. A config switch can feed the softmax raw logits instead, which
removes the sigmoid's loss floor.

Training is plain SGD with inverted dropout on the feature layer and an
optional auxiliary head that predicts the gold country from the projected
document vector (sharing the country embedding table as its output matrix).

Every pass runs over a packed window of examples rather than one example at
a time. The candidate rows of the window are concatenated, with one segment
per example, so each layer is one matmul over all rows, and the softmax with
its abstention slot is a segmented log-softmax over each segment. The six
similarity columns are the country embedding against the projected mention,
other-mentions and document vectors, then the feature-class embedding
against the same three. Each training update is one window of batch_size
examples, and the accuracy an epoch reports is read off those same forward
passes. Scoring one toponym and the gradient check use a window of one
example.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from placelink import artifact
from placelink.corpus import field_value
from placelink.features import CandidateFeatures, ContextVectors

MODEL_MAGIC = b"PLRANKER"
MODEL_FORMAT_VERSION = 3

OOV_TOKEN = "<OOV>"

NUM_SIMILARITY_FEATURES = 6
NUMERIC_FEATURE_NAMES = (
    "min_edit_distance",
    "avg_edit_distance",
    "exact_match_flag",
    "alt_name_count_log",
    "population_log",
    "is_adm1_of_other_toponym",
    "has_adm1_parent_in_doc",
    "shared_country_fraction",
)
FEATURE_WIDTH = NUM_SIMILARITY_FEATURES + len(NUMERIC_FEATURE_NAMES)

# log10(population + 1) spans [0, ~10]; the other features live in [0, ~2].
# Scaling the population column keeps one input from dominating the first
# hidden layer at the shared learning rate.
_POP_LOG_SCALE = 0.1

# Packing converts candidate rows from Python objects this many at a time:
# converting a whole training set as one list of tuples adds about 1 MB to
# peak RSS on the default world.
_CONVERT_ROWS = 512

_PARAM_ORDER = (
    "country_emb",
    "fclass_emb",
    "context_proj",
    "hidden_w",
    "hidden_b",
    "out_w",
    "out_b",
    "null_bias",
)


def _param_shapes(
    config: RankerConfig, n_countries: int, n_fclasses: int, provider_dim: int
) -> dict[str, tuple[int, ...]]:
    e, h = config.embedding_dim, config.hidden_dim
    return {
        "country_emb": (n_countries, e),
        "fclass_emb": (n_fclasses, e),
        "context_proj": (e, provider_dim),
        "hidden_w": (h, FEATURE_WIDTH),
        "hidden_b": (h,),
        "out_w": (h,),
        "out_b": (1,),
        "null_bias": (1,),
    }


class ModelFileError(Exception):
    """Model file cannot be used."""


class ModelVersionError(ModelFileError):
    """Model file has an unsupported format version."""


class ModelCorruptError(ModelFileError):
    """Model file is structurally invalid."""


class ModelDimensionError(ValueError):
    """Inputs do not match the dimensions the model was built with."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


SCORE_MODES = ("sigmoid", "logit")


@dataclass(frozen=True)
class RankerConfig:
    epochs: int = 15
    batch_size: int = 60
    dropout: float = 0.3
    learning_rate: float = 0.4
    embedding_dim: int = 32
    hidden_dim: int = 64
    multitask_country_weight: float = 0.0
    seed: int = 0
    score_mode: str = field(default="sigmoid", metadata={"choices": SCORE_MODES})

    def __post_init__(self) -> None:
        # a bool or float where an int belongs, or a non-finite float, raises
        for f in fields(self):
            field_value(vars(self), f.name, f.type)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        # zero is allowed so a no-op training run can serve as a control
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.embedding_dim < 1 or self.hidden_dim < 1:
            raise ValueError("embedding_dim and hidden_dim must be >= 1")
        if self.multitask_country_weight < 0.0:
            raise ValueError("multitask_country_weight must be >= 0")
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"score_mode must be 'sigmoid' or 'logit', got {self.score_mode!r}")


@dataclass
class RankerModel:
    config: RankerConfig
    provider_dim: int
    countries: list[str]
    feature_classes: list[str]
    params: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)
    _country_rows: dict[str, int] = field(init=False, repr=False, compare=False)
    _fclass_rows: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.countries[:1] != [OOV_TOKEN] or self.feature_classes[:1] != [OOV_TOKEN]:
            raise ValueError("vocabulary row 0 must be the OOV token")
        self._country_rows = {c: i for i, c in enumerate(self.countries)}
        self._fclass_rows = {c: i for i, c in enumerate(self.feature_classes)}
        if len(self._country_rows) + len(self._fclass_rows) < len(self.countries) + len(self.feature_classes):
            raise ValueError("vocabulary entries must be distinct")
        if self.provider_dim < 1:
            raise ValueError("provider_dim must be >= 1")
        missing = [name for name in _PARAM_ORDER if name not in self.params]
        if missing:
            raise ValueError(f"missing parameter arrays: {missing}")
        shapes = _param_shapes(
            self.config, len(self.countries), len(self.feature_classes), self.provider_dim
        )
        for name in _PARAM_ORDER:
            if self.params[name].shape != shapes[name]:
                raise ValueError(
                    f"parameter {name} has shape {self.params[name].shape}, expected {shapes[name]}"
                )
            if not np.isfinite(self.params[name]).all():
                raise ValueError(f"parameter {name} holds a non-finite value")

    @classmethod
    def initialize(
        cls,
        countries: Sequence[str],
        feature_classes: Sequence[str],
        provider_dim: int,
        config: RankerConfig,
        metadata: dict | None = None,
    ) -> "RankerModel":
        """Build a fresh model. Unknown values at inference time map to the
        OOV row, which is row 0 of each embedding table."""
        if provider_dim < 1:
            raise ValueError("provider_dim must be >= 1")
        rng = np.random.default_rng(config.seed)
        country_vocab = [OOV_TOKEN] + sorted(set(countries) - {"", OOV_TOKEN})
        fclass_vocab = [OOV_TOKEN] + sorted(set(feature_classes) - {"", OOV_TOKEN})
        shapes = _param_shapes(config, len(country_vocab), len(fclass_vocab), provider_dim)
        e, h = config.embedding_dim, config.hidden_dim
        fan_ins = (e, e, provider_dim, FEATURE_WIDTH, FEATURE_WIDTH, h, h)
        params = {}
        for name, fan_in in zip(_PARAM_ORDER, fan_ins):
            limit = 1.0 / np.sqrt(fan_in)
            params[name] = rng.uniform(-limit, limit, size=shapes[name])
        params["null_bias"] = np.zeros(1, dtype=np.float64)
        return cls(
            config=config,
            provider_dim=provider_dim,
            countries=country_vocab,
            feature_classes=fclass_vocab,
            params=params,
            metadata=dict(metadata or {}),
        )

    def country_row(self, code: str) -> int:
        return self._country_rows.get(code, 0)

    def fclass_row(self, code: str) -> int:
        return self._fclass_rows.get(code, 0)


@dataclass
class ScoredCandidateSet:
    """Output of scoring one toponym: a distribution over the candidates plus
    the final abstention slot."""

    probabilities: np.ndarray
    predicted_slot: int

    @property
    def null_slot(self) -> int:
        return len(self.probabilities) - 1

    @property
    def abstained(self) -> bool:
        return self.predicted_slot == self.null_slot


@dataclass
class RankingExample:
    """One training/evaluation item: the features and context for a single
    toponym. gold_slot == len(features) marks the abstention slot as gold."""

    features: list[CandidateFeatures]
    context: ContextVectors
    gold_slot: int
    gold_country: str = ""
    doc_id: str = ""

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError("an example needs at least one candidate")
        if not 0 <= self.gold_slot <= len(self.features):
            raise ValueError(
                f"gold_slot {self.gold_slot} out of range for {len(self.features)} candidates"
            )


@dataclass
class EpochStats:
    """train_accuracy is the share of the epoch's examples whose argmax slot
    was gold in the training forward pass: under dropout, and before the
    update that pass fed."""

    epoch: int
    train_loss: float
    train_accuracy: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _numeric_matrix(features: Sequence[CandidateFeatures]) -> np.ndarray:
    rows = np.empty((len(features), len(NUMERIC_FEATURE_NAMES)), dtype=np.float64)
    for start in range(0, len(features), _CONVERT_ROWS):
        rows[start : start + _CONVERT_ROWS] = [
            (
                f.min_edit_distance,
                f.avg_edit_distance,
                float(f.exact_match_flag),
                f.alt_name_count_log,
                f.population_log * _POP_LOG_SCALE,
                float(f.is_adm1_of_other_toponym),
                float(f.has_adm1_parent_in_doc),
                f.shared_country_fraction,
            )
            for f in features[start : start + _CONVERT_ROWS]
        ]
    if not np.isfinite(rows).all():
        raise ValueError("candidate features must be finite")
    return rows


@dataclass
class _PackedCandidates:
    """Vocabulary rows and numeric columns of every candidate of a list of
    examples, concatenated in example order. Example i owns the rows
    offsets[i]:offsets[i + 1]."""

    country_rows: np.ndarray
    fclass_rows: np.ndarray
    numeric: np.ndarray
    offsets: np.ndarray


def _pack_candidates(
    model: RankerModel, examples: Sequence[RankingExample]
) -> _PackedCandidates:
    for ex in examples:
        if ex.context.dimension != model.provider_dim:
            raise ModelDimensionError(
                f"context dimension {ex.context.dimension} != model provider_dim {model.provider_dim}"
            )
    flat = [f for ex in examples for f in ex.features]
    offsets = np.zeros(len(examples) + 1, dtype=np.intp)
    np.cumsum([len(ex.features) for ex in examples], out=offsets[1:])
    return _PackedCandidates(
        country_rows=np.array([model.country_row(f.candidate_country) for f in flat], np.intp),
        fclass_rows=np.array([model.fclass_row(f.candidate_feature_class) for f in flat], np.intp),
        numeric=_numeric_matrix(flat),
        offsets=offsets,
    )


@dataclass
class _Window:
    """Examples packed for one pass of the kernel. Segment b is the candidate
    rows starts[b]:starts[b] + counts[b]; its abstention slot is slot
    counts[b]. contexts[b] stacks the mention, other-mentions and document
    vectors; gold_countries[b] is -1 when the example has no gold country."""

    country_rows: np.ndarray
    fclass_rows: np.ndarray
    numeric: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    segment: np.ndarray
    contexts: np.ndarray
    gold_slots: np.ndarray
    gold_countries: np.ndarray


def _window(
    model: RankerModel,
    packed: _PackedCandidates,
    examples: Sequence[RankingExample],
    idx: np.ndarray,
) -> _Window:
    """Gather the examples idx (positions in the packed list) into a window,
    in the order given."""
    lo = packed.offsets[idx]
    counts = packed.offsets[idx + 1] - lo
    ends = np.cumsum(counts)
    starts = ends - counts
    rows = np.repeat(lo - starts, counts) + np.arange(ends[-1])
    chosen = [examples[i] for i in idx]
    return _Window(
        country_rows=packed.country_rows[rows],
        fclass_rows=packed.fclass_rows[rows],
        numeric=packed.numeric[rows],
        starts=starts,
        counts=counts,
        segment=np.repeat(np.arange(len(idx)), counts),
        contexts=np.array(
            [
                (c.mention_vector, c.other_mentions_vector, c.document_vector)
                for c in (ex.context for ex in chosen)
            ],
            dtype=np.float64,
        ),
        gold_slots=np.array([ex.gold_slot for ex in chosen], dtype=np.intp),
        gold_countries=np.array(
            [model.country_row(ex.gold_country) if ex.gold_country else -1 for ex in chosen],
            dtype=np.intp,
        ),
    )


def _dropout_mask(model: RankerModel, rng: np.random.Generator, rows: int) -> np.ndarray | None:
    """Inverted-dropout mask for `rows` feature rows, or None without dropout."""
    rate = model.config.dropout
    if rate == 0.0:
        return None
    keep = rng.random((rows, FEATURE_WIDTH)) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def _segment_log_softmax(
    q: np.ndarray, q_null: float, starts: np.ndarray, segment: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax over each segment's values of q plus one abstention slot
    of value q_null. Returns the row values and the (B,) abstention values."""
    top = np.maximum(np.maximum.reduceat(q, starts), q_null)
    total = np.add.reduceat(np.exp(q - top[segment]), starts) + np.exp(q_null - top)
    lse = top + np.log(total)
    return q - lse[segment], q_null - lse


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _cosines(
    rows: np.ndarray, row_norms: np.ndarray, vecs: np.ndarray, vec_norms: np.ndarray
) -> np.ndarray:
    """cos(rows[r], vecs[r, k]) as an (R, 3) array; 0 where a norm is 0."""
    denom = row_norms[:, None] * vec_norms
    out = np.zeros_like(denom)
    np.divide(np.einsum("re,rke->rk", rows, vecs), denom, out=out, where=denom > 0.0)
    return out


def _cosine_backward(
    g: np.ndarray,
    rows: np.ndarray,
    row_norms: np.ndarray,
    cos: np.ndarray,
    cache: dict,
    starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(g * cos) with respect to the candidate rows (R, e)
    and the projected context vectors (B, 3, e).

    Zero-norm inputs contributed a constant 0 similarity, so their gradient
    is zero on both sides.
    """
    vecs, vec_norms = cache["vecs"], cache["vec_norms"]
    valid = (row_norms[:, None] > 0.0) & (vec_norms > 0.0)
    gi = np.where(valid, g, 0.0)
    safe_norms = np.where(valid, row_norms[:, None], 1.0)
    scale = gi / np.where(valid, safe_norms * vec_norms, 1.0)
    radial = gi * cos
    d_rows = np.einsum("rk,rke->re", scale, vecs)
    d_rows -= (radial / safe_norms**2).sum(axis=1)[:, None] * rows
    squared = cache["proj_norms"] ** 2
    inv_squared = np.divide(1.0, squared, out=np.zeros_like(squared), where=squared > 0.0)
    d_proj = np.add.reduceat(scale[:, :, None] * rows[:, None, :], starts, axis=0)
    d_proj -= (np.add.reduceat(radial, starts, axis=0) * inv_squared)[:, :, None] * cache["proj"]
    return d_rows, d_proj


def _window_forward(model: RankerModel, w: _Window, mask: np.ndarray | None) -> dict:
    """Score every segment of the window: one matmul per layer over all rows,
    then a segmented log-softmax. mask is the dropout mask or None."""
    p = model.params
    proj = w.contexts @ p["context_proj"].T
    proj_norms = _norms(proj)
    vecs = proj[w.segment]
    vec_norms = proj_norms[w.segment]
    ec = p["country_emb"][w.country_rows]
    ef = p["fclass_emb"][w.fclass_rows]
    norm_c = _norms(ec)
    norm_f = _norms(ef)
    sims = np.concatenate(
        [_cosines(ec, norm_c, vecs, vec_norms), _cosines(ef, norm_f, vecs, vec_norms)], axis=1
    )
    x = np.concatenate([sims, w.numeric], axis=1)
    xd = x if mask is None else x * mask

    hidden = np.tanh(xd @ p["hidden_w"].T + p["hidden_b"])
    z = hidden @ p["out_w"] + p["out_b"][0]
    if model.config.score_mode == "sigmoid":
        q, q_null = _sigmoid(z), float(_sigmoid(p["null_bias"])[0])
    else:
        q, q_null = z, float(p["null_bias"][0])
    log_probs, log_null = _segment_log_softmax(q, q_null, w.starts, w.segment)

    return {
        "proj": proj,
        "proj_norms": proj_norms,
        "vecs": vecs,
        "vec_norms": vec_norms,
        "ec": ec,
        "ef": ef,
        "norm_c": norm_c,
        "norm_f": norm_f,
        "sims": sims,
        "mask": mask,
        "xd": xd,
        "hidden": hidden,
        "q": q,
        "q_null": q_null,
        "log_probs": log_probs,
        "log_null": log_null,
    }


def _gold_rows(w: _Window) -> tuple[np.ndarray, np.ndarray]:
    """(B,) flags for a gold abstention slot, and the packed row of each gold
    candidate (the segment start where the abstention slot is gold)."""
    null_gold = w.gold_slots == w.counts
    return null_gold, w.starts + np.where(null_gold, 0, w.gold_slots)


def _window_loss(
    model: RankerModel, w: _Window, cache: dict
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Per-example loss: cross-entropy on the gold slot, plus the weighted
    cross-entropy of the country head for examples with a gold country.
    Also returns (examples with a gold country, the head's log-probabilities),
    or None when the head is off for this window."""
    null_gold, gold_rows = _gold_rows(w)
    losses = -np.where(null_gold, cache["log_null"], cache["log_probs"][gold_rows])
    weight = model.config.multitask_country_weight
    has_country = w.gold_countries >= 0
    if weight == 0.0 or not has_country.any():
        return losses, None
    t = cache["proj"][has_country, 2] @ model.params["country_emb"].T
    top = t.max(axis=1, keepdims=True)
    log_pt = t - (top + np.log(np.exp(t - top).sum(axis=1, keepdims=True)))
    gold_pt = log_pt[np.arange(len(t)), w.gold_countries[has_country]]
    losses[has_country] += weight * -gold_pt
    return losses, (has_country, log_pt)


def _window_backward(
    model: RankerModel, w: _Window, cache: dict
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-example losses and the gradients summed over the window."""
    p = model.params
    losses, head = _window_loss(model, w, cache)

    null_gold, gold_rows = _gold_rows(w)
    dq = np.exp(cache["log_probs"])
    dq[gold_rows[~null_gold]] -= 1.0
    dq_null = np.exp(cache["log_null"])
    dq_null[null_gold] -= 1.0
    if model.config.score_mode == "sigmoid":
        s = cache["q"]
        dz = dq * s * (1.0 - s)
        s_null = cache["q_null"]
        d_null = np.sum(dq_null * s_null * (1.0 - s_null))
    else:
        dz = dq
        d_null = np.sum(dq_null)

    hidden = cache["hidden"]
    d_act = (dz[:, None] * p["out_w"][None, :]) * (1.0 - hidden**2)
    dx = d_act @ p["hidden_w"]
    if cache["mask"] is not None:
        dx *= cache["mask"]
    sims = cache["sims"]
    d_ec, d_proj = _cosine_backward(
        dx[:, 0:3], cache["ec"], cache["norm_c"], sims[:, 0:3], cache, w.starts
    )
    d_ef, d_proj_f = _cosine_backward(
        dx[:, 3:6], cache["ef"], cache["norm_f"], sims[:, 3:6], cache, w.starts
    )
    d_proj += d_proj_f

    grads = {
        "country_emb": np.zeros_like(p["country_emb"]),
        "fclass_emb": np.zeros_like(p["fclass_emb"]),
        "hidden_w": d_act.T @ cache["xd"],
        "hidden_b": d_act.sum(axis=0),
        "out_w": hidden.T @ dz,
        "out_b": np.array([np.sum(dz)]),
        "null_bias": np.array([d_null]),
    }
    np.add.at(grads["country_emb"], w.country_rows, d_ec)
    np.add.at(grads["fclass_emb"], w.fclass_rows, d_ef)

    if head is not None:
        has_country, log_pt = head
        dt = np.exp(log_pt)
        dt[np.arange(len(dt)), w.gold_countries[has_country]] -= 1.0
        dt *= model.config.multitask_country_weight
        grads["country_emb"] += dt.T @ cache["proj"][has_country, 2]
        d_proj[has_country, 2] += dt @ p["country_emb"]

    e, d = p["context_proj"].shape
    grads["context_proj"] = d_proj.reshape(-1, e).T @ w.contexts.reshape(-1, d)
    return losses, grads


def _predicted_slots(probs: np.ndarray, null_probs: np.ndarray, w: _Window) -> np.ndarray:
    """Argmax of each segment's values (probabilities or their logs),
    abstention slot last. As with np.argmax, ties go to the lowest slot and a
    NaN counts as the maximum."""
    best = np.maximum(np.maximum.reduceat(probs, w.starts), null_probs)
    hit = (probs == best[w.segment]) | np.isnan(probs)
    slot = np.arange(len(probs)) - w.starts[w.segment]
    return np.minimum.reduceat(np.where(hit, slot, w.counts[w.segment]), w.starts)


def _single_window(model: RankerModel, example: RankingExample) -> _Window:
    return _window(model, _pack_candidates(model, [example]), [example], np.zeros(1, dtype=np.intp))


def score_candidates(
    model: RankerModel,
    features: Sequence[CandidateFeatures],
    context: ContextVectors,
) -> ScoredCandidateSet:
    """Score one toponym's candidates. The returned probabilities have one
    extra slot at the end for abstention. Ties in the argmax go to the lowest
    slot. Raises ValueError when a probability is not finite, which only a
    non-finite parameter can cause."""
    w = _single_window(model, RankingExample(list(features), context, gold_slot=0))
    cache = _window_forward(model, w, None)
    probabilities = np.exp(np.append(cache["log_probs"], cache["log_null"]))
    if not np.isfinite(probabilities).all():
        raise ValueError(
            "scoring produced a non-finite probability; the model parameters are not finite"
        )
    return ScoredCandidateSet(
        probabilities=probabilities,
        predicted_slot=int(np.argmax(probabilities)),
    )


def _apply_update(model: RankerModel, grads: dict[str, np.ndarray], lr: float, count: int) -> None:
    scale = lr / count
    for name in _PARAM_ORDER:
        model.params[name] -= scale * grads[name]


def train(
    model: RankerModel, dataset: Sequence[RankingExample]
) -> tuple[RankerModel, list[EpochStats]]:
    """SGD over shuffled examples: each window of batch_size examples (the
    last one of an epoch may be shorter) runs as one packed pass and applies
    the mean gradient of its examples. The model is modified in place."""
    cfg = model.config
    if not dataset:
        raise ValueError("training dataset is empty")
    packed = _pack_candidates(model, dataset)

    rng = np.random.default_rng(cfg.seed)
    history: list[EpochStats] = []
    n = len(dataset)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        hits = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            w = _window(model, packed, dataset, idx)
            cache = _window_forward(model, w, _dropout_mask(model, rng, len(w.segment)))
            losses, grads = _window_backward(model, w, cache)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                i = int(idx[bad[0]])
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, example {dataset[i].doc_id or i}"
                )
            epoch_loss += float(np.sum(losses))
            slots = _predicted_slots(cache["log_probs"], cache["log_null"], w)
            hits += int(np.count_nonzero(slots == w.gold_slots))
            _apply_update(model, grads, cfg.learning_rate, len(idx))
        history.append(EpochStats(epoch=epoch, train_loss=epoch_loss / n, train_accuracy=hits / n))
    return model, history


def gradient_check(
    model: RankerModel, example: RankingExample, epsilon: float = 1e-5
) -> float:
    """Max relative error between analytic and central finite-difference
    gradients over every parameter, with dropout disabled.

    Relative error is |ga - gn| / max(1e-3, |ga| + |gn|).
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError("epsilon must be in [1e-6, 1e-3]")

    w = _single_window(model, example)
    _, analytic = _window_backward(model, w, _window_forward(model, w, None))

    def loss_now() -> float:
        losses, _ = _window_loss(model, w, _window_forward(model, w, None))
        return float(losses[0])

    worst = 0.0
    for name in _PARAM_ORDER:
        arr = model.params[name]
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + epsilon
            loss_plus = loss_now()
            arr[idx] = original - epsilon
            loss_minus = loss_now()
            arr[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            ga = float(analytic[name][idx])
            rel = abs(ga - numeric) / max(1e-3, abs(ga) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst


def save_model(model: RankerModel, path: str) -> None:
    """Write the model to one versioned, byte-deterministic file in the
    :mod:`placelink.artifact` container: config, provider dimension,
    vocabularies and metadata in the header, then the parameters as float64
    arrays in ``_PARAM_ORDER``."""
    fields = {
        "config": asdict(model.config),
        "provider_dim": model.provider_dim,
        "countries": model.countries,
        "feature_classes": model.feature_classes,
        "metadata": model.metadata,
    }
    arrays = {name: np.asarray(model.params[name], np.float64) for name in _PARAM_ORDER}
    artifact.write(path, MODEL_MAGIC, MODEL_FORMAT_VERSION, fields, arrays)


def _vocabulary(fields: dict, key: str) -> list[str]:
    values = fields[key]
    if type(values) is not list or not all(type(value) is str for value in values):
        raise TypeError(f"{key} must be a list of strings")
    return values


def load_model(path: str) -> RankerModel:
    """Read a model file written by :func:`save_model`. Raises
    ModelVersionError for another format version and ModelCorruptError for
    anything that does not check out: checksum, layout, header, or
    parameters. The parameters are copied out of the file's bytes, because
    training updates them in place."""
    dtypes = dict.fromkeys(_PARAM_ORDER, "<f8")
    errors = (ModelFileError, ModelVersionError, ModelCorruptError)
    fields, arrays = artifact.read(path, MODEL_MAGIC, MODEL_FORMAT_VERSION, dtypes, errors)
    try:
        config = RankerConfig(**fields["config"])
        countries = _vocabulary(fields, "countries")
        feature_classes = _vocabulary(fields, "feature_classes")
        provider_dim = field_value(fields, "provider_dim", "int")
        shapes = _param_shapes(config, len(countries), len(feature_classes), provider_dim)
        return RankerModel(
            config=config,
            provider_dim=provider_dim,
            countries=countries,
            feature_classes=feature_classes,
            params={name: arrays[name].reshape(shape).astype(np.float64) for name, shape in shapes.items()},
            metadata=dict(fields["metadata"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelCorruptError(f"{path!r} does not describe a valid model: {exc}") from exc
