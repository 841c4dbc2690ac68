"""Independent reference implementations used only to check the package.

Deliberately written differently from the library code: the edit distance is
a full-matrix DP or a banded DP where the library runs a bit-parallel kernel,
the trigram extraction is a one-liner, the candidate scan is an exhaustive
loop over every entry, the dict index keeps Python dicts of id lists where the
library keeps CSR arrays, the reference index columns come from a dict of
per-gram row lists where the library sorts flat (gram, row) pairs, and the
ranker runs one example at a time where the library packs a window of
examples into one pass.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from placelink.features import coherence_from_summaries, summarize_candidates
from placelink.gazetteer import AdminTables, GazetteerEntry, normalize_name
from placelink.index import (
    MAX_EDIT_DISTANCE,
    MIN_SHARED_NGRAMS,
    NGRAM_SIZE,
    _CODE_COLUMNS,
    CandidateSet,
    IndexConfig,
    _offsets,
    _string_table,
    char_ngrams,
    retrieval_score,
)
from placelink.ranker import (
    _PARAM_ORDER,
    _POP_LOG_SCALE,
    NUM_SIMILARITY_FEATURES,
    ModelDimensionError,
    TrainingDivergedError,
    _apply_update,
)


def dp_edit_distance(a: str, b: str) -> int:
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[-1][-1]


def banded_edit_distance(a: str, b: str, bound: int) -> int | None:
    """Levenshtein distance if it is <= bound, else None.

    Only cells within `bound` of the diagonal can matter, so each row is
    restricted to that band and the scan bails out once the whole band
    exceeds the bound.
    """
    if abs(len(a) - len(b)) > bound:
        return None
    if a == b:
        return 0
    if bound == 0:
        return None
    if len(a) < len(b):
        a, b = b, a
    la, lb = len(a), len(b)
    inf = bound + 1
    previous = list(range(lb + 1))
    for i in range(1, la + 1):
        lo = max(1, i - bound)
        hi = min(lb, i + bound)
        current = [inf] * (lb + 1)
        if lo == 1:
            current[0] = i
        ca = a[i - 1]
        row_min = current[0] if lo == 1 else inf
        for j in range(lo, hi + 1):
            cost = 0 if ca == b[j - 1] else 1
            value = min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            current[j] = value
            if value < row_min:
                row_min = value
        if row_min > bound:
            return None
        previous = current
    return previous[lb] if previous[lb] <= bound else None


@dataclass
class DictIndex:
    """The dict-of-lists index the columnar one replaced: ids per exact name
    and per trigram, entries and name variants per id."""

    config: IndexConfig
    entry_store: dict[int, GazetteerEntry] = field(default_factory=dict)
    exact_index: dict[str, list[int]] = field(default_factory=dict)
    ngram_index: dict[str, list[int]] = field(default_factory=dict)
    variants: dict[int, list[str]] = field(default_factory=dict)


def build_dict_index(entries: list[GazetteerEntry], config: IndexConfig | None = None) -> DictIndex:
    config = config or IndexConfig()
    index = DictIndex(config=config)
    exact: dict[str, set[int]] = {}
    grams: dict[str, set[int]] = {}
    for entry in entries:
        gid = entry.geoname_id
        index.entry_store[gid] = entry
        names = entry.name_variants()
        index.variants[gid] = names
        entry_grams: set[str] = set()
        for name in names:
            exact.setdefault(name, set()).add(gid)
            entry_grams.update(char_ngrams(name, NGRAM_SIZE))
        for gram in entry_grams:
            grams.setdefault(gram, set()).add(gid)
    index.exact_index = {name: sorted(ids) for name, ids in exact.items()}
    index.ngram_index = {gram: sorted(ids) for gram, ids in grams.items()}
    return index


def dict_query(index: DictIndex, name: str, k: int | None = None) -> CandidateSet:
    """Retrieval over the dict index: a Counter of shared trigrams per id,
    then banded-DP verification of every survivor's variants."""
    k = index.config.max_candidates if k is None else k
    normalized = normalize_name(name)
    if not normalized:
        return CandidateSet(query_text=name, normalized_query=normalized, candidates=[])
    exact_ids = set(index.exact_index.get(normalized, ()))
    shared: Counter[int] = Counter()
    for gram in set(char_ngrams(normalized, NGRAM_SIZE)):
        for gid in index.ngram_index.get(gram, ()):
            shared[gid] += 1
    scored = [(retrieval_score(True, 0, index.entry_store[gid].population), gid) for gid in exact_ids]
    bound = MAX_EDIT_DISTANCE
    for gid, count in shared.items():
        if gid in exact_ids or count < MIN_SHARED_NGRAMS:
            continue
        distances = [
            d
            for v in index.variants[gid]
            if (d := banded_edit_distance(normalized, v, bound)) is not None
        ]
        if distances:
            population = index.entry_store[gid].population
            scored.append((retrieval_score(False, min(distances), population), gid))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return CandidateSet(
        query_text=name,
        normalized_query=normalized,
        candidates=[(index.entry_store[gid], score) for score, gid in scored[:k]],
    )


def reference_columns(entries: list[GazetteerEntry]) -> dict[str, np.ndarray]:
    """The index arrays as the library built them before its flat-pair
    build: Python lists of offsets and variant strings, and a dict of row
    lists per n-gram, filled entry after entry so rows ascend."""
    codes = sorted({getattr(entry, column) for entry in entries for column in _CODE_COLUMNS})
    code_of = {code: i for i, code in enumerate(codes)}
    names: list[str] = []
    entry_names = [0]
    pairs: list[str] = []  # every entry's variants, entry after entry
    entry_variants = [0]
    postings: dict[str, list[int]] = {}
    for row, entry in enumerate(entries):
        names += (entry.name, entry.ascii_name, *entry.alternative_names)
        entry_names.append(len(names))
        own = entry.name_variants()
        pairs += own
        entry_variants.append(len(pairs))
        grams: set[str] = set()
        for name in own:
            grams.update(char_ngrams(name, NGRAM_SIZE))
        for gram in grams:
            postings.setdefault(gram, []).append(row)
    variants = sorted(set(pairs))
    variant_id = dict(zip(variants, range(len(variants))))
    gram_list = sorted(postings)
    return {
        "geoname_id": np.array([e.geoname_id for e in entries], dtype=np.int64),
        "latitude": np.array([e.latitude for e in entries], dtype=np.float64),
        "longitude": np.array([e.longitude for e in entries], dtype=np.float64),
        "population": np.array([e.population for e in entries], dtype=np.int64),
        **{
            column: np.array([code_of[getattr(e, column)] for e in entries], dtype=np.int32)
            for column in _CODE_COLUMNS
        },
        **_string_table("code", codes),
        **_string_table("name", names),
        "entry_names": np.array(entry_names, dtype=np.int64),
        **_string_table("variant", variants),
        "entry_variants": np.array(entry_variants, dtype=np.int64),
        "variant_ids": np.array([variant_id[v] for v in pairs], dtype=np.int32),
        **_string_table("gram", gram_list),
        "posting_offsets": _offsets([len(postings[gram]) for gram in gram_list]),
        "postings": np.fromiter(chain.from_iterable(postings[gram] for gram in gram_list), dtype=np.int32),
    }


def coherence_features(
    candidate: GazetteerEntry,
    other_candidate_sets: list[CandidateSet],
    admin_tables: AdminTables,
) -> tuple[int, int, float]:
    """Coherence flags from raw candidate sets (excluding the toponym being
    scored), for tests that start from query results."""
    summaries = [summarize_candidates(cs) for cs in other_candidate_sets]
    return coherence_from_summaries(candidate, summaries, admin_tables)


def trigrams(text: str, n: int = 3) -> list[str]:
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def scan_candidates(
    entries: list[GazetteerEntry],
    raw_query: str,
    *,
    ngram_size: int = 3,
    max_edit_distance: int = 2,
    fuzzy_min_shared_ngrams: int = 2,
    k: int = 50,
) -> list[tuple[int, float]]:
    """Exhaustive rescan of the retrieval contract: an entry is a candidate if
    any name variant matches the normalized query exactly, or it shares enough
    query trigrams with the variant trigram set and some variant is within the
    edit-distance bound. Scored (exact, -distance, log10(pop+1)) packed into
    one scalar, ordered by descending score then ascending id."""
    query = normalize_name(raw_query)
    if not query:
        return []
    query_grams = set(trigrams(query, ngram_size))
    results = []
    for entry in entries:
        variants = set()
        for name in (entry.name, entry.ascii_name, *entry.alternative_names):
            norm = normalize_name(name)
            if norm:
                variants.add(norm)
                folded = _fold(norm)
                if folded:
                    variants.add(folded)
        if not variants:
            continue
        exact = query in variants
        if exact:
            distance = 0
        else:
            gram_set = set()
            for v in variants:
                gram_set.update(trigrams(v, ngram_size))
            if len(query_grams & gram_set) < fuzzy_min_shared_ngrams:
                continue
            distance = min(dp_edit_distance(query, v) for v in variants)
            if distance > max_edit_distance:
                continue
        score = (
            (1_000_000.0 if exact else 0.0)
            - 1_000.0 * distance
            + math.log10(entry.population + 1)
        )
        results.append((entry.geoname_id, score))
    results.sort(key=lambda pair: (-pair[1], pair[0]))
    return results[:k]


def _fold(text: str) -> str:
    import unicodedata

    return unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")


def reference_haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """atan2 formulation (the library uses asin) on the same sphere."""
    r = 6371.0088
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.atan2(math.sqrt(a), math.sqrt(1 - a))


# --- per-example ranker ------------------------------------------------------
#
# The ranker's original one-example-at-a-time forward and backward passes,
# kept as the reference for the packed window kernel in placelink.ranker.

# (feature column, embedding table, projected context vector)
_SIMILARITY_COLUMNS = (
    (0, "c", "pm"),
    (1, "c", "po"),
    (2, "c", "pd"),
    (3, "f", "pm"),
    (4, "f", "po"),
    (5, "f", "pd"),
)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_softmax(q):
    top = float(np.max(q))
    lse = top + float(np.log(np.sum(np.exp(q - top))))
    return q - lse, lse


def _numeric_matrix(features):
    rows = np.array(
        [
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
            for f in features
        ],
        dtype=np.float64,
    )
    if not np.all(np.isfinite(rows)):
        raise ValueError("candidate features must be finite")
    return rows


def _cosine(rows, row_norms, v, v_norm):
    denom = row_norms * v_norm
    out = np.zeros(rows.shape[0], dtype=np.float64)
    np.divide(rows @ v, denom, out=out, where=denom > 0.0)
    return out


def _cosine_backward(g, rows, row_norms, v, v_norm, cos):
    valid = (row_norms > 0.0) & (v_norm > 0.0)
    gi = np.where(valid, g, 0.0)
    safe_norms = np.where(valid, row_norms, 1.0)
    denom = np.where(valid, safe_norms * v_norm, 1.0)
    d_rows = gi[:, None] * (v[None, :] / denom[:, None] - (cos / safe_norms**2)[:, None] * rows)
    if v_norm > 0.0:
        d_v = (gi / denom) @ rows - float(np.dot(gi, cos)) * v / v_norm**2
    else:
        d_v = np.zeros_like(v)
    return d_rows, d_v


def example_forward(model, features, context, *, training, rng):
    """Forward pass over one example's candidates. Returns a cache dict
    whose "probs" has the abstention slot last."""
    if not features:
        raise ValueError("cannot score an empty candidate list")
    if context.dimension != model.provider_dim:
        raise ModelDimensionError(
            f"context dimension {context.dimension} != model provider_dim {model.provider_dim}"
        )
    p = model.params
    cfg = model.config

    ci = np.array([model.country_row(f.candidate_country) for f in features], dtype=np.intp)
    fi = np.array([model.fclass_row(f.candidate_feature_class) for f in features], dtype=np.intp)
    u = _numeric_matrix(features)

    proj = p["context_proj"]
    proj_vecs = {
        "pm": proj @ context.mention_vector,
        "po": proj @ context.other_mentions_vector,
        "pd": proj @ context.document_vector,
    }
    proj_norms = {k: float(np.linalg.norm(v)) for k, v in proj_vecs.items()}

    ec = p["country_emb"][ci]
    ef = p["fclass_emb"][fi]
    norm_c = np.linalg.norm(ec, axis=1)
    norm_f = np.linalg.norm(ef, axis=1)

    n = len(features)
    sims = np.zeros((n, NUM_SIMILARITY_FEATURES), dtype=np.float64)
    for col, table, vec_key in _SIMILARITY_COLUMNS:
        rows, norms = (ec, norm_c) if table == "c" else (ef, norm_f)
        sims[:, col] = _cosine(rows, norms, proj_vecs[vec_key], proj_norms[vec_key])

    x = np.hstack([sims, u])
    if training and cfg.dropout > 0.0:
        if rng is None:
            raise ValueError("training-mode forward needs a random generator for dropout")
        keep = rng.random(x.shape) >= cfg.dropout
        mask = keep.astype(np.float64) / (1.0 - cfg.dropout)
    else:
        mask = np.ones_like(x)
    xd = x * mask

    hidden = np.tanh(xd @ p["hidden_w"].T + p["hidden_b"])
    z = hidden @ p["out_w"] + p["out_b"][0]
    scores = _sigmoid(z)
    null_score = float(_sigmoid(p["null_bias"])[0])

    if cfg.score_mode == "sigmoid":
        q = np.concatenate([scores, [null_score]])
    else:
        q = np.concatenate([z, p["null_bias"]])
    log_probs, _ = log_softmax(q)

    return {
        "ci": ci,
        "fi": fi,
        "ec": ec,
        "ef": ef,
        "norm_c": norm_c,
        "norm_f": norm_f,
        "proj_vecs": proj_vecs,
        "proj_norms": proj_norms,
        "context": context,
        "sims": sims,
        "mask": mask,
        "xd": xd,
        "hidden": hidden,
        "scores": scores,
        "null_score": null_score,
        "log_probs": log_probs,
        "probs": np.exp(log_probs),
    }


def example_backward(model, cache, gold_slot, gold_country):
    """(loss, gradients) of one example from its forward cache."""
    p = model.params
    cfg = model.config
    n = len(cache["scores"])
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}

    loss = -float(cache["log_probs"][gold_slot])

    dq = cache["probs"].copy()
    dq[gold_slot] -= 1.0
    if cfg.score_mode == "sigmoid":
        s = cache["scores"]
        dz = dq[:n] * s * (1.0 - s)
        s_null = cache["null_score"]
        grads["null_bias"][0] = dq[n] * s_null * (1.0 - s_null)
    else:
        dz = dq[:n].copy()
        grads["null_bias"][0] = dq[n]

    hidden = cache["hidden"]
    grads["out_w"] += hidden.T @ dz
    grads["out_b"][0] = float(np.sum(dz))
    d_hidden = dz[:, None] * p["out_w"][None, :]
    d_act = d_hidden * (1.0 - hidden**2)
    grads["hidden_w"] += d_act.T @ cache["xd"]
    grads["hidden_b"] += d_act.sum(axis=0)
    dx = (d_act @ p["hidden_w"]) * cache["mask"]
    d_sims = dx[:, :NUM_SIMILARITY_FEATURES]

    d_proj_vecs = {k: np.zeros_like(v) for k, v in cache["proj_vecs"].items()}
    d_ec = np.zeros_like(cache["ec"])
    d_ef = np.zeros_like(cache["ef"])
    for col, table, vec_key in _SIMILARITY_COLUMNS:
        rows, norms, acc = (
            (cache["ec"], cache["norm_c"], d_ec)
            if table == "c"
            else (cache["ef"], cache["norm_f"], d_ef)
        )
        d_rows, d_v = _cosine_backward(
            d_sims[:, col],
            rows,
            norms,
            cache["proj_vecs"][vec_key],
            cache["proj_norms"][vec_key],
            cache["sims"][:, col],
        )
        acc += d_rows
        d_proj_vecs[vec_key] += d_v

    np.add.at(grads["country_emb"], cache["ci"], d_ec)
    np.add.at(grads["fclass_emb"], cache["fi"], d_ef)

    weight = cfg.multitask_country_weight
    if weight > 0.0 and gold_country:
        pd_vec = cache["proj_vecs"]["pd"]
        log_pt, _ = log_softmax(p["country_emb"] @ pd_vec)
        gc = model.country_row(gold_country)
        loss += weight * -float(log_pt[gc])
        dt = np.exp(log_pt)
        dt[gc] -= 1.0
        dt *= weight
        grads["country_emb"] += np.outer(dt, pd_vec)
        d_proj_vecs["pd"] += p["country_emb"].T @ dt

    ctx = cache["context"]
    grads["context_proj"] += np.outer(d_proj_vecs["pm"], ctx.mention_vector)
    grads["context_proj"] += np.outer(d_proj_vecs["po"], ctx.other_mentions_vector)
    grads["context_proj"] += np.outer(d_proj_vecs["pd"], ctx.document_vector)

    return loss, grads


def train_per_example(model, dataset):
    """The ranker's SGD loop one example at a time: gradients summed example
    by example and an update after every batch, the short last one of an
    epoch included. Modifies the model in place and returns the mean loss of
    each epoch and the share of its examples whose argmax slot, under dropout
    and before their update, was gold."""
    cfg = model.config
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    epoch_losses, epoch_accuracies = [], []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        hits = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
            for idx in batch:
                ex = dataset[idx]
                cache = example_forward(model, ex.features, ex.context, training=True, rng=rng)
                loss, g = example_backward(model, cache, ex.gold_slot, ex.gold_country)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, example {ex.doc_id or int(idx)}"
                    )
                epoch_loss += loss
                hits += int(np.argmax(cache["probs"])) == ex.gold_slot
                for name in _PARAM_ORDER:
                    grads[name] += g[name]
            _apply_update(model, grads, cfg.learning_rate, len(batch))
        epoch_losses.append(epoch_loss / n)
        epoch_accuracies.append(hits / n)
    return epoch_losses, epoch_accuracies
