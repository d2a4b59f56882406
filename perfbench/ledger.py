"""Turn recorded spans into per-stage self times and a reconciled ledger.

Per wire request (frame id ``r``), with ``D``/``E`` the decode/encode spans,
``S`` the ``SketchService.submit`` span with its ``AnswerCache.get`` child
``G`` and ``MicroBatcher.submit`` child ``B``, and ``W`` the micro-batch
wait (``MicroBatcher.submit`` entry to Future resolved) with the flush
``predict`` ``P`` that resolved it::

    frame      F = [D.start, E.end]
    transit      = client round trip - |F|
    submit self  = |S| - |G| - |B|
    wait self    = |W| - |P n W|
    frame self   = |F| - |D u S u W u E|
    unattributed = round trip - (transit + frame self + |D| + |E| + |G|
                                 + submit self + wait self + |P n W|)

Every stage is measured on its own, so the remainder is not zero by
construction: it is whatever the stage self times double-count (the short
stretch where ``S`` and ``W`` overlap after ``B`` returns) or miss. Means
are per request, so the stage means and the remainder add up to the mean
round trip.
"""

from __future__ import annotations

import numpy as np

from perfbench.spans import AUX0, AUX1, ID, NAME, NAME_ID, PARENT, RID, ROWS, T0, T1

WIRE_STAGES = (
    "wire.transit_us",
    "server.frame_self_us",
    "protocol.decode_us",
    "service.submit_us",
    "cache.probe_us",
    "batching.wait_us",
    "compiled.predict_in_wait_us",
    "protocol.encode_us",
)


def _per_request(spans: np.ndarray, name: str, n: int) -> np.ndarray:
    """``(n, 2)`` float start/end of span ``name`` per frame id (NaN: none)."""
    out = np.full((n, 2), np.nan)
    sel = spans[(spans[:, NAME] == NAME_ID[name]) & (spans[:, RID] >= 0) & (spans[:, RID] < n)]
    out[sel[:, RID], 0] = sel[:, T0]
    out[sel[:, RID], 1] = sel[:, T1]
    return out


def _dur(iv: np.ndarray) -> np.ndarray:
    return np.nan_to_num(iv[:, 1] - iv[:, 0])


def union_length(intervals: list[np.ndarray]) -> np.ndarray:
    """Row-wise length of the union of ``(n, 2)`` intervals (NaN rows skip)."""
    starts = np.stack([iv[:, 0] for iv in intervals], axis=1)
    ends = np.stack([iv[:, 1] for iv in intervals], axis=1)
    order = np.argsort(np.where(np.isnan(starts), np.inf, starts), axis=1)
    starts = np.take_along_axis(starts, order, axis=1)
    ends = np.take_along_axis(ends, order, axis=1)
    total = np.zeros(starts.shape[0])
    cur_s, cur_e = starts[:, 0].copy(), ends[:, 0].copy()
    for j in range(1, starts.shape[1]):
        s, e = starts[:, j], ends[:, j]
        valid = ~np.isnan(s) & ~np.isnan(cur_s)
        joined = valid & (s <= cur_e)
        cur_e = np.where(joined, np.maximum(cur_e, e), cur_e)
        gap = valid & ~joined
        total += np.where(gap, cur_e - cur_s, 0.0)
        cur_s = np.where(gap, s, np.where(np.isnan(cur_s), s, cur_s))
        cur_e = np.where(gap, e, np.where(np.isnan(cur_e), e, cur_e))
    return total + np.nan_to_num(cur_e - cur_s)


def wire_ledger(spans: np.ndarray, sent: np.ndarray, recv: np.ndarray,
                ok: np.ndarray) -> dict:
    """Mean per-request stage self times (microseconds) and the remainder.

    ``sent``/``recv`` are the client's clock stamps per frame id and ``ok``
    marks answered, non-error frames; only those with both a decode and an
    encode span enter the ledger.
    """
    n = sent.shape[0]
    spans = spans.astype(np.int64)
    D = _per_request(spans, "protocol.decode", n)
    E = _per_request(spans, "protocol.encode", n)
    S = _per_request(spans, "service.submit", n)
    G = _per_request(spans, "cache.probe", n)
    B = _per_request(spans, "batching.enqueue", n)
    W = _per_request(spans, "batching.wait", n)
    P = np.full((n, 2), np.nan)
    waits = spans[(spans[:, NAME] == NAME_ID["batching.wait"]) & (spans[:, RID] >= 0)
                  & (spans[:, RID] < n) & (spans[:, AUX0] >= 0)]
    P[waits[:, RID], 0] = waits[:, AUX0]
    P[waits[:, RID], 1] = waits[:, AUX1]
    keep = ok & ~np.isnan(D[:, 0]) & ~np.isnan(E[:, 0])
    if not keep.any():
        return {"requests": 0}
    rtt = (recv - sent).astype(np.float64)
    frame = E[:, 1] - D[:, 0]
    in_wait = np.clip(np.minimum(P[:, 1], W[:, 1]) - np.maximum(P[:, 0], W[:, 0]), 0, None)
    in_wait = np.nan_to_num(in_wait)
    stages = {
        "wire.transit_us": rtt - frame,
        "server.frame_self_us": frame - union_length([D, S, W, E]),
        "protocol.decode_us": _dur(D),
        "service.submit_us": _dur(S) - _dur(G) - _dur(B),
        "cache.probe_us": _dur(G),
        "batching.wait_us": _dur(W) - in_wait,
        "compiled.predict_in_wait_us": in_wait,
        "protocol.encode_us": _dur(E),
    }
    out = {name: float(v[keep].mean()) / 1e3 for name, v in stages.items()}
    remainder = rtt - sum(stages.values())
    out["ledger.unattributed_us"] = float(remainder[keep].mean()) / 1e3
    out["round_trip_us"] = float(rtt[keep].mean()) / 1e3
    out["requests"] = int(keep.sum())
    return out


def self_times(spans: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children (ns)."""
    dur = (spans[:, T1] - spans[:, T0]).astype(np.float64)
    if spans.shape[0] == 0:
        return dur
    pos = {int(sid): i for i, sid in enumerate(spans[:, ID])}
    child = np.zeros_like(dur)
    for i, parent in enumerate(spans[:, PARENT]):
        j = pos.get(int(parent))
        if j is not None:
            child[j] += dur[i]
    return dur - child


def stage_seconds(spans: np.ndarray, names: tuple[str, ...]) -> dict:
    """Summed self time (s) per span name, e.g. the setup stages."""
    own = self_times(spans)
    return {name: float(own[spans[:, NAME] == NAME_ID[name]].sum()) / 1e9 for name in names}


def window(spans: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Spans that start inside ``[start, stop]``."""
    return spans[(spans[:, T0] >= start) & (spans[:, T0] <= stop)]


def predict_stats(spans: np.ndarray) -> dict:
    """Engine cost per row over every ``CompiledSketch.predict`` span, and
    the mean one-row (scalar kernel) call."""
    p = spans[spans[:, NAME] == NAME_ID["compiled.predict"]]
    dur = (p[:, T1] - p[:, T0]).astype(np.float64)
    rows = p[:, ROWS]
    one = dur[rows == 1]
    return {
        "compiled.predict_us_per_row": float(dur.sum() / rows.sum()) / 1e3 if rows.sum() else None,
        "compiled.predict_one_us": float(one.mean()) / 1e3 if one.size else None,
        "compiled.predict_calls": int(p.shape[0]),
    }


def stream_stats(spans: np.ndarray) -> dict:
    """Per-ingest self time of append/delete and the retrain under them."""
    own = self_times(spans)
    dur = (spans[:, T1] - spans[:, T0]).astype(np.float64)
    out = {}
    for op in ("append", "delete"):
        sel = spans[:, NAME] == NAME_ID[f"stream.{op}"]
        out[f"stream.{op}_s"] = float(own[sel].mean()) / 1e9 if sel.any() else None
    ingest_ids = spans[np.isin(spans[:, NAME], [NAME_ID["stream.append"],
                                                NAME_ID["stream.delete"]]), ID]
    retrain = np.isin(spans[:, NAME], [NAME_ID[n] for n in
                                       ("stream.train", "stream.compile", "stream.swap")])
    under = retrain & np.isin(spans[:, PARENT], ingest_ids)
    out["stream.retrain_s"] = (float(dur[under].sum()) / 1e9 / len(ingest_ids)
                               if len(ingest_ids) else None)
    return out
