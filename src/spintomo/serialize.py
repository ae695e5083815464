"""JSON and CSV interchange formats.

Operators serialize as flat row-major lists of [re, im] pairs; quorums and
dual frames as {"dim", "elements", "labels"}.  A JSON file is one line,
``json.dumps(doc)`` and a newline.  All floats go through Python's
shortest round-trip repr (JSON) or 17 significant digits (CSV), so
outputs are byte-stable for identical inputs.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .estimator import RunStats
from .frames import DualFrame, Quorum
from .liouville import as_operator
from .spin import Direction

_TYPES = {"an integer": (int, np.integer), "a number": (int, float, np.integer, np.floating),
          "a string": str, "true or false": bool}


def _checked(value, key: str, kind: str):
    """``value``, unconverted, if it is ``kind``; a bool is only ever "true or false"."""
    if not isinstance(value, _TYPES[kind]) or (isinstance(value, bool) and kind != "true or false"):
        raise ValueError(f"{key} must be {kind}, got {value!r}")
    return value


def op_to_pairs(a: np.ndarray) -> list[list[float]]:
    flat = np.ascontiguousarray(a, dtype=complex).reshape(-1)
    return flat.view(float).reshape(-1, 2).tolist()


def op_from_pairs(pairs: Sequence, dim: int, key: str = "entries") -> np.ndarray:
    arr = np.array(pairs)
    if arr.dtype.kind not in "iuf":  # name the first value that is not a number
        for x in np.asarray(pairs, dtype=object).reshape(-1):
            _checked(x, key, "a number")
    if arr.shape != (dim * dim, 2):
        raise ValueError(f"expected {dim * dim} [re, im] pairs, got shape {arr.shape}")
    return arr.astype(float, copy=False).view(complex).reshape(dim, dim)


def op_to_json_dict(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"dim": int(a.shape[0]), "entries": op_to_pairs(a)}


def op_from_json_dict(doc: dict) -> np.ndarray:
    dim = _checked(doc["dim"], "dim", "an integer")
    return as_operator(op_from_pairs(doc["entries"], dim))


def quorum_to_json_dict(q: Quorum) -> dict:
    return {
        "dim": q.dim,
        "elements": [op_to_pairs(c) for c in q.elements],
        "labels": list(q.labels),
    }


def _frame_from_json_dict(doc: dict, key: str, kind: str) -> tuple[list, list | None]:
    """The elements of a quorum or dual document, and its list ``key`` of ``kind`` if any."""
    dim, extra = _checked(doc["dim"], "dim", "an integer"), doc.get(key)
    elements = [op_from_pairs(p, dim, "elements") for p in doc["elements"]]
    return elements, None if extra is None else [_checked(v, key, kind) for v in extra]


def quorum_from_json_dict(doc: dict) -> Quorum:
    return Quorum.from_elements(*_frame_from_json_dict(doc, "labels", "a string"))


def dual_to_json_dict(dual: DualFrame, labels: Sequence[str] | None = None) -> dict:
    doc = {
        "dim": dual.dim,
        "elements": [op_to_pairs(b) for b in dual.elements],
        "labels": list(labels) if labels is not None else [f"B_{n}" for n in range(len(dual))],
        "kept_mask": [bool(k) for k in dual.kept_mask],
    }
    return doc


def dual_from_json_dict(doc: dict) -> DualFrame:
    return DualFrame.from_elements(*_frame_from_json_dict(doc, "kept_mask", "true or false"))


def directions_to_json_list(directions: Sequence[Direction]) -> list[dict]:
    return [{"theta": float(d.theta), "phi": float(d.phi)} for d in directions]


def directions_from_json_list(doc) -> list[Direction]:
    return [Direction(*(float(_checked(item[k], k, "a number")) for k in ("theta", "phi")))
            for item in doc]


def run_stats_to_json_dict(stats: RunStats) -> dict:
    return {
        "estimator": stats.estimator,
        "n_samples": stats.n_samples,
        "n_blocks": stats.n_blocks,
        "mean": float(stats.mean),
        "error_bar": float(stats.error_bar),
        "block_means": [float(b) for b in stats.block_means],
        "seed": stats.seed,
        "convention": stats.convention,
    }


def dumps(doc) -> str:
    """``json.dumps(doc)`` and a newline: one line, written by the C encoder.

    Floats go through Python's shortest round-trip ``repr``, so identical
    documents give identical bytes and every float reads back bit for bit.
    """
    return json.dumps(doc) + "\n"


def load_json_file(path: str):
    """Parse a JSON file; a syntax error names ``path:line:col`` and quotes
    at most 80 characters of its line around the column."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        line_start = err.pos - err.colno + 1
        line_end = text.find("\n", err.pos)
        near = text[max(line_start, err.pos - 40):line_end if line_end >= 0 else None][:80]
        raise ValueError(f"{path}:{err.lineno}:{err.colno}: {err.msg}\n  {near}") from err


def csv_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else csv_float(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
