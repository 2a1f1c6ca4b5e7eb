"""Digests of operation outputs and their comparison with the reference.

An output is digested in two steps.  The SHA-256 of its bytes decides
the common case: equal bytes match.  Otherwise it is split into exact
fields and floats.  Exact fields (exit codes, integers, labels, levels,
flows, verdicts and the layout around them) are hashed and must match
exactly.  Floats must agree within ``FLOAT_RTOL``: element by element when
an output holds at most ``FULL_LIST_MAX`` of them, and otherwise through
two weighted sums, each allowed to move by ``FLOAT_RTOL`` times the root
sum of squares of its terms.  Exact arithmetic done in another order moves
every float by about 1e-16 relative and passes; one coefficient off by
more than about 1e-7 fails.  DLR gaps are differences of two equal
quantities, so they are checked against ``GAP_ATOL`` instead.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FLOAT_RTOL = 1e-9
GAP_ATOL = 1e-12
FULL_LIST_MAX = 256

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_GAP_KEY = re.compile(r'"(?:max_)?gap"\s*:')
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Output:
    """One output of an operation: its byte hash and a lazy full summary."""

    sha256: str
    summarize: Callable


def summary(sha: str, skeleton: str, floats, gaps=()) -> dict:
    values = np.asarray(floats, dtype=np.float64)
    out = {"sha256": sha, "skeleton": skeleton, "n_floats": int(values.size), "gaps": list(gaps)}
    if values.size <= FULL_LIST_MAX:
        out["floats"] = values.tolist()
    else:
        terms = np.stack([values, values * (1.0 + (np.arange(values.size) * _GOLDEN) % 1.0)])
        out["fingerprint"] = terms.sum(axis=1).tolist()
        out["norms"] = np.sqrt(np.square(terms).sum(axis=1)).tolist()
    return out


def _file_sha(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def file_summary(path: Path) -> dict:
    """Stream a JSON or CSV report into exact fields, floats and gaps."""
    skeleton = hashlib.sha256()
    floats, gaps = [], []
    target = floats

    def split(match):
        token = match.group()
        if not any(c in token for c in ".eE"):
            return token
        target.append(float(token))
        return "#"

    with open(path) as fh:
        for line in fh:
            target = gaps if _GAP_KEY.search(line) else floats
            skeleton.update(_NUMBER.sub(split, line).encode())
    return summary(_file_sha(path), skeleton.hexdigest(), floats, gaps)


def cli_outputs(exit_code, out_dir: Path) -> dict:
    """Every file a CLI command wrote, by name."""
    if not out_dir.is_dir():
        return {}
    return {
        path.name: Output(_file_sha(path), lambda path=path: file_summary(path))
        for path in sorted(out_dir.iterdir())
    }


def _value_output(keys, floats=()) -> dict:
    key_bytes = np.asarray(keys, dtype=np.int64).tobytes()
    sha = hashlib.sha256(key_bytes + np.asarray(floats, dtype=np.float64).tobytes()).hexdigest()
    skeleton = hashlib.sha256(key_bytes).hexdigest()
    return {"value": Output(sha, lambda: summary(sha, skeleton, floats))}


def element_outputs(element, out_dir=None) -> dict:
    keys = sorted(element.coeffs)
    return _value_output(keys, [element.coeffs[k] for k in keys])


def basis_outputs(subalgebra, out_dir=None) -> dict:
    return _value_output(sorted(subalgebra.basis))


def chain_outputs(chain, out_dir=None) -> dict:
    return _value_output([pair.index for pair in chain.elements])


def compare(expected: dict, output: Output):
    """``None`` when ``output`` matches the reference summary, else a reason."""
    if output.sha256 == expected["sha256"]:
        return None
    got = output.summarize()
    if got["skeleton"] != expected["skeleton"]:
        return "exact fields differ"
    if got["n_floats"] != expected["n_floats"] or len(got["gaps"]) != len(expected["gaps"]):
        return "float count differs"
    if any(abs(g) > GAP_ATOL for g in got["gaps"]):
        return f"consistency gap above {GAP_ATOL}"
    if "floats" in expected:
        a, b = np.array(got["floats"]), np.array(expected["floats"])
        bad = np.flatnonzero(np.abs(a - b) > FLOAT_RTOL * np.maximum(np.abs(a), np.abs(b)))
        if bad.size:
            i = int(bad[0])
            return f"float {i} is {a[i]!r}, expected {b[i]!r}"
        return None
    a, b = np.array(got["fingerprint"]), np.array(expected["fingerprint"])
    if np.any(np.abs(a - b) > FLOAT_RTOL * np.array(expected["norms"])):
        return f"weighted float sums {a.tolist()} differ from {b.tolist()}"
    return None
