"""TensorFile serialization.

A tensor file is a single JSON document:

    {"dim": n, "mode": "float64" | "rational",
     "components": [... n^4 numbers, row-major (i, j, k, l) ...],
     "provenance": "..."}

Rational components are "p/q" strings (or plain integer strings) and
round-trip bit-exactly.  ``dim`` must be an integer >= 2 and float
components must be finite.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np

from .curvature import CurvatureTensor
from .linalg import FLOAT64, RATIONAL


class TensorFileError(ValueError):
    """Malformed tensor file; carries a byte offset when one is known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def tensor_to_document(R: CurvatureTensor) -> dict:
    if R.mode == RATIONAL:
        L = R.denominator
        nums = R.numerators.reshape(-1).tolist()
        comps = [str(v) for v in nums] if L == 1 else [str(Fraction(v, L)) for v in nums]
    else:
        comps = [float(v) for v in R.components.reshape(-1)]
    return {"dim": R.dim, "mode": R.mode, "components": comps,
            "provenance": R.provenance}


def dump_tensor(R: CurvatureTensor, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tensor_to_document(R), fh)
        fh.write("\n")


# "p" or "p/q" in ASCII digits with q > 0
_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def _rational(index, v):
    """Component ``v`` as ``(p, q)`` with ``v == p / q`` and ``q > 0``.
    JSON integers and ``_INT_RATIO`` strings are read by ``int``; any other
    spelling goes through ``Fraction(str(v))``, which decides what loads:
    "0.5" does, "1/-2", "1 / 2" and JSON booleans do not."""
    try:
        m = _INT_RATIO.fullmatch(str(v))
        if m:
            return int(m[1]), int(m[2] or 1)
        f = Fraction(str(v))
    except (ValueError, ZeroDivisionError) as e:
        raise TensorFileError(
            f"field 'components': bad rational component at index {index}: {e}") from e
    return f.numerator, f.denominator


def tensor_from_document(doc) -> CurvatureTensor:
    if not isinstance(doc, dict):
        raise TensorFileError("tensor file must hold a JSON object")
    try:
        dim = doc["dim"]
        mode = doc["mode"]
        comps = doc["components"]
        prov = str(doc.get("provenance", ""))
    except KeyError as e:
        raise TensorFileError(f"missing field {e}") from e
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise TensorFileError(f"field 'dim' must be an integer >= 2, found {dim!r}")
    if mode not in (FLOAT64, RATIONAL):
        raise TensorFileError(f"unknown mode {mode!r}")
    if not isinstance(comps, list):
        raise TensorFileError("field 'components' must be a list")
    if len(comps) != dim**4:
        raise TensorFileError(
            f"expected {dim**4} components, found {len(comps)}")
    if mode == RATIONAL:
        # p0, q0, p1, q1, ... straight into one array, one pair at a time
        pq = np.fromiter(itertools.chain.from_iterable(
            map(_rational, itertools.count(), comps)), dtype=object, count=2 * len(comps))
        nums, dens = pq[0::2], pq[1::2]
        L = math.lcm(*set(dens))
        if L != 1:
            nums = np.fromiter((p * (L // q) for p, q in zip(nums, dens)),
                               dtype=object, count=len(comps))
        return CurvatureTensor._from_numerators(nums.reshape((dim,) * 4), L, prov)
    try:
        arr = np.asarray(comps, dtype=np.float64).reshape((dim,) * 4)
    except (TypeError, ValueError) as e:
        raise TensorFileError(f"field 'components': bad float component: {e}") from e
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise TensorFileError(
            f"field 'components': non-finite float component at index {bad[0]}")
    return CurvatureTensor(dim, mode, arr, prov)


def load_tensor(path) -> CurvatureTensor:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TensorFileError(f"invalid JSON: {e.msg}", offset=e.pos) from e
    return tensor_from_document(doc)


def dump_report(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
