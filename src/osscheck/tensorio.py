"""TensorFile serialization.

A tensor file is a single JSON document:

    {"dim": n, "mode": "float64" | "rational",
     "components": [... n^4 numbers, row-major (i, j, k, l) ...],
     "provenance": "..."}

Rational components are "p/q" strings (or plain integer strings) and
round-trip bit-exactly.  ``dim`` must be an integer >= 2 and float
components must be finite JSON numbers.  A rational tensor has n^4
components but, for the Clifford corpus, a few dozen distinct values, so
both directions work on a table of the distinct values.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from collections import defaultdict
from fractions import Fraction

import numpy as np

from .curvature import CurvatureTensor, _as_tensor
from .linalg import FLOAT64, RATIONAL


class TensorFileError(ValueError):
    """Malformed tensor file; carries a byte offset when one is known."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _codes(values, count):
    """Distinct ``values`` in first-seen order, and each value's index there."""
    code = defaultdict(itertools.count().__next__)
    codes = np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=count)
    return list(code), codes


def _document_text(R: CurvatureTensor) -> str:
    """The file text of ``R``, the bytes of ``json.dumps`` of its document
    and a newline: each distinct numerator spelled and encoded once, and
    ValueError for a non-finite float component."""
    if R.mode == RATIONAL:
        L, stored = R.denominator, R._matrix.reshape(-1)
        distinct, codes = _codes(stored if stored.dtype == object
                                 else memoryview(stored), stored.size)
        text = np.array([json.dumps(str(v) if L == 1 else str(Fraction(v, L)))
                         for v in distinct], dtype=object)
        # the codes of the stored scalars, read in the component order
        items = text[_as_tensor(codes, R.dim)].reshape(-1).tolist()
    else:
        flat = R.components.reshape(-1)
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            raise ValueError(f"non-finite float component at index {bad[0]}")
        items = list(map(float.__repr__, flat.tolist()))
    items[0] = f'{{"dim": {R.dim}, "mode": {json.dumps(R.mode)}, "components": [{items[0]}'
    items[-1] += f'], "provenance": {json.dumps(R.provenance)}}}\n'
    return ", ".join(items)


def dump_tensor(R: CurvatureTensor, path):
    text = _document_text(R)  # first, so a failure leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# "p" or "p/q" in ASCII digits with q > 0
_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")
# Fraction's decimal spelling with an exponent: integer digits, decimal
# digits, exponent
_EXPONENT = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
                       r"(?:\.(\d*|\d+(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*")


def _rational(spelling):
    """``spelling`` as ``(p, q)`` with ``spelling == p / q`` and ``q > 0``.
    ``_INT_RATIO`` spellings are read by ``int``; any other goes through
    ``Fraction``, which decides what loads: "0.5" does, "1/-2", "1 / 2" and
    "True" do not.  Either way ``p`` and ``q`` obey ``int``'s digit limit
    (``sys.get_int_max_str_digits()``); an exponent is checked against it
    before ``Fraction`` expands it.  Raises ValueError or
    ZeroDivisionError."""
    m = _INT_RATIO.fullmatch(spelling)
    if m:
        return int(m[1]), int(m[2] or 1)
    m = _EXPONENT.fullmatch(spelling)
    limit = sys.get_int_max_str_digits()
    if m and limit:
        # Fraction makes int(whole + decimals) * 10**shift
        whole, decimals = m[1].replace("_", ""), (m[2] or "").replace("_", "")
        shift = int(m[3]) - len(decimals)
        longest = max(len(whole + decimals) + shift, 1 - shift)
        if longest > limit:
            raise ValueError(f"Exceeds the limit ({limit} digits) for integer "
                             f"string conversion: value has {longest} digits")
    f = Fraction(spelling)
    return f.numerator, f.denominator


def _rational_numerators(comps):
    """Integer numerators (int64 when they fit) and common denominator of
    the rational ``comps``.  Each distinct component is parsed once, keyed
    on its JSON value when every one is a string and on its spelling
    ``str(v)`` otherwise; ``str`` keeps JSON ``true`` apart from ``1``,
    which are equal as keys."""
    try:
        distinct, codes = _codes(comps, len(comps))
    except TypeError:  # a JSON array or object among the components
        distinct = None
    if distinct is None or not all(type(v) is str for v in distinct):
        comps = list(map(str, comps))
        distinct, codes = _codes(comps, len(comps))
    table = []
    for spelling in distinct:
        try:
            table.append(_rational(spelling))
        except (ValueError, ZeroDivisionError) as e:
            raise TensorFileError(
                f"field 'components': bad rational component at index "
                f"{comps.index(spelling)}: {e}") from e
    L = math.lcm(*(q for _, q in table))
    values = [p * (L // q) for p, q in table]
    try:
        values = np.array(values, dtype=np.int64)
    except OverflowError:
        values = np.array(values, dtype=object)
    return values[codes], L


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
        nums, L = _rational_numerators(comps)
        return CurvatureTensor._from_numerators(nums.reshape((dim,) * 4), L, prov)
    if not set(map(type, comps)) <= {int, float}:
        i = next(i for i, v in enumerate(comps) if type(v) not in (int, float))
        raise TensorFileError(f"field 'components': float component at index "
                              f"{i} is not a JSON number: {comps[i]!r}")
    try:
        arr = np.asarray(comps, dtype=np.float64).reshape((dim,) * 4)
    except OverflowError:  # a JSON integer beyond float range
        for i, v in enumerate(comps):
            try:
                float(v)
            except OverflowError:
                raise TensorFileError(
                    f"field 'components': float component at index {i} "
                    f"is beyond float range") from None
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise TensorFileError(
            f"field 'components': non-finite float component at index {bad[0]}")
    return CurvatureTensor(dim, mode, arr, prov)


def load_tensor(path) -> CurvatureTensor:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise TensorFileError(f"not UTF-8 text: {e.reason}", offset=e.start) from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise TensorFileError(f"invalid JSON: {e.msg}",
                              offset=len(text[:e.pos].encode("utf-8"))) from e
    except ValueError as e:  # an integer beyond int's digit limit
        raise TensorFileError(f"invalid JSON: {e}") from e
    return tensor_from_document(doc)


def dump_report(report, path):
    text = report.to_json() + "\n"  # first, so a failure leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
