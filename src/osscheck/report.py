"""Residuals and structured verdicts of the property checkers."""

from __future__ import annotations

import decimal
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

ARTIFACT_VERSION = "0.8.0"


def residual(raw, *magnitudes, over=None):
    """A checker's residual, the one place where any is scaled.  Float:
    ``raw / (1.0 + m1 + m2 ...)`` elementwise, the magnitudes added to 1.0
    left to right; with none, the absolute ``raw / 1.0``.  Exact: the
    Fraction of Python ints ``raw / over``, for ``raw`` an int, a numpy
    integer or a Fraction and ``over`` the positive common denominator."""
    if over is not None:
        return Fraction(int(raw.numerator), raw.denominator * int(over))
    scale = 1.0
    for m in magnitudes:
        scale = scale + m
    return raw / scale


def _jsonable(v):
    """``v`` in strict JSON types: a non-finite float is spelled "NaN",
    "Infinity" or "-Infinity", which ``float`` reads back."""
    if isinstance(v, float) and not math.isfinite(v):
        return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")
    if isinstance(v, Fraction):
        # str(v), spelled by decimal past int's digit limit
        p, q = decimal.Decimal(v.numerator), decimal.Decimal(v.denominator)
        return f"{p}" if q == 1 else f"{p}/{q}"
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if hasattr(v, "tolist"):
        return _jsonable(v.tolist())
    return v


@dataclass
class CheckReport:
    """Outcome of one property checker run.

    ``verdict`` is "pass" iff ``worst_residual <= tolerance`` (exact zero
    required in rational mode when tolerance is 0); a non-finite residual
    always fails.  In rational mode an exact worst residual is a Fraction.
    The witness holds the sample achieving the worst residual, reproducible
    from (seed, index).
    """

    name: str
    verdict: str
    worst_residual: object
    witness: dict
    samples: int
    seed: int
    tolerance: object
    mode: str
    notes: str = ""
    provenance: str = field(default="")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self):
        return {
            "artifact_version": ARTIFACT_VERSION,
            "property": self.name,
            "verdict": self.verdict,
            "worst_residual": _jsonable(self.worst_residual),
            "witness": _jsonable(self.witness),
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": _jsonable(self.tolerance),
            "mode": self.mode,
            "notes": self.notes,
            "provenance": self.provenance,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)


def make_report(name, worst, witness, samples, seed, tol, mode,
                notes="", provenance=""):
    ok = (isinstance(worst, Fraction) or math.isfinite(worst)) and worst <= tol
    return CheckReport(name, "pass" if ok else "fail", worst, witness, samples,
                       seed, tol, mode, notes, provenance)
