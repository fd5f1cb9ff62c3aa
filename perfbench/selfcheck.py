"""Self-check of the benchmark harness, at a tiny size.

    python3 perfbench/selfcheck.py

For every workload it runs one untraced pass twice: once as is, and once
with one planted wrong expectation, which the oracle must count as exactly
one more failed operation.  It then makes a traced run and checks that it
emits every per-layer metric BENCHMARK.json lists, and that the untraced
run emits every end-to-end metric.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import sys

import run


def plant_wrong_expectation(workload):
    """Invert the expected verdict (or exit code) of the first operation."""
    op = workload.groups[0].ops[0]
    if "verdict" in op.expect:
        op.expect["verdict"] = "fail" if op.expect["verdict"] == "pass" else "pass"
    else:
        op.expect["exit"] = 1 - op.expect["exit"]


def check(condition, message):
    if not condition:
        sys.exit(f"selfcheck FAILED: {message}")
    print(f"ok: {message}")


def main():
    run.import_library()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in workloads.WORKLOADS:
        clean, metrics, _ = run.run(name, 7, 0, 0, workloads.TINY, passes=1)
        planted, _, _ = run.run(name, 7, 0, 0, workloads.TINY, passes=1,
                                prepare=plant_wrong_expectation)
        attempted = len(clean.outcomes)
        check(len(planted.outcomes) == attempted,
              f"{name}: planting changes no operation count ({attempted})")
        check(planted.failed == clean.failed + 1,
              f"{name}: failed_ops_ratio {clean.failed}/{attempted} -> "
              f"{planted.failed}/{attempted} reports the planted verdict")
        check(clean.correct and not planted.correct,
              f"{name}: correct flips to false on the planted verdict")
        check(set(metrics) == end_to_end,
              f"{name}: untraced run emits exactly the end-to-end metrics")
        _, traced, _ = run.run(name, 7, 0, 1, workloads.TINY, passes=2)
        missing = per_layer - set(traced)
        extra = set(traced) - per_layer
        check(not missing and not extra,
              f"{name}: traced run emits exactly the per-layer metrics "
              f"(missing {sorted(missing)}, extra {sorted(extra)})")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
