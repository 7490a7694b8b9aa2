#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark binary (tiny tables, ~1 s phases).

    python3 perfbench/selftest.py

For every workload raven_perfbench knows (the gated ones in BENCHMARK.json
and the ungated batch_score) it runs the binary untraced and traced. It
asserts that every metric BENCHMARK.json names is reported, that error_frac
is 0 and the run is correct, and that the traced run wrote spans for every
module of the layer table. Then it plants a corrupted reference and asserts
the run is marked incorrect. Exits non-zero on the first failed check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

LAYERS = ("frontend", "optimizer", "runtime", "relational", "storage", "nnrt",
          "server")
# Modules each workload's replay must reach (storage only has blocks to
# read where a table lives on disk).
EXPECTED_SPANS = {
    "point_serve": set(LAYERS) - {"storage"},
    "batch_score": set(LAYERS) - {"storage"},
    "disk_refresh": set(LAYERS),
}


def check(cond, msg):
    if not cond:
        print(f"selftest: FAIL: {msg}", file=sys.stderr)
        sys.exit(1)


def main():
    spec = run.load_spec()
    run.build()
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for name in EXPECTED_SPANS:
        for trace in (0, 1):
            rec = run.run_binary(name, 7, 1, trace, extra=("--smoke",))
            section = "per_layer" if trace else "end_to_end"
            missing = [m["name"] for m in spec[section]
                       if m["name"] not in rec[section]]
            check(not missing, f"{name} trace={trace} missing {missing}")
            check(rec["error_frac"] == 0,
                  f"{name}: error_frac {rec['error_frac']}")
            check(rec["wrong"] == 0 and rec["attempted"] > 0,
                  f"{name}: not correct")
            for m in spec["end_to_end"]:
                check(rec["end_to_end"][m["name"]]["value"] > 0,
                      f"{name}: {m['name']} is not positive")
            # BENCHMARK.json's why line records the tail percentile in use.
            tail = f"tail = p{rec['tail_percentile']:g}"
            check(name not in whys or tail in whys[name],
                  f"{name}: why does not record {tail}")
            if trace:
                spans_path = os.path.join(run.WORK_DIR,
                                          f"spans_{name}_s7.jsonl")
                with open(spans_path) as f:
                    spans = [json.loads(l) for l in f]
                seen = {s["name"].split(".")[0] for s in spans}
                lacking = EXPECTED_SPANS[name] - seen
                check(not lacking, f"{name}: no spans for {sorted(lacking)}")
        print(f"selftest: {name} ok", file=sys.stderr)

    rec = run.run_binary("batch_score", 7, 1, 0,
                         extra=("--smoke", "--corrupt-reference"))
    check(rec["wrong"] > 0, "a corrupted reference was not caught")
    print("selftest: corrupted reference caught", file=sys.stderr)
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
