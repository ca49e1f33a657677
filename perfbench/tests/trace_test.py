"""Runs a short traced pass of the benchmark and checks its Chrome trace.

Usage: python3 trace_test.py <netmax_perfbench binary> <trace output path>

Every trace event must be a complete ("X") span with a known layer name, a
non-negative duration, an id, and a parent that is 0 (the root) or the id of
an enclosing span.
"""

import json
import subprocess
import sys

KNOWN = {
    "perfbench.workload", "perfbench.pass", "algos.run", "core.harness.init",
    "core.policy.generate", "linalg.lambda2", "ml.grad", "ml.step",
    "net.queue", "ml.compress.encode", "core.checkpoint.save",
    "core.checkpoint.restore",
}


def main(binary, trace_path):
    subprocess.run([binary, "--workload", "churn8", "--seconds", "1",
                    "--trace", "1", "--trace-out", trace_path],
                   check=True, stdout=subprocess.DEVNULL)
    with open(trace_path) as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    assert events, "empty trace"
    assert trace["otherData"]["nproc"], "run context missing"
    by_id = {e["args"]["id"]: e for e in events}
    assert len(by_id) == len(events), "duplicate span ids"
    roots = 0
    for e in events:
        assert e["ph"] == "X", e
        assert e["name"] in KNOWN, "unknown layer " + e["name"]
        assert e["dur"] >= 0, e
        parent = e["args"]["parent"]
        if parent == 0:
            roots += 1
            continue
        assert parent in by_id, "span %s has no parent" % e["args"]["id"]
        p = by_id[parent]
        assert p["ts"] <= e["ts"] + 1e-3, (p, e)
        assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3, (p, e)
    assert roots == 1, "expected one root span, got %d" % roots
    names = {e["name"] for e in events}
    for layer in ("ml.compress.encode", "core.checkpoint.save",
                  "core.checkpoint.restore", "core.policy.generate"):
        assert layer in names, layer + " missing from the churn8 trace"
    print("trace ok: %d spans" % len(events))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
