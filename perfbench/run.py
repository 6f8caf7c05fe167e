#!/usr/bin/env python3
"""Wall-clock benchmark of Khazana over real loopback TCP and disk.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm_local --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call builds perfbench/khz_perf (and the Khazana libraries from
src/) into $CARGO_TARGET_DIR or .bench_build. Each run is its own khz_perf
process with a pid-qualified run directory and base port under the build
directory; the directory is removed afterwards.

--trace 0 prints every end_to_end metric of BENCHMARK.json, --trace 1 every
per_layer metric (the node span rings, exported as trace.json, are merged
here). The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every operation
returned the bytes the benchmark's shadow copy predicts.

--selftest runs every workload briefly in both modes and checks that each
metric named in BENCHMARK.json is printed with its unit, that the attributed
parts plus core.unattributed_us reconcile with the op p50, and that
net.msgs_per_op is 0 on the single-node workloads.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUN_TIMEOUT_S = 170
SINGLE_NODE = ("warm_local", "durable_spill")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(SPEC_FILE) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_FILE}: {e}")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds khz_perf; returns the binary's path."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "khz_perf", "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed")
    return os.path.join(out, "khz_perf")


def mean(values):
    return sum(values) / len(values) if values else 0.0


def trace_metrics(path):
    """Per-layer figures from the node span rings (Chrome trace JSON).

    rpc:<type> spans are the issuing node's RPC round trips; rx:<type> spans
    are the receiving node's handlers, parented to the rpc span. The rpc
    span's self time (duration minus its rx children) is wire and queueing.
    Spans carry whole microseconds, so these are means, not percentiles.
    """
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_span = {e["args"]["span"]: e for e in events}
    covered = {}
    for e in events:
        parent = by_span.get(e["args"]["parent"])
        if parent is not None and e["name"].startswith("rx:"):
            covered[parent["args"]["span"]] = (
                covered.get(parent["args"]["span"], 0) + e["dur"])
    rpc = [e for e in events if e["name"].startswith("rpc:")]
    traces = {e["args"]["trace"] for e in events}
    return {
        "net.rpc_us": (mean([e["dur"] for e in rpc]), "us"),
        "net.rpc_wire_us": (mean([max(0, e["dur"] - covered.get(e["args"]["span"], 0))
                                  for e in rpc]), "us"),
        "net.rx_handler_us": (mean([e["dur"] for e in events
                                    if e["name"].startswith("rx:")]), "us"),
        "obs.spans_per_trace": (len(events) / len(traces) if traces else 0.0,
                                "1/trace"),
    }


def run_once(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")
    binary = build()
    run_dir = os.path.join(build_dir(), "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # 40 ports per pid slot (khz_perf uses base + 4 * setup index, 9 set-ups).
    port = 20000 + (os.getpid() % 1000) * 40
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir, "--port", str(port)]
    # One malloc arena, so that which arena a new thread lands in does not
    # decide whether an earlier set-up's freed memory is reused: see
    # README.md, "Run environment".
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "MALLOC_ARENA_MAX": "1"})
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        trace_file = os.path.join(run_dir, "trace.json")
        trace = (trace_metrics(trace_file)
                 if args.trace == 1 and os.path.exists(trace_file) else {})
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"khz_perf did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"khz_perf exited with code {proc.returncode}", 3)
    result = json.loads(lines[-1])
    produced = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    produced.update(trace)
    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in produced:
            fail(f"metric {m['name']} was not measured", 4)
        value, unit = produced[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} has unit {unit}, expected {m['unit']}", 4)
        metrics[m["name"]] = {"value": value, "unit": unit}
    for line in lines[:-1]:
        print(line)
    for name in sorted(trace):
        print(f"{name:<40} {trace[name][0]:14.4f} {trace[name][1]}")
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def selftest(spec):
    """Runs every workload briefly in both modes and checks the output."""
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", "1", "--seconds", "2", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            tag = f"{name} --trace {trace}"
            if p.returncode != 0:
                problems.append(f"{tag}: exit code {p.returncode}")
                continue
            got = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{tag}: {m['name']} missing or wrong unit")
            if trace:
                v = {k: x["value"] for k, x in got.items()}
                parts = (3 * v["core.handoff_us"] + v["core.node_lock_us"]
                         + v["core.node_rw_us"])
                if not (math.isclose(parts, v["core.attributed_us"], abs_tol=1e-6)
                        and math.isclose(v["core.attributed_us"]
                                         + v["core.unattributed_us"],
                                         v["core.op_us"], abs_tol=1e-6)):
                    problems.append(f"{tag}: attribution does not reconcile "
                                    "with core.op_us")
                if name in SINGLE_NODE and v["net.msgs_per_op"] != 0:
                    problems.append(f"{tag}: net.msgs_per_op is "
                                    f"{v['net.msgs_per_op']}, expected 0")
            print(f"{tag}: ok ({time.time() - t0:.1f} s)")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
