#!/usr/bin/env python3
"""One benchmark of the trained LC-Rec system.

Run from the repository root:

    python3 perfbench/run.py --workload decode_bound --seed 1 --seconds 40 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench on
first use, runs lcbench for one workload, checks its answers and its
exact counts, saves the result with a run manifest under
.bench_build/perfbench/results/, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer metrics. Workload parameters (frozen rates,
latency limits, rate ladders) and the metric documentation live in
perfbench/spec.json.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_schema(bench, spec):
    """BENCHMARK.json is the one source of each metric's unit and direction;
    spec.json gives each metric its definition and workloads, each
    per-layer metric its mapping to end-to-end metrics, and each workload
    its parameters. Returns a list of problems (empty = consistent)."""
    problems = []
    names = [w["name"] for w in bench.get("workloads", [])]
    spec_w = spec.get("workloads", {})
    if sorted(names) != sorted(spec_w):
        problems.append("workloads differ: BENCHMARK.json %s, spec.json %s"
                        % (sorted(names), sorted(spec_w)))
    for w in names:
        p = spec_w.get(w, {})
        for key in ("why", "load", "rate_light", "rate_heavy", "limit_ms",
                    "ladder"):
            if key not in p:
                problems.append("workload %s: spec.json lacks %s" % (w, key))
    spec_m = spec.get("metrics", {})
    e2e = {m.get("name") for m in bench.get("end_to_end", [])}
    listed = set()
    for kind in ("end_to_end", "per_layer"):
        for m in bench.get(kind, []):
            name = m.get("name")
            listed.add(name)
            if not m.get("unit") or m.get("better") not in ("higher", "lower"):
                problems.append("metric %s: unit %r, direction %r"
                                % (name, m.get("unit"), m.get("better")))
            doc = spec_m.get(name)
            if doc is None:
                problems.append("metric %s: not documented in spec.json" % name)
                continue
            ws = doc.get("workloads")
            if not ws or any(w not in names for w in ws):
                problems.append("metric %s: workloads %r" % (name, ws))
            if not doc.get("definition"):
                problems.append("metric %s: no definition" % name)
            if kind == "per_layer" and "moves" not in doc:
                problems.append("metric %s: no 'moves' mapping" % name)
            for mv in doc.get("moves", []):
                if mv.get("metric") not in e2e:
                    problems.append("metric %s: moves unknown metric %r"
                                    % (name, mv.get("metric")))
    for name in spec_m:
        if name not in listed:
            problems.append("spec.json documents %s, BENCHMARK.json lacks it"
                            % name)
    return problems


def build(root, build_dir):
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        raise RuntimeError("library sources not found at %s" % src)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "lcbench"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "lcbench")


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("LCREC_GIT_SHA", "unknown")


def cpu_ticks():
    """Aggregate (total, steal) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def code_identity(root):
    """Git sha (or "unknown") plus a hash of every file under src/ and
    perfbench/, so uncommitted edits and checkouts without git are told
    apart too."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return "%s+%s" % (git_sha(root)[:12], h.hexdigest()[:16])


def check_counts(store_path, key, counts, record):
    """Exact counts must repeat for the same code, workload and seed:
    compare with the first run recorded in this checkout under `key`.
    Only a run without errors (`record`) becomes that reference. Returns a
    list of differences."""
    store = {}
    if os.path.exists(store_path):
        try:
            store = load_json(store_path)
        except ValueError:
            store = {}
    prev = store.get(key)
    if prev is None:
        if record:
            store[key] = counts
            with open(store_path + ".tmp", "w") as f:
                json.dump(store, f, indent=1, sort_keys=True)
            os.replace(store_path + ".tmp", store_path)
        return []
    return ["count %s: %s now, %s in an earlier run of %s"
            % (k, counts.get(k), prev.get(k), key)
            for k in sorted(set(prev) | set(counts))
            if prev.get(k) != counts.get(k)]


def run(args):
    root = os.getcwd()
    bench = load_json(os.path.join(root, "BENCHMARK.json"))
    spec = load_json(SPEC_PATH)
    problems = check_schema(bench, spec)
    if problems:
        for p in problems:
            print("schema: " + p, file=sys.stderr)
        return 1
    if args.workload not in spec["workloads"]:
        print("unknown workload %s" % args.workload, file=sys.stderr)
        return 2
    load_at_start = open("/proc/loadavg").read().split()[:3] \
        if os.path.exists("/proc/loadavg") else []
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(root, build_dir)
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    w = spec["workloads"][args.workload]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rate-light", str(w["rate_light"]),
           "--rate-heavy", str(w["rate_heavy"]),
           "--limit-ms", str(w["limit_ms"]),
           "--ladder-lo", str(w["ladder"]["lo"]),
           "--ladder-hi", str(w["ladder"]["hi"]),
           "--ladder-step", str(w["ladder"]["step"]),
           "--out", stem + ".json"]
    if args.trace:
        cmd += ["--spans-out", stem + ".spans.jsonl"]
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    ticks0 = cpu_ticks()
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("lcbench timed out", file=sys.stderr)
        return 1
    finally:
        # Also on SIGTERM (see main) or Ctrl-C: never leave lcbench running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.stdout.flush()
    ticks1 = cpu_ticks()
    steal_share = None
    if ticks0 and ticks1 and ticks1[0] > ticks0[0]:
        steal_share = (ticks1[1] - ticks0[1]) / float(ticks1[0] - ticks0[0])
    if code != 0 or not os.path.exists(stem + ".json"):
        print("lcbench failed with exit code %d" % code, file=sys.stderr)
        return 1
    res = load_json(stem + ".json")

    errors = list(res["errors"])
    code_id = code_identity(root)
    errors += check_counts(os.path.join(results, "counts.json"),
                           "%s:seed%d:%gs:%s" % (args.workload, args.seed,
                                                 args.seconds, code_id),
                           res["counts"],
                           record=not errors and bool(res["correct"]))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[kind]:
        value = res[kind].get(m["name"])
        if value is None:
            errors.append("metric %s missing" % m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-34s %16.6f %s" % (m["name"], value, m["unit"]))

    manifest = dict(res["manifest"])
    manifest.update({
        "git_sha": git_sha(root),
        "code": code_id,
        "python_loadavg_start": load_at_start,
        "cpu_steal_share": steal_share,
        "machine": platform.machine(),
        "frozen": {k: w[k] for k in ("rate_light", "rate_heavy", "limit_ms",
                                     "ladder")},
        "percentile_samples": {
            p["name"] + "#" + str(i): {"p50": p["p50_ms"], "p99": p["p99_ms"]}
            for i, p in enumerate(res["phases"])},
        "command": " ".join(sys.argv),
        "finished_unix": time.time(),
    })
    res["manifest"] = manifest
    res["check_errors"] = errors
    with open(stem + ".manifest.json", "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)

    for e in errors:
        print("CHECK FAILED: " + e)
    print("manifest: %s" % os.path.relpath(stem + ".manifest.json", root))
    print(json.dumps({"correct": not errors and bool(res["correct"]),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}))
    return 0


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
