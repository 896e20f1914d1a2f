#!/usr/bin/env python3
"""p2kvs-bench: build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <write_async|read_sync|tcp_mixed> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the store
and the benchmark (CMake, RelWithDebInfo) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs rebuild only what changed.

The report goes to stdout as "# ..." lines; the last line is one JSON object
with exactly the keys correct, attempted, failed and metrics. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run and
writes its spans to <build dir>/out/spans-<workload>.json.

--selftest runs every workload at tiny sizes in both modes and checks that
every metric BENCHMARK.json names is present, finite and in its unit, and
that the correctness checks ran and passed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("write_async", "read_sync", "tcp_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise RuntimeError("the store's sources are not next to perfbench/; nothing to build")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
        )
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", bdir, "--target", "p2kvs_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
    )
    return os.path.join(bdir, "p2kvs_perfbench")


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """sha256 over the store's and the benchmark's sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for p in paths:
        if p.endswith((".cc", ".h", ".txt", ".py")):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(binary, args, extra=()):
    """Runs one measurement; returns (report lines, result dict)."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", out_dir,
        "--git-sha", git_sha(),
        "--src-digest", source_digest(),
    ] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark printed nothing")
    return lines[:-1], json.loads(lines[-1])


def measure(args):
    binary = build()
    report, raw = run_binary(binary, args)
    for line in report:
        print(line)
    print("# checks run: %d" % raw["checks"])
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": raw["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0


def selftest():
    """Tiny-size run of every workload in both modes against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    problems = []
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload["name"], seed=7, seconds=1, trace=trace)
            started = time.time()
            try:
                _, raw = run_binary(binary, args, extra=["--tiny"])
            except (RuntimeError, ValueError, subprocess.SubprocessError) as e:
                problems.append("%s trace=%d: %s" % (workload["name"], trace, e))
                continue
            where = "%s trace=%d" % (workload["name"], trace)
            if not raw.get("correct") or raw.get("checks", 0) <= 0:
                problems.append("%s: correctness checks did not run and pass" % where)
            if raw.get("attempted", 0) < 1 or raw.get("failed") != 0:
                problems.append("%s: attempted=%s failed=%s" % (where, raw.get("attempted"),
                                                                raw.get("failed")))
            for m in spec[section]:
                got = raw["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing" % (where, m["name"]))
                elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(
                    got["value"]
                ):
                    problems.append("%s: metric %s not finite: %r" % (where, m["name"], got))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: metric %s unit %r, want %r" % (where, m["name"],
                                                                        got.get("unit"), m["unit"]))
            if trace == 1:
                spans = os.path.join(build_dir(), "out", "spans-%s.json" % workload["name"])
                try:
                    with open(spans) as f:
                        if not json.load(f)["traceEvents"]:
                            problems.append("%s: span file is empty" % where)
                except (OSError, ValueError, KeyError) as e:
                    problems.append("%s: span file unreadable: %s" % (where, e))
            print("# selftest %s: %.1f s" % (where, time.time() - started))
    for p in problems:
        print("# SELFTEST FAILED: " + p)
    print("# selftest %s" % ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("p2kvs-bench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
