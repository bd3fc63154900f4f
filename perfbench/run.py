#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload repro|shard|verify --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --self-test        # smoke every workload
  python3 perfbench/run.py --record-goldens   # rewrite goldens.txt

The benchmark's last stdout line is one JSON object (correct, attempted,
failed, metrics). Build output goes to stderr. A failed build exits
non-zero without printing a result.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "wspbench.exe")
GOLDENS = os.path.join(HERE, "goldens.txt")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ["repro", "shard", "verify"]
GOLDEN_SEEDS = [1, 2]  # 1: development seed; 2: held out


def build():
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "./perfbench/wspbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return False
    return True


def bench(args, capture=False):
    cmd = [EXE] + args + ["--goldens", GOLDENS, "--out-dir", OUT_DIR]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    unit = lambda ms: {m["name"]: m["unit"] for m in ms}
    return unit(spec["end_to_end"]), unit(spec["per_layer"])


def self_test():
    """Every workload at smoke size: every declared metric printed with its
    unit, the golden check passing, and failing on an altered digest."""
    end_to_end, per_layer = declared_metrics()
    problems = []

    def run(workload, trace, extra=(), seed=1):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke"] + list(extra)
        r = bench(args, capture=True)
        lines = r.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        return r, result

    for w in WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            r, result = run(w, trace)
            tag = f"{w} --trace {trace}"
            if r.returncode != 0 or result is None or not result["correct"]:
                problems.append(f"{tag}: exit {r.returncode}\n{r.stdout[-2000:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared:
                problems.append(f"{tag}: metrics {sorted(got.items())} "
                                f"!= declared {sorted(declared.items())}")
            if "golden digests matched: 0" in r.stdout:
                problems.append(f"{tag}: no golden digest was compared")
            if trace == 1:
                path = os.path.join(OUT_DIR, f"trace-{w}-seed1.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                if not events or any(e["ph"] != "X" for e in events):
                    problems.append(f"{tag}: bad trace file {path}")
        # Seed 3 has no goldens of its own; set-up still checks the
        # development seed's smoke digests.
        r, result = run(w, 0, seed=3)
        if (r.returncode != 0 or result is None or not result["correct"]
                or not re.search(r"smoke seed 1: golden digests matched: [1-9]",
                                 r.stdout)):
            problems.append(f"{w} --seed 3: set-up compared no golden digest")
        r, result = run(w, 0, ["--tamper"])
        if r.returncode == 0 or result is None or result["correct"]:
            problems.append(f"{w} --tamper: altered golden not detected")
    for p in problems:
        print("self-test FAIL:", p)
    print("self-test:", "ok" if not problems else f"{len(problems)} failure(s)")
    return 0 if not problems else 1


def record_goldens():
    lines = ["# workload size seed pass md5 -- written by run.py "
             "--record-goldens; seed 2 is held out"]
    for size in (["--smoke"], []):
        for w in WORKLOADS:
            for seed in GOLDEN_SEEDS:
                r = bench(["--workload", w, "--seed", str(seed),
                            "--record-goldens"] + size, capture=True)
                if r.returncode != 0:
                    print(r.stdout, r.stderr, file=sys.stderr)
                    return 1
                lines += r.stdout.strip().splitlines()
    with open(GOLDENS, "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def main():
    args = sys.argv[1:]
    if not build():
        return 3
    if args == ["--self-test"]:
        return self_test()
    if args == ["--record-goldens"]:
        return record_goldens()
    return bench(args).returncode


if __name__ == "__main__":
    sys.exit(main())
