#!/usr/bin/env python3
"""Runs one workload of the simulator's benchmark and prints its result.

Run from the repository root:

    python3 perfbench/run.py --workload figure_suite --seed 1 --seconds 25 --trace 0

The script builds the benchmark package (`perfbench/Cargo.toml`, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs it, and adds what a
single process cannot check by itself:

* the job digests and the digest of the rendered figure texts must
  equal those of any earlier run of the same binary, workload and seed
  (timed and traced runs alike);
* the run must leave every file of the checkout unchanged (only
  `perfbench/out/` and the build directory may be written).

It writes the full results, with provenance, to
`perfbench/out/result-<workload>-seed<seed>-trace<t>.json` and prints one
JSON line as its last line of output:
`{"correct", "attempted", "failed", "metrics"}`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("figure_suite", "design_sweep", "coherent_mix")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail("build failed (the benchmark needs the repository's crates/)")
    return os.path.join(target_dir(), "release", "tk-perfbench")


def tree_snapshot():
    """(size, mtime) of every file of the checkout outside the outputs."""
    skip = {os.path.realpath(p) for p in
            (OUT, target_dir(), os.path.join(ROOT, ".git"),
             os.path.join(ROOT, "target"))}
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if os.path.realpath(os.path.join(dirpath, d)) not in skip]
        for f in filenames:
            p = os.path.join(dirpath, f)
            try:
                st = os.lstat(p)
            except OSError:
                continue
            snap[os.path.relpath(p, ROOT)] = (st.st_size, st.st_mtime_ns)
    return snap


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        head = open(os.path.join(git, "HEAD")).read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return open(os.path.join(git, ref)).read().strip()
    except OSError:
        pass
    try:
        for line in open(os.path.join(git, "packed-refs")):
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def rustc_version(env):
    try:
        return subprocess.run(["rustc", "-V"], env=env, capture_output=True,
                              text=True, timeout=60).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def cross_run_check(doc, binary_id):
    """Job digests and the figure-text digest must match every earlier run
    of this binary and seed. Returns the mismatched job labels and whether
    the figure text differs."""
    path = os.path.join(OUT, f"digests-{doc['workload']}-seed{doc['seed']}-{binary_id}.json")
    current = {"jobs": dict(zip(doc["job_labels"], doc["job_digests"])),
               "text": doc["text_digest"]}
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(current, f)
        return [], False
    with open(path) as f:
        earlier = json.load(f)
    jobs, before = current["jobs"], earlier["jobs"]
    mismatched = [label for label, d in jobs.items()
                  if label in before and before[label] != d]
    mismatched.extend(sorted(set(jobs) ^ set(before)))
    return mismatched, earlier["text"] != current["text"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    binary = build(env)
    os.makedirs(OUT, exist_ok=True)
    before = tree_snapshot()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"benchmark exited with {r.returncode}")
    try:
        doc = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        fail(f"unreadable benchmark output: {e}")
    after = tree_snapshot()

    problems = list(doc["problems"])
    failed = {f["job"] for f in doc["failures"]}
    mismatched, text_differs = cross_run_check(doc, file_digest(binary))
    failed.update(mismatched)
    if mismatched:
        problems.append(f"{len(mismatched)} job digests differ from an earlier run")
    if text_differs:
        problems.append("the figure text differs from an earlier run")
    changed = sorted(p for p in set(before) | set(after) if before.get(p) != after.get(p))
    if changed:
        problems.append(f"the run changed the working tree: {changed[:5]}")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    result = {
        "correct": not failed and not problems,
        "attempted": doc["attempted"],
        "failed": len(failed),
        "metrics": doc["metrics"],
    }
    provenance = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "rustc": rustc_version(env),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "budget": doc["budget"],
        "layer_budget": doc["layer_budget"],
        "workers": doc["workers"],
        "TK_CKPT_BYTES": os.environ.get("TK_CKPT_BYTES", "unset (store default)"),
        "binary_sha256_16": file_digest(binary),
    }
    full = dict(result, provenance=provenance, problems=problems,
                details={k: v for k, v in doc.items() if k not in result})
    out_path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump(full, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
