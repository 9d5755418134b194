#!/usr/bin/env python3
"""Repo benchmark: build the perfbench program from source and run one workload.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload nas|serve --seed N --seconds S --trace 0|1
  python3 perfbench/run.py compare OLD.json NEW.json

The first form configures and builds perfbench/ (the libraries under src/
plus the benchmark program) into $CARGO_TARGET_DIR or .bench_build/, runs the
summary self-test, then runs the workload. The last line of its standard
output is the JSON result; the full record, stamped with the host
fingerprint, is written to <build dir>/results/. `compare` prints two such
records side by side and refuses records from different hosts.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    # Relative to the working directory when possible: unix socket paths
    # under it must stay short.
    rel = os.path.relpath(path)
    return rel if not rel.startswith("..") else path


def source_rev():
    """Git revision, or a digest of the sources when the checkout has no .git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def local_env(out_dir):
    """The environment with TMPDIR inside the build directory, so the
    compiler's and the benchmark's temporary files stay in the checkout."""
    tmp = os.path.abspath(os.path.join(out_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out_dir):
    """Configure and build perfbench; returns the binary directory or None."""
    bin_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(bin_dir, exist_ok=True)
    env = local_env(out_dir)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, "perfbench.lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        for cmd in (["cmake", "-S", HERE, "-B", bin_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", bin_dir, "-j", jobs]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
                return None
    return bin_dir


def self_test(bin_dir):
    test = subprocess.run([os.path.join(bin_dir, "perfbench_summary_test")],
                          capture_output=True, text=True)
    sys.stderr.write(test.stdout)
    return test.returncode == 0


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    hosts = [{k: v for k, v in r["host"].items() if k != "rev"} for r in (old, new)]
    if hosts[0] != hosts[1]:
        print("refusing to compare results from different hosts:")
        print("  %s: %s" % (old_path, json.dumps(hosts[0], sort_keys=True)))
        print("  %s: %s" % (new_path, json.dumps(hosts[1], sort_keys=True)))
        return 2
    if old["workload"] != new["workload"]:
        print("refusing to compare workload %s with %s" % (old["workload"], new["workload"]))
        return 2
    print("workload %s, rev %s -> %s" % (old["workload"], old["host"]["rev"], new["host"]["rev"]))
    for section in ("end_to_end", "per_layer"):
        names = [n for n in old.get(section, {}) if n in new.get(section, {})]
        for name in names:
            a = old[section][name]["value"]
            b = new[section][name]["value"]
            change = "%+.1f%%" % (100.0 * (b / a - 1.0)) if a else "n/a"
            print("  %-32s %14.6g %14.6g %10s %s" % (name, a, b, change, old[section][name]["unit"]))
    return 0


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare OLD.json NEW.json")
        return compare(sys.argv[2], sys.argv[3])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["nas", "serve"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    out_dir = build_dir()
    bin_dir = build(out_dir)
    if bin_dir is None:
        return 1
    if not self_test(bin_dir):
        sys.stderr.write("perfbench: summary self-test failed\n")
        return 1

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    cmd = [os.path.join(bin_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out_dir, "run"), "--rev", source_rev(), "--record", record]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=local_env(out_dir)).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
