#!/usr/bin/env python3
"""Builds and runs the fabflip benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is cell-cifar, cohort-fashion or serve-ingest, or `all`, which runs
every workload in its own process, untraced and then traced, and prints
a table of their end-to-end metrics. Run it from the repository root.

The script builds the `fabflip-cli` server from the root workspace and
the `perfbench` package next to this file, both with `cargo build
--release` into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
`perfbench` binary with FABFLIP_THREADS=2. The last stdout line of a
single-workload run is its JSON result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cell-cifar", "cohort-fashion", "serve-ingest"]


def build(env):
    """Builds both binaries; returns their paths, or exits on failure."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"perfbench: {ROOT} is not a fabflip checkout (no Cargo.toml)")
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "-p", "fabflip-cli"],
        ["cargo", "build", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    return (os.path.join(target, "release", "perfbench"),
            os.path.join(target, "release", "fabflip-cli"))


def run_one(bench, server, args, capture):
    cmd = [bench, *args, "--server-bin", server,
           "--out-dir", os.path.join(ROOT, ".bench_build", "perfbench")]
    env = dict(os.environ, FABFLIP_THREADS="2")
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode, None
    p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(p.stdout)
    return p.returncode, p.stdout


def flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv[:-1] else default


def run_all(bench, server, argv):
    """Every workload, untraced then traced, each in its own process."""
    seed = flag(argv, "--seed", "1")
    seconds = flag(argv, "--seconds", "10")
    results, code = {}, 0
    for w in WORKLOADS:
        for trace in ("0", "1"):
            print(f"== {w} (trace {trace}, seed {seed})", flush=True)
            rc, out = run_one(bench, server, ["--workload", w, "--seed", seed,
                                              "--seconds", seconds, "--trace", trace],
                              capture=True)
            code = code or rc
            if rc == 0 and trace == "0":
                results[w] = [l for l in out.splitlines() if l.startswith(("metric ", "extra "))]
    print("== end-to-end metrics (value, unit, samples)")
    for w, lines in results.items():
        print(w)
        for l in lines:
            print("   " + l)
    print(json.dumps({"correct": code == 0, "workloads": list(results)}))
    return code


def main():
    argv = sys.argv[1:]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bench, server = build(env)
    if flag(argv, "--workload", None) == "all":
        sys.exit(run_all(bench, server, argv))
    rc, _ = run_one(bench, server, argv, capture=False)
    sys.exit(rc)


if __name__ == "__main__":
    main()
