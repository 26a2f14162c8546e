#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

From the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

The first form runs one workload; its last stdout line is the JSON result.
The second runs every workload in BENCHMARK.json, untraced and then traced.
The build goes to $CARGO_TARGET_DIR, or to .bench_build at the checkout root
when that is unset. The exit code is non-zero when the build fails or any
output check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env):
    """Builds the benchmark; returns the binary's path, or None on failure."""
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def run_all(binary, env, args):
    """Runs every workload untraced, then traced; returns the exit code."""
    opts = {"--seed": "1", "--seconds": "30"}
    for flag, value in zip(args[::2], args[1::2]):
        if flag not in opts:
            print(f"perfbench: --all takes only --seed and --seconds, not {flag}",
                  file=sys.stderr)
            return 2
        opts[flag] = value
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = []
    for trace in ("0", "1"):
        for name in workloads:
            argv = [binary, "--workload", name, "--seed", opts["--seed"],
                    "--seconds", opts["--seconds"], "--trace", trace]
            print(f"## {name} --trace {trace}", flush=True)
            if subprocess.run(argv, env=env).returncode != 0:
                failed.append(f"{name} --trace {trace}")
    for f in failed:
        print(f"perfbench: {f} failed its output checks", file=sys.stderr)
    return 1 if failed else 0


def main():
    env = dict(os.environ)
    binary = build(env)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if args[:1] == ["--all"]:
        return run_all(binary, env, args[1:])
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
