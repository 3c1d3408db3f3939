#!/usr/bin/env python3
"""Self-tests of the Force benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, prints every
   metric BENCHMARK.json names for that mode, each with its unit, and
   verifies every solve.
2. Two seeds give different tree node counts, and both verify.
3. A deliberately corrupted result is counted as failed, is not timed, and
   makes the benchmark exit non-zero.

Exits 0 if every check passes, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cmfd", "tree", "pipeline")

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(*args):
    """Runs run.py; returns (exit code, stdout lines, result, record)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + list(args)
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    record = None
    for line in lines:
        if line.startswith("record: "):
            record = json.loads(line[len("record: "):])
    return done.returncode, lines, result, record


def smoke(spec):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in WORKLOADS:
            code, _, result, _ = bench("--workload", w, "--seed", "1",
                                       "--seconds", "1", "--trace", trace,
                                       "--size", "tiny")
            tag = "tiny %s --trace %s" % (w, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0,
                  tag + ": exits 0 with every solve verified")
            if result is None:
                continue
            got = result["metrics"]
            check(set(got) == set(want),
                  tag + ": prints exactly the %d %s metrics" % (len(want), key))
            check(all(got[n]["unit"] == u for n, u in want.items() if n in got),
                  tag + ": every metric carries its unit")
            check(all(isinstance(v["value"], (int, float)) for v in got.values()),
                  tag + ": every value is a number")


def seeds():
    counts = []
    for seed in ("1", "2"):
        code, lines, result, _ = bench("--workload", "tree", "--seed", seed,
                                       "--seconds", "1", "--trace", "0")
        check(code == 0 and result is not None and result["correct"],
              "tree seed %s verifies" % seed)
        m = [re.match(r"tree: (\d+) nodes", l) for l in lines]
        counts += [int(x.group(1)) for x in m if x]
    check(len(counts) == 2 and counts[0] != counts[1],
          "tree seeds 1 and 2 give different node counts %s" % counts)


def corruption():
    every = 3
    code, _, result, record = bench("--workload", "tree", "--seed", "1",
                                    "--seconds", "1", "--trace", "0",
                                    "--size", "tiny",
                                    "--corrupt-every", str(every))
    check(code != 0, "a corrupted result makes the benchmark exit non-zero")
    check(result is not None and not result["correct"]
          and result["failed"] > 0, "the result line reports the failures")
    if record is None:
        check(False, "the run record is printed")
        return
    # Attempt k is corrupted when k % every == 0. The first `setups`
    # attempts are the untimed verification solves of the set-ups.
    setups = record["setups"]
    untimed_ok = setups - setups // every
    for name, b in record["backends"].items():
        check(b["failed"] == b["attempted"] // every
              and b["samples"] == b["attempted"] - b["failed"] - untimed_ok,
              "%s: %d of %d solves corrupted, all counted failed, none timed"
              % (name, b["failed"], b["attempted"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    smoke(spec)
    seeds()
    corruption()
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
