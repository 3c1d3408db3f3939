#!/usr/bin/env python3
"""Build and run the Force benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload cmfd|tree|pipeline --seed N \
        --seconds S --trace 0|1 [forcebench options...]

Run from the repository root. The first run configures and builds the
runtime library and the forcebench driver under .bench_build/perfbench
(Release); later runs rebuild only what changed. Build output goes to
standard error, so the last line of standard output stays forcebench's
JSON result. Exits non-zero, without a result, if the build fails.

forcebench runs in a session of its own, and this script is the subreaper
of its process tree. When forcebench ends, or is stopped after --seconds
plus RUN_SLACK_S, every force member still in that session is killed and
waited for.
"""
import ctypes
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "forcebench")
# Seconds a run may take beyond --seconds: three set-ups, the round in
# flight at the deadline and forcebench's own 30 s limit on one solve.
RUN_SLACK_S = 90
PR_SET_CHILD_SUBREAPER = 36


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "forcebench",
                  "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def seconds_arg(args):
    """The --seconds value forcebench will use (its default is 10)."""
    for i, a in enumerate(args):
        if a == "--seconds" and i + 1 < len(args):
            return float(args[i + 1])
        if a.startswith("--seconds="):
            return float(a.split("=", 1)[1])
    return 10.0


def stop_session(pgid):
    """Kills what is left of forcebench's session and reaps it. Members
    orphaned by forcebench were reparented here (we are the subreaper)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.05)


def run(args):
    limit = seconds_arg(args) + RUN_SLACK_S
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    proc = subprocess.Popen([BINARY] + args, start_new_session=True)
    try:
        code = proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: forcebench exceeded %g s\n" % limit)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 1
    stop_session(proc.pid)
    return code


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
