#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark's checks.

    python3 perfbench/selftest.py

1. A short run of every workload must finish with exit 0, correct == true
   and failed == 0 (fail_ratio 0).
2. The same short live_wide run with OnlineOptions::fault.drop_p = 0.05 (the
   server's seeded fault injector between server and monitor) must report
   failed > 0 and exit non-zero: the checks catch a lossy wire.

Exits 0 when both hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(workload, *extra):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done


def main():
    ok = True
    for workload in ("live_exec", "live_wide", "replay_browse"):
        code, result, done = run(workload)
        clean = (code == 0 and result is not None and result["correct"]
                 and result["failed"] == 0 and result["attempted"] > 0)
        print("%-14s clean run: exit %d, %s -> %s" %
              (workload, code,
               result and "%d/%d failed" % (result["failed"],
                                            result["attempted"]),
               "ok" if clean else "FAIL"))
        if not clean:
            print(done.stdout[-3000:], done.stderr[-3000:], file=sys.stderr)
            ok = False

    code, result, done = run("live_wide", "--fault-drop-p", "0.05")
    caught = (code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0)
    print("%-14s drop_p 0.05: exit %d, %s -> %s" %
          ("live_wide", code,
           result and "fail_ratio %.3f" % (result["failed"] /
                                           result["attempted"]),
           "ok" if caught else "FAIL"))
    if not caught:
        print(done.stdout[-3000:], done.stderr[-3000:], file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
