#!/usr/bin/env python3
"""Benchmark baseline harness.

Runs every bench_* binary under the build directory with
--benchmark_out_format=json (stdout demo banners do not corrupt the JSON),
merges the per-binary reports into one BENCH_<date>[_<label>].json at the
repository root, and diffs the merged run against the most recent previously
recorded baseline so the perf trajectory of the repo is explicit in git.

Usage:
  tools/bench_baseline.py                       # run, merge, diff vs latest
  tools/bench_baseline.py --label seed          # tag the output file name
  tools/bench_baseline.py --min-time 0.1        # slower, steadier numbers
  tools/bench_baseline.py --only c4,layout      # substring filter on binaries
  tools/bench_baseline.py --diff-only A.json B.json   # just compare two files
  tools/bench_baseline.py --ab BASE_BUILD --only layout,obs
      # same-machine A/B: BASE_BUILD's benches against --build-dir's,
      # interleaved, gating on each benchmark's median new/old ratio

Exit status: 0 on success (diff regressions are reported, not fatal unless
--fail-on-regress is given), 1 on harness errors.
"""

import argparse
import datetime
import glob
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

REGRESS_THRESHOLD = 1.10  # default: >10% slower is a regression in the diff
# A/B rounds per tree, each tree going first in half of them. On a shared
# host one process of a benchmark can run more than twice as slow as the
# next on unchanged code, so the median ratio needs many rounds: three at
# --min-time 0.05 flagged a different set of unchanged benchmarks in every
# session.
AB_ROUNDS = 10


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def find_benches(build_dir, only):
    pattern = os.path.join(build_dir, "bench", "bench_*")
    benches = [p for p in sorted(glob.glob(pattern))
               if os.access(p, os.X_OK) and os.path.isfile(p)]
    if only:
        tokens = [t for t in only.split(",") if t]
        benches = [b for b in benches
                   if any(t in os.path.basename(b) for t in tokens)]
    return benches


def run_bench(binary, min_time):
    """Runs one bench binary, returns its parsed google-benchmark JSON."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    try:
        cmd = [binary,
               f"--benchmark_out={out_path}",
               "--benchmark_out_format=json",
               f"--benchmark_min_time={min_time}"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=1800)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            raise RuntimeError(f"{binary} exited {proc.returncode}")
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def merge(reports, label, min_time):
    merged = {
        "date": datetime.date.today().isoformat(),
        "label": label,
        "min_time_s": min_time,
        "machine": {
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "benchmarks": {},
    }
    for binary, report in reports.items():
        entries = {}
        for bm in report.get("benchmarks", []):
            if bm.get("run_type") == "aggregate":
                continue
            entry = {
                "real_time": bm.get("real_time"),
                "cpu_time": bm.get("cpu_time"),
                "time_unit": bm.get("time_unit"),
            }
            counters = {k: v for k, v in bm.items()
                        if k not in entry and isinstance(v, (int, float))
                        and k not in ("iterations", "repetitions",
                                      "repetition_index", "threads",
                                      "family_index",
                                      "per_family_instance_index")}
            if counters:
                entry["counters"] = counters
            entries[bm["name"]] = entry
        merged["benchmarks"][binary] = entries
    return merged


def previous_baseline(root, exclude):
    candidates = [p for p in sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
                  if os.path.abspath(p) != os.path.abspath(exclude)]
    return candidates[-1] if candidates else None


def to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
    return value * scale


def diff(old, new, threshold=REGRESS_THRESHOLD):
    """Prints per-benchmark old/new real-time ratios; returns regressions."""
    regressions = []
    print(f"--- diff: {old.get('label') or old.get('date')} -> "
          f"{new.get('label') or new.get('date')} ---")
    print(f"{'benchmark':<58} {'old':>12} {'new':>12} {'new/old':>8}")
    for binary, entries in sorted(new["benchmarks"].items()):
        base = os.path.basename(binary)
        old_entries = None
        for ob, oe in old["benchmarks"].items():
            if os.path.basename(ob) == base:
                old_entries = oe
                break
        if old_entries is None:
            print(f"{base:<58} {'(new binary)':>12}")
            continue
        for name, entry in entries.items():
            old_entry = old_entries.get(name)
            label = f"{base}:{name}"
            if old_entry is None:
                print(f"{label:<58} {'(new)':>12}")
                continue
            old_ns = to_ns(old_entry["real_time"], old_entry.get("time_unit", "ns"))
            new_ns = to_ns(entry["real_time"], entry.get("time_unit", "ns"))
            if old_ns <= 0:
                continue
            ratio = new_ns / old_ns
            flag = ""
            if ratio > threshold:
                flag = "  REGRESSION"
                regressions.append((label, ratio))
            elif ratio < 1.0 / threshold:
                flag = "  improved"
            print(f"{label:<58} {old_ns/1e6:>10.3f}ms {new_ns/1e6:>10.3f}ms "
                  f"{ratio:>7.2f}x{flag}")
    if regressions:
        print(f"\n{len(regressions)} regression(s) > "
              f"{(threshold - 1) * 100:.0f}%:")
        for label, ratio in regressions:
            print(f"  {label}: {ratio:.2f}x")
    else:
        print("\nno regressions")
    return regressions


def real_times_ns(report):
    """name -> real time in ns of one google-benchmark JSON report."""
    return {bm["name"]: to_ns(bm["real_time"], bm.get("time_unit", "ns"))
            for bm in report.get("benchmarks", [])
            if bm.get("run_type") != "aggregate"}


def ab(base_build, head_build, only, min_time, threshold):
    """Runs the base and head builds' bench binaries interleaved on this
    machine, AB_ROUNDS rounds alternating which tree goes first, and prints
    each benchmark's median head/base real-time ratio. Returns the
    benchmarks whose median ratio exceeds `threshold`."""
    base = {os.path.basename(b): b for b in find_benches(base_build, only)}
    head = {os.path.basename(b): b for b in find_benches(head_build, only)}
    names = sorted(set(base) & set(head))
    if not names:
        raise RuntimeError(f"no common bench binaries under {base_build} "
                           f"and {head_build}")
    ratios = {}
    for rnd in range(AB_ROUNDS):
        for name in names:
            sides = [("base", base[name]), ("head", head[name])]
            if rnd % 2:
                sides.reverse()
            times = {}
            for side, binary in sides:
                sys.stderr.write(f"round {rnd + 1}/{AB_ROUNDS}: {side} {name}\n")
                times[side] = real_times_ns(run_bench(binary, min_time))
            for bm, head_ns in times["head"].items():
                base_ns = times["base"].get(bm)
                if base_ns and base_ns > 0:
                    ratios.setdefault(f"{name}:{bm}", []).append(
                        head_ns / base_ns)
    print(f"--- A/B: {AB_ROUNDS} interleaved rounds, median head/base ---")
    regressions = []
    for label, values in sorted(ratios.items()):
        values.sort()
        mid = len(values) // 2
        median = (values[mid] if len(values) % 2
                  else (values[mid - 1] + values[mid]) / 2)
        flag = ""
        if median > threshold:
            flag = "  REGRESSION"
            regressions.append((label, median))
        elif median < 1.0 / threshold:
            flag = "  improved"
        print(f"{label:<58} {median:>7.2f}x{flag}")
    if regressions:
        print(f"\n{len(regressions)} regression(s) > "
              f"{(threshold - 1) * 100:.0f}%:")
        for label, ratio in regressions:
            print(f"  {label}: {ratio:.2f}x")
    else:
        print("\nno regressions")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=None,
                        help="build tree containing bench/ (default: <root>/build)")
    parser.add_argument("--label", default="",
                        help="suffix for the output file name")
    parser.add_argument("--min-time", type=float, default=0.05,
                        help="--benchmark_min_time per benchmark (seconds)")
    parser.add_argument("--only", default="",
                        help="comma-separated substring filter on bench "
                             "binary names (e.g. --only c5,layout)")
    parser.add_argument("--out", default=None, help="explicit output path")
    parser.add_argument("--fail-on-regress", action="store_true",
                        help="exit 1 when the diff shows a regression")
    parser.add_argument("--regress-threshold", type=float,
                        default=REGRESS_THRESHOLD,
                        help="new/old real-time ratio above which a "
                             "benchmark counts as regressed "
                             f"(default {REGRESS_THRESHOLD}; CI uses 1.25 "
                             "for the noisier layout benches)")
    parser.add_argument("--diff-only", nargs=2, metavar=("OLD", "NEW"),
                        help="skip running; diff two existing baseline files")
    parser.add_argument("--ab", metavar="BASE_BUILD", default=None,
                        help="A/B mode: run BASE_BUILD's benches and the "
                             "build dir's interleaved; writes no baseline")
    args = parser.parse_args()

    root = repo_root()
    if args.ab:
        regressions = ab(args.ab, args.build_dir or os.path.join(root, "build"),
                         args.only, args.min_time,
                         args.regress_threshold)
        return 1 if (regressions and args.fail_on_regress) else 0
    if args.diff_only:
        with open(args.diff_only[0]) as f:
            old = json.load(f)
        with open(args.diff_only[1]) as f:
            new = json.load(f)
        regressions = diff(old, new, args.regress_threshold)
        return 1 if (regressions and args.fail_on_regress) else 0

    build_dir = args.build_dir or os.path.join(root, "build")
    benches = find_benches(build_dir, args.only)
    if not benches:
        sys.stderr.write(f"no bench binaries under {build_dir}/bench "
                         f"(build first: cmake --build {build_dir})\n")
        return 1

    reports = {}
    for binary in benches:
        name = os.path.basename(binary)
        sys.stderr.write(f"running {name} ...\n")
        reports[os.path.relpath(binary, root)] = run_bench(binary, args.min_time)

    merged = merge(reports, args.label, args.min_time)
    date = merged["date"]
    suffix = f"_{re.sub(r'[^A-Za-z0-9_-]', '', args.label)}" if args.label else ""
    out_path = args.out or os.path.join(root, f"BENCH_{date}{suffix}.json")
    prev = previous_baseline(root, exclude=out_path)
    with open(out_path, "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}")

    if prev:
        with open(prev) as f:
            old = json.load(f)
        regressions = diff(old, merged, args.regress_threshold)
        if regressions and args.fail_on_regress:
            return 1
    else:
        print("no previous baseline to diff against")
    return 0


if __name__ == "__main__":
    sys.exit(main())
