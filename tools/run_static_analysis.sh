#!/usr/bin/env sh
# One-command static analysis gate:
#
#   tools/run_static_analysis.sh                # conventions + tidy + sanitizers
#   tools/run_static_analysis.sh --fast         # skip the sanitizer suites
#   tools/run_static_analysis.sh --no-tidy      # skip clang-tidy
#
# Stages (each gated on tool availability, each fatal on findings):
#   1. tools/check_conventions.py      header guards, includes, no-throw,
#                                      no operation matched by name
#   2. clang-tidy                      on files changed vs origin/main (or
#                                      HEAD~1), using the default preset's
#                                      compile_commands.json
#   3. ctest under asan-ubsan + tsan   the full suite per sanitizer preset
#
# Every cmake invocation goes through CMakePresets.json, so the build dirs
# here are the same ones documented in CLAUDE.md (build/, build-asan/,
# build-tsan/).

set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

run_sanitizers=1
run_tidy=1
for arg in "$@"; do
  case "$arg" in
    --fast) run_sanitizers=0 ;;
    --no-tidy) run_tidy=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== stage 1: source conventions =="
python3 tools/check_conventions.py "$root"

if [ "$run_tidy" -eq 1 ]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== stage 2: clang-tidy on changed files =="
    # Need a compile database; the default preset exports one.
    if [ ! -f build/compile_commands.json ]; then
      cmake --preset default
    fi
    base="origin/main"
    git rev-parse --verify --quiet "$base" >/dev/null || base="HEAD~1"
    changed="$(git diff --name-only --diff-filter=d "$base" -- \
                   'src/*.cc' 'src/*.h' 'tests/*.cc' 'bench/*.cc' \
                   'tools/*.cpp' || true)"
    if [ -n "$changed" ]; then
      # shellcheck disable=SC2086  # word-splitting the file list is the point
      clang-tidy -p build --quiet $changed
    else
      echo "no changed C++ files vs $base"
    fi
  else
    echo "== stage 2: clang-tidy not installed, skipping =="
  fi
fi

if [ "$run_sanitizers" -eq 1 ]; then
  for preset in asan-ubsan tsan; do
    echo "== stage 3: ctest under $preset =="
    cmake --preset "$preset"
    cmake --build --preset "$preset"
    ctest --preset "$preset"
  done
else
  echo "== stage 3: sanitizer suites skipped (--fast) =="
fi

echo "static analysis: all stages passed"
