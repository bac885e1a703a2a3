#!/usr/bin/env python3
"""Repository convention linter, run as a ctest (see tools/CMakeLists.txt).

Checks, over src/ tools/ tests/ bench/ examples/:
  1. Every header under src/ uses the guard STETHO_<PATH>_H_ derived from its
     path relative to src/ (CLAUDE.md convention), with matching #define and
     a trailing #endif comment.
  2. No `throw` statements in src/ — public APIs report errors through
     stetho::Status / stetho::Result<T>.
  3. Project includes are written relative to src/ (no "../" includes).
  4. No line under src/ compares an instruction's `.module` or `.function`
     with a string literal: passes and checks recognise an operation by its
     kernel signature's role (analysis::KernelRole), never by its name.
  5. No line under src/ outside src/dot/ spells the plan-node naming rule
     (pc N <-> node "nN"): no "n%d"-style format, no "n" + concatenation and
     no 'n'-prefix test of an id. dot::NodeName and dot::PcOfNode are the
     rule's only spelling, so every join of a trace to a plan agrees on it.
  6. No line under src/ outside src/engine/kernel.cc spells the kernel-family
     metric prefix "stetho_kernel_". A module's family metrics are created
     once, when its first kernel registers, and carried on each kernel's
     registry record (engine::Kernel), so no query resolves them again.

Exit status: 0 clean, 1 violations (listed one per line), 2 usage error.
"""

import re
import sys
from pathlib import Path

THROW_RE = re.compile(r"\bthrow\b")
REL_INCLUDE_RE = re.compile(r'#\s*include\s+"\.\./')
NAME_COMPARE_RE = re.compile(r'\.(module|function)\s*[!=]=\s*"')
# Rule 5: a printf conversion right after a bare "n" (not the tail of a word
# or of a "\n" escape), a "n" + concatenation, or a comparison of an id's
# first character with 'n'.
NODE_NAME_RE = re.compile(
    r"(?<![A-Za-z0-9_\\])n%[-0-9]*(?:hh|h|ll|l|j|z|t)?[diu]"
    r'|"n"\s*\+'
    r"|(?:\[0\]|\.front\(\))\s*[!=]=\s*'n'"
    r"|'n'\s*[!=]=\s*\w+(?:\[0\]|\.front\(\))"
)
KERNEL_FAMILY_PREFIX = "stetho_kernel_"


def expected_guard(header: Path, src_root: Path) -> str:
    rel = header.relative_to(src_root)
    token = re.sub(r"[^A-Za-z0-9]", "_", str(rel.with_suffix("")))
    return f"STETHO_{token.upper()}_H_"


def strip_comments_and_strings(text: str) -> str:
    """Removes // and /* */ comments plus string/char literals, so a `throw`
    inside a comment or a log message does not trip the checker."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            i = n if j < 0 else j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def check_header_guard(path: Path, src_root: Path, problems: list) -> None:
    text = path.read_text(encoding="utf-8", errors="replace")
    guard = expected_guard(path, src_root)
    if f"#ifndef {guard}" not in text:
        problems.append(f"{path}: missing '#ifndef {guard}'")
        return
    if f"#define {guard}" not in text:
        problems.append(f"{path}: missing '#define {guard}'")
    if f"#endif  // {guard}" not in text:
        problems.append(f"{path}: missing '#endif  // {guard}' trailer")


def main(argv):
    if len(argv) != 2:
        print("usage: check_conventions.py <repo-root>", file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    src_root = root / "src"
    dot_root = src_root / "dot"
    kernel_registry = src_root / "engine" / "kernel.cc"
    if not src_root.is_dir():
        print(f"{src_root} is not a directory", file=sys.stderr)
        return 2

    problems = []
    for header in sorted(src_root.rglob("*.h")):
        check_header_guard(header, src_root, problems)

    sources = sorted(src_root.rglob("*.h")) + sorted(src_root.rglob("*.cc"))
    for path in sources:
        text = path.read_text(encoding="utf-8", errors="replace")
        code = strip_comments_and_strings(text)
        for lineno, line in enumerate(code.splitlines(), start=1):
            if THROW_RE.search(line):
                problems.append(
                    f"{path}:{lineno}: 'throw' in src/ — use stetho::Status"
                )
        for lineno, line in enumerate(text.splitlines(), start=1):
            if REL_INCLUDE_RE.search(line):
                problems.append(
                    f"{path}:{lineno}: relative include — write includes "
                    "project-relative from src/"
                )
            if NAME_COMPARE_RE.search(line):
                problems.append(
                    f"{path}:{lineno}: operation matched by name — read the "
                    "kernel signature's role through the analysis facts"
                )
            if dot_root not in path.parents and NODE_NAME_RE.search(line):
                problems.append(
                    f"{path}:{lineno}: plan-node name spelled by hand — use "
                    "dot::NodeName / dot::PcOfNode"
                )
            if path != kernel_registry and KERNEL_FAMILY_PREFIX in line:
                problems.append(
                    f"{path}:{lineno}: kernel-family metric named outside "
                    "src/engine/kernel.cc — read Kernel::calls / Kernel::usec"
                )

    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} convention violations")
        return 1
    print("conventions OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
