#!/usr/bin/env python3
"""Repo-specific lint for the BDA tree (run via tools/lint.sh).

Four invariants that neither the compiler nor clang-tidy fully enforce:

1. float-literal hygiene (``double-literal``): in the single-precision hot
   paths (src/scale, src/letkf, src/pawr), floating literals must be
   ``f``-suffixed or explicitly wrapped (``real(...)``, ``T(...)``,
   ``double(...)``).  A bare ``0.5`` silently promotes the whole expression
   to double and costs the paper's 2x single-precision speedup.

2. punning confinement (``reinterpret-cast``): ``reinterpret_cast`` may only
   appear in src/util/binary_io.cpp — every other serializer goes through
   the bda::io helpers, which memcpy on trivially-copyable types.

3. lock discipline (``guarded-by``): a member declared
   ``BDA_GUARDED_BY(mu)`` in a header may only be referenced from function
   bodies that also name ``mu`` (take the lock, wait on it, or are annotated
   ``BDA_REQUIRES(mu)``).  This is the portable cross-check for clang's
   -Wthread-safety on toolchains without clang.

4. oracle confinement (``seed-include``): the seed SCALE kernels in
   src/scale/seed/ are the bitwise oracle for the production kernels, built
   into a library only the parity test and bench_scale_kernels link; no
   other file under src/ may include a ``scale/seed/`` header.

Suppress a finding with ``// bda-style: allow(<check-name>): <reason>`` on
the same line.  The reason is mandatory (same contract as ``double-ok``,
and the same grammar ``tools/bda_analyze`` uses): an ``allow()`` with no
reason does not suppress, and is itself reported as ``bad-allow``.
Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CXX_GLOBS = ("src", "tests", "bench", "examples")
# Where bda::real (float) arithmetic is the contract: the model kernels, the
# LETKF solve, and the per-gate radar forward operator.
HOT_PATH_DIRS = ("src/scale", "src/letkf", "src/pawr/forward")
PUNNING_ALLOWED = {"src/util/binary_io.cpp"}
SEED_DIR = "src/scale/seed/"
SEED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]scale/seed/')

# A file that is deliberately double-precision end to end (e.g. once-per-
# cycle innovation statistics) may declare it once near the top instead of
# annotating every line.  Must carry a reason on the same line.
DOUBLE_OK_RE = re.compile(r"//\s*bda-style:\s*double-ok\b.*\S")

# The reason after the close paren is mandatory (`.*\S`, parity with
# DOUBLE_OK_RE); a bare allow() is reported by check_bad_allows below.
ALLOW_RE = re.compile(
    r"//\s*bda-style:\s*allow\((?P<name>[\w-]+)\)(?P<reason>.*)")

# An unsuffixed floating literal: 1.5, .5, 1., 1e-4, 1.5e3 — but not 1.5f,
# not part of an identifier or version string, not hex (0x1.8p3).
FLOAT_LIT_RE = re.compile(
    r"(?<![\w.])"
    r"(?P<lit>(?:\d+\.\d*|\.\d+|\d+\.|\d+(?=[eE]))(?:[eE][+-]?\d+)?)"
    r"(?![fFlL\w.])"
)
# Wrapper calls whose whole argument list is explicitly typed at the use
# site, making interior double literals fine: real(5.0 / 3.0), T(9.80665),
# double(x) casts, std::fmod-in-real(...), etc.
WRAP_CALL_RE = re.compile(r"\b(?:real|T|double|float|idx|size_t)\s*\(")


def mask_wrapped_spans(code: str) -> str:
    """Blank out the parenthesized argument spans of typed wrapper calls."""
    out = list(code)
    for m in WRAP_CALL_RE.finditer(code):
        depth = 0
        for i in range(m.end() - 1, len(code)):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    for j in range(m.end(), i):
                        out[j] = " "
                    break
    return "".join(out)

# BDA_CV_OF ties a condition_variable to its mutex (documentation-only
# macro; see util/annotations.hpp).  For the cross-check it behaves like
# BDA_GUARDED_BY: any function touching the cv must name the mutex.
GUARDED_RE = re.compile(
    r"(\w+)\s*(?:\n\s*)?BDA_(?:GUARDED_BY|CV_OF)\(\s*(\w+)\s*\)")
REQUIRES_RE = re.compile(r"BDA_REQUIRES\(\s*([\w, ]+)\)")


def strip_comments_and_strings(line: str) -> str:
    """Blank out string/char literals and // comments (keeps length)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            break
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def iter_cxx_files():
    for top in CXX_GLOBS:
        base = REPO / top
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in (".cpp", ".hpp", ".h", ".cc", ".in"):
                yield p


def _allow_reason_ok(reason: str) -> bool:
    return bool(re.search(r"\S", reason.lstrip(":").lstrip("—-")))


def check_bad_allows(path: Path, text: str, f: Findings):
    """Every allow() must carry a reason — the suppression *is* the place
    where the justification lives (same policy as double-ok, same grammar
    as tools/bda_analyze)."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        m = ALLOW_RE.search(raw)
        if m and not _allow_reason_ok(m.group("reason")):
            # Report directly: Findings.add would let the bad allow()
            # suppress its own finding.
            rel = path.relative_to(REPO)
            f.items.append(
                f"{rel}:{lineno}: [bad-allow] allow({m.group('name')}) "
                f"without a reason — write "
                f"'// bda-style: allow({m.group('name')}): <why>'")


class Findings:
    def __init__(self):
        self.items: list[str] = []

    def add(self, path: Path, lineno: int, check: str, msg: str,
            line: str = ""):
        rel = path.relative_to(REPO)
        if line:
            m = ALLOW_RE.search(line)
            # Only a reasoned allow() suppresses; a bare one is reported
            # separately by check_bad_allows and the finding stands.
            if m and m.group("name") == check and \
                    _allow_reason_ok(m.group("reason")):
                return
        self.items.append(f"{rel}:{lineno}: [{check}] {msg}")


def check_double_literals(path: Path, text: str, f: Findings):
    rel = str(path.relative_to(REPO))
    if not any(rel.startswith(d) for d in HOT_PATH_DIRS):
        return
    head = "\n".join(text.splitlines()[:25])
    if DOUBLE_OK_RE.search(head):
        return
    in_block_comment = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw
        if in_block_comment:
            if "*/" in line:
                line = line.split("*/", 1)[1]
                in_block_comment = False
            else:
                continue
        if "/*" in line and "*/" not in line.split("/*", 1)[1]:
            line = line.split("/*", 1)[0]
            in_block_comment = True
        code = strip_comments_and_strings(line)
        # Deliberate double math (accumulators, config fields, casts) is
        # signalled by the word `double` on the line; `constexpr` tables and
        # `static_assert`s are compile-time and promote nothing at runtime.
        if re.search(r"\bdouble\b|\bconstexpr\b|\bstatic_assert\b", code):
            continue
        code = mask_wrapped_spans(code)
        for m in FLOAT_LIT_RE.finditer(code):
            f.add(path, lineno, "double-literal",
                  f"unsuffixed double literal '{m.group('lit')}' in a "
                  "bda::real hot path — suffix with 'f' or wrap in real(...)",
                  raw)


def check_reinterpret_cast(path: Path, text: str, f: Findings):
    rel = str(path.relative_to(REPO))
    if rel in PUNNING_ALLOWED:
        return
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = strip_comments_and_strings(raw)
        if "reinterpret_cast" in code:
            f.add(path, lineno, "reinterpret-cast",
                  "reinterpret_cast outside util/binary_io — use the "
                  "bda::io put/take/append_raw helpers", raw)


def check_seed_include(path: Path, text: str, f: Findings):
    rel = str(path.relative_to(REPO))
    if not rel.startswith("src/") or rel.startswith(SEED_DIR):
        return
    for lineno, raw in enumerate(text.splitlines(), 1):
        if SEED_INCLUDE_RE.search(raw):
            f.add(path, lineno, "seed-include",
                  "production code includes a src/scale/seed/ header — the "
                  "seed kernels are a test/bench-only oracle "
                  "(docs/SCALE_KERNELS.md)", raw)


def function_bodies(text: str):
    """Yield (start_lineno, header_text, body_text) for top-level-ish
    function definitions, by brace matching.  Good enough for this tree's
    clang-format-style layout; not a C++ parser."""
    depth = 0
    body_start = None
    header = []
    lines = text.splitlines()
    for i, line in enumerate(lines):
        code = strip_comments_and_strings(line)
        opens, closes = code.count("{"), code.count("}")
        if depth == 0 and opens:
            body_start = i
            hdr = "\n".join(lines[max(0, i - 3): i + 1])
            header = hdr
        depth += opens - closes
        if depth == 0 and body_start is not None and closes:
            yield body_start + 1, header, "\n".join(lines[body_start: i + 1])
            body_start = None
    # Unbalanced braces: ignore (macros, raw strings) — other checks and the
    # compiler catch real problems.


def check_guarded_by(f: Findings):
    """Cross-check BDA_GUARDED_BY(mu) members against their uses."""
    guarded: dict[Path, dict[str, str]] = {}
    for p in iter_cxx_files():
        text = p.read_text(errors="replace")
        pairs = GUARDED_RE.findall(text)
        if pairs:
            guarded[p] = dict(pairs)

    for hpp, members in guarded.items():
        # The declaring header plus its sibling .cpp are the access scope.
        sources = [hpp]
        sibling = hpp.with_suffix(".cpp")
        if sibling.exists():
            sources.append(sibling)
        for src in sources:
            text = src.read_text(errors="replace")
            for start, header, body in function_bodies(text):
                clean = strip_comments_and_strings_block(body)
                for member, mu in members.items():
                    if not re.search(rf"\b{re.escape(member)}\b", clean):
                        continue
                    # Declaration site in the header is not a use.
                    if re.search(
                            rf"\b{re.escape(member)}\b\s*(?:\n\s*)?"
                            r"BDA_(?:GUARDED_BY|CV_OF)", clean):
                        continue
                    ok = (
                        re.search(rf"\b{re.escape(mu)}\b", clean)
                        or any(mu in r for r in REQUIRES_RE.findall(header))
                        or "BDA_NO_THREAD_SAFETY_ANALYSIS" in header
                    )
                    if not ok:
                        f.add(src, start, "guarded-by",
                              f"'{member}' is BDA_GUARDED_BY({mu}) but this "
                              f"function body never names '{mu}' (lock it or "
                              f"annotate BDA_REQUIRES({mu}))")

    # Every std::mutex member in a header should guard something — catches
    # annotation rot when a new mutex is added without annotations.
    for p in iter_cxx_files():
        if p.suffix != ".hpp":
            continue
        text = p.read_text(errors="replace")
        for lineno, raw in enumerate(text.splitlines(), 1):
            code = strip_comments_and_strings(raw)
            if re.search(r"\bstd::mutex\s+\w+\s*;", code) and \
                    "BDA_GUARDED_BY" not in text:
                f.add(p, lineno, "guarded-by",
                      "class declares a std::mutex member but no "
                      "BDA_GUARDED_BY annotations — annotate what it guards",
                      raw)


def strip_comments_and_strings_block(block: str) -> str:
    out = []
    in_block = False
    for line in block.splitlines():
        if in_block:
            if "*/" in line:
                line = line.split("*/", 1)[1]
                in_block = False
            else:
                continue
        if "/*" in line and "*/" not in line.split("/*", 1)[1]:
            line = line.split("/*", 1)[0]
            in_block = True
        out.append(strip_comments_and_strings(line))
    return "\n".join(out)


def main() -> int:
    f = Findings()
    for p in iter_cxx_files():
        text = p.read_text(errors="replace")
        check_double_literals(p, text, f)
        check_reinterpret_cast(p, text, f)
        check_seed_include(p, text, f)
        check_bad_allows(p, text, f)
    check_guarded_by(f)
    if f.items:
        for item in f.items:
            print(item)
        print(f"check_bda_style: {len(f.items)} finding(s)", file=sys.stderr)
        return 1
    print("check_bda_style: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
