#!/usr/bin/env python3
"""Repo lint for conventions the compiler cannot check.

Rules (see docs/CONCURRENCY.md and src/obs/README.md):

  raw-sync      std::mutex / std::shared_mutex / std::condition_variable /
                std::lock_guard / std::unique_lock / std::shared_lock /
                std::scoped_lock are banned outside src/common/ — use the
                annotated wrappers in src/common/sync.h so Clang Thread
                Safety Analysis sees every acquisition.
  raw-thread    std::thread is banned outside src/common/ and src/exec/ —
                route work through ThreadPool so it shows up in exec.*
                metrics and stays bounded.
  metric-name   Metric names are lowercase dotted paths; histograms carry a
                `_ns` suffix unless allowlisted as dimensionless.
  include-guard Headers use COCONUT_<PATH>_H_ guards.
  stage-timer   Outside src/obs/, a histogram is never fed by hand from a
                stopwatch (`->Record(watch.ElapsedNanos())`): open a Stage
                (src/obs/stage.h) on it instead, so the stage's histogram,
                span and QueryTrace field share one clock pair and one
                measured interval.

A finding on one specific line can be suppressed with a trailing comment:

    std::thread t;  // coconut-lint: allow(raw-thread) -- <why>

Run from the repo root:  python3 tools/lint.py
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Histograms that measure something other than nanoseconds, so the `_ns`
# suffix rule does not apply. Keep this list short and justified.
DIMENSIONLESS_HISTOGRAMS = {
    "forest.compaction.merge_fan_in",  # counts input runs, not time
}

# First path segment of every metric registered from src/ (the component
# vocabulary documented in src/obs/README.md). A new component is a naming
# decision, not a typo: add it here and to the README table in the same
# change. Tests are exempt — they register throwaway names on purpose.
KNOWN_COMPONENTS = {
    "exec",    # thread pool / task execution
    "forest",  # LSM forest: flushes, compactions
    "io",      # file layer: reads, checksums, fdatasync
    "net",     # admin HTTP endpoint
    "obs",     # the obs subsystem's own internals
    "query",   # query engine stages
    "sort",    # external sort
    "store",   # sharded store: commits, journal, quarantine
}

RAW_SYNC_RE = re.compile(
    r"std::(recursive_mutex|timed_mutex|mutex|shared_mutex|shared_timed_mutex|"
    r"condition_variable_any|condition_variable|lock_guard|unique_lock|"
    r"shared_lock|scoped_lock)\b"
)
RAW_THREAD_RE = re.compile(r"std::thread\b(?!::)")
METRIC_CALL_RE = re.compile(
    r"Get(Counter|Gauge|Histogram)\(\s*\"([^\"]+)\"")
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")
STAGE_TIMER_RE = re.compile(r"(->|\.)Record\(\s*[\w.>-]*\.ElapsedNanos\(\)")
ALLOW_RE = re.compile(r"coconut-lint:\s*allow\(([a-z-]+)\)")


def strip_comments_and_strings(line):
    """Removes // comments and string literal bodies so the sync/thread
    regexes only match code. Good enough for this codebase: no multi-line
    strings, and block comments are not used for code."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in ('"', "'"):
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def rel(path):
    return os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")


def source_files(subdir, exts):
    for root, dirs, files in os.walk(os.path.join(REPO_ROOT, subdir)):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if os.path.splitext(name)[1] in exts:
                yield os.path.join(root, name)


def expected_guard(relpath):
    stem = relpath[:-len(".h")] if relpath.endswith(".h") else relpath
    # Guards drop the src/ prefix: src/core/knn.h -> COCONUT_CORE_KNN_H_.
    if stem.startswith("src/"):
        stem = stem[len("src/"):]
    return "COCONUT_" + re.sub(r"[/.\-]", "_", stem).upper() + "_H_"


def check_file(path, findings):
    relpath = rel(path)
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    in_common = relpath.startswith("src/common/")
    in_exec = relpath.startswith("src/exec/")
    in_obs = relpath.startswith("src/obs/")

    pending_allow = set()
    for lineno, raw in enumerate(lines, start=1):
        allow = set(ALLOW_RE.findall(raw))
        code = strip_comments_and_strings(raw)
        # An allow on a comment-only line covers the next code line (long
        # declarations cannot always fit a trailing comment).
        if not code.strip():
            pending_allow |= allow
            continue
        allow |= pending_allow
        pending_allow = set()

        if not in_common and "raw-sync" not in allow:
            m = RAW_SYNC_RE.search(code)
            if m:
                findings.append(
                    (relpath, lineno, "raw-sync",
                     f"{m.group(0)} outside src/common/; use the annotated "
                     "wrappers in src/common/sync.h"))
        if not in_common and not in_exec and "raw-thread" not in allow:
            m = RAW_THREAD_RE.search(code)
            if m:
                findings.append(
                    (relpath, lineno, "raw-thread",
                     "std::thread outside src/common/ and src/exec/; use "
                     "ThreadPool, or justify with "
                     "// coconut-lint: allow(raw-thread)"))
        if (not in_obs and "stage-timer" not in allow
                and STAGE_TIMER_RE.search(code)):
            findings.append(
                (relpath, lineno, "stage-timer",
                 "histogram fed by hand from a stopwatch; open a Stage "
                 "(src/obs/stage.h) on it instead"))
        for m in METRIC_CALL_RE.finditer(raw):
            kind, name = m.group(1), m.group(2)
            if "metric-name" in allow:
                continue
            if not METRIC_NAME_RE.match(name):
                findings.append(
                    (relpath, lineno, "metric-name",
                     f'"{name}" is not a lowercase dotted path '
                     "(see src/obs/README.md)"))
            elif name.split(".")[0] not in KNOWN_COMPONENTS:
                findings.append(
                    (relpath, lineno, "metric-name",
                     f'"{name}" starts with unknown component '
                     f'"{name.split(".")[0]}"; add it to KNOWN_COMPONENTS '
                     "in tools/lint.py and the src/obs/README.md table"))
            elif (kind == "Histogram" and not name.endswith("_ns")
                  and name not in DIMENSIONLESS_HISTOGRAMS):
                findings.append(
                    (relpath, lineno, "metric-name",
                     f'histogram "{name}" lacks the _ns suffix; if it is '
                     "not nanoseconds, add it to DIMENSIONLESS_HISTOGRAMS "
                     "in tools/lint.py"))

    if relpath.endswith(".h"):
        guard = expected_guard(relpath)
        ifndef = next((l for l in lines if l.startswith("#ifndef ")), None)
        if ifndef is None or ifndef.split()[1] != guard:
            got = ifndef.split()[1] if ifndef else "<missing>"
            findings.append(
                (relpath, 1, "include-guard",
                 f"expected guard {guard}, found {got}"))


def main():
    findings = []
    for path in source_files("src", {".h", ".cc"}):
        check_file(path, findings)
    # Tests may use raw threads/mutexes to exercise races, but metric names
    # registered from tests still follow the scheme.
    for path in source_files("tests", {".h", ".cc"}):
        relpath = rel(path)
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f.read().splitlines(), start=1):
                if ALLOW_RE.search(raw):
                    continue
                for m in METRIC_CALL_RE.finditer(raw):
                    if not METRIC_NAME_RE.match(m.group(2)):
                        findings.append(
                            (relpath, lineno, "metric-name",
                             f'"{m.group(2)}" is not a lowercase dotted '
                             "path (see src/obs/README.md)"))

    for relpath, lineno, rule, msg in findings:
        print(f"{relpath}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"\n{len(findings)} finding(s).", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
