#!/usr/bin/env bash
# Clang Static Analyzer pass over the tree, for the CI static-analysis job.
#
# scan-build wraps the compiler, so this configures and builds a scratch
# tree under build-scan/ with the analyzer interposed; findings land as an
# HTML/plist report in the directory given by SCAN_BUILD_OUTPUT (default
# build-scan/report) and any finding fails the script.
#
# On a toolchain without scan-build (the minimal dev container ships only
# gcc) the pass is skipped WITH A NOTICE and exit 0: the analyzer is a CI
# gate, not a local prerequisite — tools/lint.sh carries the local gates.
# Set BDA_REQUIRE_SCAN_BUILD=1 (CI does) to turn the skip into a failure,
# so CI can never silently lose the analyzer to a broken image.
set -euo pipefail

cd "$(dirname "$0")/.."

if ! command -v scan-build >/dev/null 2>&1; then
  if [[ "${BDA_REQUIRE_SCAN_BUILD:-0}" == "1" ]]; then
    echo "scan_build: scan-build not found but BDA_REQUIRE_SCAN_BUILD=1" >&2
    exit 1
  fi
  echo "scan_build: scan-build not found on PATH — skipping (CI runs it)."
  exit 0
fi

out="${SCAN_BUILD_OUTPUT:-build-scan/report}"
mkdir -p "${out}"

# --status-bugs: non-zero exit when the analyzer reports anything, which is
# what lets CI gate on it.  The checkers mirror the repo's failure classes:
# core plus the security/unix memory checkers that catch the manual-buffer
# code in the serialization and pack/unpack exchange paths.
scan-build --status-bugs -o "${out}" \
    -enable-checker core \
    -enable-checker unix.Malloc \
    -enable-checker cplusplus \
    -enable-checker deadcode.DeadStores \
    cmake -B build-scan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo

scan-build --status-bugs -o "${out}" \
    -enable-checker core \
    -enable-checker unix.Malloc \
    -enable-checker cplusplus \
    -enable-checker deadcode.DeadStores \
    cmake --build build-scan -j "$(nproc)"

echo "scan_build: clean (report in ${out})"
