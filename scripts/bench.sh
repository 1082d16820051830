#!/usr/bin/env bash
# Regenerates BENCH_micro.json: Release build of the microbenchmark suite
# plus the E18 sustained-throughput bench, run with google-benchmark's JSON
# reporter and merged into one file. Also regenerates BENCH_e22.json (the
# E22 concurrency-control contention sweep, which emits its own
# google-benchmark-shaped JSON via --json). Run on an otherwise idle machine;
# results land at the repo root so they can be diffed across commits with
# scripts/bench_compare.py (or the bench-compare cmake target).
#
# Numbers recorded from a debug binary are garbage and poison every later
# comparison, so this script configures Release explicitly and refuses to
# write the JSON unless the binary itself reports a release build (each
# bench main stamps "repro_build_type" into the benchmark context from
# NDEBUG — the truth of how the binary was compiled, not of what cmake was
# asked for).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-rel}
OUT=${OUT:-BENCH_micro.json}
OUT_E22=${OUT_E22:-BENCH_e22.json}

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_micro_protocol bench_e18_throughput bench_e22_contention

# Runs one bench binary into $2, refusing to keep output from a debug build.
# The check reads "repro_build_type" — stamped by each bench main from
# NDEBUG, i.e. how *our* code in the binary was actually compiled. (The
# library's own "library_build_type" reflects the preinstalled
# google-benchmark package, which we cannot rebuild and which only does the
# timing.)
record() {
  local bin="$1" out="$2"
  "${bin}" --benchmark_out="${out}" --benchmark_out_format=json
  if ! grep -q '"repro_build_type": "release"' "${out}"; then
    rm -f "${out}"
    echo "bench.sh: ${bin} is not a release build; refusing to write ${OUT}" >&2
    echo "bench.sh: (assertions change hot-path costs — rebuild with CMAKE_BUILD_TYPE=Release)" >&2
    exit 1
  fi
}

TMP_MICRO="$(mktemp "${OUT}.micro.XXXXXX")"
TMP_E18="$(mktemp "${OUT}.e18.XXXXXX")"
TMP_E22="$(mktemp "${OUT_E22}.XXXXXX")"
trap 'rm -f "${TMP_MICRO}" "${TMP_E18}" "${TMP_E22}"' EXIT

record "${BUILD_DIR}/bench/bench_micro_protocol" "${TMP_MICRO}"
record "${BUILD_DIR}/bench/bench_e18_throughput" "${TMP_E18}"

# E22 writes google-benchmark-shaped JSON itself (it is a sweep harness, not
# a google-benchmark registration), including the repro_build_type stamp the
# release check below reads.
"${BUILD_DIR}/bench/bench_e22_contention" --json "${TMP_E22}"
if ! grep -q '"repro_build_type": "release"' "${TMP_E22}"; then
  echo "bench.sh: bench_e22_contention is not a release build; refusing to write ${OUT_E22}" >&2
  exit 1
fi

# Recording identity, stamped into the JSON context alongside the binaries'
# own repro_build_type: the commit the numbers came from, and the bench
# configuration knobs (batch/buffer — "sweep" means the suite varies the
# knob itself; override via BENCH_BATCH/BENCH_BUFFER when
# recording a pinned-config run). bench_compare.py refuses to diff files
# whose configs differ — cross-config deltas are configuration changes, not
# regressions.
GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
  GIT_SHA="${GIT_SHA}-dirty"
fi
BENCH_CONFIG="batch=${BENCH_BATCH:-sweep};buffer=${BENCH_BUFFER:-full}"

# Two tracked files: the micro suite's JSON with E18's benchmark entries
# appended (context comes from the micro run; both were just verified to be
# release builds of the same tree), and E22's sweep in its own file — its
# cells are a different workload shape and are gated on their own counters.
python3 - "${TMP_MICRO}" "${TMP_E18}" "${OUT}" "${GIT_SHA}" "${BENCH_CONFIG}" <<'EOF'
import json, sys
micro, e18, out, sha, config = sys.argv[1:6]
with open(micro) as f:
    doc = json.load(f)
with open(e18) as f:
    doc["benchmarks"].extend(json.load(f)["benchmarks"])
doc.setdefault("context", {})["repro_git_sha"] = sha
doc["context"]["repro_bench_config"] = config
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
python3 - "${TMP_E22}" "${OUT_E22}" "${GIT_SHA}" "${BENCH_CONFIG}" <<'EOF'
import json, sys
src, out, sha, config = sys.argv[1:5]
with open(src) as f:
    doc = json.load(f)
doc.setdefault("context", {})["repro_git_sha"] = sha
doc["context"]["repro_bench_config"] = config
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
echo "wrote ${OUT} and ${OUT_E22} (${GIT_SHA}, ${BENCH_CONFIG})"
