#!/usr/bin/env bash
# Golden stdout gate. Every bench_e* binary except the google-benchmark E18,
# fuzz_chaos and the examples is seeded and prints byte-identical stdout at
# its default arguments in every build type. bench/golden.sha256 holds the
# SHA-256 of that stdout, one line per binary, as "<digest>  <path>" with the
# path relative to the build tree. This script runs each selected binary
# and fails on any digest that moved.
#
#   scripts/golden.sh [--build DIR] [--update] [PATH...]
#
#   --build DIR  build tree holding the binaries (default: $BUILD_DIR or build)
#   --update     rewrite the selected digests instead of checking them
#   PATH...      only these entries, e.g. bench/bench_e1_causal_order
#                (default: every entry)
#
# ctest runs each binary that takes under ~5 s as a golden.<name> test;
# scripts/check.sh runs the slow five. A change that means to move a printed
# number runs --update and names the number in CHANGES.md.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
DIGESTS="${ROOT}/bench/golden.sha256"

build="${BUILD_DIR:-build}"
update=0
only=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build) build="$2"; shift 2 ;;
    --update) update=1; shift ;;
    -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
    -*) echo "golden.sh: unknown option $1" >&2; exit 2 ;;
    *) only+=("$1"); shift ;;
  esac
done
if [[ "${build}" != /* ]]; then
  build="${ROOT}/${build}"
fi

declare -A want=()
order=()
while read -r digest path; do
  want["${path}"]="${digest}"
  order+=("${path}")
done < "${DIGESTS}"
for path in "${only[@]}"; do
  if [[ -z "${want[${path}]+set}" ]]; then
    echo "golden.sh: ${path} has no entry in ${DIGESTS}" >&2
    exit 2
  fi
done
if [[ ${#only[@]} -eq 0 ]]; then
  only=("${order[@]}")
fi

failed=0
for path in "${only[@]}"; do
  binary="${build}/${path}"
  if [[ ! -x "${binary}" ]]; then
    echo "golden.sh: ${binary} not built" >&2
    failed=1
    continue
  fi
  if ! got=$("${binary}" | sha256sum); then
    echo "golden.sh: ${path} exited with an error" >&2
    failed=1
    continue
  fi
  got="${got%% *}"
  if [[ "${update}" == 1 ]]; then
    [[ "${got}" != "${want[${path}]}" ]] && echo "golden.sh: updated ${path}"
    want["${path}"]="${got}"
  elif [[ "${got}" != "${want[${path}]}" ]]; then
    echo "golden.sh: ${path} stdout moved: ${got}, golden ${want[${path}]}" >&2
    failed=1
  fi
done

if [[ "${update}" == 1 ]]; then
  for path in "${order[@]}"; do
    printf '%s  %s\n' "${want[${path}]}" "${path}"
  done > "${DIGESTS}"
fi
if [[ "${failed}" != 0 ]]; then
  exit 1
fi
echo "golden.sh: ${#only[@]} binaries match ${DIGESTS#"${ROOT}"/}"
