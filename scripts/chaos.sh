#!/usr/bin/env bash
# Chaos gate: runs the deterministic simulation fuzzer over 50 generated
# fault schedules (crashes with rejoin + state transfer, sub-timeout
# partitions, drop/duplicate bursts, latency spikes), with every seed run
# twice and required to produce a bit-identical trace hash. Any invariant
# violation, replay divergence, or wedged rejoin fails the sweep (nonzero
# exit). The sweep runs once per causal-buffer strategy (full-vector,
# hybrid, and the constant-metadata overlay path, which forces a
# causal-only workload — kTotal is outside its contract — and ignores the
# batching knob), once per sender-batching level (unbatched and batch=8, which
# also turns on a burst workload), and once per trace
# mode (observability off and --trace) so the record-only instrumentation
# faces every buffer x batch combination under the same fault schedules.
# A final leg runs the hidden-channel probe (--probe), whose per-seed
# recorder-vs-oracle cross-check fails the sweep on any disagreement.
# An overload leg (--overload) then sweeps the DESIGN §10 overload policies
# (POLICIES, default all three) per buffer strategy: slow receivers,
# overload bursts, and a long partition per plan, under a bounded budget +
# send window, with the oracle auditing every budget sample for cap
# overruns and pressure-epoch regressions.
# A transactional leg (bench_e22_contention --chaos) then crashes one
# replica mid-run under each deadlock policy (TXN_POLICIES); the oracle
# replays the coordinators' commit log against every surviving replica's
# store, so a lost, phantom, or duplicated commit — or a txn that never
# decides — fails the seed. Each seed runs twice and must match.
# Reuses an existing build if one is configured.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
SEEDS=${SEEDS:-50}
START=${START:-1}
BUFFERS=${BUFFERS:-full hybrid overlay}
BATCHES=${BATCHES:-1 8}
TRACES=${TRACES:-off on}
POLICIES=${POLICIES:-throttle shed-new evict-laggard}
TXN_SEEDS=${TXN_SEEDS:-10}
TXN_POLICIES=${TXN_POLICIES:-detect wait-die starvation-free}

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S .
fi
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target fuzz_chaos bench_e22_contention

for buffer in ${BUFFERS}; do
  for batch in ${BATCHES}; do
    for trace in ${TRACES}; do
      trace_flag=()
      if [[ "${trace}" == on ]]; then
        trace_flag=(--trace)
      fi
      "${BUILD_DIR}/bench/fuzz_chaos" --seeds "${SEEDS}" --start "${START}" \
        --buffer "${buffer}" --batch "${batch}" "${trace_flag[@]}"
    done
  done
done

# Hidden-channel probe under the same fault schedules: probe tokens are real
# traffic (their own replay-verified trace hashes), and any recorder/oracle
# hidden-miss disagreement fails the seed.
"${BUILD_DIR}/bench/fuzz_chaos" --seeds "${SEEDS}" --start "${START}" --probe

# Overload sweep: bounded budget + send window against slow receivers,
# overload bursts, and long partitions, once per buffer x overload policy.
for buffer in ${BUFFERS}; do
  for policy in ${POLICIES}; do
    "${BUILD_DIR}/bench/fuzz_chaos" --seeds "${SEEDS}" --start "${START}" \
      --buffer "${buffer}" --overload --policy "${policy}"
  done
done

# Transactional crash sweep: every deadlock policy must decide every txn and
# leave every surviving replica's store equal to the commit-log replay.
for policy in ${TXN_POLICIES}; do
  "${BUILD_DIR}/bench/bench_e22_contention" --chaos --seeds "${TXN_SEEDS}" \
    --policy "${policy}"
done
