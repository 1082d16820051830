// fuzz_chaos — FoundationDB-style deterministic simulation fuzzer for the
// CATOCS stack. Each seed names one complete chaos run: a generated fault
// schedule (crashes with rejoin + state transfer, partitions, drop/duplicate
// bursts, latency spikes) injected into a ChaosRig workload, audited by the
// InvariantOracle afterwards. With --verify-replay each seed is run twice and
// the trace hashes must match bit-for-bit, proving the run is reproducible
// from its seed alone.
//
// Exit status: 0 iff every seed passed (no oracle violation, no replay
// divergence, every crashed slot rejoined).
//
// Usage: fuzz_chaos [--seeds N] [--start S] [--slots K] [--horizon-ms MS]
//                   [--buffer full|hybrid|overlay] [--batch N] [--no-verify-replay]
//                   [--verbose] [--trace] [--probe]
//                   [--overload] [--policy throttle|shed-new|evict-laggard]
//
// --overload runs the group with a bounded resource budget (256KiB) and a
// 64-message send window, and widens the fault schedule with slow receivers,
// overload bursts, and one over-timeout partition per plan — the adversity
// DESIGN.md §10 is about. The oracle's bounded-memory invariant then has
// teeth: budget samples are recorded at every delivery and any cap excess or
// pressure-signal misbehavior fails the seed. --policy picks the overload
// policy (default throttle).
//
// --batch N enables sender-side batching (GroupConfig::batching = N), and
// has each workload tick issue N back-to-back sends so batches actually
// form — exercising batch framing, flush-on-view-change and the batch-aware
// delivery gate under the full fault schedule.
//
// --trace turns on pipeline observability (GroupConfig::observability plus
// the simulator's span recorder): every run reports per-layer hold counts,
// and an oracle violation dumps the retained span timeline of the first
// message named in the violation — where it was stamped, where it waited,
// who delivered it. Observability is record-only (no simulator events), so
// tracing never perturbs the run it is diagnosing.
//
// --probe additionally runs the hidden-channel probe (hidden_probe.h) under
// the fault schedule, with a provenance recorder attached, and cross-checks
// the recorder's hidden-miss count against an independent recount from the
// rig's delivery records — a disagreement fails the seed. Unlike --trace,
// probe tokens are real traffic, so --probe runs have their own trace hashes
// (still replay-verified).

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/catocs/causal_buffer.h"
#include "src/catocs/pipeline_stats.h"
#include "src/fault/chaos_rig.h"
#include "src/fault/fault_plan.h"
#include "src/fault/hidden_probe.h"
#include "src/fault/injector.h"
#include "src/fault/oracle.h"
#include "src/obs/provenance.h"
#include "src/sim/simulator.h"

namespace {

// Keeps the plan-sampling stream independent of the simulation stream.
constexpr uint64_t kPlanStream = 0x9e3779b97f4a7c15ull;

struct RunOptions {
  uint64_t seeds = 50;
  uint64_t start = 1;
  size_t slots = 4;
  int64_t horizon_ms = 4000;
  catocs::CausalBufferKind buffer = catocs::CausalBufferKind::kFullVector;
  uint32_t batch = 1;
  bool verify_replay = true;
  bool verbose = false;
  bool trace = false;
  bool probe = false;
  bool overload = false;
  catocs::OverloadPolicy policy = catocs::OverloadPolicy::kThrottle;
};

struct RunResult {
  uint64_t trace_hash = 0;
  uint64_t events_applied = 0;
  uint64_t deliveries = 0;
  uint64_t views = 0;
  uint64_t rejoins = 0;
  double max_rejoin_ms = 0.0;  // recover start -> view install with new id
  fault::OracleReport report;
  // --trace only: span/hold totals and, on violation, the offending
  // message's rendered timeline (built before the simulator is torn down).
  uint64_t spans_recorded = 0;
  uint64_t holds_entered = 0;
  std::string span_dump;
  // --probe only: hidden-channel edge totals and the oracle cross-check.
  uint64_t hidden_edges = 0;
  uint64_t hidden_missed = 0;
  uint64_t hidden_missed_oracle = 0;
  bool probe_crosscheck_ok = true;
  // --overload only: flow-control refusals, laggard evictions, and the
  // budget ledger's high-water mark across every incarnation.
  uint64_t sends_backpressured = 0;
  uint64_t sends_shed = 0;
  uint64_t laggards_reported = 0;
  uint64_t budget_peak_bytes = 0;
  uint64_t budget_samples = 0;
};

// Finds the first "sender#seq" (MessageId::ToString form) in a violation
// message so --trace can dump that message's span timeline.
bool ParseFirstMessageId(const std::string& text, catocs::MessageId* id) {
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '#') {
      continue;
    }
    size_t begin = i;
    while (begin > 0 && std::isdigit(static_cast<unsigned char>(text[begin - 1]))) {
      --begin;
    }
    size_t end = i + 1;
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    if (begin == i || end == i + 1) {
      continue;
    }
    id->sender =
        static_cast<catocs::MemberId>(std::strtoull(text.substr(begin, i - begin).c_str(),
                                                    nullptr, 10));
    id->seq = std::strtoull(text.substr(i + 1, end - i - 1).c_str(), nullptr, 10);
    return true;
  }
  return false;
}

fault::FaultPlan PlanForSeed(uint64_t seed, const RunOptions& opt) {
  fault::GeneratorConfig gen_cfg;
  gen_cfg.num_slots = opt.slots;
  gen_cfg.horizon = sim::Duration::Millis(opt.horizon_ms);
  gen_cfg.failure_timeout = sim::Duration::Millis(100);
  if (opt.overload) {
    gen_cfg.max_slow_receivers = 2;
    gen_cfg.max_overload_bursts = 2;
    gen_cfg.max_long_partitions = 1;
  }
  sim::Rng plan_rng(seed ^ kPlanStream);
  return fault::FaultScheduleGenerator(gen_cfg).Generate(plan_rng);
}

RunResult RunOneSeed(uint64_t seed, const RunOptions& opt) {
  sim::Simulator s(seed);
  fault::ChaosRigConfig cfg;
  cfg.num_slots = opt.slots;
  cfg.group.heartbeat_interval = sim::Duration::Millis(20);
  cfg.group.failure_timeout = sim::Duration::Millis(100);
  cfg.group.causal_buffer = opt.buffer;
  if (opt.batch > 1) {
    cfg.group.batching = opt.batch;
    cfg.workload_burst = opt.batch;
  }
  if (opt.overload) {
    cfg.group.budget.max_bytes = 256 * 1024;
    cfg.group.send_window = 64;
    cfg.group.overload_policy = opt.policy;
  }
  if (opt.trace) {
    cfg.group.observability = true;
    s.spans().set_enabled(true);
  }
  obs::ProvenanceRecorder recorder;
  if (opt.probe) {
    recorder.set_enabled(true);
    cfg.group.observability = true;
    cfg.group.provenance = &recorder;
  }
  fault::ChaosRig rig(&s, cfg);
  fault::FaultInjector injector(&s, &rig);
  std::unique_ptr<fault::HiddenChannelProbe> probe;
  if (opt.probe) {
    probe = std::make_unique<fault::HiddenChannelProbe>(&rig, &recorder);
  }

  const fault::FaultPlan plan = PlanForSeed(seed, opt);
  injector.Install(plan);

  rig.Start();
  if (probe) {
    probe->Start();
  }
  const sim::Duration horizon = sim::Duration::Millis(opt.horizon_ms);
  s.ScheduleAfter(horizon, [&rig, &probe] {
    rig.StopWorkload();
    if (probe) {
      probe->Stop();
    }
  });
  // Drain: retransmission, redelivery, flushes, and the last rejoin all
  // settle well within two extra simulated seconds.
  s.RunFor(horizon + sim::Duration::Seconds(2));

  RunResult result;
  result.trace_hash = rig.TraceHash();
  result.events_applied = injector.events_applied();
  result.deliveries = rig.deliveries().size();
  result.views = rig.views().size();
  for (const auto& stat : rig.recoveries()) {
    if (stat.rejoined) {
      ++result.rejoins;
      const double ms =
          static_cast<double>((stat.rejoined_at - stat.recover_started).nanos()) / 1e6;
      if (ms > result.max_rejoin_ms) {
        result.max_rejoin_ms = ms;
      }
    }
  }
  result.report = fault::InvariantOracle().Audit(rig);
  if (opt.trace) {
    result.spans_recorded = s.spans().total_recorded();
    result.holds_entered = rig.AggregatePipelineStats().TotalEntered();
    if (!result.report.ok()) {
      catocs::MessageId id{0, 0};
      for (const std::string& violation : result.report.violations) {
        if (ParseFirstMessageId(violation, &id)) {
          const auto timeline = s.spans().ForKey(catocs::SpanKey(id), 32);
          result.span_dump = "trace for " + id.ToString() + " (" +
                             std::to_string(timeline.size()) + " retained events):\n" +
                             sim::SpanRecorder::Render(timeline);
          break;
        }
      }
    }
  }
  if (probe) {
    result.hidden_edges = probe->edges_injected();
    result.hidden_missed = recorder.totals().hidden_missed;
    result.hidden_missed_oracle = fault::CountHiddenMisses(rig.deliveries(), probe->edges());
    result.probe_crosscheck_ok = result.hidden_missed == result.hidden_missed_oracle;
  }
  if (opt.overload) {
    result.sends_backpressured = rig.sends_backpressured();
    result.sends_shed = rig.sends_shed();
    result.budget_samples = rig.budget_samples().size();
    result.budget_peak_bytes = rig.AggregatePipelineStats().budget.peak_bytes;
    for (size_t slot = 0; slot < opt.slots; ++slot) {
      result.laggards_reported += rig.MemberOfSlot(slot).stats().laggards_reported;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> int64_t { return i + 1 < argc ? std::atoll(argv[++i]) : 0; };
    if (arg == "--seeds") {
      opt.seeds = static_cast<uint64_t>(next());
    } else if (arg == "--start") {
      opt.start = static_cast<uint64_t>(next());
    } else if (arg == "--slots") {
      opt.slots = static_cast<size_t>(next());
    } else if (arg == "--horizon-ms") {
      opt.horizon_ms = next();
    } else if (arg == "--buffer") {
      const std::string kind = i + 1 < argc ? argv[++i] : "";
      if (kind == "full") {
        opt.buffer = catocs::CausalBufferKind::kFullVector;
      } else if (kind == "hybrid") {
        opt.buffer = catocs::CausalBufferKind::kHybrid;
      } else if (kind == "overlay") {
        opt.buffer = catocs::CausalBufferKind::kOverlay;
      } else {
        std::fprintf(stderr, "unknown --buffer kind: %s (want full|hybrid|overlay)\n",
                     kind.c_str());
        return 2;
      }
    } else if (arg == "--batch") {
      opt.batch = static_cast<uint32_t>(next());
      if (opt.batch < 1) {
        std::fprintf(stderr, "--batch wants a positive batch size\n");
        return 2;
      }
    } else if (arg == "--no-verify-replay") {
      opt.verify_replay = false;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--probe") {
      opt.probe = true;
    } else if (arg == "--overload") {
      opt.overload = true;
    } else if (arg == "--policy") {
      const std::string policy = i + 1 < argc ? argv[++i] : "";
      if (policy == "throttle") {
        opt.policy = catocs::OverloadPolicy::kThrottle;
      } else if (policy == "shed-new") {
        opt.policy = catocs::OverloadPolicy::kShedNew;
      } else if (policy == "evict-laggard") {
        opt.policy = catocs::OverloadPolicy::kEvictLaggard;
      } else {
        std::fprintf(stderr,
                     "unknown --policy: %s (want throttle|shed-new|evict-laggard)\n",
                     policy.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  uint64_t failed_seeds = 0;
  uint64_t replay_mismatches = 0;
  uint64_t total_violations = 0;
  uint64_t total_deliveries = 0;
  uint64_t total_rejoins = 0;
  uint64_t total_spans = 0;
  uint64_t total_holds = 0;
  uint64_t total_hidden_edges = 0;
  uint64_t total_hidden_missed = 0;
  uint64_t probe_mismatches = 0;
  uint64_t total_backpressured = 0;
  uint64_t total_shed = 0;
  uint64_t total_laggards = 0;
  uint64_t total_budget_samples = 0;
  uint64_t worst_budget_peak = 0;
  double worst_rejoin_ms = 0.0;

  std::printf("fuzz_chaos: %" PRIu64 " seeds [%" PRIu64 "..%" PRIu64
              "], %zu slots, %lldms horizon, %s buffer, replay verify %s\n",
              opt.seeds, opt.start, opt.start + opt.seeds - 1, opt.slots,
              static_cast<long long>(opt.horizon_ms), catocs::ToString(opt.buffer),
              opt.verify_replay ? "on" : "off");
  if (opt.batch > 1) {
    // Printed only in batch mode so default-config stdout stays byte-stable.
    std::printf("fuzz_chaos: sender batching x%u (burst workload)\n", opt.batch);
  }
  if (opt.overload) {
    // Same byte-stability discipline: this line exists only under --overload.
    std::printf("fuzz_chaos: overload adversity on, budget=256KiB window=64 policy=%s\n",
                catocs::ToString(opt.policy));
  }

  for (uint64_t seed = opt.start; seed < opt.start + opt.seeds; ++seed) {
    const RunResult result = RunOneSeed(seed, opt);
    bool seed_ok = result.report.ok();
    total_violations += result.report.violations.size();
    total_deliveries += result.deliveries;
    total_rejoins += result.rejoins;
    if (result.max_rejoin_ms > worst_rejoin_ms) {
      worst_rejoin_ms = result.max_rejoin_ms;
    }
    total_spans += result.spans_recorded;
    total_holds += result.holds_entered;
    total_hidden_edges += result.hidden_edges;
    total_hidden_missed += result.hidden_missed;
    total_backpressured += result.sends_backpressured;
    total_shed += result.sends_shed;
    total_laggards += result.laggards_reported;
    total_budget_samples += result.budget_samples;
    if (result.budget_peak_bytes > worst_budget_peak) {
      worst_budget_peak = result.budget_peak_bytes;
    }
    if (!result.probe_crosscheck_ok) {
      seed_ok = false;
      ++probe_mismatches;
      std::printf("seed %" PRIu64 ": PROBE CROSSCHECK recorder missed %" PRIu64
                  " vs oracle recount %" PRIu64 "\n",
                  seed, result.hidden_missed, result.hidden_missed_oracle);
    }

    if (opt.verify_replay) {
      const RunResult replay = RunOneSeed(seed, opt);
      if (replay.trace_hash != result.trace_hash) {
        seed_ok = false;
        ++replay_mismatches;
        std::printf("seed %" PRIu64 ": REPLAY DIVERGED hash %016" PRIx64 " vs %016" PRIx64 "\n",
                    seed, result.trace_hash, replay.trace_hash);
      }
    }

    if (!result.report.ok()) {
      std::printf("seed %" PRIu64 ": %s\n", seed, result.report.Summary().c_str());
      std::printf("seed %" PRIu64 ": %s\n", seed, PlanForSeed(seed, opt).Describe().c_str());
      // Dump from the first run only; the replay-verify pass would repeat it.
      if (!result.span_dump.empty()) {
        std::printf("seed %" PRIu64 ": %s", seed, result.span_dump.c_str());
      }
    } else if (opt.verbose) {
      std::printf("seed %" PRIu64 ": ok hash=%016" PRIx64 " faults=%" PRIu64
                  " deliveries=%" PRIu64 " views=%" PRIu64 " rejoins=%" PRIu64
                  " max_rejoin=%.1fms\n",
                  seed, result.trace_hash, result.events_applied, result.deliveries,
                  result.views, result.rejoins, result.max_rejoin_ms);
      std::printf("seed %" PRIu64 ": %s\n", seed, PlanForSeed(seed, opt).Describe().c_str());
    }
    if (!seed_ok) {
      ++failed_seeds;
    }
  }

  std::printf("fuzz_chaos: %" PRIu64 "/%" PRIu64 " seeds clean, %" PRIu64
              " violations, %" PRIu64 " replay mismatches, %" PRIu64
              " deliveries audited, %" PRIu64 " rejoins (worst %.1fms)\n",
              opt.seeds - failed_seeds, opt.seeds, total_violations, replay_mismatches,
              total_deliveries, total_rejoins, worst_rejoin_ms);
  if (opt.trace) {
    // Deterministic across same-seed invocations: pure function of the runs.
    std::printf("fuzz_chaos: trace spans=%" PRIu64 " holds=%" PRIu64 "\n", total_spans,
                total_holds);
  }
  if (opt.probe) {
    std::printf("fuzz_chaos: probe hidden_edges=%" PRIu64 " hidden_missed=%" PRIu64
                " crosscheck_mismatches=%" PRIu64 "\n",
                total_hidden_edges, total_hidden_missed, probe_mismatches);
  }
  if (opt.overload) {
    // Deterministic across same-seed invocations: pure function of the runs.
    std::printf("fuzz_chaos: overload backpressured=%" PRIu64 " shed=%" PRIu64
                " laggards=%" PRIu64 " budget_samples=%" PRIu64 " worst_peak_bytes=%" PRIu64
                "\n",
                total_backpressured, total_shed, total_laggards, total_budget_samples,
                worst_budget_peak);
  }
  return failed_seeds == 0 ? 0 : 1;
}
