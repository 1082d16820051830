#include "src/catocs/flow_control.h"

#include "src/catocs/causal_layer.h"
#include "src/catocs/membership_layer.h"
#include "src/catocs/stability_layer.h"

namespace catocs {

namespace {

// Deterministic retry cadence while backpressured: each tick re-checks
// credits, refreshes the transport charge, and (under evict-laggard)
// advances the laggard clock.
constexpr sim::Duration kFlowRetryInterval = sim::Duration::Millis(5);

// Evict-laggard: consecutive retry ticks the same slowest receiver must pin
// the window shut before it is reported to membership. Generous enough to
// outlast startup ack propagation and ordinary stability lag.
constexpr uint32_t kLaggardPatience = 20;

}  // namespace

FlowController::FlowController(GroupCore* core) : core_(core) {
  core_->flow = this;
  retry_timer_ = std::make_unique<sim::PeriodicTimer>(core_->simulator, kFlowRetryInterval,
                                                      [this] { RetryTick(); });
}

FlowController::~FlowController() = default;

bool FlowController::Admissible() const {
  const GroupConfig& config = core_->config;
  if (config.send_window > 0) {
    const uint64_t sent = core_->causal->send_seq();
    const uint64_t floor = core_->stability->strategy().StableFloorFor(core_->self);
    if (sent - floor >= config.send_window) {
      return false;
    }
  }
  return !(core_->budget.bounded() && core_->budget.pressure() == MemoryPressure::kCritical);
}

SendStatus FlowController::Admit() {
  core_->SyncTransportBudget();
  if (Admissible()) {
    return SendStatus::kSent;
  }
  if (core_->config.overload_policy == OverloadPolicy::kShedNew) {
    ++core_->stats.sends_shed;
    return SendStatus::kShed;
  }
  ++core_->stats.sends_backpressured;
  if (!waiting_) {
    waiting_ = true;
    last_laggard_ = 0;
    stalled_ticks_ = 0;
    retry_timer_->Start(kFlowRetryInterval);
  }
  return SendStatus::kBackpressured;
}

void FlowController::OnProgress() {
  if (waiting_ && Admissible()) {
    Reopen();
  }
}

void FlowController::OnStop() {
  retry_timer_->Stop();
  waiting_ = false;
  last_laggard_ = 0;
  stalled_ticks_ = 0;
}

uint64_t FlowController::credits() const {
  if (core_->config.send_window == 0) {
    return UINT64_MAX;
  }
  const uint64_t outstanding =
      core_->causal->send_seq() - core_->stability->strategy().StableFloorFor(core_->self);
  return outstanding >= core_->config.send_window ? 0
                                                  : core_->config.send_window - outstanding;
}

void FlowController::RetryTick() {
  if (!core_->started) {
    return;
  }
  // In-flight transport queues drain independently of acks reaching the
  // stability layer; refresh their charge so critical pressure can clear.
  core_->SyncTransportBudget();
  if (Admissible()) {
    Reopen();
    return;
  }
  if (core_->config.overload_policy == OverloadPolicy::kEvictLaggard &&
      core_->config.enable_membership && core_->config.send_window > 0) {
    const MemberId laggard = core_->stability->strategy().SlowestMemberFor(core_->self);
    if (laggard != 0 && laggard != core_->self) {
      if (laggard == last_laggard_) {
        ++stalled_ticks_;
      } else {
        last_laggard_ = laggard;
        stalled_ticks_ = 1;
      }
      if (stalled_ticks_ >= kLaggardPatience) {
        // The same receiver has pinned the window shut for the whole patience
        // interval: shed it through the ordinary suspicion path, which frees
        // its retention at the resulting view change.
        ++core_->stats.laggards_reported;
        stalled_ticks_ = 0;
        last_laggard_ = 0;
        core_->membership->ReportFailure(laggard, /*deliberate=*/true);
      }
    }
  }
}

void FlowController::Reopen() {
  waiting_ = false;
  last_laggard_ = 0;
  stalled_ticks_ = 0;
  retry_timer_->Stop();
  ++core_->stats.flow_reopen_wakeups;
  if (ready_) {
    ready_();
  }
}

}  // namespace catocs
