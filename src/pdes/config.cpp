#include "pdes/config.h"

#include <cstdlib>
#include <sstream>

namespace vsim::pdes {

namespace {

bool in_unit(double p) { return p >= 0.0 && p <= 1.0; }

std::optional<ConfigError> fail(const char* field, std::string message) {
  return ConfigError{field, std::move(message)};
}

}  // namespace

const char* to_string(Configuration c) {
  switch (c) {
    case Configuration::kAllOptimistic: return "optimistic";
    case Configuration::kAllConservative: return "conservative";
    case Configuration::kMixed: return "mixed";
    case Configuration::kDynamic: return "dynamic";
  }
  return "?";
}

const char* to_string(OrderingMode m) {
  switch (m) {
    case OrderingMode::kArbitrary: return "arbitrary";
    case OrderingMode::kUserConsistent: return "user-consistent";
  }
  return "?";
}

const char* to_string(ConservativeStrategy s) {
  switch (s) {
    case ConservativeStrategy::kGlobalSync: return "global-sync";
    case ConservativeStrategy::kNullMessage: return "null-message";
  }
  return "?";
}

std::string ConfigError::str() const {
  std::ostringstream os;
  os << "invalid configuration: " << field << ": " << message;
  return os.str();
}

std::optional<ConfigError> validate(const FaultPlan& plan,
                                    std::size_t num_workers) {
  if (!in_unit(plan.drop)) return fail("faults.drop", "probability outside [0, 1]");
  if (!in_unit(plan.duplicate))
    return fail("faults.duplicate", "probability outside [0, 1]");
  if (!in_unit(plan.reorder))
    return fail("faults.reorder", "probability outside [0, 1]");
  if (!in_unit(plan.blackout))
    return fail("faults.blackout", "probability outside [0, 1]");
  if (!in_unit(plan.crash_rate))
    return fail("faults.crash_rate", "probability outside [0, 1]");
  if (plan.jitter < 0.0) return fail("faults.jitter", "negative jitter");
  if (plan.blackout > 0.0 && plan.blackout_span < 1)
    return fail("faults.blackout_span",
                "must be >= 1 when blackouts are enabled");
  for (const WorkerCrash& c : plan.crashes) {
    if (num_workers != 0 && c.worker >= num_workers) {
      std::ostringstream os;
      os << "crash scheduled for worker " << c.worker << " but only "
         << num_workers << " workers configured";
      return fail("faults.crashes", os.str());
    }
  }
  return std::nullopt;
}

std::optional<ConfigError> validate_net(const NetConfig& net) {
  if (net.heartbeat_interval_ms < 1)
    return fail("net.heartbeat_interval_ms", "must be >= 1");
  if (net.heartbeat_timeout_ms <= net.heartbeat_interval_ms)
    return fail("net.heartbeat_timeout_ms",
                "timeout must exceed the heartbeat interval or every rank "
                "is instantly unresponsive");
  if (net.tcp && net.base_port == 0)
    return fail("net.base_port", "TCP mode needs an explicit base port");
  return std::nullopt;
}

std::optional<ConfigError> validate(const AdaptPolicy& adapt) {
  if (adapt.promotion_backoff_cap >= 32)
    return fail("adapt.promotion_backoff_cap",
                "caps >= 32 would shift promotion evidence into undefined "
                "behaviour; the threshold saturates at cap doublings");
  if (!(adapt.rollback_rate_high > 0.0))
    return fail("adapt.rollback_rate_high", "must be > 0");
  if (adapt.rollback_rate_low < 0.0 ||
      adapt.rollback_rate_low > adapt.rollback_rate_high)
    return fail("adapt.rollback_rate_low",
                "must be in [0, rollback_rate_high]");
  if (adapt.min_window_events < 1)
    return fail("adapt.min_window_events", "must be >= 1");
  if (!(adapt.rate_alpha > 0.0) || adapt.rate_alpha > 1.0)
    return fail("adapt.rate_alpha", "EWMA factor must be in (0, 1]");
  if (adapt.p_headroom < 0.0)
    return fail("adapt.p_headroom", "must be >= 0");
  if (adapt.min_decision_windows < 1)
    return fail("adapt.min_decision_windows", "must be >= 1");
  if (!(adapt.max_demote_fraction > 0.0) || adapt.max_demote_fraction > 1.0)
    return fail("adapt.max_demote_fraction",
                "demotion budget fraction must be in (0, 1]");
  if (adapt.pin_stall_windows < 1)
    return fail("adapt.pin_stall_windows", "must be >= 1");
  return std::nullopt;
}

std::optional<ConfigError> validate(const RunConfig& config) {
  if (config.num_workers < 1)
    return fail("num_workers", "at least one worker is required");
  if (config.gvt_interval < 1)
    return fail("gvt_interval", "GVT interval must be >= 1");
  if (auto err = validate(config.adapt)) return err;
  // The paper's rule: null messages only when every LP is conservative.  An
  // optimistic sender can roll back and resend below a promise it made, so
  // a conservative receiver would commit past a bound that was never safe.
  if (config.strategy == ConservativeStrategy::kNullMessage &&
      config.configuration != Configuration::kAllConservative)
    return fail("strategy",
                std::string("null messages need every LP conservative "
                            "(configuration 'conservative'), not '") +
                    to_string(config.configuration) + "'");
  if (config.deadlock_rounds < 1)
    return fail("deadlock_rounds", "deadlock threshold must be >= 1");
  if (auto err = validate(config.transport.faults, config.num_workers))
    return err;
  if (config.checkpoint.heartbeat_rounds < 1)
    return fail("checkpoint.heartbeat_rounds",
                "a worker must be allowed to miss at least one round");
  if (config.transport.faults.crash_active() &&
      config.checkpoint.max_recoveries < 1)
    return fail("checkpoint.max_recoveries",
                "crashes are scheduled but no recoveries are allowed");
  if (config.rebalance.enabled()) {
    if (config.rebalance.max_moves < 1)
      return fail("rebalance.max_moves",
                  "rebalancing is enabled but no moves are allowed");
    if (config.rebalance.imbalance_trigger < 0.0)
      return fail("rebalance.imbalance_trigger", "must be >= 0");
  }
  return std::nullopt;
}

std::optional<ConfigError> validate_distributed(const RunConfig& config) {
  if (auto err = validate(config)) return err;
  if (auto err = validate_net(config.net)) return err;
  if (config.checkpoint.replicas < 1)
    return fail("checkpoint.replicas",
                "at least one rank must hold each checkpoint");
  if (config.checkpoint.resume && config.checkpoint.spill_dir.empty())
    return fail("checkpoint.resume",
                "resuming requires a spill_dir to resume from");
  if (config.transport.faults.crash_rate > 0.0)
    return fail("faults.crash_rate",
                "distributed runs need an explicit crash schedule (random "
                "per-rank draws are not reproducible across processes)");
  if (config.rebalance.enabled())
    return fail("rebalance.period",
                "periodic rebalancing is not implemented across processes; "
                "LPs move only via crash recovery");
  return std::nullopt;
}

double time_scale() {
  const char* env = std::getenv("VSIM_TIME_SCALE");
  if (env == nullptr || *env == '\0') return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || !(v >= 1.0)) return 1.0;
  return v > 100.0 ? 100.0 : v;
}

std::uint32_t scaled_ms(std::uint32_t ms) {
  return static_cast<std::uint32_t>(static_cast<double>(ms) * time_scale());
}

}  // namespace vsim::pdes
