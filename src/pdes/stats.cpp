#include "pdes/stats.h"

#include <sstream>

namespace vsim::pdes {

std::string DeadlockReport::str() const {
  std::ostringstream os;
  os << "protocol deadlock at gvt=" << gvt.str() << "; " << blocked.size()
     << " LP(s) with pending work";
  std::size_t shown = 0;
  for (const LpDiag& d : blocked) {
    if (shown++ == 8) {
      os << " ...";
      break;
    }
    os << "\n  lp " << d.id << ": next_ts=" << d.next_ts.str()
       << " pending=" << d.pending << " mode="
       << (d.mode == SyncMode::kOptimistic ? "optimistic" : "conservative");
    if (d.min_channel_clock != kTimeInf)
      os << " min_channel_clock=" << d.min_channel_clock.str();
  }
  return os.str();
}

void absorb_run_stats(obs::MetricsRegistry& reg, const RunStats& st) {
  using obs::Gauge;
  using obs::Metric;
  obs::MetricsShard& s = reg.shard(0);

  std::uint64_t committed = 0, rollbacks = 0, undone = 0, anti = 0;
  std::uint64_t annihilations = 0, lazy_reuse = 0, lazy_cancel = 0;
  std::uint64_t saves = 0, switches = 0, blocked = 0, ck_undone = 0;
  std::uint64_t queue_ops = 0;
  std::uint64_t demotions = 0, promotions = 0, pins = 0, optimistic = 0;
  std::size_t peak = 0, total_hist = 0;
  for (const LpStats& lp : st.per_lp) {
    committed += lp.events_committed;
    rollbacks += lp.rollbacks;
    undone += lp.events_undone;
    anti += lp.anti_messages_sent;
    annihilations += lp.annihilations;
    lazy_reuse += lp.lazy_reuses;
    lazy_cancel += lp.lazy_cancels;
    saves += lp.state_saves;
    switches += lp.mode_switches;
    blocked += lp.blocked_polls;
    ck_undone += lp.checkpoint_undone;
    queue_ops += lp.queue_ops;
    demotions += lp.adapt_demotions;
    promotions += lp.adapt_promotions;
    pins += lp.adapt_pins;
    optimistic += lp.final_optimistic;
    if (lp.max_history > peak) peak = lp.max_history;
    total_hist += lp.max_history;
  }
  s.inc(Metric::kEventsCommitted, committed);
  s.inc(Metric::kRollbacks, rollbacks);
  s.inc(Metric::kEventsUndone, undone);
  s.inc(Metric::kAntiMessages, anti);
  s.inc(Metric::kAnnihilations, annihilations);
  s.inc(Metric::kLazyReuses, lazy_reuse);
  s.inc(Metric::kLazyCancels, lazy_cancel);
  s.inc(Metric::kStateSaves, saves);
  s.inc(Metric::kModeSwitches, switches);
  s.inc(Metric::kBlockedPolls, blocked);
  s.inc(Metric::kCheckpointUndone, ck_undone);
  s.inc(Metric::kQueueOps, queue_ops);
  s.inc(Metric::kAdaptDemotions, demotions);
  s.inc(Metric::kAdaptPromotions, promotions);
  s.inc(Metric::kAdaptPins, pins);
  if (!st.per_lp.empty()) {
    s.gauge_max(Gauge::kAdaptOptimisticFraction,
                static_cast<double>(optimistic) /
                    static_cast<double>(st.per_lp.size()));
  }
  s.gauge_max(Gauge::kPeakHistory, static_cast<double>(peak));
  s.gauge_max(Gauge::kTotalHistory, static_cast<double>(total_hist));
  s.gauge_max(Gauge::kMakespan, st.makespan);
  s.gauge_max(Gauge::kFtOverhead, st.checkpoint.overhead_cost);

  const TransportCounters& t = st.transport;
  s.inc(Metric::kTransportDataSent, t.data_sent);
  s.inc(Metric::kTransportAcksSent, t.acks_sent);
  s.inc(Metric::kTransportDelivered, t.delivered);
  s.inc(Metric::kTransportDropped, t.dropped);
  s.inc(Metric::kTransportDuplicated, t.duplicated);
  s.inc(Metric::kTransportReordered, t.reordered);
  s.inc(Metric::kTransportRetransmits, t.retransmits);
  s.inc(Metric::kTransportDupDiscarded, t.dup_discarded);
  s.inc(Metric::kTransportBuffered, t.buffered);

  const CheckpointStats& c = st.checkpoint;
  s.inc(Metric::kCheckpoints, c.checkpoints);
  s.inc(Metric::kCrashes, c.crashes);
  s.inc(Metric::kRecoveries, c.recoveries);
  s.inc(Metric::kLpsRestored, c.lps_restored);
  s.inc(Metric::kCheckpointDiskBytes, c.disk_bytes);

  // Work accounted outside any engine run (elaboration-time codegen): fold
  // the process-global totals so RunStats.metrics reports them too.  These
  // are cumulative per process, not per run.
  const obs::MetricsSnapshot g = obs::process_metrics();
  for (std::size_t i = 0; i < g.counters.size(); ++i) {
    if (g.counters[i]) s.inc(static_cast<Metric>(i), g.counters[i]);
  }
  for (std::size_t i = 0; i < g.gauges.size(); ++i) {
    if (g.gauges[i] > 0) s.gauge_max(static_cast<Gauge>(i), g.gauges[i]);
  }
}

}  // namespace vsim::pdes
