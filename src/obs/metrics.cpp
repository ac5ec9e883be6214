#include "obs/metrics.h"

#include <cmath>
#include <mutex>

namespace vsim::obs {

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kEventsProcessed: return "engine.events_processed";
    case Metric::kEventsCommitted: return "engine.events_committed";
    case Metric::kGvtRounds: return "engine.gvt_rounds";
    case Metric::kGvtScanItems: return "engine.gvt_scan_items";
    case Metric::kBlockedPolls: return "engine.blocked_polls";
    case Metric::kQueueOps: return "engine.queue_ops";
    case Metric::kRollbacks: return "tw.rollbacks";
    case Metric::kEventsUndone: return "tw.events_undone";
    case Metric::kAntiMessages: return "tw.anti_messages";
    case Metric::kAnnihilations: return "tw.annihilations";
    case Metric::kLazyReuses: return "tw.lazy_reuses";
    case Metric::kLazyCancels: return "tw.lazy_cancels";
    case Metric::kStateSaves: return "tw.state_saves";
    case Metric::kModeSwitches: return "tw.mode_switches";
    case Metric::kMessagesLocal: return "net.messages_local";
    case Metric::kMessagesRemote: return "net.messages_remote";
    case Metric::kNullMessages: return "net.null_messages";
    case Metric::kMailboxBatches: return "net.mailbox_batches";
    case Metric::kTransportDataSent: return "transport.data_sent";
    case Metric::kTransportAcksSent: return "transport.acks_sent";
    case Metric::kTransportDelivered: return "transport.delivered";
    case Metric::kTransportDropped: return "transport.dropped";
    case Metric::kTransportDuplicated: return "transport.duplicated";
    case Metric::kTransportReordered: return "transport.reordered";
    case Metric::kTransportRetransmits: return "transport.retransmits";
    case Metric::kTransportDupDiscarded: return "transport.dup_discarded";
    case Metric::kTransportBuffered: return "transport.buffered";
    case Metric::kCheckpoints: return "ckpt.checkpoints";
    case Metric::kCheckpointUndone: return "ckpt.events_undone";
    case Metric::kCrashes: return "ckpt.crashes";
    case Metric::kRecoveries: return "ckpt.recoveries";
    case Metric::kLpsRestored: return "ckpt.lps_restored";
    case Metric::kCheckpointDiskBytes: return "ckpt.disk_bytes";
    case Metric::kMigrations: return "engine.migrations";
    case Metric::kRebalanceRounds: return "engine.rebalance_rounds";
    case Metric::kNetFramesSent: return "net.frames_sent";
    case Metric::kNetFramesRecv: return "net.frames_recv";
    case Metric::kNetHeartbeats: return "net.heartbeats";
    case Metric::kNetDisconnects: return "net.disconnects";
    case Metric::kNetCrcErrors: return "net.crc_errors";
    case Metric::kNativeBodies: return "frontend.native_bodies";
    case Metric::kCodegenCacheHits: return "frontend.codegen_cache_hits";
    case Metric::kCodegenCompiles: return "frontend.codegen_compiles";
    case Metric::kInterpFallbacks: return "frontend.interp_fallbacks";
    case Metric::kAdaptDemotions: return "adapt.demotions";
    case Metric::kAdaptPromotions: return "adapt.promotions";
    case Metric::kAdaptPins: return "adapt.pinned";
    case Metric::kAdaptDeferrals: return "adapt.deferrals";
    case Metric::kRoundLpVisits: return "engine.round_lp_visits";
    case Metric::kRoundBarriers: return "engine.round_barriers";
    case Metric::kCutEvents: return "engine.cut_events";
    case Metric::kStopRounds: return "engine.stop_rounds";
    case Metric::kCount: break;
  }
  return "unknown";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kPeakHistory: return "tw.peak_history";
    case Gauge::kTotalHistory: return "tw.total_history";
    case Gauge::kMakespan: return "engine.makespan";
    case Gauge::kFtOverhead: return "ckpt.overhead_cost";
    case Gauge::kLbImbalance: return "lb.imbalance";
    case Gauge::kCodegenCompileMs: return "frontend.codegen_compile_ms";
    case Gauge::kAdaptOptimisticFraction: return "adapt.optimistic_fraction";
    case Gauge::kCount: break;
  }
  return "unknown";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kRollbackDepth: return "tw.rollback_depth";
    case Hist::kBatchSize: return "net.batch_size";
    case Hist::kCount: break;
  }
  return "unknown";
}

void Histogram::observe(double v) {
  if (v < 0) v = 0;
  std::size_t b = 0;
  // bucket i covers [2^(i-1), 2^i); bucket 0 covers [0, 1).
  while (b + 1 < kBuckets && v >= static_cast<double>(1ULL << b)) ++b;
  ++buckets[b];
  ++count;
  sum += v;
  if (v > max) max = v;
}

Histogram& Histogram::operator+=(const Histogram& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += o.buckets[i];
  count += o.count;
  sum += o.sum;
  if (o.max > max) max = o.max;
  return *this;
}

Json Histogram::to_json() const {
  JsonObject o;
  o.emplace_back("count", Json(count));
  o.emplace_back("sum", Json(sum));
  o.emplace_back("max", Json(max));
  // Sparse bucket map keyed by the bucket's exclusive upper bound.
  JsonObject bk;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double hi = static_cast<double>(1ULL << i);
    bk.emplace_back("lt_" + std::to_string(static_cast<long long>(hi)),
                    Json(buckets[i]));
  }
  o.emplace_back("buckets", Json(std::move(bk)));
  return Json(std::move(o));
}

Json MetricsSnapshot::to_json() const {
  JsonObject o;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    o.emplace_back(metric_name(static_cast<Metric>(i)), Json(counters[i]));
  }
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    o.emplace_back(gauge_name(static_cast<Gauge>(i)), Json(gauges[i]));
  }
  for (std::size_t i = 0; i < hists.size(); ++i) {
    o.emplace_back(hist_name(static_cast<Hist>(i)), hists[i].to_json());
  }
  return Json(std::move(o));
}

void encode_snapshot(vsim::bytes::Writer& w, const MetricsSnapshot& s) {
  w.u32(static_cast<std::uint32_t>(s.counters.size()));
  for (std::uint64_t c : s.counters) w.u64(c);
  w.u32(static_cast<std::uint32_t>(s.gauges.size()));
  for (double g : s.gauges) w.f64(g);
  w.u32(static_cast<std::uint32_t>(s.hists.size()));
  for (const Histogram& h : s.hists) {
    w.u64(h.count);
    w.f64(h.sum);
    w.f64(h.max);
    for (std::uint64_t b : h.buckets) w.u64(b);
  }
}

bool decode_snapshot(vsim::bytes::Reader& r, MetricsSnapshot* out) {
  MetricsSnapshot s;
  if (r.u32() != s.counters.size()) return false;
  for (std::uint64_t& c : s.counters) c = r.u64();
  if (r.u32() != s.gauges.size()) return false;
  for (double& g : s.gauges) g = r.f64();
  if (r.u32() != s.hists.size()) return false;
  for (Histogram& h : s.hists) {
    h.count = r.u64();
    h.sum = r.f64();
    h.max = r.f64();
    for (std::uint64_t& b : h.buckets) b = r.u64();
  }
  if (!r.ok()) return false;
  *out = s;
  return true;
}

void merge_snapshot(MetricsSnapshot& into, const MetricsSnapshot& from) {
  for (std::size_t i = 0; i < into.counters.size(); ++i)
    into.counters[i] += from.counters[i];
  for (std::size_t i = 0; i < into.gauges.size(); ++i)
    if (from.gauges[i] > into.gauges[i]) into.gauges[i] = from.gauges[i];
  for (std::size_t i = 0; i < into.hists.size(); ++i)
    into.hists[i] += from.hists[i];
}

namespace {
struct ProcessGlobals {
  std::mutex mu;
  MetricsSnapshot totals;
};
ProcessGlobals& process_globals() {
  static ProcessGlobals g;
  return g;
}
}  // namespace

void process_counter_add(Metric m, std::uint64_t delta) {
  ProcessGlobals& g = process_globals();
  std::lock_guard<std::mutex> lock(g.mu);
  g.totals.counters[static_cast<std::size_t>(m)] += delta;
}

void process_gauge_max(Gauge gg, double v) {
  ProcessGlobals& g = process_globals();
  std::lock_guard<std::mutex> lock(g.mu);
  double& slot = g.totals.gauges[static_cast<std::size_t>(gg)];
  if (v > slot) slot = v;
}

MetricsSnapshot process_metrics() {
  ProcessGlobals& g = process_globals();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.totals;
}

void MetricsRegistry::merge() {
  MetricsSnapshot out;
  for (const MetricsShard& s : shards_) {
    for (std::size_t i = 0; i < out.counters.size(); ++i) {
      out.counters[i] += s.counters_[i];
    }
    for (std::size_t i = 0; i < out.gauges.size(); ++i) {
      if (s.gauges_[i] > out.gauges[i]) out.gauges[i] = s.gauges_[i];
    }
    for (std::size_t i = 0; i < out.hists.size(); ++i) {
      out.hists[i] += s.hists_[i];
    }
  }
  merged_ = out;
}

}  // namespace vsim::obs
