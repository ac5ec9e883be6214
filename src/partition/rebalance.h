// Dynamic load balancing: LP migration planning at GVT rounds.
//
// The paper's static equal-count placement leaves workers idle whenever the
// circuit's activity is unevenly distributed ("Remarks", Sec. 3.4: the
// speedup curves flatten exactly where placement is the bottleneck).  This
// module closes the loop the observability layer opened: the engines already
// know, per LP, how many events were committed and how many were rolled
// back; at a configurable cadence of GVT rounds the round coordinator feeds
// those counters in here and gets back a bounded, deterministic list of LP
// migrations.
//
// The planner is pure (no engine state): engines own the execution side --
// packing LP state with the checkpoint codec and retargeting routing --
// which is safe precisely at a GVT round, where the network has been drained
// to quiescence and every worker is parked at a barrier (see DESIGN.md,
// "Dynamic load balancing").
//
// Algorithm: greedy diffusion with hysteresis.  Score each alive worker's
// load as the sum of its LPs' work (committed events + kRollbackWeight x
// undone events); do nothing while (max - min) / avg is below the
// imbalance_trigger.  Otherwise repeatedly move one LP from the most loaded
// to the least loaded worker: the LP whose work is closest to half the load
// gap, with a cut-size tie-break so near-equal candidates prefer keeping
// channel neighbours together.  At most max_moves LPs move per round, and
// every move strictly shrinks the src/dst gap, so placement cannot thrash.
//
// The same machinery serves crash recovery: redistribute_orphans() deals a
// dead worker's LPs to the survivors with load- and cut-aware placement.
//
// On a clustered graph (pdes/cluster.h) the migration unit is a whole
// ClusterLp: the planner sees one work score per cluster and a move packs
// the cluster's inners through the checkpoint codec in one shot -- coarser,
// cheaper migrations, and the plan size stays bounded by clusters rather
// than flat LPs.
#pragma once

#include <vector>

#include "pdes/config.h"
#include "pdes/graph.h"
#include "pdes/machine.h"  // Partition

namespace vsim::partition {

/// A candidate move must shave at least this fraction of the src/dst load
/// gap, or it is not worth the migration cost.
inline constexpr double kMinGain = 0.05;
/// Weight of undone (rolled-back) events in the per-LP work score;
/// committed work counts 1.0 per event.
inline constexpr double kRollbackWeight = 0.5;
/// Tie-break weight of the cut-size delta a move would cause: among
/// near-equal load moves, prefer the one that cuts fewer channels.
inline constexpr double kCutWeight = 0.1;

/// One planned migration: move `lp` from worker `from` to worker `to`.
struct Migration {
  pdes::LpId lp = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

/// Output of plan_rebalance(): the moves plus the imbalance score before and
/// after (as predicted from the work model; `lb.imbalance` gauges the
/// before value).
struct RebalancePlan {
  double imbalance_before = 0.0;
  double imbalance_after = 0.0;
  std::vector<Migration> moves;
  [[nodiscard]] bool empty() const { return moves.empty(); }
};

/// Relative load spread (max - min) / avg over alive workers; 0 when fewer
/// than two workers are alive or no work has been recorded.
[[nodiscard]] double imbalance(const std::vector<double>& load,
                               const std::vector<bool>& alive);

/// Plans a bounded set of migrations (possibly none).  `lp_work` is the
/// per-LP work score for the window being balanced over; `alive[w]` == false
/// excludes worker w as both source and destination.  Deterministic: equal
/// scores break towards the lowest worker / LP id.
[[nodiscard]] RebalancePlan plan_rebalance(const pdes::LpGraph& graph,
                                           const pdes::Partition& part,
                                           const std::vector<double>& lp_work,
                                           const std::vector<bool>& alive,
                                           const pdes::RebalanceConfig& cfg);

/// Reassigns every LP currently mapped to a dead worker (alive[part[lp]] ==
/// false) to the survivor with the least projected load, with the same
/// cut-aware tie-break as the planner.  Shared by the engines' recovery
/// path.  Orphans with no recorded work still spread evenly (each
/// counts at least one work unit).
void redistribute_orphans(const pdes::LpGraph& graph, pdes::Partition& part,
                          const std::vector<double>& lp_work,
                          const std::vector<bool>& alive);

}  // namespace vsim::partition
