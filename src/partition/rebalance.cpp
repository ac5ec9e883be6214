#include "partition/rebalance.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vsim::partition {

namespace {

/// Deduplicated undirected neighbours of `u` (both channel directions, each
/// neighbour once, self-loops removed) -- the same pair semantics as
/// cut_size().
void undirected_neighbours(const pdes::LpGraph& graph, pdes::LpId u,
                           std::vector<pdes::LpId>& out) {
  out.clear();
  for (pdes::LpId v : graph.fan_out(u))
    if (v != u) out.push_back(v);
  for (pdes::LpId v : graph.fan_in(u))
    if (v != u) out.push_back(v);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// Net change in cut size if `lp` moved from `src` to `dst`: channels to
/// src-mates become cut, channels to dst-mates become internal, channels to
/// third workers are unaffected.
double cut_delta(const pdes::LpGraph& graph, const pdes::Partition& part,
                 pdes::LpId lp, std::uint32_t src, std::uint32_t dst,
                 std::vector<pdes::LpId>& scratch) {
  undirected_neighbours(graph, lp, scratch);
  double delta = 0.0;
  for (pdes::LpId v : scratch) {
    if (part[v] == src) delta += 1.0;
    if (part[v] == dst) delta -= 1.0;
  }
  return delta;
}

struct Loads {
  std::vector<double> load;
  std::size_t n_alive = 0;
};

Loads worker_loads(const pdes::Partition& part,
                   const std::vector<double>& lp_work,
                   const std::vector<bool>& alive) {
  Loads l;
  l.load.assign(alive.size(), 0.0);
  for (std::size_t lp = 0; lp < part.size(); ++lp) {
    const std::uint32_t w = part[lp];
    if (w < alive.size() && alive[w]) l.load[w] += lp_work[lp];
  }
  for (bool a : alive)
    if (a) ++l.n_alive;
  return l;
}

}  // namespace

double imbalance(const std::vector<double>& load,
                 const std::vector<bool>& alive) {
  double lo = std::numeric_limits<double>::max();
  double hi = 0.0;
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t w = 0; w < load.size(); ++w) {
    if (w < alive.size() && !alive[w]) continue;
    lo = std::min(lo, load[w]);
    hi = std::max(hi, load[w]);
    sum += load[w];
    ++n;
  }
  if (n < 2 || sum <= 0.0) return 0.0;
  return (hi - lo) / (sum / static_cast<double>(n));
}

RebalancePlan plan_rebalance(const pdes::LpGraph& graph,
                             const pdes::Partition& part,
                             const std::vector<double>& lp_work,
                             const std::vector<bool>& alive,
                             const pdes::RebalanceConfig& cfg) {
  RebalancePlan plan;
  Loads l = worker_loads(part, lp_work, alive);
  plan.imbalance_before = imbalance(l.load, alive);
  plan.imbalance_after = plan.imbalance_before;
  if (l.n_alive < 2) return plan;
  // Hysteresis: a placement within tolerance is left alone, so repeated
  // rounds over a balanced load never oscillate.
  if (plan.imbalance_before < cfg.imbalance_trigger) return plan;

  // Work on a copy of the mapping so cut deltas see earlier moves.
  pdes::Partition cur = part;
  std::vector<std::size_t> owned_count(alive.size(), 0);
  for (std::uint32_t w : cur)
    if (w < owned_count.size()) ++owned_count[w];
  // Scale for the cut tie-break: one crossing channel is worth a fraction
  // of the mean per-LP work, keeping the two terms comparable across
  // workload sizes.
  double total = 0.0;
  for (double v : lp_work) total += v;
  const double unit =
      part.empty() ? 1.0 : std::max(total / static_cast<double>(part.size()),
                                    1e-9);

  std::vector<pdes::LpId> scratch;
  for (std::uint32_t m = 0; m < cfg.max_moves; ++m) {
    // Most and least loaded alive workers (ties -> lowest id).
    std::size_t src = alive.size(), dst = alive.size();
    for (std::size_t w = 0; w < alive.size(); ++w) {
      if (!alive[w]) continue;
      if (src == alive.size() || l.load[w] > l.load[src]) src = w;
      if (dst == alive.size() || l.load[w] < l.load[dst]) dst = w;
    }
    const double gap = l.load[src] - l.load[dst];
    if (src == dst || gap <= 0.0) break;
    if (owned_count[src] < 2) break;  // moving the last LP only swaps roles

    // Candidate: the src-owned LP whose work is closest to half the gap
    // (any work strictly below the gap shrinks it), cut-aware tie-break.
    const double target = gap / 2.0;
    pdes::LpId best = pdes::kInvalidLp;
    double best_score = std::numeric_limits<double>::max();
    for (pdes::LpId lp = 0; lp < cur.size(); ++lp) {
      if (cur[lp] != src) continue;
      const double w = lp_work[lp];
      if (w >= gap) continue;  // would overshoot: inverts the imbalance
      if (w < kMinGain * gap) continue;  // not worth a migration
      const double score =
          std::abs(w - target) +
          kCutWeight * unit *
              cut_delta(graph, cur, lp, static_cast<std::uint32_t>(src),
                        static_cast<std::uint32_t>(dst), scratch);
      if (score < best_score) {
        best_score = score;
        best = lp;
      }
    }
    if (best == pdes::kInvalidLp) break;

    plan.moves.push_back({best, static_cast<std::uint32_t>(src),
                          static_cast<std::uint32_t>(dst)});
    cur[best] = static_cast<std::uint32_t>(dst);
    l.load[src] -= lp_work[best];
    l.load[dst] += lp_work[best];
    --owned_count[src];
    ++owned_count[dst];
  }
  plan.imbalance_after = imbalance(l.load, alive);
  return plan;
}

void redistribute_orphans(const pdes::LpGraph& graph, pdes::Partition& part,
                          const std::vector<double>& lp_work,
                          const std::vector<bool>& alive) {
  Loads l = worker_loads(part, lp_work, alive);
  if (l.n_alive == 0) return;
  double total = 0.0;
  for (double v : lp_work) total += v;
  const double unit =
      part.empty() ? 1.0 : std::max(total / static_cast<double>(part.size()),
                                    1e-9);
  std::vector<pdes::LpId> scratch;
  for (pdes::LpId lp = 0; lp < part.size(); ++lp) {
    const std::uint32_t owner = part[lp];
    if (owner < alive.size() && alive[owner]) continue;
    // The +1 keeps zero-work orphans (a crash before any stats) spreading
    // by count instead of all landing on the first survivor.
    const double w = (lp < lp_work.size() ? lp_work[lp] : 0.0) + 1.0;
    undirected_neighbours(graph, lp, scratch);
    std::size_t best = alive.size();
    double best_score = std::numeric_limits<double>::max();
    for (std::size_t s = 0; s < alive.size(); ++s) {
      if (!alive[s]) continue;
      double affinity = 0.0;
      for (pdes::LpId v : scratch)
        if (part[v] == s) affinity += 1.0;
      const double score =
          l.load[s] + w - kCutWeight * unit * affinity;
      if (score < best_score) {
        best_score = score;
        best = s;
      }
    }
    part[lp] = static_cast<std::uint32_t>(best);
    l.load[best] += w;
  }
}

}  // namespace vsim::partition
