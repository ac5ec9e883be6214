// Seed sweep of the multi-process distributed engine against the sequential
// oracle.  Ordinary GVT rounds are asynchronous cuts: ranks keep executing
// while a cut is open, so every run here checks that the committed trace is
// still bit-identical to the oracle's under all three configurations the
// cut must serve -- self-adaptive (kDynamic), all-optimistic (rollbacks and
// anti-messages cross open cuts) and all-conservative (safety comes only
// from the GVT the cuts deliver) -- and that without fault tolerance no
// round ever stopped the world.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>

#include "circuits/iir.h"
#include "circuits/random_circuit.h"
#include "obs/metrics.h"
#include "partition/partition.h"
#include "pdes/distributed.h"
#include "pdes/sequential.h"
#include "vhdl/monitor.h"
#include "watchdog.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VSIM_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define VSIM_TSAN 1
#endif

namespace vsim {
namespace {

using pdes::Configuration;
using pdes::RunConfig;
using pdes::RunStats;
using vhdl::TraceRecorder;

struct Built {
  std::unique_ptr<pdes::LpGraph> graph;
  std::unique_ptr<vhdl::Design> design;
  std::unique_ptr<TraceRecorder> recorder;
};

struct Workload {
  std::string name;
  Built (*build)(std::uint64_t seed);
  std::uint64_t seed;
  PhysTime until;
};

Built build_random(std::uint64_t seed) {
  circuits::RandomCircuitParams p;
  p.seed = seed;
  // Vary structure with the seed, as the fuzz suite does.
  p.num_gates = 20 + (seed * 13) % 40;
  p.num_dffs = 4 + (seed * 7) % 8;
  p.zero_delay_pct = static_cast<int>((seed * 29) % 100);
  Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  const auto c = circuits::build_random_circuit(*b.design, p);
  b.recorder = std::make_unique<TraceRecorder>(*b.design, c.observable);
  b.design->finalize();
  return b;
}

Built build_iir(std::uint64_t seed) {
  circuits::IirParams p;
  p.width = 4;
  p.sections = 2;
  p.clock_half = 60;
  p.input_stop = 2000;
  p.input_seed = seed;
  Built b;
  b.graph = std::make_unique<pdes::LpGraph>();
  b.design = std::make_unique<vhdl::Design>(*b.graph);
  const auto c = circuits::build_iir(*b.design, p);
  b.recorder = std::make_unique<TraceRecorder>(*b.design, c.output);
  b.design->finalize();
  return b;
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    w.push_back({"random seed " + std::to_string(seed), &build_random, seed,
                 400});
  w.push_back({"iir", &build_iir, 7, 1500});
  return w;
}

TEST(DistributedSweep, CutsMatchOracleUnderEveryConfiguration) {
#ifdef VSIM_TSAN
  GTEST_SKIP() << "fork-based engine under TSan";
#endif
  const Configuration configs[] = {Configuration::kDynamic,
                                   Configuration::kAllOptimistic,
                                   Configuration::kAllConservative};
  std::uint64_t cut_events = 0;
  for (const Workload& w : workloads()) {
    Built ref = w.build(w.seed);
    pdes::SequentialEngine seq(*ref.graph);
    seq.set_commit_hook(ref.recorder->hook());
    seq.run(w.until);
    for (const Configuration c : configs) {
      const std::string label = w.name + " / " + pdes::to_string(c);
      Built par = w.build(w.seed);
      RunConfig rc;
      rc.num_workers = 4;
      rc.configuration = c;
      rc.until = w.until;
      rc.gvt_interval = 24;  // many rounds on small circuits
      pdes::DistributedEngine eng(
          *par.graph, partition::round_robin(par.graph->size(), 4), rc);
      const std::string wd_label = "DistributedSweep " + label;
      testutil::Watchdog wd(
          wd_label.c_str(),
          std::chrono::seconds(static_cast<long>(120 * pdes::time_scale())),
          [&eng](std::FILE* f) { eng.debug_dump(f); });
      eng.set_commit_hook(par.recorder->hook());
      const RunStats st = eng.run();
      ASSERT_FALSE(st.config_error.has_value()) << label;
      EXPECT_FALSE(st.deadlocked) << label;
      EXPECT_FALSE(st.transport_error.has_value()) << label;
      EXPECT_FALSE(st.recovery_error.has_value()) << label;
      EXPECT_EQ(TraceRecorder::diff(*ref.recorder, *par.recorder), "")
          << label;
      EXPECT_GT(st.gvt_rounds, 0u) << label;
      EXPECT_EQ(st.metrics.counter(obs::Metric::kStopRounds), 0u) << label;
      cut_events += st.metrics.counter(obs::Metric::kCutEvents);
    }
  }
  // Across the sweep, ranks executed while cuts were open.
  EXPECT_GT(cut_events, 0u);
}

}  // namespace
}  // namespace vsim
