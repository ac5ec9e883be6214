// ReadyQueue (pdes/ready_queue.h): a randomized differential test against a
// reference (key, lp) selection scan -- the scheduler the threaded and
// distributed engines ran before the queue -- covering updates, parking,
// re-arm, fossil holds, migration removes and a rebuild after recovery,
// plus the blocked-poll credit arithmetic and the fossil heap's due rule.
// The `sched` label also runs a threaded P=1 and a machine-model P=16
// netlist that pin the round sweep to activity, not LP count.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "circuits/random_circuit.h"
#include "partition/partition.h"
#include "pdes/machine.h"
#include "pdes/ready_queue.h"
#include "pdes/sequential.h"
#include "pdes/threaded.h"
#include "vhdl/monitor.h"
#include "watchdog.h"

namespace vsim::pdes {
namespace {

/// What the queue should hold, kept the way the old engines kept it: a key
/// per LP and a linear scan for the minimum.
struct Reference {
  struct Lp {
    bool member = false;
    VirtualTime key = kTimeInf;
    bool parked = false;
    std::uint64_t since = 0;  ///< pass count at park / last credit
    bool dirty = false;
    VirtualTime held = kTimeInf;  ///< fossil-heap key; kTimeInf: not held
  };
  std::vector<Lp> lps;
  std::uint64_t passes = 0;

  explicit Reference(std::size_t n) : lps(n) {}

  /// Minimal (key, lp) among unparked members with a finite key.
  [[nodiscard]] std::optional<LpId> scan() const {
    std::optional<LpId> best;
    for (LpId id = 0; id < lps.size(); ++id) {
      const Lp& l = lps[id];
      if (!l.member || l.parked || l.key == kTimeInf) continue;
      if (!best || l.key < lps[*best].key) best = id;
    }
    return best;
  }
  [[nodiscard]] VirtualTime min_key() const {
    VirtualTime m = kTimeInf;
    for (const Lp& l : lps)
      if (l.member) m = std::min(m, l.key);
    return m;
  }
  std::uint64_t credit(LpId lp) {
    Lp& l = lps[lp];
    if (!l.parked) return 0;
    const std::uint64_t n = passes - l.since;
    l.since = passes;
    return n;
  }
};

VirtualTime random_key(std::mt19937_64& rng) {
  if (rng() % 5 == 0) return kTimeInf;
  // Few distinct times so (key, lp) ties are common.
  return VirtualTime{static_cast<PhysTime>(rng() % 8),
                     static_cast<LogicalTime>(rng() % 3)};
}

void expect_same(const ReadyQueue& q, const Reference& ref) {
  std::size_t members = 0;
  std::size_t parked = 0;
  std::size_t held = 0;
  for (LpId id = 0; id < ref.lps.size(); ++id) {
    ASSERT_EQ(q.contains(id), ref.lps[id].member) << "lp " << id;
    ASSERT_EQ(q.parked(id), ref.lps[id].member && ref.lps[id].parked)
        << "lp " << id;
    ASSERT_EQ(q.held(id), ref.lps[id].held != kTimeInf) << "lp " << id;
    members += ref.lps[id].member ? 1 : 0;
    parked += ref.lps[id].member && ref.lps[id].parked ? 1 : 0;
    held += ref.lps[id].held != kTimeInf ? 1 : 0;
  }
  ASSERT_EQ(q.size(), members);
  ASSERT_EQ(q.parked_count(), parked);
  ASSERT_EQ(q.held_count(), held);
  ASSERT_EQ(q.min_key(), ref.min_key());
  const std::optional<LpId> want = ref.scan();
  ASSERT_EQ(q.empty(), !want.has_value());
  if (want) {
    ASSERT_EQ(q.top(), *want);
    ASSERT_EQ(q.top_key(), ref.lps[*want].key);
  }
}

TEST(ReadyQueue, MatchesReferenceScanUnderRandomOperations) {
  constexpr std::size_t kLps = 40;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    std::mt19937_64 rng(seed);
    ReadyQueue q(kLps);
    Reference ref(kLps);
    std::vector<LpId> sweep;
    for (int step = 0; step < 2000; ++step) {
      const LpId lp = static_cast<LpId>(rng() % kLps);
      Reference::Lp& r = ref.lps[lp];
      switch (rng() % 8) {
        case 0:  // join: seeding or migration in
          if (r.member) break;
          r = Reference::Lp{true, random_key(rng), false, 0, true, kTimeInf};
          q.add(lp, r.key);
          break;
        case 1:  // leave: migration out, credit first as the engines do
          if (!r.member) break;
          ASSERT_EQ(q.take_credit(lp), ref.credit(lp));
          q.remove(lp);
          r.member = false;
          r.parked = false;
          r.held = kTimeInf;
          break;
        case 2:  // delivery: credit, then re-key (unparks)
          if (!r.member) break;
          ASSERT_EQ(q.take_credit(lp), ref.credit(lp));
          r.key = random_key(rng);
          r.parked = false;
          r.dirty = true;
          q.update(lp, r.key);
          break;
        case 3:
        case 4: {  // one selection pass: park blocked LPs, process one
          q.begin_pass();
          ++ref.passes;
          for (;;) {
            const std::optional<LpId> want = ref.scan();
            ASSERT_EQ(q.empty(), !want.has_value());
            if (!want) break;
            ASSERT_EQ(q.top(), *want);
            Reference::Lp& t = ref.lps[*want];
            if (rng() % 2 == 0) {
              q.park_top();
              t.parked = true;
              t.since = ref.passes;
              t.dirty = true;
              continue;
            }
            t.key = random_key(rng);
            t.dirty = true;
            q.update(*want, t.key);
            break;
          }
          break;
        }
        case 5: {  // GVT round: credit, sweep the dirty set, re-arm
          std::map<LpId, std::uint64_t> got;
          q.settle_credits([&](LpId id, std::uint64_t n) { got[id] = n; });
          std::map<LpId, std::uint64_t> want;
          for (LpId id = 0; id < kLps; ++id) {
            if (!ref.lps[id].member) continue;
            if (const std::uint64_t n = ref.credit(id)) want[id] = n;
          }
          ASSERT_EQ(got, want);
          ASSERT_EQ(q.min_key(), ref.min_key());
          // Held LPs whose oldest history fell below GVT join the round.
          const VirtualTime gvt = random_key(rng);
          q.take_due(gvt);
          for (auto& l : ref.lps) {
            if (!(l.held < gvt)) continue;
            l.dirty = true;
            l.held = kTimeInf;
          }
          q.take_dirty(sweep);
          std::vector<LpId> dirty;
          for (LpId id = 0; id < kLps; ++id) {
            if (ref.lps[id].member && ref.lps[id].dirty) dirty.push_back(id);
            ref.lps[id].dirty = false;
          }
          ASSERT_EQ(sweep, dirty);
          for (const LpId id : sweep) {
            // A stall streak or a deferral re-touches; history is held
            // (kTimeInf: none left, which releases).
            if (rng() % 4 == 0) {
              q.touch(id);
              ref.lps[id].dirty = true;
            }
            const VirtualTime oldest = random_key(rng);
            q.hold(id, oldest);
            ref.lps[id].held = oldest;
          }
          q.rearm();
          for (auto& l : ref.lps) l.parked = false;
          break;
        }
        case 6:  // rebuild after recovery: every member re-added
          if (rng() % 8 != 0) break;
          q.reset(kLps);
          for (LpId id = 0; id < kLps; ++id) {
            Reference::Lp& l = ref.lps[id];
            l.parked = false;
            l.dirty = l.member;
            l.held = kTimeInf;
            if (l.member) q.add(id, l.key);
          }
          break;
        case 7:  // an out-of-band credit read
          ASSERT_EQ(q.take_credit(lp), ref.credit(lp));
          break;
      }
      expect_same(q, ref);
      if (testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "seed " << seed << " step " << step;
        return;
      }
    }
  }
}

TEST(ReadyQueue, BlockedPollCreditCountsPassesSatParked) {
  ReadyQueue q(4);
  q.add(0, VirtualTime{1, 0});
  q.add(1, VirtualTime{2, 0});
  q.begin_pass();  // pass 1 polls LP 0 and parks it
  q.park_top();
  EXPECT_EQ(q.top(), 1u);
  q.begin_pass();
  q.begin_pass();
  EXPECT_EQ(q.take_credit(0), 2u);  // passes 2 and 3
  EXPECT_EQ(q.take_credit(0), 0u);  // already charged
  EXPECT_EQ(q.take_credit(1), 0u);  // never parked
  q.begin_pass();
  std::uint64_t settled = 0;
  q.settle_credits([&](LpId lp, std::uint64_t n) {
    EXPECT_EQ(lp, 0u);
    settled += n;
  });
  EXPECT_EQ(settled, 1u);
  // A delivery unparks the LP; it earns nothing more.
  q.update(0, VirtualTime{1, 1});
  EXPECT_FALSE(q.parked(0));
  q.begin_pass();
  EXPECT_EQ(q.take_credit(0), 0u);
  EXPECT_EQ(q.top(), 0u);
  EXPECT_EQ(q.top_key(), (VirtualTime{1, 1}));
}

TEST(ReadyQueue, InfiniteKeysStayOutOfTheHeapButInTheDirtySet) {
  ReadyQueue q(3);
  q.add(2, kTimeInf);
  q.add(0, VirtualTime{5, 0});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.top(), 0u);
  q.update(0, kTimeInf);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.min_key(), kTimeInf);
  std::vector<LpId> sweep;
  q.take_dirty(sweep);
  EXPECT_EQ(sweep, (std::vector<LpId>{0, 2}));
  q.take_dirty(sweep);
  EXPECT_TRUE(sweep.empty());
  q.remove(2);
  q.touch(0);
  q.take_dirty(sweep);
  EXPECT_EQ(sweep, (std::vector<LpId>{0}));
}

TEST(ReadyQueue, FossilHeapTouchesHeldMembersStrictlyBelowGvt) {
  ReadyQueue q(5);
  std::vector<LpId> sweep;
  for (LpId id = 0; id < 5; ++id) q.add(id, kTimeInf);
  q.take_dirty(sweep);
  q.hold(3, VirtualTime{2, 0});
  q.hold(1, VirtualTime{4, 1});
  q.hold(4, VirtualTime{4, 2});
  q.hold(0, VirtualTime{9, 0});
  q.hold(2, kTimeInf);  // no history: not held
  EXPECT_EQ(q.held_count(), 4u);
  EXPECT_FALSE(q.held(2));

  q.take_due(VirtualTime{4, 2});  // 3 and 1 are due; 4 sits at exactly GVT
  q.take_dirty(sweep);
  EXPECT_EQ(sweep, (std::vector<LpId>{1, 3}));
  EXPECT_FALSE(q.held(1));
  EXPECT_FALSE(q.held(3));
  EXPECT_TRUE(q.held(4));
  EXPECT_TRUE(q.held(0));

  q.take_due(VirtualTime{4, 2});  // nothing new is due at the same GVT
  q.take_dirty(sweep);
  EXPECT_TRUE(sweep.empty());

  q.take_due(kTimeInf);  // a stopping round commits everything
  q.take_dirty(sweep);
  EXPECT_EQ(sweep, (std::vector<LpId>{0, 4}));
  EXPECT_EQ(q.held_count(), 0u);
}

TEST(ReadyQueue, FossilHeapSkipsSupersededKeys) {
  ReadyQueue q(3);
  std::vector<LpId> sweep;
  q.add(0, VirtualTime{1, 0});
  q.add(1, VirtualTime{1, 0});
  q.take_dirty(sweep);
  q.hold(0, VirtualTime{2, 0});
  q.hold(0, VirtualTime{7, 0});  // fossil collection advanced its history
  q.hold(1, VirtualTime{8, 0});
  q.hold(1, VirtualTime{3, 0});  // a rollback and re-execution moved it down
  EXPECT_EQ(q.held_count(), 2u);
  q.take_due(VirtualTime{5, 0});
  q.take_dirty(sweep);
  EXPECT_EQ(sweep, (std::vector<LpId>{1}));
  EXPECT_TRUE(q.held(0));
  q.take_due(VirtualTime{7, 1});
  q.take_dirty(sweep);
  EXPECT_EQ(sweep, (std::vector<LpId>{0}));
}

TEST(ReadyQueue, RemovedAndResetMembersAreNeverDue) {
  ReadyQueue src(3);
  ReadyQueue dst(3);
  std::vector<LpId> sweep;
  src.add(0, VirtualTime{1, 0});
  src.add(1, VirtualTime{1, 0});
  src.take_dirty(sweep);
  src.hold(0, VirtualTime{2, 0});
  src.hold(1, VirtualTime{2, 0});
  // Migration: LP 1 leaves `src` (its capture undid the history) and
  // joins `dst` dirty, with nothing held.
  src.remove(1);
  dst.add(1, VirtualTime{1, 0});
  EXPECT_FALSE(src.held(1));
  EXPECT_EQ(src.held_count(), 1u);
  src.take_due(kTimeInf);
  src.take_dirty(sweep);
  EXPECT_EQ(sweep, (std::vector<LpId>{0}));
  dst.take_due(kTimeInf);
  dst.take_dirty(sweep);
  EXPECT_EQ(sweep, (std::vector<LpId>{1}));

  // Recovery: reset drops every hold; the rebuild's adds are the round set.
  src.hold(0, VirtualTime{3, 0});
  src.reset(3);
  EXPECT_EQ(src.held_count(), 0u);
  src.add(2, VirtualTime{1, 0});
  src.take_due(kTimeInf);
  src.take_dirty(sweep);
  EXPECT_EQ(sweep, (std::vector<LpId>{2}));
}

// A 10k-signal netlist (~20k LPs) with sparse activity.  A scheduler that
// walks every owned LP per round visits rounds x LPs, and one that revisits
// every LP holding history visits about that many too; the round sweep must
// cost what the run commits and processes -- at most three visits per
// processed event -- and the committed trace must still match the
// sequential oracle.  The threaded P=1 row holds all LPs on one worker; the
// machine P=16 row sweeps the union of 16 workers' dirty and due sets.
struct SchedRow {
  const char* name;
  bool machine;
  std::uint32_t workers;
};

class SchedScale : public testing::TestWithParam<SchedRow> {};

TEST_P(SchedScale, RoundWorkTracksActivity) {
  const SchedRow& row = GetParam();
  testutil::Watchdog wd("SchedScale.RoundWorkTracksActivity",
                        std::chrono::seconds(120));
  const circuits::RandomCircuitParams params =
      circuits::sized_random_params(10'000, 2);
  const PhysTime until = 40;
  struct Built {
    LpGraph graph;
    std::unique_ptr<vhdl::Design> design;
    std::unique_ptr<vhdl::TraceRecorder> recorder;
  };
  auto build = [&](Built& b) {
    b.design = std::make_unique<vhdl::Design>(b.graph);
    const auto c = circuits::build_random_circuit(*b.design, params);
    b.recorder =
        std::make_unique<vhdl::TraceRecorder>(*b.design, c.observable);
    b.design->finalize();
  };
  Built ref;
  build(ref);
  SequentialEngine seq(ref.graph);
  seq.set_commit_hook(ref.recorder->hook());
  seq.run(until);

  Built par;
  build(par);
  RunConfig rc;
  rc.num_workers = row.workers;
  rc.until = until;
  const Partition part = partition::round_robin(par.graph.size(), row.workers);
  RunStats st;
  if (row.machine) {
    MachineEngine eng(par.graph, part, rc);
    eng.set_commit_hook(par.recorder->hook());
    st = eng.run();
  } else {
    ThreadedEngine eng(par.graph, part, rc);
    eng.set_commit_hook(par.recorder->hook());
    st = eng.run();
  }
  ASSERT_FALSE(st.config_error.has_value()) << st.config_error->str();
  EXPECT_FALSE(st.deadlocked);
  EXPECT_EQ(vhdl::TraceRecorder::diff(*ref.recorder, *par.recorder), "");

  const std::uint64_t lps = par.graph.size();
  const std::uint64_t visits =
      st.metrics.counter(obs::Metric::kRoundLpVisits);
  const std::uint64_t events =
      st.metrics.counter(obs::Metric::kEventsProcessed);
  ASSERT_GE(lps, 19'000u);
  ASSERT_GT(st.gvt_rounds, 1u);
  EXPECT_GT(visits, 0u);
  EXPECT_LE(visits, 3 * events)
      << "rounds " << st.gvt_rounds << ", LPs " << lps << ", events "
      << events;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SchedScale,
    testing::Values(SchedRow{"threaded_p1", false, 1},
                    SchedRow{"machine_p16", true, 16}),
    [](const testing::TestParamInfo<SchedRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace vsim::pdes
