// Protocol-level unit tests for LpRuntime: Time Warp rollback,
// anti-message annihilation, fossil collection, conservative eligibility,
// ordering modes, memory stalls and mode switching; and for RoundGate, the
// coordinator's per-round verdict every engine shares.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pdes/adaptive.h"
#include "pdes/engine_core.h"
#include "pdes/lp_runtime.h"

namespace vsim::pdes {
namespace {

// A scripted LP: on every event, appends the event uid to its log and
// (optionally) sends one event per entry in `plan` for that input kind.
struct ScriptState final : LpState {
  std::vector<EventUid> log;
};

class ScriptLp : public LogicalProcess {
 public:
  explicit ScriptLp(std::string name) : LogicalProcess(std::move(name)) {}

  struct PlannedSend {
    std::int16_t on_kind;
    LpId dst;
    PhysTime delta_pt;
    std::int16_t kind;
  };
  std::vector<PlannedSend> plan;
  std::vector<EventUid> log;

  void simulate(const Event& ev, SimContext& ctx) override {
    log.push_back(ev.uid);
    for (const auto& p : plan) {
      if (p.on_kind == ev.kind)
        ctx.send(p.dst, {ev.ts.pt + p.delta_pt, 0}, p.kind, {});
    }
  }
  std::unique_ptr<LpState> save_state() const override {
    auto s = std::make_unique<ScriptState>();
    s->log = log;
    return s;
  }
  void restore_state(const LpState& s) override {
    log = static_cast<const ScriptState&>(s).log;
  }
};

// Captures routed events instead of delivering them.
class CaptureRouter final : public Router {
 public:
  void route(Event&& ev) override { routed.push_back(std::move(ev)); }
  void commit(const Event& ev) override { committed.push_back(ev); }
  std::vector<Event> routed;
  std::vector<Event> committed;
};

Event make_event(VirtualTime ts, LpId dst, EventUid uid,
                 std::int16_t kind = 1) {
  Event e;
  e.ts = ts;
  e.src = 99;
  e.dst = dst;
  e.uid = uid;
  e.kind = kind;
  return e;
}

class LpRuntimeTest : public testing::Test {
 protected:
  LpRuntimeTest() : lp_("lp") {}

  LpRuntime make(SyncMode mode,
                 OrderingMode ord = OrderingMode::kArbitrary,
                 ConservativeStrategy strat = ConservativeStrategy::kGlobalSync,
                 std::size_t cap = 0) {
    return LpRuntime(&lp_, ord, strat, mode, cap);
  }

  ScriptLp lp_;
  CaptureRouter router_;
};

TEST_F(LpRuntimeTest, ProcessesInTimestampOrder) {
  auto rt = make(SyncMode::kOptimistic);
  rt.enqueue(make_event({5, 0}, 0, 2), router_);
  rt.enqueue(make_event({1, 0}, 0, 1), router_);
  rt.enqueue(make_event({3, 0}, 0, 3), router_);
  ASSERT_EQ(rt.peek(kTimeZero, 100), Eligibility::kReady);
  rt.process_next(router_);
  rt.process_next(router_);
  rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{1, 3, 2}));
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kIdle);
}

TEST_F(LpRuntimeTest, StragglerTriggersRollbackAndReexecution) {
  auto rt = make(SyncMode::kOptimistic);
  rt.enqueue(make_event({1, 0}, 0, 1), router_);
  rt.enqueue(make_event({5, 0}, 0, 5), router_);
  rt.enqueue(make_event({9, 0}, 0, 9), router_);
  rt.process_next(router_);
  rt.process_next(router_);
  rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{1, 5, 9}));

  // Straggler at t=3: events 5 and 9 must be undone and re-executed.
  rt.enqueue(make_event({3, 0}, 0, 3), router_);
  EXPECT_EQ(rt.stats().rollbacks, 1u);
  EXPECT_EQ(rt.stats().events_undone, 2u);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{1}));  // state restored
  while (rt.peek(kTimeZero, 100) == Eligibility::kReady)
    rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{1, 3, 5, 9}));
}

TEST_F(LpRuntimeTest, EqualTimestampDoesNotRollBackUnderArbitrary) {
  auto rt = make(SyncMode::kOptimistic, OrderingMode::kArbitrary);
  rt.enqueue(make_event({5, 0}, 0, 1), router_);
  rt.process_next(router_);
  rt.enqueue(make_event({5, 0}, 0, 2), router_);
  EXPECT_EQ(rt.stats().rollbacks, 0u);
  rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{1, 2}));
}

TEST_F(LpRuntimeTest, EqualTimestampRollsBackUnderUserConsistent) {
  auto rt = make(SyncMode::kOptimistic, OrderingMode::kUserConsistent);
  rt.enqueue(make_event({5, 0}, 0, 1), router_);
  rt.process_next(router_);
  rt.enqueue(make_event({5, 0}, 0, 2), router_);
  EXPECT_EQ(rt.stats().rollbacks, 1u);
  EXPECT_EQ(rt.stats().events_undone, 1u);
}

TEST_F(LpRuntimeTest, RollbackSendsAntiMessagesForUndoneSends) {
  lp_.plan.push_back({1, 7, 10, 42});  // on kind 1, send to LP 7 at +10
  auto rt = make(SyncMode::kOptimistic);
  rt.enqueue(make_event({5, 0}, 0, 5, /*kind=*/1), router_);
  rt.process_next(router_);
  ASSERT_EQ(router_.routed.size(), 1u);
  EXPECT_FALSE(router_.routed[0].negative);
  const EventUid sent_uid = router_.routed[0].uid;

  rt.enqueue(make_event({2, 0}, 0, 2, /*kind=*/9), router_);
  // The undone send must be cancelled with a negative copy.
  ASSERT_EQ(router_.routed.size(), 2u);
  EXPECT_TRUE(router_.routed[1].negative);
  EXPECT_EQ(router_.routed[1].uid, sent_uid);
  EXPECT_EQ(rt.stats().anti_messages_sent, 1u);
}

TEST_F(LpRuntimeTest, NegativeAnnihilatesPendingPositive) {
  auto rt = make(SyncMode::kOptimistic);
  Event pos = make_event({5, 0}, 0, 77);
  Event neg = pos;
  neg.negative = true;
  rt.enqueue(pos, router_);
  rt.enqueue(neg, router_);
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kIdle);
  EXPECT_EQ(rt.stats().annihilations, 1u);
}

TEST_F(LpRuntimeTest, NegativeBeforePositiveAnnihilates) {
  auto rt = make(SyncMode::kOptimistic);
  Event pos = make_event({5, 0}, 0, 77);
  Event neg = pos;
  neg.negative = true;
  rt.enqueue(neg, router_);  // transient reordering
  rt.enqueue(pos, router_);
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kIdle);
  EXPECT_EQ(rt.stats().annihilations, 1u);
}

TEST_F(LpRuntimeTest, NegativeForProcessedEventRollsBack) {
  auto rt = make(SyncMode::kOptimistic);
  rt.enqueue(make_event({5, 0}, 0, 5), router_);
  rt.enqueue(make_event({7, 0}, 0, 7), router_);
  rt.process_next(router_);
  rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{5, 7}));

  Event neg = make_event({5, 0}, 0, 5);
  neg.negative = true;
  rt.enqueue(neg, router_);
  EXPECT_EQ(lp_.log, std::vector<EventUid>{});  // both undone
  // Event 7 is re-pended; the cancelled event 5 is gone.
  ASSERT_EQ(rt.peek(kTimeZero, 100), Eligibility::kReady);
  rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{7}));
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kIdle);
}

TEST_F(LpRuntimeTest, FossilCollectionCommitsInOrderAndFreesHistory) {
  auto rt = make(SyncMode::kOptimistic);
  for (EventUid u : {1u, 2u, 3u, 4u})
    rt.enqueue(make_event({static_cast<PhysTime>(u), 0}, 0, u), router_);
  while (rt.peek(kTimeZero, 100) == Eligibility::kReady)
    rt.process_next(router_);
  EXPECT_EQ(rt.history_size(), 4u);

  rt.fossil_collect({3, 0}, router_);
  // Events strictly below (3,0) commit; the (3,0) entry must be kept.
  ASSERT_EQ(router_.committed.size(), 2u);
  EXPECT_EQ(router_.committed[0].uid, 1u);
  EXPECT_EQ(router_.committed[1].uid, 2u);
  EXPECT_EQ(rt.history_size(), 2u);

  rt.fossil_collect(kTimeInf, router_);
  EXPECT_EQ(router_.committed.size(), 4u);
  EXPECT_EQ(rt.history_size(), 0u);
  EXPECT_EQ(rt.stats().events_committed, 4u);
}

TEST_F(LpRuntimeTest, ConservativeBlocksAboveGlobalBound) {
  auto rt = make(SyncMode::kConservative);
  rt.enqueue(make_event({5, 0}, 0, 1), router_);
  EXPECT_EQ(rt.peek({3, 0}, 100), Eligibility::kBlocked);
  EXPECT_EQ(rt.peek({5, 0}, 100), Eligibility::kReady);  // ts == bound safe
  rt.process_next(router_);
  // Conservative commits immediately.
  EXPECT_EQ(router_.committed.size(), 1u);
  EXPECT_EQ(rt.stats().events_committed, 1u);
}

TEST_F(LpRuntimeTest, HorizonMakesEventsIdle) {
  auto rt = make(SyncMode::kOptimistic);
  rt.enqueue(make_event({50, 0}, 0, 1), router_);
  EXPECT_EQ(rt.peek(kTimeInf, /*until=*/10), Eligibility::kIdle);
  EXPECT_EQ(rt.peek(kTimeInf, /*until=*/50), Eligibility::kReady);
}

TEST_F(LpRuntimeTest, HistoryCapStallsOptimistically) {
  auto rt = make(SyncMode::kOptimistic, OrderingMode::kArbitrary,
                 ConservativeStrategy::kGlobalSync, /*cap=*/2);
  for (EventUid u : {1u, 2u, 3u})
    rt.enqueue(make_event({static_cast<PhysTime>(u), 0}, 0, u), router_);
  rt.process_next(router_);
  rt.process_next(router_);
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kBlocked);
  rt.note_blocked();
  EXPECT_EQ(rt.window_memory_stalls(), 1u);
  rt.fossil_collect(kTimeInf, router_);
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kReady);
}

TEST_F(LpRuntimeTest, NullMessagesAdvanceChannelClocks) {
  auto rt = make(SyncMode::kConservative, OrderingMode::kUserConsistent,
                 ConservativeStrategy::kNullMessage);
  rt.add_input_channel(42);
  rt.enqueue(make_event({5, 0}, 0, 1), router_);
  // Clock at zero: strictly-less test fails.
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kBlocked);
  Event null_msg;
  null_msg.ts = {6, 0};
  null_msg.src = 42;
  null_msg.dst = 0;
  null_msg.kind = kNullMsgKind;
  rt.enqueue(null_msg, router_);
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kReady);
}

TEST_F(LpRuntimeTest, NullPromiseUsesLookaheadOnlyWhenEnabled) {
  LpRuntime no_la(&lp_, OrderingMode::kArbitrary,
                  ConservativeStrategy::kNullMessage, SyncMode::kConservative,
                  0, /*use_lookahead=*/false);
  struct LaLp final : ScriptLp {
    LaLp() : ScriptLp("la") {}
    PhysTime lookahead() const override { return 7; }
  };
  LaLp la_lp;
  LpRuntime la_rt(&la_lp, OrderingMode::kArbitrary,
                  ConservativeStrategy::kNullMessage, SyncMode::kConservative,
                  0, /*use_lookahead=*/true);
  CaptureRouter r;
  no_la.enqueue(make_event({5, 0}, 0, 1), r);
  la_rt.enqueue(make_event({5, 0}, 0, 1), r);
  EXPECT_EQ(no_la.null_promise(), (VirtualTime{5, 0}));
  EXPECT_EQ(la_rt.null_promise(), (VirtualTime{12, 0}));
}

// One engine-style adaptation round over a single LP (fresh budget each
// round, as the engines refill it at every GVT round).  The table-driven
// transition/rate tests live in test_adaptive.cpp; the tests here drive the
// controller through REAL event flow (rollbacks from actual stragglers).
AdaptDecision adapt_round(LpRuntime& rt, const AdaptPolicy& p) {
  AdaptController ctrl(p, /*num_workers=*/1);
  ctrl.begin_round(1);
  return ctrl.adapt(rt);
}

// Policy with single-window decisions (the protocol tests exercise the
// transition rules, not the EWMA smoothing).
AdaptPolicy fast_policy() {
  AdaptPolicy p;
  p.min_window_events = 2;
  p.rollback_rate_high = 0.1;
  p.min_decision_windows = 1;
  p.rate_alpha = 1.0;
  return p;
}

TEST_F(LpRuntimeTest, AdaptationDemotesRollbackProneLp) {
  auto rt = make(SyncMode::kOptimistic);
  const AdaptPolicy policy = fast_policy();
  // Generate rollbacks: process then deliver stragglers repeatedly.
  for (int i = 0; i < 4; ++i) {
    rt.enqueue(make_event({10 + i, 0}, 0, 100 + static_cast<EventUid>(i)),
               router_);
    rt.process_next(router_);
    rt.enqueue(make_event({5 + i, 0}, 0, 200 + static_cast<EventUid>(i)),
               router_);
    while (rt.peek(kTimeZero, 1000) == Eligibility::kReady)
      rt.process_next(router_);
  }
  EXPECT_GT(rt.window_rollbacks(), 0u);
  EXPECT_GT(rt.window_undone(), 0u);
  const AdaptDecision d = adapt_round(rt, policy);
  EXPECT_EQ(d.action, AdaptAction::kDemote);
  EXPECT_GT(d.waste_rate, policy.rollback_rate_high);
  EXPECT_EQ(rt.mode(), SyncMode::kConservative);
  EXPECT_EQ(rt.stats().adapt_demotions, 1u);
}

TEST_F(LpRuntimeTest, AdaptationPromotesStarvingConservativeLp) {
  auto rt = make(SyncMode::kConservative);
  const AdaptPolicy policy = fast_policy();
  // A promotion needs a clean record over REAL activity: process a couple
  // of safe events (no rollbacks), then starve behind the global bound.
  rt.enqueue(make_event({1, 0}, 0, 1), router_);
  rt.enqueue(make_event({2, 0}, 0, 2), router_);
  ASSERT_EQ(rt.peek({2, 0}, 1000), Eligibility::kReady);
  rt.process_next(router_);
  rt.process_next(router_);
  rt.enqueue(make_event({50, 0}, 0, 3), router_);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rt.peek({2, 0}, 1000), Eligibility::kBlocked);
    rt.note_blocked();
  }
  const AdaptDecision d = adapt_round(rt, policy);
  EXPECT_EQ(d.action, AdaptAction::kPromote);
  EXPECT_EQ(rt.mode(), SyncMode::kOptimistic);
  EXPECT_EQ(rt.stats().adapt_promotions, 1u);
}

TEST_F(LpRuntimeTest, AdaptationStarvedRepromotionNeedsEscalatedEvidence) {
  // Regression: the promotion's clean-record test is vacuous for a fully
  // starved LP (no active windows since the flip), so a starved conservative
  // LP used to flip optimistic on blocked counts alone -- then roll back and
  // demote the moment traffic resumed, ping-ponging forever.  Requiring
  // activity instead would trap throttled LPs (pending work parked just
  // above the safe bound, the very LPs speculation helps), so the fix is
  // escalation: each demotion doubles the cumulative blocked-poll evidence
  // the next promotion needs.
  auto rt = make(SyncMode::kOptimistic);
  const AdaptPolicy policy = fast_policy();
  // Demote via rollbacks (straggler after every processed event).
  for (int i = 0; i < 4; ++i) {
    rt.enqueue(make_event({10 + i, 0}, 0, 100 + static_cast<EventUid>(i)),
               router_);
    rt.process_next(router_);
    rt.enqueue(make_event({5 + i, 0}, 0, 200 + static_cast<EventUid>(i)),
               router_);
    while (rt.peek(kTimeZero, 1000) == Eligibility::kReady)
      rt.process_next(router_);
  }
  ASSERT_EQ(adapt_round(rt, policy).action, AdaptAction::kDemote);
  ASSERT_EQ(rt.mode(), SyncMode::kConservative);
  ASSERT_EQ(rt.demotions(), 1u);

  // Fully starved (zero events processed since the flip): 3 blocked polls
  // met the pre-demotion threshold of 2, but after one demotion the LP
  // needs min_window_events << 1 = 4 cumulative -- it must stay
  // conservative this round.
  rt.enqueue(make_event({200, 0}, 0, 300), router_);
  for (int i = 0; i < 3; ++i) rt.note_blocked();
  EXPECT_EQ(adapt_round(rt, policy).action, AdaptAction::kNone);
  EXPECT_EQ(rt.mode(), SyncMode::kConservative);

  // Sustained starvation accumulates across rounds: once the cumulative
  // evidence clears the escalated threshold the LP still promotes --
  // escalation delays re-promotion, it does not forbid it.
  rt.note_blocked();
  EXPECT_EQ(adapt_round(rt, policy).action, AdaptAction::kPromote);
  EXPECT_EQ(rt.mode(), SyncMode::kOptimistic);
}

TEST_F(LpRuntimeTest, AdaptationDemotionBacksOffRepromotion) {
  // Ping-pong damping: a rollback-prone LP is demoted; each demotion
  // doubles the blocked-poll evidence the next promotion requires, so at a
  // constant blocked-poll rate per round each oscillation takes twice as
  // many rounds as the last (the frequency halves).
  auto rt = make(SyncMode::kOptimistic);
  const AdaptPolicy policy = fast_policy();
  // Demote via rollbacks (straggler after every processed event).
  for (int i = 0; i < 4; ++i) {
    rt.enqueue(make_event({10 + i, 0}, 0, 100 + static_cast<EventUid>(i)),
               router_);
    rt.process_next(router_);
    rt.enqueue(make_event({5 + i, 0}, 0, 200 + static_cast<EventUid>(i)),
               router_);
    while (rt.peek(kTimeZero, 1000) == Eligibility::kReady)
      rt.process_next(router_);
  }
  ASSERT_EQ(adapt_round(rt, policy).action, AdaptAction::kDemote);
  EXPECT_EQ(rt.demotions(), 1u);

  // One demotion: the threshold is min_window_events << 1 = 4 blocked
  // polls.  Clean activity plus 3 blocked polls (enough before the
  // demotion) must NOT re-promote...
  rt.enqueue(make_event({100, 0}, 0, 300), router_);
  rt.enqueue(make_event({101, 0}, 0, 301), router_);
  ASSERT_EQ(rt.peek({101, 0}, 1000), Eligibility::kReady);
  rt.process_next(router_);
  rt.process_next(router_);
  for (int i = 0; i < 3; ++i) rt.note_blocked();
  EXPECT_EQ(adapt_round(rt, policy).action, AdaptAction::kNone);
  EXPECT_EQ(rt.mode(), SyncMode::kConservative);

  // ...but one more round of clean starvation clears the escalated
  // cumulative threshold: delay, not prohibition.
  rt.enqueue(make_event({102, 0}, 0, 302), router_);
  rt.enqueue(make_event({103, 0}, 0, 303), router_);
  ASSERT_EQ(rt.peek({103, 0}, 1000), Eligibility::kReady);
  rt.process_next(router_);
  rt.process_next(router_);
  rt.note_blocked();
  EXPECT_EQ(adapt_round(rt, policy).action, AdaptAction::kPromote);
  EXPECT_EQ(rt.mode(), SyncMode::kOptimistic);
}

TEST_F(LpRuntimeTest, PinnedConservativeLpIsNotPromoted) {
  auto rt = make(SyncMode::kOptimistic);
  AdaptPolicy policy = fast_policy();
  policy.min_window_events = 1;
  rt.pin_conservative();
  EXPECT_EQ(rt.mode(), SyncMode::kConservative);
  EXPECT_EQ(rt.stats().adapt_pins, 1u);
  rt.enqueue(make_event({50, 0}, 0, 1), router_);
  for (int i = 0; i < 5; ++i) rt.note_blocked();
  // Short-circuited before any rate math: no action, and the window
  // counters are left untouched (no reset_window churn for pinned LPs).
  EXPECT_EQ(adapt_round(rt, policy).action, AdaptAction::kNone);
  EXPECT_EQ(rt.mode(), SyncMode::kConservative);
  EXPECT_EQ(rt.window_blocked(), 5u);
}

TEST_F(LpRuntimeTest, StragglerAfterDemotionStillRollsBackHistory) {
  // Regression (found by fuzzing): an LP demoted optimistic->conservative
  // while still holding speculative history must roll back on stragglers
  // targeting that history; otherwise it processes events out of order.
  auto rt = make(SyncMode::kOptimistic);
  rt.enqueue(make_event({5, 0}, 0, 5), router_);
  rt.enqueue(make_event({9, 0}, 0, 9), router_);
  rt.process_next(router_);
  rt.process_next(router_);
  ASSERT_EQ(rt.history_size(), 2u);

  rt.set_mode(SyncMode::kConservative);  // dynamic demotion
  rt.enqueue(make_event({7, 0}, 0, 7), router_);  // straggler
  EXPECT_EQ(rt.stats().rollbacks, 1u);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{5}));
  while (rt.peek(kTimeInf, 100) == Eligibility::kReady)
    rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{5, 7, 9}));
}

// ---- transport-adjacent corner cases ----
// The reliable channel dedups and orders packets, but the protocol layer
// still sees edge timings: duplicates of pending events, and stragglers
// landing exactly on the committed frontier after fossil collection.

TEST_F(LpRuntimeTest, DuplicatePendingPositiveIsAbsorbed) {
  auto rt = make(SyncMode::kOptimistic);
  const Event e = make_event({5, 0}, 0, 7);
  rt.enqueue(e, router_);
  rt.enqueue(e, router_);  // transport duplicate while still pending
  ASSERT_EQ(rt.peek(kTimeZero, 100), Eligibility::kReady);
  rt.process_next(router_);
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kIdle);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{7}));
}

TEST_F(LpRuntimeTest, DuplicateOfProcessedEventNeedsTransportDedup) {
  // Arbitrary ordering: a duplicate of an already-processed event is
  // indistinguishable from a legitimate new equal-timestamp event, so the
  // runtime re-executes it.  This is exactly why the reliable channel's
  // receiver-side dedup is load-bearing for lossy links.
  auto rt = make(SyncMode::kOptimistic, OrderingMode::kArbitrary);
  const Event e = make_event({5, 0}, 0, 7);
  rt.enqueue(e, router_);
  rt.process_next(router_);
  rt.enqueue(e, router_);
  EXPECT_EQ(rt.stats().rollbacks, 0u);
  rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{7, 7}));
}

TEST_F(LpRuntimeTest, DuplicateOfProcessedEventSelfHealsUnderUserConsistent) {
  // User-consistent ordering rolls back on the equal-timestamp arrival and
  // the re-pended original then absorbs the duplicate in the pending set
  // (same ts, same uid), so the event executes exactly once.
  auto rt = make(SyncMode::kOptimistic, OrderingMode::kUserConsistent);
  const Event e = make_event({5, 0}, 0, 7);
  rt.enqueue(e, router_);
  rt.process_next(router_);
  rt.enqueue(e, router_);
  EXPECT_EQ(rt.stats().rollbacks, 1u);
  ASSERT_EQ(rt.peek(kTimeZero, 100), Eligibility::kReady);
  rt.process_next(router_);
  EXPECT_EQ(rt.peek(kTimeZero, 100), Eligibility::kIdle);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{7}));
}

TEST_F(LpRuntimeTest, StragglerAtCommitFrontierArbitrary) {
  // Fossil collection at gvt keeps ts == gvt entries; an arrival exactly at
  // the frontier commutes with them under the arbitrary ordering.
  auto rt = make(SyncMode::kOptimistic, OrderingMode::kArbitrary);
  for (EventUid u : {1u, 2u, 3u})
    rt.enqueue(make_event({static_cast<PhysTime>(u), 0}, 0, u), router_);
  while (rt.peek(kTimeZero, 100) == Eligibility::kReady)
    rt.process_next(router_);
  rt.fossil_collect({3, 0}, router_);
  ASSERT_EQ(rt.history_size(), 1u);  // the (3,0) entry must survive

  rt.enqueue(make_event({3, 0}, 0, 99), router_);
  EXPECT_EQ(rt.stats().rollbacks, 0u);
  rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{1, 2, 3, 99}));
}

TEST_F(LpRuntimeTest, StragglerAtCommitFrontierUserConsistent) {
  // Same arrival under user-consistent ordering: the kept (3,0) entry is
  // rolled back and re-executed after the straggler in uid order.  If
  // fossil collection had committed the equal-gvt entry this would be an
  // unrecoverable causality violation.
  auto rt = make(SyncMode::kOptimistic, OrderingMode::kUserConsistent);
  for (EventUid u : {1u, 2u, 3u})
    rt.enqueue(make_event({static_cast<PhysTime>(u), 0}, 0, u), router_);
  while (rt.peek(kTimeZero, 100) == Eligibility::kReady)
    rt.process_next(router_);
  rt.fossil_collect({3, 0}, router_);
  ASSERT_EQ(rt.history_size(), 1u);

  rt.enqueue(make_event({3, 0}, 0, 0), router_);  // uid 0 sorts first
  EXPECT_EQ(rt.stats().rollbacks, 1u);
  EXPECT_EQ(rt.stats().events_undone, 1u);
  while (rt.peek(kTimeZero, 100) == Eligibility::kReady)
    rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{1, 2, 0, 3}));
}

// ---- lazy cancellation ----

class LazyTest : public LpRuntimeTest {
 protected:
  LpRuntime make_lazy() {
    return LpRuntime(&lp_, OrderingMode::kArbitrary,
                     ConservativeStrategy::kGlobalSync,
                     SyncMode::kOptimistic, 0, false,
                     CancellationPolicy::kLazy);
  }
};

TEST_F(LazyTest, IdenticalRegenerationSuppressesAntiAndResend) {
  lp_.plan.push_back({1, 7, 10, 42});  // on kind 1, send to LP 7 at +10
  auto rt = make_lazy();
  rt.enqueue(make_event({5, 0}, 0, 5, /*kind=*/1), router_);
  rt.process_next(router_);
  ASSERT_EQ(router_.routed.size(), 1u);
  const EventUid original_uid = router_.routed[0].uid;

  // Straggler with a *different kind* (9): the scripted LP's output for
  // event 5 is unchanged, so after re-execution nothing new is routed:
  // no anti-message, no duplicate positive.
  rt.enqueue(make_event({2, 0}, 0, 2, /*kind=*/9), router_);
  EXPECT_EQ(router_.routed.size(), 1u);  // rollback sent nothing yet
  while (rt.peek(kTimeInf, 100) == Eligibility::kReady)
    rt.process_next(router_);
  ASSERT_EQ(router_.routed.size(), 1u);  // identical send matched
  EXPECT_EQ(rt.stats().lazy_reuses, 1u);
  EXPECT_EQ(rt.stats().anti_messages_sent, 0u);
  EXPECT_EQ(router_.routed[0].uid, original_uid);
}

TEST_F(LazyTest, ChangedOutputCancelsOldAndSendsNew) {
  // The LP sends one event per kind-1 input; a straggler of kind 1 at an
  // earlier time changes WHAT is sent during re-execution (different ts).
  lp_.plan.push_back({1, 7, 10, 42});
  auto rt = make_lazy();
  rt.enqueue(make_event({5, 0}, 0, 5, /*kind=*/1), router_);
  rt.process_next(router_);
  ASSERT_EQ(router_.routed.size(), 1u);
  const EventUid old_uid = router_.routed[0].uid;

  // Straggler of kind 1 at t=2: re-execution processes (2) then (5).
  // Event 2 generates a NEW send at ts 12 (no lazy match: old one is at
  // 15); re-executing event 5 regenerates the identical send at 15.
  rt.enqueue(make_event({2, 0}, 0, 2, /*kind=*/1), router_);
  while (rt.peek(kTimeInf, 100) == Eligibility::kReady)
    rt.process_next(router_);
  ASSERT_EQ(router_.routed.size(), 2u);
  EXPECT_FALSE(router_.routed[1].negative);
  EXPECT_EQ(router_.routed[1].ts, (VirtualTime{12, 0}));
  EXPECT_EQ(rt.stats().lazy_reuses, 1u);   // the (15,0) send matched
  EXPECT_EQ(rt.stats().anti_messages_sent, 0u);
  EXPECT_EQ(rt.stats().lazy_cancels, 0u);
  (void)old_uid;
}

TEST_F(LazyTest, AnnihilatedEventSettlesItsLazySends) {
  lp_.plan.push_back({1, 7, 10, 42});
  auto rt = make_lazy();
  const Event gen = make_event({5, 0}, 0, 5, /*kind=*/1);
  rt.enqueue(gen, router_);
  rt.process_next(router_);
  ASSERT_EQ(router_.routed.size(), 1u);
  const EventUid sent_uid = router_.routed[0].uid;

  // The generating event itself is cancelled: roll back, re-pend, erase.
  Event neg = gen;
  neg.negative = true;
  rt.enqueue(neg, router_);
  // Its lazy send can never be regenerated -> anti-message now.
  ASSERT_EQ(router_.routed.size(), 2u);
  EXPECT_TRUE(router_.routed[1].negative);
  EXPECT_EQ(router_.routed[1].uid, sent_uid);
  EXPECT_EQ(rt.stats().lazy_cancels, 1u);
  EXPECT_EQ(rt.peek(kTimeInf, 100), Eligibility::kIdle);
}

TEST_F(LazyTest, ReexecutionPastGeneratorCancelsUnregenerated) {
  // Event 5 (kind 1) sends; the straggler at t=2 is ALSO kind 1 but the
  // LP's plan changes behaviour via state: here we emulate divergence by
  // cancelling event 5 entirely and keeping a later event, so the
  // re-execution of 9 (kind 2, no sends) settles nothing and the
  // annihilation path fires instead -- covered above.  This test covers
  // rule (b): re-executing the generator with *different* output.
  lp_.plan.push_back({1, 7, 10, 42});
  auto rt = make_lazy();
  rt.enqueue(make_event({5, 0}, 0, 5, /*kind=*/1), router_);
  rt.process_next(router_);
  // Mutate the plan so re-execution produces a different destination time.
  lp_.plan[0].delta_pt = 20;
  rt.enqueue(make_event({2, 0}, 0, 2, /*kind=*/9), router_);
  while (rt.peek(kTimeInf, 100) == Eligibility::kReady)
    rt.process_next(router_);
  // Old send (15) cancelled, new send (25) routed.
  ASSERT_EQ(router_.routed.size(), 3u);
  EXPECT_FALSE(router_.routed[1].negative);
  EXPECT_EQ(router_.routed[1].ts, (VirtualTime{25, 0}));
  EXPECT_TRUE(router_.routed[2].negative);
  EXPECT_EQ(router_.routed[2].uid, router_.routed[0].uid);
  EXPECT_EQ(rt.stats().lazy_cancels, 1u);
}

TEST_F(LazyTest, EqualTimestampAntiAnnihilatesMinimalPendingCopy) {
  // Lazy-deletion index corner: a uid present in the pending queue at TWO
  // timestamps (reserved initial-event uids can collide with send uids)
  // when an anti-message with the same uid -- stamped with the timestamp of
  // the EARLIER copy -- arrives.  The annihilation must (a) kill exactly
  // the minimal-ts copy, matching the old std::set's in-order scan, (b) not
  // roll anything back, and (c) settle the uid's undecided lazy sends as
  // anti-messages, all under lazy cancellation.
  lp_.plan.push_back({1, 7, 10, 42});
  auto rt = make_lazy();
  rt.enqueue(make_event({5, 0}, 0, 7, /*kind=*/1), router_);
  rt.process_next(router_);  // sends (15, 0) to LP 7
  ASSERT_EQ(router_.routed.size(), 1u);
  const EventUid sent_uid = router_.routed[0].uid;

  // Straggler of another kind: event 7 is re-pended at (5, 0) and its send
  // parks in the lazy queue, fate undecided.
  rt.enqueue(make_event({2, 0}, 0, 2, /*kind=*/9), router_);
  ASSERT_EQ(rt.stats().rollbacks, 1u);
  // A second positive with the SAME uid at a later timestamp.
  rt.enqueue(make_event({9, 0}, 0, 7, /*kind=*/1), router_);
  ASSERT_EQ(rt.pending_count(), 3u);

  Event neg = make_event({5, 0}, 0, 7, /*kind=*/1);
  neg.negative = true;
  rt.enqueue(neg, router_);
  EXPECT_EQ(rt.stats().annihilations, 1u);
  EXPECT_EQ(rt.stats().rollbacks, 1u);  // no new rollback
  ASSERT_EQ(rt.pending_count(), 2u);
  EXPECT_EQ(rt.next_ts(), (VirtualTime{2, 0}));
  // The generator can never re-execute: its lazy send is cancelled now.
  ASSERT_EQ(router_.routed.size(), 2u);
  EXPECT_TRUE(router_.routed[1].negative);
  EXPECT_EQ(router_.routed[1].uid, sent_uid);
  EXPECT_EQ(rt.stats().lazy_cancels, 1u);

  // The (9, 0) copy survived and executes after the straggler.
  while (rt.peek(kTimeInf, 100) == Eligibility::kReady)
    rt.process_next(router_);
  EXPECT_EQ(lp_.log, (std::vector<EventUid>{2, 7}));
  ASSERT_EQ(router_.routed.size(), 3u);
  EXPECT_FALSE(router_.routed[2].negative);
  EXPECT_EQ(router_.routed[2].ts, (VirtualTime{19, 0}));
  EXPECT_GT(rt.stats().queue_ops, 0u);
}

TEST_F(LpRuntimeTest, UnsaveableLpIsForcedConservative) {
  struct HeavyLp final : ScriptLp {
    HeavyLp() : ScriptLp("heavy") {}
    bool can_save_state() const override { return false; }
  };
  HeavyLp heavy;
  LpRuntime rt(&heavy, OrderingMode::kArbitrary,
               ConservativeStrategy::kGlobalSync, SyncMode::kOptimistic, 0);
  EXPECT_EQ(rt.mode(), SyncMode::kConservative);
  rt.set_mode(SyncMode::kOptimistic);  // must be refused
  EXPECT_EQ(rt.mode(), SyncMode::kConservative);
}

// ---------------------------------------------------------------------------
// RoundGate: one table row per rule, each a scripted sequence of rounds.
// ---------------------------------------------------------------------------

struct GateStep {
  bool rewind = false;  ///< rewind(gvt) instead of a round
  VirtualTime gvt;
  std::uint64_t events = 0;
  std::string inputs;  ///< 'T' transport error, 'C' crash pending
  std::string expect;  ///< verdict flags: 's'top 'd'eadlock 'c'kpt 'b'alance
  std::uint32_t stall = 0;
};

GateStep round(VirtualTime gvt, std::uint64_t events, std::string expect,
               std::uint32_t stall = 0, std::string inputs = "") {
  return {false, gvt, events, std::move(inputs), std::move(expect), stall};
}
GateStep rewind(VirtualTime gvt) { return {true, gvt, 0, "", "", 0}; }

struct GateCase {
  const char* name;
  std::uint32_t deadlock_rounds = 3;
  std::uint32_t checkpoint_period = 0;
  std::uint32_t rebalance_period = 0;
  PhysTime until = 100;
  std::vector<GateStep> steps;
};

TEST(RoundGate, VerdictTable) {
  const VirtualTime g5{5, 0};
  const VirtualTime g7{7, 0};
  const VirtualTime g9{9, 0};
  const std::vector<GateCase> cases = {
      {"stall counter deadlocks at deadlock_rounds, resets on progress",
       3, 0, 0, 100,
       {round(g5, 10, ""), round(g5, 10, "", 1), round(g5, 10, "", 2),
        round(g5, 12, ""),  // an event was processed: progress
        round(g5, 12, "", 1), round(g7, 12, ""),  // GVT moved: progress
        round(g7, 12, "", 1), round(g7, 12, "", 2),
        round(g7, 12, "sd", 3)}},
      {"stop at infinite GVT, past until, on a transport error", 3, 1, 1,
       100,
       {round(kTimeInf, 0, "s"), round(VirtualTime{101, 0}, 0, "s"),
        round(VirtualTime{100, 2}, 0, "cb"),  // until is inclusive
        round(g9, 1, "s", 0, "T")}},
      {"a stopped round at a stalled frontier is never a stall", 1, 0, 0,
       100,
       {round(kTimeInf, 0, "s"), round(kTimeInf, 0, "s")}},
      {"livelock gate: no capture at an unadvanced GVT, counter kept", 3, 2,
       0, 100,
       {round(g5, 1, ""), round(g5, 2, "c"),  // period reached, GVT advanced
        round(g5, 3, ""), round(g5, 4, ""),   // due again, but GVT stood
        round(g5, 5, ""),                     // ... and the counter is kept:
        round(g7, 6, "c"),                    // fires on the first advance
        round(g9, 7, "")}},
      {"no checkpoint or rebalance with a crash pending", 3, 1, 1, 100,
       {round(g5, 1, "", 0, "C"), round(g7, 2, "cb"),
        round(g9, 2, "", 0, "C"), round(g9, 2, "", 1, "C")}},
      {"rebalance every period live rounds", 3, 0, 2, 100,
       {round(g5, 1, ""), round(g7, 2, "b"), round(g9, 3, ""),
        round(g9, 4, "b")}},
      {"after rewind the first round never counts as a stall", 2, 1, 0, 100,
       {round(g5, 8, "c"), round(g5, 8, "", 1), rewind(g5),
        round(g5, 8, ""),  // no stall; no same-frontier capture
        round(g5, 8, "", 1), round(g5, 8, "sd", 2)}},  // later ones count
      {"rewind moves the capture frontier", 3, 1, 0, 100,
       {round(g9, 1, "c"), rewind(g5), round(g7, 2, "c")}},
  };
  for (const GateCase& c : cases) {
    RunConfig rc;
    rc.deadlock_rounds = c.deadlock_rounds;
    rc.checkpoint.period = c.checkpoint_period;
    rc.rebalance.period = c.rebalance_period;
    rc.until = c.until;
    RoundGate gate(rc);
    for (std::size_t i = 0; i < c.steps.size(); ++i) {
      const GateStep& st = c.steps[i];
      if (st.rewind) {
        gate.rewind(st.gvt);
        continue;
      }
      gate.begin_round();
      const RoundVerdict v =
          gate.judge(st.gvt, st.events, st.inputs.find('T') != std::string::npos,
                     st.inputs.find('C') != std::string::npos);
      std::string got;
      if (v.stop) got += 's';
      if (v.deadlock) got += 'd';
      if (v.checkpoint) got += 'c';
      if (v.rebalance) got += 'b';
      EXPECT_EQ(got, st.expect) << c.name << ", step " << i;
      EXPECT_EQ(gate.stall_rounds(), st.stall) << c.name << ", step " << i;
    }
  }
}

}  // namespace
}  // namespace vsim::pdes
