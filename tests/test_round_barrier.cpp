// RoundBarrier: the threaded engine's spin-then-park round barrier.  The
// completion must run exactly once per generation on the last arriver while
// every other participant is held, leave() must release a generation the
// others already wait on, and a waiter must leave from the spin when its
// partner arrives promptly but park when the partner is late.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "pdes/round_barrier.h"
#include "watchdog.h"

namespace vsim::pdes {
namespace {

// Busy-polls (no yield: a yield on a loaded host can hand the core away
// for a whole time slice) until `n` participants wait on `b`.
void wait_for_arrivals(const RoundBarrier& b, std::size_t n) {
  while (b.waiting() < n) {
  }
}

// Pins the calling thread to `cpu`; returns false if the host refuses.
bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

TEST(RoundBarrier, CompletionRunsOncePerGenerationOnLastArriverWhileOthersHeld) {
  testutil::Watchdog wd("RoundBarrier.CompletionRunsOnce",
                        std::chrono::seconds(60));
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kGenerations = 500;
  RoundBarrier b(kThreads);
  std::atomic<std::uint64_t> arrived{0};   // arrivals, all generations
  std::atomic<std::uint64_t> released{0};  // returns, all generations
  std::atomic<std::uint64_t> completions{0};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::uint64_t> runner(kGenerations, kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t g = 0; g < kGenerations; ++g) {
        arrived.fetch_add(1, std::memory_order_relaxed);
        b.arrive_and_wait([&] {
          completions.fetch_add(1, std::memory_order_relaxed);
          // Every participant of generation g arrived, and none of them
          // has been released from it yet.
          if (arrived.load(std::memory_order_relaxed) != kThreads * (g + 1) ||
              released.load(std::memory_order_relaxed) != kThreads * g)
            bad.fetch_add(1, std::memory_order_relaxed);
          runner[g] = t;
        });
        released.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(completions.load(), kGenerations);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(b.generations(), kGenerations);
  for (std::uint64_t g = 0; g < kGenerations; ++g)
    ASSERT_LT(runner[g], kThreads) << "generation " << g;
}

TEST(RoundBarrier, LeaveCompletesAGenerationOthersWaitOn) {
  testutil::Watchdog wd("RoundBarrier.LeaveCompletes",
                        std::chrono::seconds(60));
  RoundBarrier b(3);
  std::atomic<int> returned{0};
  auto participant = [&] {
    b.arrive_and_wait();
    returned.fetch_add(1);
    b.arrive_and_wait();  // the next generation has two parties
    returned.fetch_add(1);
  };
  std::thread a(participant);
  std::thread c(participant);
  wait_for_arrivals(b, 2);
  EXPECT_EQ(returned.load(), 0);
  b.leave();  // the third party crash-stops; its leave releases the others
  a.join();
  c.join();
  EXPECT_EQ(returned.load(), 4);
  EXPECT_EQ(b.generations(), 2u);
}

TEST(RoundBarrier, LateArriverParksWaitersPromptOneLetsThemSpin) {
  testutil::Watchdog wd("RoundBarrier.SpinThenPark",
                        std::chrono::seconds(60));
  {
    // ~5 ms late, far past the spin window: the two waiters park.
    constexpr int kRounds = 4;
    RoundBarrier b(3);
    std::vector<std::thread> waiters;
    for (int i = 0; i < 2; ++i)
      waiters.emplace_back([&] {
        for (int r = 0; r < kRounds; ++r) b.arrive_and_wait();
      });
    for (int r = 0; r < kRounds; ++r) {
      wait_for_arrivals(b, 2);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      b.arrive_and_wait();
    }
    for (auto& th : waiters) th.join();
    // A waiter descheduled across its whole spin window sees the new
    // generation before it could park; on a quiet host all eight park.
    EXPECT_GE(b.parks(), static_cast<std::uint64_t>(kRounds));
  }
  {
    // The partner arrives the moment it sees the waiter arrive, so the
    // waiter can leave from the spin.  The two run pinned to different
    // CPUs: on a loaded host the scheduler may otherwise stack them on
    // one core, where the partner cannot run while the waiter spins (the
    // case the park path exists for).  The waiter pauses between
    // generations: a partner that completed a generation by waking a
    // parked waiter spends longer in that wake-up than the spin window,
    // and back-to-back arrivals would then keep parking.  A loaded or
    // sanitized host can still miss the window now and then, so the
    // partner keeps going until one wait ended unparked.
    cpu_set_t allowed;
    ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    if (cpus.size() < 2) GTEST_SKIP() << "needs two CPUs";
    constexpr std::uint64_t kMaxGenerations = 2000;
    RoundBarrier b(2);
    std::atomic<bool> stop{false};
    std::thread waiter([&] {
      pin_to(cpus[1]);
      do {
        b.arrive_and_wait();
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(100);
        while (std::chrono::steady_clock::now() < until) {
        }
      } while (!stop.load(std::memory_order_acquire));
    });
    std::thread partner([&] {
      pin_to(cpus[0]);
      for (std::uint64_t g = 0; g < kMaxGenerations; ++g) {
        wait_for_arrivals(b, 1);
        const bool last = b.parks() < g || g + 1 == kMaxGenerations;
        if (last) stop.store(true, std::memory_order_release);
        b.arrive_and_wait();
        if (last) break;
      }
    });
    partner.join();
    waiter.join();
    // One wait per generation; a prompt partner lets it leave unparked.
    EXPECT_LT(b.parks(), b.generations());
  }
}

}  // namespace
}  // namespace vsim::pdes
