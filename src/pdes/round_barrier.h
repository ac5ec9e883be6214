// Reusable cyclic barrier for the threaded engine's GVT rounds.
//
// A round is a handful of barrier crossings that usually complete within
// microseconds of each other, so a waiter first spins on the generation
// counter for a short, time-bounded window and only then parks on a
// condition variable.  The spin uses the CPU's pause hint and never yields:
// a yield loop hands the core to whatever else runs, which on a loaded host
// turns a microsecond barrier into a scheduler quantum.  The window is short
// enough that a waiter whose partner was descheduled gives the core back
// almost at once.
//
// arrive_and_wait(completion) runs `completion` on the last arriver while
// every other participant is still held, so a round's reductions (drain
// counts, GVT, the verdict) run in the barrier that ends the phase instead
// of in extra barriers of their own.  Arrival is one atomic add; the mutex
// and condition variable are touched only by waiters that park and by a
// completer that finds someone parked.
//
// leave() withdraws a participant permanently (crash-stop).  A worker only
// crashes in its work phase, so the generation a leaver can complete is
// always one whose waiters arrived without a completion; debug builds
// assert that.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace vsim::pdes {

/// How long a waiter spins before it parks.  Long enough to cover a round
/// phase whose participants arrive together; short enough that spinning
/// beside a descheduled partner costs little on a loaded host.
inline constexpr std::chrono::microseconds kBarrierSpin{5};

class RoundBarrier {
 public:
  explicit RoundBarrier(std::size_t n) : state_(pack(n, 0)) {}

  /// Blocks until every participant arrived.
  void arrive_and_wait() { arrive_and_wait(NoCompletion{}); }

  /// Blocks until every participant arrived; the last arriver runs
  /// `completion` before any participant is released.
  template <class F>
  void arrive_and_wait(F&& completion) {
    constexpr bool kHasCompletion =
        !std::is_same_v<std::decay_t<F>, NoCompletion>;
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if constexpr (kHasCompletion)
      armed_.store(true, std::memory_order_relaxed);
    const std::uint64_t s =
        state_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrived(s) == parties(s)) {
      // Last arriver: everyone else is held on gen_, and nobody can leave
      // (leavers are in their work phase, i.e. not yet arrived here).
      if constexpr (kHasCompletion) {
        completion();
        armed_.store(false, std::memory_order_relaxed);
      }
      state_.store(pack(parties(s), 0), std::memory_order_relaxed);
      release(gen);
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + kBarrierSpin;
    for (;;) {
      for (int i = 0; i < 16; ++i) {
        if (gen_.load(std::memory_order_acquire) != gen) return;
        cpu_relax();
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
    std::unique_lock<std::mutex> lock(m_);
    // seq_cst pairs with release(): either the completer sees this waiter
    // counted and notifies under the mutex, or this waiter sees the new
    // generation and never sleeps.
    parked_.fetch_add(1, std::memory_order_seq_cst);
    if (gen_.load(std::memory_order_seq_cst) == gen) {
      parks_.fetch_add(1, std::memory_order_relaxed);
      cv_.wait(lock,
               [&] { return gen_.load(std::memory_order_acquire) != gen; });
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Permanently withdraws one participant (crash-stop).  If everyone else
  /// already arrived, the leaver completes the waiting generation.
  void leave() {
    assert(!armed_.load(std::memory_order_relaxed) &&
           "leave() while participants wait at a barrier with a completion");
    std::uint64_t s = state_.load(std::memory_order_relaxed);
    std::uint64_t next = 0;
    bool completes = false;
    do {
      const std::uint64_t n = parties(s) - 1;
      completes = n > 0 && arrived(s) == n;
      next = pack(n, completes ? 0 : arrived(s));
    } while (!state_.compare_exchange_weak(s, next, std::memory_order_acq_rel,
                                           std::memory_order_relaxed));
    if (completes) release(gen_.load(std::memory_order_relaxed));
  }

  /// Participants that arrived at the current generation.
  [[nodiscard]] std::size_t waiting() const {
    return arrived(state_.load(std::memory_order_acquire));
  }
  /// Completed generations.
  [[nodiscard]] std::uint64_t generations() const {
    return gen_.load(std::memory_order_acquire);
  }
  /// Waits that ended parked on the condition variable rather than in the
  /// spin (the last arriver never waits).
  [[nodiscard]] std::uint64_t parks() const {
    return parks_.load(std::memory_order_relaxed);
  }

 private:
  struct NoCompletion {
    void operator()() const {}
  };

  // state_ packs the participant count (high half) and the arrivals of the
  // current generation (low half), so arrive and leave agree on who is last.
  static constexpr std::uint64_t pack(std::uint64_t n, std::uint64_t a) {
    return (n << 32) | a;
  }
  static constexpr std::uint64_t parties(std::uint64_t s) { return s >> 32; }
  static constexpr std::uint64_t arrived(std::uint64_t s) {
    return s & 0xffffffffu;
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("isb" ::: "memory");
#endif
  }

  void release(std::uint64_t gen) {
    gen_.store(gen + 1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(m_);
      cv_.notify_all();
    }
  }

  std::atomic<std::uint64_t> state_;
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<std::uint32_t> parked_{0};
  std::atomic<std::uint64_t> parks_{0};
  /// A participant waits at a barrier that carries a completion.
  std::atomic<bool> armed_{false};
  std::mutex m_;
  std::condition_variable cv_;
};

}  // namespace vsim::pdes
