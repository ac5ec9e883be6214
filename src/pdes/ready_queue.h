// Per-worker scheduler structure of all three engines (the machine model's
// workers, the threaded engine's threads and the distributed engine's
// ranks): an indexed ready heap, a parked list for blocked LPs, blocked-poll
// credit, and the dirty set and fossil heap that bound GVT-round work by
// activity and commits.
//
// Selection.  Every member LP with a finite key (its next pending timestamp)
// sits in a binary min-heap ordered by (key, lp), with a per-LP position
// index so a re-key is an O(log n) sift.  A selection pass walks the heap
// top in (key, lp) order until it finds a ready LP.
//
// Parking.  An LP whose peek() is kBlocked leaves the heap.  Its eligibility
// can only change through a delivery (update()) or a GVT round (the round
// calls rearm() after the new bound, fossil collection and adaptation), so
// later passes skip it at no cost.  Each pass it sits out still counts as
// one blocked poll: take_credit() / settle_credits() return those polls so
// the engine can charge them to LpRuntime::note_blocked() -- the adaptation
// controller's promotion evidence keeps its meaning.
//
// Round set.  A round visits the dirty members and the due ones:
//   * add(), update() and park_top() mark an LP dirty; take_dirty() hands
//     the round the marked members in ascending id and clears the marks.
//     Engines re-touch() the LPs whose next visit does work without new
//     activity (a memory-stall streak, a deferred demotion).
//   * After its visit an LP that still holds history is held (hold()) in
//     the fossil heap, a second indexed min-heap keyed by its oldest history
//     timestamp.  take_due(gvt), called before take_dirty(), touches and
//     releases every held member whose key is below GVT -- exactly the LPs
//     that LpRuntime::fossil_collect(gvt) would commit -- so a held LP is
//     not visited again until it has something to commit or sees activity.
//     Every change to an LP's oldest history entry (processing, a rollback,
//     a checkpoint capture, migration, recovery) comes with a touch, so the
//     key of a held, untouched LP is always current.
//
// Single-threaded: each queue belongs to one worker (or rank).  The threaded
// engine's coordinator touches other workers' queues only while they wait at
// a round barrier.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/virtual_time.h"
#include "pdes/event.h"

namespace vsim::pdes {

class ReadyQueue {
 public:
  ReadyQueue() = default;
  /// An empty queue over the LP id space [0, num_lps).
  explicit ReadyQueue(std::size_t num_lps) { reset(num_lps); }

  /// Drops every member, the parked list, the dirty set and the fossil heap.
  void reset(std::size_t num_lps) {
    slot_.assign(num_lps, Slot{});
    heap_.clear();
    parked_.clear();
    dirty_.clear();
    held_.clear();
    members_ = 0;
  }

  // ---- membership ----

  /// `lp` joins the queue with next timestamp `key` (seeding, migration in,
  /// rebuild after recovery).  Marks it dirty.
  void add(LpId lp, VirtualTime key) {
    assert(slot_[lp].where == Where::kOut);
    slot_[lp].where = Where::kIdle;
    ++members_;
    place(lp, key);
    touch(lp);
  }

  /// `lp` leaves the queue (migration out) and its fossil hold.  Callers
  /// take any parked credit first.  A stale dirty mark stays behind;
  /// take_dirty() filters it.
  void remove(LpId lp) {
    Slot& s = slot_[lp];
    assert(s.where != Where::kOut);
    if (s.where == Where::kHeap) erase<&Slot::pos>(heap_, s.pos);
    if (s.where == Where::kParked) parked_erase(s.pos);
    release(lp);
    s.where = Where::kOut;
    --members_;
  }

  [[nodiscard]] bool contains(LpId lp) const {
    return slot_[lp].where != Where::kOut;
  }
  [[nodiscard]] bool parked(LpId lp) const {
    return slot_[lp].where == Where::kParked;
  }
  /// Member count (the adaptation scope of the owner).
  [[nodiscard]] std::size_t size() const { return members_; }

  // ---- keys ----

  /// The member's next timestamp changed (delivery, processed event,
  /// checkpoint rollback).  Unparks it and marks it dirty.
  void update(LpId lp, VirtualTime key) {
    Slot& s = slot_[lp];
    assert(s.where != Where::kOut);
    if (s.where == Where::kHeap && key != kTimeInf) {
      rekey<&Slot::pos>(heap_, s.pos, key);
    } else {
      if (s.where == Where::kHeap) erase<&Slot::pos>(heap_, s.pos);
      if (s.where == Where::kParked) parked_erase(s.pos);
      s.where = Where::kIdle;
      place(lp, key);
    }
    touch(lp);
  }

  // ---- selection ----

  /// Starts one selection pass (one try_process_one call).  Parked LPs earn
  /// one blocked-poll credit per pass.
  void begin_pass() { ++passes_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// Minimal (key, lp) in the heap.  Precondition: !empty().
  [[nodiscard]] LpId top() const { return heap_.front().lp; }
  [[nodiscard]] VirtualTime top_key() const { return heap_.front().key; }

  /// The heap top is blocked: park it until a delivery or the next round.
  /// The pass that parks it is the one that polled it, so its credit starts
  /// after this pass.
  void park_top() {
    const Node n = heap_.front();
    erase<&Slot::pos>(heap_, 0);
    Slot& s = slot_[n.lp];
    s.where = Where::kParked;
    s.pos = static_cast<std::uint32_t>(parked_.size());
    parked_.push_back({n.lp, n.key, passes_});
    touch(n.lp);
  }

  // ---- blocked-poll credit ----

  /// Passes `lp` has sat parked since it parked or was last credited (0 if
  /// it is not parked); restarts its count.
  std::uint64_t take_credit(LpId lp) {
    const Slot& s = slot_[lp];
    if (s.where != Where::kParked) return 0;
    Parked& p = parked_[s.pos];
    const std::uint64_t n = passes_ - p.stamp;
    p.stamp = passes_;
    return n;
  }

  /// take_credit() for every parked LP: calls f(lp, n) for each n > 0.
  template <typename F>
  void settle_credits(F&& f) {
    for (Parked& p : parked_) {
      const std::uint64_t n = passes_ - p.stamp;
      p.stamp = passes_;
      if (n > 0) f(p.lp, n);
    }
  }

  // ---- GVT rounds ----

  /// Local GVT candidate: min(heap top, parked keys).
  [[nodiscard]] VirtualTime min_key() const {
    VirtualTime m = heap_.empty() ? kTimeInf : heap_.front().key;
    for (const Parked& p : parked_) m = std::min(m, p.key);
    return m;
  }
  [[nodiscard]] std::size_t parked_count() const { return parked_.size(); }

  /// Every parked LP back into the heap (after the round's new bound).
  void rearm() {
    for (const Parked& p : parked_) {
      slot_[p.lp].where = Where::kIdle;
      place(p.lp, p.key);
    }
    parked_.clear();
  }

  /// Marks `lp` for the next round's visit.
  void touch(LpId lp) {
    Slot& s = slot_[lp];
    if (s.dirty) return;
    s.dirty = true;
    dirty_.push_back(lp);
  }

  /// After `lp`'s round visit: hold it in the fossil heap while its oldest
  /// history entry is at `oldest`; kTimeInf (no history) releases it.
  void hold(LpId lp, VirtualTime oldest) {
    Slot& s = slot_[lp];
    assert(s.where != Where::kOut && "only members are held");
    if (oldest == kTimeInf) {
      release(lp);
    } else if (s.held == kNotHeld) {
      push<&Slot::held>(held_, {oldest, lp});
    } else {
      assert(held_[s.held].lp == lp);
      if (held_[s.held].key != oldest)
        rekey<&Slot::held>(held_, s.held, oldest);
    }
  }

  /// Touches and releases every held member whose oldest history entry is
  /// strictly below `gvt` (fossil_collect's bound: an entry at exactly GVT
  /// stays).  Call before take_dirty(); the visit re-holds what remains.
  void take_due(VirtualTime gvt) {
    while (!held_.empty() && held_.front().key < gvt) {
      const LpId lp = held_.front().lp;
      assert(slot_[lp].where != Where::kOut && slot_[lp].held == 0);
      release(lp);
      touch(lp);
    }
  }
  [[nodiscard]] bool held(LpId lp) const {
    return slot_[lp].held != kNotHeld;
  }
  [[nodiscard]] std::size_t held_count() const { return held_.size(); }

  /// Moves the dirty members into `out` in ascending id and clears every
  /// mark.  LPs touched while the caller walks `out` land in the next set.
  void take_dirty(std::vector<LpId>& out) {
    out.clear();
    out.swap(dirty_);
    std::size_t keep = 0;
    for (const LpId lp : out) {
      slot_[lp].dirty = false;
      if (slot_[lp].where != Where::kOut) out[keep++] = lp;
    }
    out.resize(keep);
    std::sort(out.begin(), out.end());
  }

 private:
  enum class Where : std::uint8_t { kOut, kIdle, kHeap, kParked };
  static constexpr std::uint32_t kNotHeld = ~std::uint32_t{0};
  /// One per LP id per queue, so it stays small: two heap positions and
  /// two bytes of state.
  struct Slot {
    std::uint32_t pos = 0;          ///< index in heap_ or parked_
    std::uint32_t held = kNotHeld;  ///< index in held_ (the fossil heap)
    Where where = Where::kOut;
    bool dirty = false;
  };
  static_assert(sizeof(Slot) == 12);
  struct Node {
    VirtualTime key;
    LpId lp;
  };
  struct Parked {
    LpId lp;
    VirtualTime key;
    std::uint64_t stamp;  ///< passes_ when parked or last credited
  };

  static bool less(const Node& a, const Node& b) {
    return a.key < b.key || (a.key == b.key && a.lp < b.lp);
  }

  /// Puts an unplaced member where `key` says: the heap if finite, else idle.
  void place(LpId lp, VirtualTime key) {
    if (key == kTimeInf) return;
    slot_[lp].where = Where::kHeap;
    push<&Slot::pos>(heap_, {key, lp});
  }

  /// Drops `lp` from the fossil heap, if it is held.
  void release(LpId lp) {
    const std::uint32_t i = slot_[lp].held;
    if (i == kNotHeld) return;
    assert(held_[i].lp == lp);
    erase<&Slot::held>(held_, i);
    slot_[lp].held = kNotHeld;
  }

  void parked_erase(std::size_t i) {
    if (i + 1 != parked_.size()) {
      parked_[i] = parked_.back();
      slot_[parked_[i].lp].pos = static_cast<std::uint32_t>(i);
    }
    parked_.pop_back();
  }

  // The ready heap (heap_, positions in Slot::pos) and the fossil heap
  // (held_, positions in Slot::held) share these indexed-heap operations.

  template <std::uint32_t Slot::*Pos>
  void push(std::vector<Node>& h, const Node& n) {
    h.push_back(n);
    sift_up<Pos>(h, h.size() - 1);
  }

  template <std::uint32_t Slot::*Pos>
  void rekey(std::vector<Node>& h, std::size_t i, VirtualTime key) {
    const VirtualTime old = h[i].key;
    h[i].key = key;
    if (key < old)
      sift_up<Pos>(h, i);
    else
      sift_down<Pos>(h, i);
  }

  /// Removes entry `i`; the caller resets the removed member's position.
  template <std::uint32_t Slot::*Pos>
  void erase(std::vector<Node>& h, std::size_t i) {
    const std::size_t last = h.size() - 1;
    if (i != last) {
      const Node old = h[i];
      set<Pos>(h, i, h[last]);
      h.pop_back();
      if (less(h[i], old))
        sift_up<Pos>(h, i);
      else
        sift_down<Pos>(h, i);
    } else {
      h.pop_back();
    }
  }

  template <std::uint32_t Slot::*Pos>
  void set(std::vector<Node>& h, std::size_t i, const Node& n) {
    h[i] = n;
    slot_[n.lp].*Pos = static_cast<std::uint32_t>(i);
  }

  template <std::uint32_t Slot::*Pos>
  void sift_up(std::vector<Node>& h, std::size_t i) {
    const Node n = h[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(n, h[parent])) break;
      set<Pos>(h, i, h[parent]);
      i = parent;
    }
    set<Pos>(h, i, n);
  }

  template <std::uint32_t Slot::*Pos>
  void sift_down(std::vector<Node>& h, std::size_t i) {
    const Node n = h[i];
    const std::size_t size = h.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && less(h[child + 1], h[child])) ++child;
      if (!less(h[child], n)) break;
      set<Pos>(h, i, h[child]);
      i = child;
    }
    set<Pos>(h, i, n);
  }

  std::vector<Slot> slot_;
  std::vector<Node> heap_;
  std::vector<Parked> parked_;
  std::vector<LpId> dirty_;
  std::vector<Node> held_;  ///< the fossil heap: (oldest history ts, lp)
  std::size_t members_ = 0;
  std::uint64_t passes_ = 0;
};

}  // namespace vsim::pdes
