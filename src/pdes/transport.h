// Pluggable inter-worker transport layer.
//
// The original system ran over MPI / TCP sockets between workstations,
// where messages are delayed, reordered, duplicated and lost.  The engines
// abstract that network as a three-layer stack:
//
//   ChannelStack (session layer: per-link sequence numbers, receiver-side
//        |        dedup, cumulative acks, retransmission with exponential
//        |        backoff -- or a counted pass-through when reliability is
//        |        disabled)
//        v
//   FaultyTransport (optional decorator: deterministic seeded drop /
//        |           duplicate / reorder / latency-jitter / blackout
//        |           injection per link)
//        v
//   engine wire (Transport implementation supplied by the engine: the
//                machine engine's latency-stamped virtual mailboxes or the
//                threaded engine's mutex-protected queues)
//
// Threading contract (threaded engine): all sender-side state of a link
// src->dst (sequence counter, in-flight list, fault RNG, holdback queue)
// is touched only from worker `src`, and all receiver-side state (expected
// sequence, reorder buffer) only from worker `dst`.  send()/poll()/flush()
// must be called from the link's source worker and on_wire_delivery() from
// the packet's destination worker -- or on that worker's behalf by the
// thread running a round barrier's completion while the worker is held at
// the barrier (the barrier orders the two threads' accesses).  Counters
// are aggregated after the workers have joined (or inside a barrier round).
//
// Links are indexed by (src worker, dst worker), never by LP, and senders
// resolve the destination worker from the partition map per send.  LP
// migration (partition/rebalance.h) therefore moves no transport state at
// all: after the GVT round that moved an LP, traffic to it simply flows
// down the links of its new owner, with every link's sequence/ack/RNG
// cursors untouched.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "pdes/config.h"
#include "pdes/event.h"

namespace vsim::pdes {

/// SplitMix64 seed scrambler: shared by every deterministic RNG in the
/// engines (link faults, worker crashes) so seeds never collide by accident.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One xorshift64* step; returns a uniform draw in [0, 1) and advances the
/// cursor.  The cursor must never be 0.
inline double xorshift_uniform(std::uint64_t& rng) {
  rng ^= rng >> 12;
  rng ^= rng << 25;
  rng ^= rng >> 27;
  const std::uint64_t bits = rng * 0x2545f4914f6cdd1dULL;
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Per-link reliable-layer cursors saved in a checkpoint.  In-flight and
/// reorder buffers are NOT saved: checkpoints are only taken when the stack
/// is quiescent (post drain-until-quiet), so both are provably empty.
struct LinkCheckpoint {
  std::uint64_t next_seq = 1;
  std::uint64_t expected = 1;
};

/// Per-link fault-injector cursors saved in a checkpoint: restoring them
/// makes the post-recovery fault sequence identical to the original run's,
/// which is what makes replay deterministic under chaos plans.
struct FaultLinkCheckpoint {
  std::uint64_t rng = 1;
  std::uint32_t blackout_left = 0;
};

/// What actually happened on the wire during a run.  A chaos run must show
/// nonzero drops/retransmits here, otherwise the fault plan never bit.
///
/// Every field is exported 1:1 as a `transport.<field>` counter in the
/// metrics registry (obs/metrics.h) and therefore appears in RunStats::
/// metrics and in the BENCH_*.json reports; see DESIGN.md "Observability".
struct TransportCounters {
  std::uint64_t data_sent = 0;       ///< first transmissions of data packets
  std::uint64_t acks_sent = 0;       ///< ack packets emitted (incl. re-acks)
  std::uint64_t delivered = 0;       ///< data packets handed to the LP layer
  std::uint64_t dropped = 0;         ///< vanished on the wire (incl. blackouts)
  std::uint64_t duplicated = 0;      ///< extra copies injected by faults
  std::uint64_t reordered = 0;       ///< packets held back behind later traffic
  std::uint64_t retransmits = 0;     ///< reliable-layer resends
  std::uint64_t dup_discarded = 0;   ///< receiver-side dedup hits
  std::uint64_t buffered = 0;        ///< packets parked for in-order restore

  TransportCounters& operator+=(const TransportCounters& o);
};

/// Structured failure surfaced when the reliable layer gives up on a link
/// (retry cap exceeded) or when a lossy run finished without reliability
/// enabled (results cannot be trusted).
struct TransportError {
  std::uint32_t src_worker = 0;
  std::uint32_t dst_worker = 0;
  std::uint64_t seq = 0;       ///< link sequence that could not be delivered
  std::uint32_t attempts = 0;  ///< transmissions attempted for it
  std::string message;

  [[nodiscard]] std::string str() const;
};

/// The unit the wire moves: an Event wrapped with link addressing.  `seq`
/// is the reliable layer's per-link sequence number for data packets and
/// the cumulative acknowledgement for ack packets; 0 when unreliable.
struct Packet {
  enum class Kind : std::uint8_t { kData, kAck };
  Kind kind = Kind::kData;
  std::uint32_t src = 0;  ///< source worker
  std::uint32_t dst = 0;  ///< destination worker
  std::uint64_t seq = 0;
  Event ev;
};

/// A wire that moves packets between workers.  Engines implement the
/// bottom of the stack; FaultyTransport decorates any Transport.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Hands a packet to the network.  `now` is the submitting worker's
  /// current time in engine time units (wires without a timing model may
  /// ignore it).
  virtual void submit(Packet&& pkt, double now) = 0;

  /// Releases every packet this layer still holds for links whose source is
  /// `worker` (reorder holdbacks, blackout queues).  Returns how many were
  /// pushed down; synchronisation rounds call this until the whole stack is
  /// quiet.  Perfect wires hold nothing.
  virtual std::size_t release_held(std::uint32_t worker, double now) {
    (void)worker;
    (void)now;
    return 0;
  }
};

/// Deterministic fault-injection decorator.  Each link (src worker, dst
/// worker) carries its own xorshift RNG seeded from the plan, so the fault
/// sequence is a pure function of the plan and the traffic pattern.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(Transport& inner, std::size_t num_workers,
                  const FaultPlan& plan);

  void submit(Packet&& pkt, double now) override;
  std::size_t release_held(std::uint32_t worker, double now) override;

  /// Packets currently parked for reordering, across all links.
  [[nodiscard]] std::size_t held_count() const;
  [[nodiscard]] TransportCounters counters() const;

  /// Snapshot / restore of the per-link RNG + blackout cursors, in link
  /// index order.  restore_links drops any parked packets (a checkpoint is
  /// only restored into a quiescent network).
  [[nodiscard]] std::vector<FaultLinkCheckpoint> capture_links() const;
  void restore_links(const std::vector<FaultLinkCheckpoint>& saved);

 private:
  struct Link {
    std::uint64_t rng;
    std::uint32_t blackout_left = 0;  ///< submissions still swallowed
    /// Packets elected for reordering: delivered after the next submission
    /// on the link overtakes them (or at the next release_held()).
    std::deque<Packet> held;
    TransportCounters counters;
  };

  [[nodiscard]] Link& link(std::uint32_t src, std::uint32_t dst) {
    return links_[src * num_workers_ + dst];
  }
  /// Uniform draw in [0, 1).
  static double uniform(std::uint64_t& rng);

  Transport& inner_;
  std::size_t num_workers_;
  FaultPlan plan_;
  std::vector<Link> links_;
};

/// Session layer the engines talk to.  With `reliable` set it restores
/// exactly-once in-order delivery per link over any lossy Transport; with
/// it clear, datagrams pass straight through (faults reach the protocol
/// layer, which is exactly what the chaos tests want to observe).
class ChannelStack {
 public:
  /// Delivers an application event to the LP layer of worker `worker`.
  /// Called from on_wire_delivery(), i.e. on the destination worker.
  using DeliverFn = std::function<void(std::uint32_t worker, Event&&)>;
  /// Charged-cost hook: invoked for ack emissions and retransmissions so
  /// the machine engine can bill them to the owning worker's virtual clock
  /// (first transmissions are billed by the engine's router).
  using TransmitHook =
      std::function<void(std::uint32_t worker, Packet::Kind, bool retransmit)>;

  ChannelStack(Transport& wire, std::size_t num_workers,
               const TransportConfig& config);

  void set_deliver(DeliverFn f) { deliver_ = std::move(f); }
  void set_transmit_hook(TransmitHook f) { transmit_ = std::move(f); }

  /// Sender side: ship `ev` from worker `from` to worker `to`.
  void send(std::uint32_t from, std::uint32_t to, Event&& ev, double now);

  /// Receiver side: the engine calls this for every packet its wire
  /// delivers; data events come back through the DeliverFn (possibly
  /// after in-order restore), acks settle the sender's in-flight list.
  void on_wire_delivery(Packet&& pkt, double now);

  /// Emits the cumulative acks owed by receiver `worker`, one per link that
  /// delivered (or dup-discarded) data since the last flush.  Deliveries no
  /// longer ack per packet: the engines drain their inboxes in batches and
  /// call this once per drained batch, so a burst of n packets on a link
  /// costs one ack instead of n (see DESIGN.md "Hot-path data structures").
  /// Called from the destination worker, like on_wire_delivery().  Returns
  /// the number of acks emitted.
  std::size_t flush_acks(std::uint32_t worker, double now);

  /// Retransmits in-flight packets whose timeout expired on links whose
  /// source is `worker`.  Returns the number of packets resent.
  std::size_t poll(std::uint32_t worker, double now);

  /// Force-retransmits every in-flight packet from `worker` and releases
  /// everything held by lower layers, regardless of timers.  Used by the
  /// synchronisation rounds to drain the network to quiescence: a round
  /// keeps draining + flushing until a full pass moves nothing.
  std::size_t flush(std::uint32_t worker, double now);

  /// True when no packet is in flight or parked anywhere in the stack
  /// (meaningful only after drain passes, i.e. inside a barrier).
  [[nodiscard]] bool quiescent() const;

  [[nodiscard]] bool reliable() const { return config_.reliable; }

  /// Aggregated over all links; call after workers joined / in a barrier.
  [[nodiscard]] TransportCounters counters() const;

  /// First structured failure, if any.  Once set, poll()/flush() become
  /// no-ops so the engines can unwind without livelocking.
  [[nodiscard]] std::optional<TransportError> error() const;

  /// Records the post-hoc "lossy run without reliability" error; used by
  /// engines at termination so silent corruption is impossible.
  void set_error(TransportError err);

  /// Snapshot / restore of the per-link sequence cursors, in link index
  /// order.  Capture asserts quiescence; restore clears in-flight and
  /// reorder buffers (anything still buffered belongs to the timeline being
  /// abandoned) but deliberately keeps a previously recorded error latched.
  [[nodiscard]] std::vector<LinkCheckpoint> capture_links() const;
  void restore_links(const std::vector<LinkCheckpoint>& saved);

 private:
  struct InFlight {
    Packet pkt;
    std::uint32_t attempts = 1;
    double next_retry = 0.0;
    double rto = 0.0;
  };
  struct SendLink {
    std::uint64_t next_seq = 1;
    std::deque<InFlight> in_flight;
    TransportCounters counters;
  };
  struct RecvLink {
    std::uint64_t expected = 1;  ///< next in-order sequence
    std::map<std::uint64_t, Event> reorder;
    TransportCounters counters;
  };

  [[nodiscard]] SendLink& send_link(std::uint32_t src, std::uint32_t dst) {
    return send_links_[src * num_workers_ + dst];
  }
  [[nodiscard]] RecvLink& recv_link(std::uint32_t src, std::uint32_t dst) {
    return recv_links_[src * num_workers_ + dst];
  }
  void emit_ack(std::uint32_t from, std::uint32_t to, std::uint64_t cum,
                double now);
  std::size_t retransmit_due(std::uint32_t worker, double now, bool force);

  Transport& wire_;
  std::size_t num_workers_;
  TransportConfig config_;
  DeliverFn deliver_;
  TransmitHook transmit_;
  std::vector<SendLink> send_links_;
  std::vector<RecvLink> recv_links_;
  /// ack_due_[dst * num_workers_ + src]: receiver dst owes link src->dst a
  /// cumulative ack.  Row dst is touched only by worker dst (set during
  /// on_wire_delivery, cleared by flush_acks), matching the recv-side
  /// threading contract above.
  std::vector<std::uint8_t> ack_due_;

  mutable std::mutex error_mutex_;
  std::optional<TransportError> error_;
  std::atomic<bool> has_error_{false};
  FaultyTransport* faulty_ = nullptr;  ///< set when the wire is the decorator

 public:
  /// Lets the stack pull fault counters into counters() when the wire
  /// below is a FaultyTransport owned by the engine.
  void attach_faulty(FaultyTransport* f) { faulty_ = f; }
};

}  // namespace vsim::pdes
