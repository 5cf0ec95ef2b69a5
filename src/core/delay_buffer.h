#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/delay_distribution.h"
#include "net/forwarding.h"

namespace tempriv::core {

/// RCAD victim-selection rule (paper §5 uses shortest-remaining-delay; the
/// alternatives exist for the ablation bench).
enum class VictimPolicy {
  kShortestRemaining,  ///< paper: closest to its natural departure
  kLongestRemaining,   ///< adversarial ablation: most premature release
  kRandom,             ///< uniformly random buffered packet
  kOldest,             ///< earliest enqueue time (FIFO-style)
};

const char* to_string(VictimPolicy policy) noexcept;

/// Shared machinery for the buffering disciplines: holds packets, releases
/// each at its drawn release time through the simulation kernel, and lets a
/// packet be taken out early (the RCAD preemption primitive).
///
/// Packets live in a free-listed slot pool threaded onto an intrusive
/// admission-order list, plus a position-tracked binary min-heap keyed on
/// (release_time, seq): the buffer's release schedule. `seq` is the event
/// sequence number reserved from the kernel at admission
/// (Simulator::reserve_seq), i.e. the number that scheduling the packet's
/// own release event at that instant would have consumed; it rises with
/// admission order, so it is also the admission tie-break.
///
/// While non-empty, the buffer keeps exactly one release timer in the event
/// queue, keyed on the heap root's (release_time, seq). The timer is re-keyed
/// in place when the root changes (an admit lands at the root, or the root
/// leaves early) and re-armed after a release fires. The queue therefore
/// holds one record per non-empty buffer instead of one per held packet,
/// and each packet still leaves at the exact (time, seq) position its own
/// event would have had: execution order, RNG draw order and every result
/// are those of per-packet release events.
///
/// Victim choice per policy: kShortestRemaining takes the heap root
/// (O(log n)), kOldest the admission-list head, kRandom draws one uniform
/// index and walks the list, and kLongestRemaining scans the heap array
/// (O(n); an ablation policy, run at the paper's k = 10). The choice is
/// bit-identical to a linear first-wins scan over the admission order
/// (select_victim, kept as the reference implementation), so simulation
/// outputs are unchanged.
///
/// The heap stores its ordering keys (release_time, seq) inline in each
/// node rather than slot indices alone: a Slot spans two cache lines (the
/// packet payload lives inline), so keyed nodes keep every sift comparison
/// inside the heap array instead of chasing two random slots per compare.
class DelayBuffer {
 public:
  struct Held {
    net::Packet packet;
    std::uint64_t seq = 0;  // event sequence number reserved at admission
    double enqueue_time = 0.0;
    double release_time = 0.0;
  };

  /// The distribution is shared-const so a whole network of identically
  /// configured nodes holds one distribution object instead of a clone per
  /// node (sample() is const). unique_ptr arguments convert implicitly.
  explicit DelayBuffer(std::shared_ptr<const DelayDistribution> delay,
                       VictimPolicy policy = VictimPolicy::kShortestRemaining);

  /// Movable while empty (no timer is armed); the release timer's closure
  /// captures `this`, so a non-empty buffer must stay put.
  DelayBuffer(DelayBuffer&&) = default;
  DelayBuffer& operator=(DelayBuffer&&) = default;

  std::size_t size() const noexcept { return live_count_; }

  /// Heap bytes held by the slot pool and the release heap (capacity-based;
  /// the shared distribution is not counted — it is shared).
  std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) +
           heap_.capacity() * sizeof(HeapNode);
  }
  const DelayDistribution& delay_distribution() const noexcept { return *delay_; }
  VictimPolicy victim_policy() const noexcept { return policy_; }

  /// Copies the held packets in admission order (oldest first). For tests
  /// and diagnostics; O(n).
  std::vector<Held> snapshot() const;

  /// Pre-sizes the slot pool and the release heap for `capacity`
  /// concurrently-held packets, e.g. the M/M/k/k capacity k, so the steady
  /// state never reallocates.
  void reserve(std::size_t capacity);

  /// Draws a delay Y for the packet and holds it until now + Y, when it
  /// leaves the buffer and is transmitted via `ctx`. A buffer serves one
  /// context: the release timer keeps the one passed to the admit that
  /// armed it.
  void admit(net::Packet&& packet, net::NodeContext& ctx) {
    admit(std::move(packet), ctx, *delay_);
  }

  /// Like admit(), but draws Y from `delay` instead of the buffer's own
  /// distribution — for disciplines that retune their delay parameters
  /// online (see ErlangTunedRcad). A draw that is not finite and >= 0
  /// throws std::invalid_argument and admits nothing.
  void admit(net::Packet&& packet, net::NodeContext& ctx,
             const DelayDistribution& delay);

  /// Selects the victim under this buffer's policy, takes it out of the
  /// release schedule and returns it to the caller. O(log n) under
  /// kShortestRemaining. Throws std::logic_error if the buffer is empty.
  net::Packet preempt(net::NodeContext& ctx);

  /// RCAD's full-buffer step, the one the forwarding hot paths use: the
  /// victim leaves and is handed to ctx.transmit(), then the new packet's
  /// delay is drawn and the packet is admitted into the victim's heap
  /// position with one sift, re-keying the timer at most once. Observably
  /// identical to preempt(), ctx.transmit() and admit() in that order: same
  /// victim, same RNG draws and sequence numbers in the same order, same
  /// size() seen during the transmit, which must not admit to, preempt or
  /// eject from this buffer. If the transmit or the draw throws, the buffer
  /// is left as after preempt() and `packet` is not admitted.
  void preempt_and_admit(net::Packet&& packet, net::NodeContext& ctx) {
    preempt_and_admit(std::move(packet), ctx, *delay_);
  }
  void preempt_and_admit(net::Packet&& packet, net::NodeContext& ctx,
                         const DelayDistribution& delay);

  /// Takes out the packet at admission-order position `index` (0 = oldest)
  /// and returns it. O(n) list walk; preempt() is the hot-path primitive.
  /// Throws std::out_of_range on a bad index.
  net::Packet eject(std::size_t index, net::NodeContext& ctx);

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  struct Slot {
    Held held;
    std::uint32_t heap_pos = kNilSlot;
    std::uint32_t prev = kNilSlot;  // admission-order list links
    std::uint32_t next = kNilSlot;
    std::uint32_t next_free = kNilSlot;
  };
  static_assert(sizeof(Slot) == 112, "DelayBuffer::Slot layout changed");

  /// Heap node: the ordering keys ride along with the slot index, so sift
  /// compares stay inside the (dense) heap array. A held packet's
  /// release_time and seq never change, so the copies cannot go stale.
  struct HeapNode {
    double key = 0.0;  // release_time
    std::uint64_t seq = 0;
    std::uint32_t slot = kNilSlot;
  };

  /// Release order: earlier release first, admission order (first admitted
  /// wins) breaking ties — the event queue's (time, seq) order, and the
  /// element a first-strict-win shortest-remaining scan selects.
  static bool heap_precedes(const HeapNode& a, const HeapNode& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }
  HeapNode node_of(std::uint32_t slot) const noexcept {
    const Held& held = slots_[slot].held;
    return HeapNode{held.release_time, held.seq, slot};
  }

  std::uint32_t acquire_slot();
  void link_back(std::uint32_t slot) noexcept;
  void unlink(std::uint32_t slot) noexcept;
  void heap_push(std::uint32_t slot);
  void heap_remove(std::uint32_t slot) noexcept;
  /// Re-sites `node` starting at hole `pos`, whichever direction it must
  /// move; writes it once at its final position (hole-based, no swaps).
  void heap_sift(std::uint32_t pos, HeapNode node) noexcept;

  /// Stores a just-arrived packet in `slot` with release time now + delay
  /// and reserves its sequence number.
  void fill(std::uint32_t slot, net::Packet&& packet, sim::Simulator& sim,
            double delay);
  std::uint32_t victim_slot(sim::RandomStream& rng) const;
  /// Takes an unlinked `slot` out of the heap and onto the free list.
  void free_slot(std::uint32_t slot) noexcept;
  /// Removes the packet in `slot` from every structure and returns it; the
  /// timer is left to the caller.
  net::Packet take(std::uint32_t slot) noexcept;
  /// Points the timer at the root after an early exit: cancels it if the
  /// buffer is empty, re-keys it if the root left.
  void follow_root(bool root_left, sim::Simulator& sim);
  /// take() for an early exit, with follow_root().
  net::Packet extract(std::uint32_t slot, net::NodeContext& ctx);

  /// Schedules the timer on the root's (release_time, seq).
  void arm(net::NodeContext& ctx);
  /// Re-keys the armed timer to the (new) root.
  void retime(sim::Simulator& sim);
  /// The timer's action: the root's release time has come.
  void release(net::NodeContext& ctx);

  std::shared_ptr<const DelayDistribution> delay_;
  VictimPolicy policy_;
  std::vector<Slot> slots_;
  std::vector<HeapNode> heap_;  // release schedule, root = next release
  std::uint32_t free_head_ = kNilSlot;
  std::uint32_t head_ = kNilSlot;  // oldest admission
  std::uint32_t tail_ = kNilSlot;  // newest admission
  sim::EventId timer_;  // pending exactly while the buffer is non-empty
  std::size_t live_count_ = 0;
};

/// Reference victim selection: index of the victim in `held` (admission
/// order) per `policy`. Linear scan, first-wins on ties — the behavioral
/// contract DelayBuffer::preempt's indexed selection must match; tests
/// cross-check the two. Requires non-empty `held`.
std::size_t select_victim(const std::vector<DelayBuffer::Held>& held,
                          VictimPolicy policy, double now,
                          sim::RandomStream& rng);

}  // namespace tempriv::core
