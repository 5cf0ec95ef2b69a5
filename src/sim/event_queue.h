#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"
#include "telemetry/probes.h"

namespace tempriv::sim {

/// Opaque handle to a scheduled event; used to cancel it later.
/// Value 0 is reserved for "invalid".
///
/// Internally the value is the event's unique "aux" word: bits [0,24) hold
/// the pool slot index and bits [24,64) the event's global sequence number.
/// The sequence number makes every handle unique for the queue's lifetime,
/// so a handle kept past its event's firing (or cancellation) can never
/// alias the slot's next occupant.
class EventId {
 public:
  constexpr EventId() noexcept = default;
  constexpr explicit EventId(std::uint64_t value) noexcept : value_(value) {}

  constexpr bool valid() const noexcept { return value_ != 0; }
  constexpr std::uint64_t value() const noexcept { return value_; }

  friend constexpr bool operator==(EventId, EventId) noexcept = default;

 private:
  std::uint64_t value_ = 0;
};

/// Priority queue of timed callbacks with O(log n) insert, pop, cancel and
/// re-key. Every event carries a sequence number from one counter, and ties
/// in time are broken by it, so runs are fully deterministic: schedule()
/// draws the number at insertion (insertion order), and a caller that must
/// key an event on an earlier instant draws it ahead with reserve_seq().
///
/// The design is a free-listed slot pool plus a 4-ary implicit heap of
/// 16-byte {key, aux} records:
///  - callbacks live in fixed-size pool slots (InlineCallback — no per-event
///    heap allocation for the capture sizes the simulator uses), stored in
///    1024-slot chunks so pool growth never moves a stored callback;
///  - `key` is the event time's bits mapped monotonically to an unsigned
///    integer (IEEE-754 totally ordered for finite doubles), and `aux`
///    packs {seq:40, slot:24}, so the heap's entire (time, seq) ordering
///    contract is two integer compares on one 16-byte record;
///  - EventId is the aux word itself, so a handle check is an array index
///    plus one 8-byte identity compare — no hashing;
///  - heap records are position-tracked (each live slot holds its record's
///    heap index), so cancel() removes the record and rekey() re-sites it in
///    O(log n): the heap holds live events only. The FIFO lane's records
///    never move, and a cancelled one stays behind until it reaches the
///    ring's head (the simulator never cancels a link arrival).
/// In steady state (pool and heap at capacity) schedule/cancel/rekey/pop
/// perform zero heap allocations (see the allocation-counter test and
/// microbench).
class EventQueue {
 public:
  /// Inline capture budget for scheduled callbacks: enough for every
  /// hot-path lambda in the simulator (link arrivals, source ticks,
  /// DelayBuffer's release timer); a bigger callable still works but falls
  /// back to one heap allocation.
  using Callback = InlineCallback<48>;

  struct Event {
    Time at = kTimeZero;
    EventId id;
    Callback action;
  };

  /// Inserts `action` to fire at time `at`. Returns a handle for cancel().
  /// Throws std::length_error if the queue would exceed 2^24 concurrent
  /// events or 2^40 total events (far beyond any simulated workload).
  template <class F>
  EventId schedule(Time at, F&& action) {
    return schedule(at, reserve_seq(), std::forward<F>(action));
  }

  /// schedule() keyed on (at, seq) with a sequence number drawn earlier by
  /// reserve_seq(): the event runs exactly where one scheduled at the
  /// reserving instant would have. `seq` must be carried by no other pending
  /// event. Always takes the heap lane.
  template <class F>
  EventId schedule(Time at, std::uint64_t seq, F&& action) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    s.action.emplace(std::forward<F>(action));
    const std::uint64_t aux = make_aux(seq, slot);
    s.aux = aux;
    heap_push(HeapEntry{time_to_key(at), aux});
    ++live_count_;
    TEMPRIV_TLM_COUNT(kEqScheduleHeap);
    TEMPRIV_TLM_GAUGE_MAX(kEqPeakDepth, live_count_);
    return EventId(aux);
  }

  /// Draws the next sequence number — the one a schedule() call made now
  /// would consume — for a later schedule(at, seq, ...) or rekey().
  /// Throws std::length_error once 2^40 numbers have been drawn.
  std::uint64_t reserve_seq() {
    if (next_seq_ >= kSeqLimit) throw_seq_exhausted();
    return next_seq_++;
  }

  /// Moves the pending heap-lane event `id` to (at, seq) in place — one
  /// O(log n) sift, no slot or callback traffic — where `seq` obeys the
  /// schedule(at, seq, ...) rule. Returns the event's new handle; `id` dies
  /// unless `seq` is the number it already carried. Returns an invalid
  /// EventId, changing nothing, if `id` is not a pending heap-lane event.
  EventId rekey(EventId id, Time at, std::uint64_t seq);

  /// schedule() for event streams whose times arrive in non-decreasing
  /// order — constant-latency link arrivals scheduled from a non-decreasing
  /// simulation clock being the canonical case. Such records bypass the
  /// heap entirely: they append to a sorted FIFO ring (O(1) insert, O(1)
  /// pop, one 16-byte slot each) that dispatch_next() merges with the heap
  /// by the same (time, seq) order, so execution order — and therefore
  /// every simulation result — is bit-identical to scheduling through the
  /// heap. Monotonicity is checked, not trusted: a time below the ring's
  /// tail simply routes through the heap lane, keeping correctness
  /// unconditional. cancel() works on these events exactly as on
  /// heap-scheduled ones.
  template <class F>
  EventId schedule_monotone(Time at, F&& action) {
    const std::uint64_t key = time_to_key(at);
    if (fifo_size_ != 0 && key < fifo_tail_key_) {
      TEMPRIV_TLM_COUNT(kEqFifoDiverted);
      return schedule(at, std::forward<F>(action));
    }
    const std::uint64_t seq = reserve_seq();
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    s.action.emplace(std::forward<F>(action));
    const std::uint64_t aux = make_aux(seq, slot);
    s.aux = aux;
    s.link = kInFifo;
    fifo_push(HeapEntry{key, aux});
    fifo_tail_key_ = key;
    ++live_count_;
    TEMPRIV_TLM_COUNT(kEqScheduleFifo);
    TEMPRIV_TLM_GAUGE_MAX(kEqPeakDepth, live_count_);
    return EventId(aux);
  }

  /// Cancels a pending event. Returns true if the event was still pending
  /// (it will not fire); false if it already fired, was already cancelled,
  /// or the id is invalid.
  bool cancel(EventId id);

  /// Removes the earliest pending event — (time, insertion) order across
  /// both lanes — and runs it in place: invokes
  /// `dispatch(Time at, EventId id, Callback& action)` with the callback
  /// still in its pool slot, releases the slot afterwards (even if
  /// `dispatch` throws), and returns true; returns false if the queue is
  /// empty. The event's handle dies before `dispatch` runs, so cancelling it
  /// from inside returns false. The callback may freely schedule or cancel
  /// other events while executing: pool chunks never move, and the
  /// dispatched slot rejoins the free list only after `dispatch` returns.
  /// Events never leave the queue until they run, so a caller that stops
  /// between calls leaves every unrun event pending.
  template <class Dispatch>
  bool dispatch_next(Dispatch&& dispatch) {
    if (heap_.empty() && fifo_size_ == 0) return false;
    const bool from_fifo = fifo_leads();
    const HeapEntry top = from_fifo ? fifo_front() : heap_.front();
    const std::uint32_t slot = aux_slot(top.aux);
    // Start pulling the slot (a random-access line) into cache while the
    // sift-down below walks the heap; the two latencies overlap.
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slot_at(slot), 1);
#endif
    if (from_fifo) {
      fifo_pop_front();
      // The ring's new head may be a record cancelled mid-lane.
      if (fifo_tomb_ != 0) [[unlikely]] drop_fifo_tombstones();
    } else {
      heap_pop_front();
    }
    Slot& s = slot_at(slot);
    s.aux = 0;  // the handle dies before the callback runs
    --live_count_;
    TEMPRIV_TLM_COUNT(kEqDispatchSingle);
    FinishDispatch finisher{*this, slot};
    dispatch(key_to_time(top.key), EventId(top.aux), s.action);
    return true;
  }

  /// dispatch_next() that moves the callback out instead of running it:
  /// removes and returns the earliest pending event, or nullopt if empty.
  std::optional<Event> pop();

  /// Time of the earliest pending event, or kTimeInfinity if empty.
  Time next_time() const noexcept {
    if (heap_.empty() && fifo_size_ == 0) return kTimeInfinity;
    return key_to_time((fifo_leads() ? fifo_front() : heap_.front()).key);
  }

  /// Number of pending (non-cancelled) events.
  std::size_t size() const noexcept { return live_count_; }
  bool empty() const noexcept { return live_count_ == 0; }

  /// Drops every pending event, frees all pool slots, and discards any
  /// cancelled fifo records. Handles issued before clear() are invalidated
  /// (their slots' occupant words are reset), so they can never cancel an
  /// event scheduled afterwards. Capacity is retained.
  void clear();

  /// Pre-sizes the heap and the slot pool for `events` concurrent events so
  /// the steady state never reallocates.
  void reserve(std::size_t events);

  /// Slots currently allocated in the pool (capacity diagnostics).
  std::size_t slot_count() const noexcept { return slot_count_; }

  /// Monotone bijection from double event times to unsigned keys:
  /// a < b  <=>  time_to_key(a) < time_to_key(b) for all ordered (non-NaN)
  /// doubles. Positive values map above the sign-bit midpoint unchanged;
  /// negative values are bit-complemented to reverse their descending
  /// two's-complement-pattern order.
  static constexpr std::uint64_t time_to_key(Time at) noexcept {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(at);
    return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
  }
  static constexpr Time key_to_time(std::uint64_t key) noexcept {
    const std::uint64_t bits = (key & kSignBit) != 0 ? key & ~kSignBit : ~key;
    return std::bit_cast<Time>(bits);
  }

 private:
  static constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  // The pool is stored in fixed 1024-slot chunks: growing it allocates a new
  // chunk without moving existing slots (a vector would run every stored
  // callback's move constructor on each reallocation), and slot addresses
  // stay stable for the lifetime of the queue.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  // A live heap-lane occupant's `link` is its record's index in heap_,
  // which stays below 2^24; this value marks a fifo-lane occupant instead.
  static constexpr std::uint32_t kInFifo = 0xfffffffeu;
  static constexpr std::uint64_t kSeqLimit = 1ull << 40;

  struct Slot {
    Callback action;
    std::uint64_t aux = 0;  // current occupant's identity; 0 = free
    // Free: the next free slot. Live heap-lane occupant: its record's index
    // in heap_, rewritten by every heap move. Live fifo-lane occupant:
    // kInFifo.
    std::uint32_t link = kNilSlot;
  };
  static_assert(sizeof(Slot) == 80, "EventQueue::Slot layout changed");

  struct HeapEntry {
    std::uint64_t key;  // time_to_key(at)
    std::uint64_t aux;  // {seq:40, slot:24}; seq compares in the high bits

    // (time, seq) lexicographic order: seq is unique, so comparing the aux
    // words on key ties is exactly the insertion-order tie-break. The
    // 128-bit composite compiles to a branchless cmp/sbb pair — heap-order
    // comparisons on random delays are near-coinflips, so dodging the
    // branch predictor is worth more than the extra word of arithmetic.
    bool precedes(const HeapEntry& other) const noexcept {
#if defined(__SIZEOF_INT128__)
      const auto mine =
          (static_cast<unsigned __int128>(key) << 64) | aux;
      const auto theirs =
          (static_cast<unsigned __int128>(other.key) << 64) | other.aux;
      return mine < theirs;
#else
      if (key != other.key) return key < other.key;
      return aux < other.aux;
#endif
    }
  };

  Slot& slot_at(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  const Slot& slot_at(std::uint32_t index) const noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  static constexpr std::uint32_t aux_slot(std::uint64_t aux) noexcept {
    return static_cast<std::uint32_t>(aux & (kMaxSlots - 1));
  }

  static constexpr std::uint64_t make_aux(std::uint64_t seq,
                                          std::uint32_t slot) noexcept {
    return (seq << kSlotBits) | slot;
  }
  [[noreturn]] static void throw_seq_exhausted();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  // Scope guard for dispatch_next: frees the dispatched slot when the
  // callback returns or throws.
  struct FinishDispatch {
    EventQueue& queue;
    std::uint32_t slot;
    ~FinishDispatch() { queue.release_slot(slot); }
  };
  bool entry_live(const HeapEntry& entry) const noexcept {
    return slot_at(aux_slot(entry.aux)).aux == entry.aux;
  }

  // Lane selection: whether the fifo ring's head is the (key, aux)-earliest
  // record; otherwise the heap's head is, if the queue is non-empty. The
  // heap holds live records only, and the ring's leading cancelled records
  // are swept on every cancel and dispatch, so both lane heads are live.
  bool fifo_leads() const noexcept {
    return fifo_size_ != 0 &&
           (heap_.empty() || fifo_front().precedes(heap_.front()));
  }

  // Writes `entry` at heap index `pos` and records the position in its
  // slot; every heap move goes through here.
  void heap_place(std::size_t pos, HeapEntry entry) noexcept {
    heap_[pos] = entry;
    slot_at(aux_slot(entry.aux)).link = static_cast<std::uint32_t>(pos);
  }
  void heap_push(HeapEntry entry);
  void heap_pop_front() noexcept;
  void heap_erase(std::size_t pos) noexcept;
  // Re-sites `entry` from hole `pos`, up or down, written once at its
  // final position (hole-based, no swaps).
  void heap_sift(std::size_t pos, HeapEntry entry) noexcept;
  void heap_sift_up(std::size_t pos, HeapEntry entry) noexcept;
  void heap_sift_down(std::size_t pos, HeapEntry entry) noexcept;
  void drop_fifo_tombstones() noexcept;

  const HeapEntry& fifo_front() const noexcept { return fifo_[fifo_head_]; }
  void fifo_pop_front() noexcept {
    fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
    if (--fifo_size_ == 0) fifo_head_ = 0;
  }
  void fifo_push(HeapEntry entry) {
    if (fifo_size_ == fifo_.size()) fifo_grow();
    fifo_[(fifo_head_ + fifo_size_) & (fifo_.size() - 1)] = entry;
    ++fifo_size_;
  }
  void fifo_grow();

  // 4-ary implicit min-heap on (key, aux) — i.e. on (time, seq). Compared to
  // a binary heap this halves the levels a pop's sift-down walks (the
  // pop-heavy hot path), and four 16-byte entries are exactly one cache
  // line.
  // Position-tracked through Slot::link, so it never holds a dead record.
  std::vector<HeapEntry> heap_;
  // Sorted power-of-two ring for schedule_monotone records. Sortedness is an
  // invariant (appends below the tail key divert to the heap), so the lane
  // needs no sifting: the head is always its minimum, and only the head and
  // its successor can ever share the overall minimum key.
  std::vector<HeapEntry> fifo_;
  std::size_t fifo_head_ = 0;  // masked index of the ring's front
  std::size_t fifo_size_ = 0;
  std::uint64_t fifo_tail_key_ = 0;  // key of the most recent append
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;  // slots handed out at least once
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  // Cancelled records still present in the fifo ring. Zero — always, on
  // the simulator's paths, which never cancel a link arrival — lets a
  // dispatch skip the ring's head-liveness probe outright.
  std::size_t fifo_tomb_ = 0;
};

}  // namespace tempriv::sim
