#include "sim/event_queue.h"

#include <stdexcept>
#include <utility>

namespace tempriv::sim {

std::uint64_t EventQueue::next_aux(std::uint32_t slot) {
  if (next_seq_ >= (1ull << 40)) {
    throw std::length_error("EventQueue: sequence number space exhausted");
  }
  return (next_seq_++ << kSlotBits) | slot;
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    Slot& s = slot_at(slot);
    free_head_ = s.next_free;
#if defined(__GNUC__) || defined(__clang__)
    // Warm the next free slot's line for the next schedule() call.
    if (free_head_ != kNilSlot) __builtin_prefetch(&slot_at(free_head_), 1);
#endif
    s.next_free = kNilSlot;
    return slot;
  }
  if (slot_count_ == kMaxSlots) {
    throw std::length_error("EventQueue: slot pool exhausted");
  }
  if (slot_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  Slot& s = slot_at(slot);
  s.action = Callback{};
  // Resetting the occupant word invalidates the outstanding handle and any
  // heap record for this slot's previous event; the next occupant's aux has
  // a fresh sequence number, so stale records can never spring back to life.
  s.aux = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint64_t aux = id.value();
  const std::uint32_t slot = aux_slot(aux);
  if (slot >= slot_count_) return false;
  if (slot_at(slot).aux != aux) return false;
  // The record stays behind as a tombstone in whichever lane holds it.
  if (slot_at(slot).lane != 0) {
    ++fifo_tomb_;
  } else {
    ++heap_tomb_;
  }
  release_slot(slot);
  --live_count_;
  // Sweep the heads now so next_time() never reports a cancelled event.
  drop_leading_tombstones();
  return true;
}

// Sift up with a hole: the entry is written once at its final position
// instead of swapped level by level.
void EventQueue::heap_push(HeapEntry entry) {
  std::size_t pos = heap_.size();
  heap_.push_back(entry);
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!entry.precedes(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = entry;
}

// Removes the root, bottom-up (Wegener): descend along minimum children to
// a leaf unconditionally — the displaced back element almost always belongs
// near the leaves, so comparing against it at every level is wasted work —
// then bubble it up from the leaf hole the few (usually zero) levels it
// deserves. The resulting layout can differ from a classic sift-down, but
// pop order is a property of the (key, aux) multiset — a total order with
// unique aux — so execution order is unchanged.
void EventQueue::heap_pop_front() noexcept {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t pos = 0;
  while (true) {
    const std::size_t first_child = 4 * pos + 1;
    if (first_child >= n) break;
#if defined(__GNUC__) || defined(__clang__)
    // Start the grandchildren of the likely path toward memory; the min
    // scan below gives the prefetch one level of lead time.
    if (4 * first_child + 1 < n) __builtin_prefetch(&heap_[4 * first_child + 1]);
#endif
    const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (heap_[c].precedes(heap_[best])) best = c;
    }
    heap_[pos] = heap_[best];
    pos = best;
  }
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!last.precedes(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = last;
}

void EventQueue::fifo_grow() {
  const std::size_t cap = fifo_.empty() ? 64 : fifo_.size() * 2;
  std::vector<HeapEntry> grown(cap);
  for (std::size_t i = 0; i < fifo_size_; ++i) {
    grown[i] = fifo_[(fifo_head_ + i) & (fifo_.size() - 1)];
  }
  fifo_ = std::move(grown);
  fifo_head_ = 0;
}

void EventQueue::drop_leading_tombstones() noexcept {
  // Each lane's head is probed only while that lane carries dead records —
  // cancel-free lanes (the fifo lane, in practice) cost one counter branch.
  // Tombstones still buried mid-lane surface on later pops.
  while (heap_tomb_ != 0 && !heap_.empty() && !entry_live(heap_.front())) {
    heap_pop_front();
    --heap_tomb_;
    TEMPRIV_TLM_COUNT(kEqTombstoneSkipped);
  }
  while (fifo_tomb_ != 0 && fifo_size_ != 0 && !entry_live(fifo_front())) {
    fifo_pop_front();
    --fifo_tomb_;
    TEMPRIV_TLM_COUNT(kEqTombstoneSkipped);
  }
}

std::optional<EventQueue::Event> EventQueue::pop() {
  std::optional<Event> event;
  dispatch_next([&event](Time at, EventId id, Callback& action) {
    event.emplace(Event{at, id, std::move(action)});
  });
  return event;
}

void EventQueue::clear() {
  heap_.clear();
  fifo_head_ = 0;
  fifo_size_ = 0;
  heap_tomb_ = 0;
  fifo_tomb_ = 0;
  free_head_ = kNilSlot;
  for (std::uint32_t i = slot_count_; i-- > 0;) {
    Slot& s = slot_at(i);
    s.action = Callback{};
    s.aux = 0;
    s.next_free = free_head_;
    free_head_ = i;
  }
  live_count_ = 0;
}

void EventQueue::reserve(std::size_t events) {
  heap_.reserve(events);
  while (fifo_.size() < events) fifo_grow();
  const std::size_t chunks =
      (events + kChunkSize - 1) / kChunkSize;
  while (chunks_.size() < chunks) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
}

}  // namespace tempriv::sim
