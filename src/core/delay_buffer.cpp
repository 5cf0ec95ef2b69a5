#include "core/delay_buffer.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "telemetry/probes.h"

namespace tempriv::core {

namespace {

/// One draw from `delay`, held to the finite, >= 0 contract that
/// DelayDistribution only documents: a NaN would break the heap order and a
/// negative delay would schedule into the past.
double draw_delay(const DelayDistribution& delay, sim::RandomStream& rng) {
  const double sampled = delay.sample(rng);
  if (!std::isfinite(sampled) || sampled < 0.0) {
    throw std::invalid_argument(
        "DelayBuffer: delay must be finite and >= 0");
  }
  return sampled;
}

}  // namespace

DelayBuffer::DelayBuffer(std::shared_ptr<const DelayDistribution> delay,
                         VictimPolicy policy)
    : delay_(std::move(delay)), policy_(policy) {
  if (!delay_) throw std::invalid_argument("DelayBuffer: null delay distribution");
}

std::vector<DelayBuffer::Held> DelayBuffer::snapshot() const {
  std::vector<Held> held;
  held.reserve(live_count_);
  for (std::uint32_t slot = head_; slot != kNilSlot; slot = slots_[slot].next) {
    held.push_back(slots_[slot].held);
  }
  return held;
}

void DelayBuffer::reserve(std::size_t capacity) {
  slots_.reserve(capacity);
  heap_.reserve(capacity);
}

std::uint32_t DelayBuffer::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNilSlot;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void DelayBuffer::link_back(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.prev = tail_;
  s.next = kNilSlot;
  if (tail_ != kNilSlot) {
    slots_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
}

void DelayBuffer::unlink(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  if (s.prev != kNilSlot) {
    slots_[s.prev].next = s.next;
  } else {
    head_ = s.next;
  }
  if (s.next != kNilSlot) {
    slots_[s.next].prev = s.prev;
  } else {
    tail_ = s.prev;
  }
  s.prev = s.next = kNilSlot;
}

void DelayBuffer::heap_push(std::uint32_t slot) {
  heap_.push_back(node_of(slot));
  heap_sift(static_cast<std::uint32_t>(heap_.size() - 1), heap_.back());
}

void DelayBuffer::heap_sift(std::uint32_t pos, HeapNode node) noexcept {
  // Up first: move parents down into the hole while they order after the
  // node (one node move per level, never a swap).
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!heap_precedes(node, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = parent;
  }
  // Then down: pull the smaller child up into the hole while it orders
  // before the node. At most one direction actually moves.
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint32_t left = 2 * pos + 1;
    if (left >= n) break;
    const std::uint32_t right = left + 1;
    std::uint32_t best = left;
    if (right < n && heap_precedes(heap_[right], heap_[left])) best = right;
    if (!heap_precedes(heap_[best], node)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = best;
  }
  heap_[pos] = node;
  slots_[node.slot].heap_pos = pos;
}

void DelayBuffer::heap_remove(std::uint32_t slot) noexcept {
  const std::uint32_t pos = slots_[slot].heap_pos;
  slots_[slot].heap_pos = kNilSlot;
  const std::uint32_t last = static_cast<std::uint32_t>(heap_.size() - 1);
  if (pos != last) {
    const HeapNode moved = heap_[last];
    heap_.pop_back();
    heap_sift(pos, moved);
  } else {
    heap_.pop_back();
  }
}

void DelayBuffer::arm(net::NodeContext& ctx) {
  const HeapNode& root = heap_.front();
  timer_ = ctx.simulator().schedule_at(root.key, root.seq,
                                       [this, &ctx] { release(ctx); });
}

void DelayBuffer::retime(sim::Simulator& sim) {
  const HeapNode& root = heap_.front();
  timer_ = sim.rekey(timer_, root.key, root.seq);
}

void DelayBuffer::fill(std::uint32_t slot, net::Packet&& packet,
                       sim::Simulator& sim, double delay) {
  Held& held = slots_[slot].held;
  const double now = sim.now();
  held.packet = std::move(packet);
  held.enqueue_time = now;
  held.release_time = now + delay;
  held.seq = sim.reserve_seq();
}

void DelayBuffer::admit(net::Packet&& packet, net::NodeContext& ctx,
                        const DelayDistribution& delay) {
  const double sampled = draw_delay(delay, ctx.rng());
  const std::uint32_t slot = acquire_slot();
  fill(slot, std::move(packet), ctx.simulator(), sampled);
  link_back(slot);
  heap_push(slot);
  ++live_count_;
  TEMPRIV_TLM_HIST(kBufOccupancy, live_count_);
  TEMPRIV_TLM_GAUGE_MAX(kBufPeakOccupancy, live_count_);
  if (live_count_ == 1) {
    arm(ctx);
  } else if (slots_[slot].heap_pos == 0) {
    retime(ctx.simulator());
  }
}

std::uint32_t DelayBuffer::victim_slot(sim::RandomStream& rng) const {
  switch (policy_) {
    case VictimPolicy::kShortestRemaining:
      return heap_.front().slot;
    case VictimPolicy::kLongestRemaining: {
      // Latest release; among equal release times the first admitted.
      std::size_t best = 0;
      for (std::size_t i = 1; i < heap_.size(); ++i) {
        const HeapNode& node = heap_[i];
        if (node.key > heap_[best].key ||
            (node.key == heap_[best].key && node.seq < heap_[best].seq)) {
          best = i;
        }
      }
      return heap_[best].slot;
    }
    case VictimPolicy::kOldest:
      return head_;
    case VictimPolicy::kRandom: {
      // Same draw as the reference scan: a uniform index into the admission
      // order, then a walk to that position.
      std::size_t index = static_cast<std::size_t>(rng.uniform_index(live_count_));
      std::uint32_t slot = head_;
      while (index-- > 0) slot = slots_[slot].next;
      return slot;
    }
  }
  throw std::logic_error("DelayBuffer::victim_slot: unknown policy");
}

void DelayBuffer::free_slot(std::uint32_t slot) noexcept {
  heap_remove(slot);
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

net::Packet DelayBuffer::take(std::uint32_t slot) noexcept {
  unlink(slot);
  free_slot(slot);
  --live_count_;
  return slots_[slot].held.packet;
}

void DelayBuffer::follow_root(bool root_left, sim::Simulator& sim) {
  if (live_count_ == 0) {
    sim.cancel(timer_);
    timer_ = sim::EventId{};
  } else if (root_left) {
    retime(sim);
  }
}

net::Packet DelayBuffer::extract(std::uint32_t slot, net::NodeContext& ctx) {
  const bool was_root = slots_[slot].heap_pos == 0;
  net::Packet packet = take(slot);
  follow_root(was_root, ctx.simulator());
  return packet;
}

net::Packet DelayBuffer::preempt(net::NodeContext& ctx) {
  if (live_count_ == 0) {
    throw std::logic_error("DelayBuffer::preempt: empty buffer");
  }
  TEMPRIV_TLM_COUNT_AT(telemetry::preempt_counter(
      static_cast<std::uint32_t>(policy_)));
  return extract(victim_slot(ctx.rng()), ctx);
}

void DelayBuffer::preempt_and_admit(net::Packet&& packet, net::NodeContext& ctx,
                                    const DelayDistribution& delay) {
  if (live_count_ == 0) {
    throw std::logic_error("DelayBuffer::preempt_and_admit: empty buffer");
  }
  TEMPRIV_TLM_COUNT_AT(telemetry::preempt_counter(
      static_cast<std::uint32_t>(policy_)));
  const std::uint32_t slot = victim_slot(ctx.rng());
  const std::uint32_t pos = slots_[slot].heap_pos;
  // The victim leaves the admission list now; its slot and heap node stay
  // behind as the hole the new packet fills.
  unlink(slot);
  --live_count_;
  sim::Simulator& sim = ctx.simulator();
  double sampled = 0.0;
  try {
    ctx.transmit(std::move(slots_[slot].held.packet));
    sampled = draw_delay(delay, ctx.rng());
  } catch (...) {
    // End as preempt() would have: the hole leaves the heap and the timer
    // follows the new root.
    free_slot(slot);
    follow_root(pos == 0, sim);
    throw;
  }
  fill(slot, std::move(packet), sim, sampled);
  link_back(slot);
  heap_sift(pos, node_of(slot));
  ++live_count_;
  TEMPRIV_TLM_HIST(kBufOccupancy, live_count_);
  TEMPRIV_TLM_GAUGE_MAX(kBufPeakOccupancy, live_count_);
  if (pos == 0 || slots_[slot].heap_pos == 0) retime(sim);
}

net::Packet DelayBuffer::eject(std::size_t index, net::NodeContext& ctx) {
  if (index >= live_count_) {
    throw std::out_of_range("DelayBuffer::eject: bad index");
  }
  TEMPRIV_TLM_COUNT(kBufEjected);
  std::uint32_t slot = head_;
  while (index-- > 0) slot = slots_[slot].next;
  return extract(slot, ctx);
}

void DelayBuffer::release(net::NodeContext& ctx) {
  // The fired timer was keyed on the root, which is therefore due now.
  net::Packet packet = take(heap_.front().slot);
  if (live_count_ != 0) {
    arm(ctx);
  } else {
    timer_ = sim::EventId{};
  }
  ctx.transmit(std::move(packet));
}

std::size_t select_victim(const std::vector<DelayBuffer::Held>& held,
                          VictimPolicy policy, double now,
                          sim::RandomStream& rng) {
  if (held.empty()) throw std::invalid_argument("select_victim: empty buffer");
  auto remaining = [now](const DelayBuffer::Held& h) {
    return h.release_time - now;
  };
  std::size_t best = 0;
  switch (policy) {
    case VictimPolicy::kShortestRemaining:
      for (std::size_t i = 1; i < held.size(); ++i) {
        if (remaining(held[i]) < remaining(held[best])) best = i;
      }
      return best;
    case VictimPolicy::kLongestRemaining:
      for (std::size_t i = 1; i < held.size(); ++i) {
        if (remaining(held[i]) > remaining(held[best])) best = i;
      }
      return best;
    case VictimPolicy::kRandom:
      return static_cast<std::size_t>(rng.uniform_index(held.size()));
    case VictimPolicy::kOldest:
      for (std::size_t i = 1; i < held.size(); ++i) {
        if (held[i].enqueue_time < held[best].enqueue_time) best = i;
      }
      return best;
  }
  throw std::logic_error("select_victim: unknown policy");
}

const char* to_string(VictimPolicy policy) noexcept {
  switch (policy) {
    case VictimPolicy::kShortestRemaining:
      return "shortest-remaining";
    case VictimPolicy::kLongestRemaining:
      return "longest-remaining";
    case VictimPolicy::kRandom:
      return "random";
    case VictimPolicy::kOldest:
      return "oldest";
  }
  return "unknown";
}

}  // namespace tempriv::core
