#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace tempriv::sim {

/// Discrete-event simulation kernel: a virtual clock plus an event queue.
///
/// Components schedule callbacks at absolute or relative times; run() /
/// run_until() advance the clock from event to event. Cancellation and
/// in-place re-keying are first class because RCAD preemption moves a delay
/// buffer's release timer to its next packet (see core/delay_buffer.h).
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `at`.
  /// Throws std::invalid_argument if `at` precedes the current time or is
  /// not a finite number — both indicate a logic error in the caller.
  /// `action` is any nullary callable; small captures are stored inline in
  /// the kernel's slot pool (see EventQueue::Callback) with no heap
  /// allocation.
  template <class F>
  EventId schedule_at(Time at, F&& action) {
    check_time(at);
    return queue_.schedule(at, std::forward<F>(action));
  }

  /// schedule_at() keyed on a sequence number drawn earlier by
  /// reserve_seq(), so `action` runs exactly where an event scheduled at the
  /// reserving instant would have (see EventQueue::schedule). Same checks on
  /// `at`.
  template <class F>
  EventId schedule_at(Time at, std::uint64_t seq, F&& action) {
    check_time(at);
    return queue_.schedule(at, seq, std::forward<F>(action));
  }

  /// Draws the sequence number an event scheduled now would consume; see
  /// EventQueue::reserve_seq.
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// Moves pending event `id` to (at, seq) in place; see EventQueue::rekey.
  /// Same checks on `at` as schedule_at().
  EventId rekey(EventId id, Time at, std::uint64_t seq) {
    check_time(at);
    return queue_.rekey(id, at, seq);
  }

  /// Schedules `action` after `delay` (>= 0, finite) time units.
  template <class F>
  EventId schedule_after(Duration delay, F&& action) {
    if (!std::isfinite(delay) || delay < 0.0) {
      throw std::invalid_argument(
          "Simulator::schedule_after: delay must be finite and >= 0");
    }
    return queue_.schedule(now_ + delay, std::forward<F>(action));
  }

  /// schedule_after() for delays drawn from a fixed constant (link latency
  /// being the canonical case): now_ never decreases, so such events arrive
  /// in non-decreasing time order and take the event queue's O(1) FIFO lane
  /// (EventQueue::schedule_monotone) instead of the heap. Safe for any
  /// delay — out-of-order times fall back to the heap internally — but the
  /// win exists only when successive calls' (now_ + delay) are
  /// non-decreasing.
  template <class F>
  EventId schedule_after_monotone(Duration delay, F&& action) {
    if (!std::isfinite(delay) || delay < 0.0) {
      throw std::invalid_argument(
          "Simulator::schedule_after_monotone: delay must be finite and >= 0");
    }
    return queue_.schedule_monotone(now_ + delay, std::forward<F>(action));
  }

  /// Pre-sizes the event queue for `events` concurrent pending events so the
  /// steady state never reallocates (see EventQueue::reserve).
  void reserve(std::size_t events) { queue_.reserve(events); }

  /// Cancels a pending event; see EventQueue::cancel.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event queue is empty or stop() is called.
  /// Returns the number of events executed.
  ///
  /// Every event — equal-time cohorts included — runs in place from its
  /// pool slot through EventQueue::dispatch_next, one event per call, in
  /// (time, insertion) order; events scheduled or cancelled by a callback
  /// take effect for the very next dispatch. An event leaves the queue only
  /// when it runs, so after stop() or an exception thrown by a callback
  /// every unrun event is still pending and a later run() resumes exactly
  /// where this one left off.
  std::size_t run();

  /// Runs all events with timestamp <= deadline (or until stop()); the clock
  /// then rests at min(deadline, time of last work). Returns events executed.
  std::size_t run_until(Time deadline);

  /// Executes exactly one event if any is pending. Returns whether one ran.
  bool step();

  /// Requests run()/run_until() to return after the current callback.
  void stop() noexcept { stopped_ = true; }

  /// Pending (non-cancelled) event count.
  std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Time of the next pending event (kTimeInfinity if none).
  Time next_event_time() const { return queue_.next_time(); }

  /// Total events executed since construction.
  std::uint64_t events_executed() const noexcept { return executed_; }

 private:
  void check_time(Time at) const {
    if (!std::isfinite(at)) {
      throw std::invalid_argument("Simulator: non-finite event time");
    }
    if (at < now_) {
      throw std::invalid_argument("Simulator: cannot schedule in the past");
    }
  }

  /// The dispatch_next callable shared by run(), run_until() and step():
  /// advances the clock to the event, counts it in `count` and in
  /// events_executed(), then invokes it.
  auto dispatcher(std::size_t& count) noexcept {
    return [this, &count](Time at, EventId, EventQueue::Callback& action) {
      now_ = at;
      ++executed_;
      ++count;
      action();
    };
  }

  EventQueue queue_;
  Time now_ = kTimeZero;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

}  // namespace tempriv::sim
