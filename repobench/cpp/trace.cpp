#include "trace.h"

#include <chrono>
#include <ostream>

namespace repobench {

namespace {

thread_local std::vector<std::uint64_t> open_spans;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t SpanRecorder::begin(const char* name, std::uint64_t parent) {
  if (!enabled_) return 0;
  if (parent == 0) parent = current();
  SpanRecord record;
  record.parent = parent;
  record.run = run_;
  record.name = name;
  record.start_ns = now_ns();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
    id = spans_.size();
    spans_.back().id = id;
  }
  open_spans.push_back(id);
  return id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t t = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end_ns = t;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

std::uint64_t SpanRecorder::current() noexcept {
  return open_spans.empty() ? 0 : open_spans.back();
}

void SpanRecorder::dump(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const SpanRecord& s : spans_) {
    os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"run\": " << s.run << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << (s.start_ns - origin)
       << ", \"end_ns\": " << (s.end_ns - origin) << "}\n";
  }
}

}  // namespace repobench
