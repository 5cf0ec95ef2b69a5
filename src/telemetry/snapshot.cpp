#include "telemetry/snapshot.h"

#include <ostream>
#include <sstream>

namespace tempriv::telemetry {

const char* name(Counter counter) noexcept {
  switch (counter) {
    case Counter::kEqScheduleHeap:
      return "eq.schedule_heap";
    case Counter::kEqScheduleFifo:
      return "eq.schedule_fifo";
    case Counter::kEqFifoDiverted:
      return "eq.fifo_diverted";
    case Counter::kEqTombstoneSkipped:
      return "eq.tombstone_skipped";
    case Counter::kEqDispatchSingle:
      return "eq.dispatch_single";
    case Counter::kBufPreemptShortest:
      return "buf.preempt.shortest_remaining";
    case Counter::kBufPreemptLongest:
      return "buf.preempt.longest_remaining";
    case Counter::kBufPreemptRandom:
      return "buf.preempt.random";
    case Counter::kBufPreemptOldest:
      return "buf.preempt.oldest";
    case Counter::kBufEjected:
      return "buf.ejected";
    case Counter::kNetForwardImmediate:
      return "net.forward.immediate";
    case Counter::kNetForwardUnlimited:
      return "net.forward.unlimited";
    case Counter::kNetForwardDropTail:
      return "net.forward.droptail";
    case Counter::kNetForwardRcad:
      return "net.forward.rcad";
    case Counter::kNetForwardCustom:
      return "net.forward.custom";
    case Counter::kNetDropTailDropped:
      return "net.droptail_dropped";
    case Counter::kCampaignJobs:
      return "campaign.jobs";
    case Counter::kCount:
      break;
  }
  return "unknown";
}

const char* name(Gauge gauge) noexcept {
  switch (gauge) {
    case Gauge::kEqPeakDepth:
      return "eq.peak_depth";
    case Gauge::kBufPeakOccupancy:
      return "buf.peak_occupancy";
    case Gauge::kMemNetworkBytes:
      return "mem.network_bytes";
    case Gauge::kMemTopologyBytes:
      return "mem.topology_bytes";
    case Gauge::kMemRoutingBytes:
      return "mem.routing_bytes";
    case Gauge::kCount:
      break;
  }
  return "unknown";
}

const char* name(Hist hist) noexcept {
  switch (hist) {
    case Hist::kBufOccupancy:
      return "buf.occupancy";
    case Hist::kNetBatchLaneFill:
      return "net.batch_lane_fill";
    case Hist::kCampaignJobWallUs:
      return "campaign.job_wall_us";
    case Hist::kCount:
      break;
  }
  return "unknown";
}

void Snapshot::merge(const Snapshot& other) {
  enabled = enabled || other.enabled;
  for (const auto& [key, value] : other.counters) counters[key] += value;
  for (const auto& [key, value] : other.gauges) {
    std::uint64_t& gauge = gauges[key];
    if (value > gauge) gauge = value;
  }
  for (const auto& [key, value] : other.histograms) {
    HistogramCounts& hist = histograms[key];
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      hist.buckets[b] += value.buckets[b];
    }
  }
  for (const auto& [key, value] : other.spans) {
    SpanStat& span = spans[key];
    span.count += value.count;
    span.nanos += value.nanos;
  }
}

namespace {

void write_string(std::ostream& os, const std::string& text) {
  os << '"';
  for (const char c : text) {
    // Metric names and span paths are plain identifiers; escape the two
    // JSON-mandatory characters anyway so the writer is safe for any key.
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void write_snapshot_json(std::ostream& os, const Snapshot& snapshot) {
  os << "{\"telemetry\": {\"schema\": 1,\n"
     << " \"enabled\": " << (snapshot.enabled ? "true" : "false") << ",\n"
     << " \"counters\": {";
  const char* sep = "\n  ";
  for (const auto& [key, value] : snapshot.counters) {
    os << sep;
    write_string(os, key);
    os << ": " << value;
    sep = ",\n  ";
  }
  os << "\n },\n \"gauges\": {";
  sep = "\n  ";
  for (const auto& [key, value] : snapshot.gauges) {
    os << sep;
    write_string(os, key);
    os << ": " << value;
    sep = ",\n  ";
  }
  os << "\n },\n \"histograms\": {";
  sep = "\n  ";
  for (const auto& [key, hist] : snapshot.histograms) {
    os << sep;
    write_string(os, key);
    os << ": [";
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (b != 0) os << ",";
      os << hist.buckets[b];
    }
    os << "]";
    sep = ",\n  ";
  }
  os << "\n },\n \"spans\": {";
  sep = "\n  ";
  for (const auto& [key, span] : snapshot.spans) {
    os << sep;
    write_string(os, key);
    os << ": {\"count\": " << span.count << ", \"nanos\": " << span.nanos
       << "}";
    sep = ",\n  ";
  }
  os << "\n }\n}}\n";
}

std::string snapshot_to_json(const Snapshot& snapshot) {
  std::ostringstream os;
  write_snapshot_json(os, snapshot);
  return os.str();
}

}  // namespace tempriv::telemetry
