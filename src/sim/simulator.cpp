#include "sim/simulator.h"

namespace tempriv::sim {

bool Simulator::step() {
  std::size_t count = 0;
  return queue_.dispatch_next(dispatcher(count));
}

std::size_t Simulator::run() {
  stopped_ = false;
  std::size_t count = 0;
  while (!stopped_ && queue_.dispatch_next(dispatcher(count))) {
  }
  return count;
}

std::size_t Simulator::run_until(Time deadline) {
  stopped_ = false;
  std::size_t count = 0;
  while (!stopped_ && queue_.next_time() <= deadline &&
         queue_.dispatch_next(dispatcher(count))) {
  }
  if (!stopped_ && now_ < deadline && std::isfinite(deadline)) now_ = deadline;
  return count;
}

}  // namespace tempriv::sim
