// Registry-delta helpers for tests. The obs registry is the only
// counter surface, so a test attributes activity to a section of code
// by diffing two snapshots of Registry::CounterValues() — the pattern
// bench::MetricsSection uses for BENCH_JSON. ctest runs every case in
// its own process, so a delta taken around single-threaded work counts
// exactly that work.
#ifndef MDM_TESTS_COUNTER_DELTA_H_
#define MDM_TESTS_COUNTER_DELTA_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.h"

namespace mdm::testutil {

using CounterSnapshot = std::map<std::string, uint64_t>;

inline CounterSnapshot SnapCounters() {
  return obs::Registry::Global()->CounterValues();
}

/// Growth of series `name` from `before` to `after`. A series missing
/// from a snapshot (not registered yet) reads as 0.
inline uint64_t CounterDelta(const CounterSnapshot& before,
                             const CounterSnapshot& after,
                             const std::string& name) {
  auto b = before.find(name);
  auto a = after.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

/// Growth of series `name` since `before`.
inline uint64_t CounterDelta(const CounterSnapshot& before,
                             const std::string& name) {
  return CounterDelta(before, SnapCounters(), name);
}

/// Runs `call` and adds the growth of every series during it into
/// `*sum`; returns what `call` returns. Accumulates the activity of
/// scattered calls (one database's calls, when two databases run
/// interleaved in one process).
template <typename F>
auto CountInto(CounterSnapshot* sum, F&& call) {
  const CounterSnapshot before = SnapCounters();
  auto result = call();
  for (const auto& [name, value] : SnapCounters()) {
    auto b = before.find(name);
    (*sum)[name] += value - (b == before.end() ? 0 : b->second);
  }
  return result;
}

}  // namespace mdm::testutil

#endif  // MDM_TESTS_COUNTER_DELTA_H_
