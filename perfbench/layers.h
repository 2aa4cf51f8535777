#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_
// Per-layer measurements taken in-process: the benchmark times calls into
// the public entry points of each src/granmine module on the workload's own
// generated inputs. Nothing here runs inside the server; the counters the
// server exports are folded in by loadgen.cc.
#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "granmine/engine/engine.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Linear-interpolated quantile `q` in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

struct LayerInputs {
  const Workload* workload = nullptr;
  /// Frozen, untraced reference engine.
  granmine::Engine* engine = nullptr;
  /// Warm-start image of the same family.
  std::string image_path;
  /// Client round trips (send to reply, µs) of successful replies, keyed by
  /// request index.
  const std::vector<std::pair<std::size_t, double>>* rtt_us = nullptr;
};

/// Adds the in-process layer metrics (persist.*, io.*, constraint.*,
/// tag.build_us / tag.match_us, mining.*, engine.*, stream.* except the
/// late ratio, server.service_us / rtt_overhead_us / frame_*) to `out`.
granmine::Status ProbeLayers(const LayerInputs& inputs, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
