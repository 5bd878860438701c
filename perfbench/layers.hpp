// The traced run's per-layer metrics. After the workload's own traced loop,
// a fixed sweep drives every layer once through seeded inputs (field and
// point micro-batches, a short pass of each workload, one cold compile), so
// every per-layer metric exists on every workload. Each metric is derived
// from spans the benchmark recorded around its calls into the library, or
// read from counters the library already exports (the obs registry and
// span tracer, MsmStats, SimStats, CompileCache::Stats).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string maps_to;  // the end-to-end metric (and workload) it should move
  double self_ns = -1;  // median self time per call of the spans behind it
  size_t spans = 0;     // spans the value is taken from (0: a counter)
  std::string note;
};

// What the workload's traced loop measured, for the obs.* metrics.
struct TracedLoop {
  double ops_per_s_untraced = 0;
  double ops_per_s_traced = 0;
  double library_spans_per_op = 0;
};

// Runs the sweep (recording into tr) and returns every per-layer metric.
// Check outcomes of the sweep's own requests are added to out.
std::vector<LayerMetric> layer_metrics(uint64_t seed, const std::string& state_dir,
                                       const TracedLoop& loop, Tracer& tr, Outcome& out);

// Per request kind: mean self time per request of every span name below the
// request's root span (the layer waterfall), printed to stdout.
void print_waterfall(const Tracer& tr);

}  // namespace perfbench
