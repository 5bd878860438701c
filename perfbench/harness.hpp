// Measurement plumbing shared by the workloads and the layer sweep: latency
// statistics, the tail-percentile rule, an in-memory span recorder with
// self-time arithmetic, failure accounting and the result-line writer.
// Nothing here calls the library, so selftest.cpp can check it in isolation.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Quantile q in [0, 1] with linear interpolation between order statistics
// (the numpy default). Empty input gives 0.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// Samples strictly above the pct-th percentile of n samples:
// n - ceil(n * pct / 100).
size_t samples_beyond(size_t n, double pct);

// The tail rule: the highest percentile of {99.9, 99, 95, 90, 75, 50} with
// at least ten samples beyond it; 0 when even the median has fewer.
double tail_percentile(size_t n);

// The fewest samples that leave ten beyond the pct-th percentile.
size_t tail_block(double pct);

// The pct-th percentile of `samples` (in arrival order), taken in each
// consecutive block of tail_block(pct) samples and reported as the q-th
// quantile over blocks; a short remainder joins the last block, and fewer
// samples than one block form a single block. *blocks gets the block count.
double block_tail(const std::vector<double>& samples, double pct, double q, size_t* blocks);

// Where the end-to-end timings are read among a run's blocks: the fastest
// tenth. Other tenants of a shared host only ever add time, so the quietest
// blocks estimate the program's own cost; a tenth of a run's blocks, not its
// single best one, keeps one lucky block from setting the figure.
// Throughputs take the kQuietHigh quantile, latencies the kQuietLow one.
inline constexpr double kQuietLow = 0.1;
inline constexpr double kQuietHigh = 1.0 - kQuietLow;

// Failure accounting: every check outcome is one attempt. A wrong verdict,
// a mismatch against the reference or an exception is one failure.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void add(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double fail_ratio() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

// In-memory span recorder for one client thread. A span has a name, start,
// end, the span open when it began (its parent) and the request id it
// belongs to. `calls` is how many library calls the span covers, so a span
// timed over a batch of calls reports a per-call figure. Disabled, begin()
// and end() do nothing; that is the untraced configuration.
class Tracer {
 public:
  struct Span {
    int name = 0;
    int parent = -1;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open
    uint64_t calls = 1;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  // Returns the span index, or -1 when disabled.
  int begin(std::string_view name, uint64_t request, uint64_t calls = 1);
  void end(int idx);
  // Records a finished span from explicit timestamps (the self-time test).
  int add(std::string_view name, uint64_t request, int parent, int64_t start_ns,
          int64_t end_ns, uint64_t calls = 1);

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name_of(const Span& s) const { return names_[static_cast<size_t>(s.name)]; }
  int64_t now_ns() const;

  // Span duration minus the part of it covered by its direct children.
  // Children of one parent never overlap (one thread, strict nesting).
  std::vector<int64_t> self_ns() const;

  // Per-call self time (ns) of every finished span with this name, in
  // recording order.
  std::vector<double> self_per_call(std::string_view name) const;

  // Chrome trace_event JSON ({"traceEvents":[...]}), one "X" event per span
  // with its request id, parent and call count in "args".
  std::string chrome_json() const;

  class Scope {
   public:
    Scope(Tracer& t, std::string_view name, uint64_t request, uint64_t calls = 1)
        : t_(t), idx_(t.begin(name, request, calls)) {}
    ~Scope() { t_.end(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int idx_;
  };

 private:
  int intern(std::string_view name);

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::map<std::string, int, std::less<>> ids_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

// Moves every thread of the process one core on, in turn: the i-th thread
// (by thread id) goes to the (i + turn)-th core the process may run on.
// Destroyed, it gives every thread all of those cores back. On the shared
// reference host a neighbour can hold one core at ~1.7x the latency for tens
// of seconds while another runs at full speed, so a figure taken on a fixed
// set of cores depends on which cores those were. Threads created while the
// creator is moved inherit its single core.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  // Cores visited by one full turn (1 when the thread cannot be moved).
  size_t cores() const { return cpus_.size() < 2 ? 1 : cpus_.size(); }
  void next();

 private:
  std::vector<int> cpus_;
  inline static size_t next_ = 0;  // shared, so short rotations continue the turn
  bool moved_ = false;
};

// One metric of the final result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// The last line the benchmark prints:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_line(const Outcome& o, const std::vector<Metric>& metrics);

}  // namespace perfbench
