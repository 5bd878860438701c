// perfbench — the repository benchmark runner (README.md beside this file).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --state-dir DIR
//
// --trace 0 prints the end-to-end metrics of one untraced closed-loop run;
// --trace 1 alternates traced and untraced blocks of the same loop, then
// runs the layer sweep and prints the per-layer metrics. Human-readable
// lines come first; the last line of stdout is the JSON result. DIR holds
// the ROM disk cache and the span files the traced run writes.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "harness.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr size_t kSetupRounds = 13;  // setup_s is the median of this many rounds

// The tail percentile each workload reports: what the rule (tail_percentile)
// picks for half the samples a 50-second run collects on the reference host,
// so a commit up to 2x slower still has ten samples beyond it. It is pinned
// so that a faster commit, which collects more samples, is still compared on
// the same percentile.
const std::map<std::string, double> kTailPct = {
    {"sign-verify", 99.9}, {"sim-sm", 99.0}};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {sign-verify|sim-sm} --seed N "
               "--seconds S --trace 0|1 [--state-dir DIR]\n",
               argv0);
  return 2;
}

double ops_per_s(const LoopResult& r) { return r.window_s > 0 ? r.ops / r.window_s : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  std::string workload, state_dir = ".bench_build";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--state-dir") state_dir = v;
    else return usage(argv[0]);
  }
  if (argc % 2 == 0 || seconds <= 0 || (trace != 0 && trace != 1)) return usage(argv[0]);
  std::unique_ptr<Workload> w = make_workload(workload, state_dir);
  if (!w) return usage(argv[0]);

  try {
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d workers=%d\n", workload.c_str(),
                static_cast<unsigned long long>(seed), seconds, trace, kWorkers);
    auto t0 = Clock::now();
    w->generate(seed);
    std::printf("inputs: %zu pooled requests generated in %.2f s (not timed)\n",
                w->pool_size(), seconds_since(t0));
    if (auto* sim = dynamic_cast<SimSm*>(w.get())) sim->fill_disk_cache();

    Tracer tr(trace == 1);
    w->setup(tr);

    // Warm-up: lazy state in the library (engine arenas, the engine's own
    // SchnorrQ) fills before timing. Its outputs are checked too.
    Outcome outcome;
    size_t cursor = 0;
    uint64_t ops_total = 0;
    {
      Tracer off;
      LoopResult warm;
      closed_loop(*w, std::min(0.5, seconds / 10), off, cursor, warm, ops_total);
      outcome.add(warm.outcome);
    }

    std::vector<Metric> metrics;
    if (trace == 0) {
      // setup_s is timed on a second instance of the workload, so the one
      // the loop uses stays warm. A set-up round sets it up once on each
      // core in turn, and the round's mean stands for the host rather than
      // for the core a set-up happened to land on (see CoreRotation). The
      // rounds are spread evenly over the measured window, outside it, so
      // they sample the whole run's host state, not its first milliseconds.
      std::unique_ptr<Workload> probe = make_workload(workload, state_dir);
      std::vector<double> rounds;
      LoopResult r;
      while (rounds.size() < kSetupRounds) {
        CoreRotation cores;
        double sum = 0;
        for (size_t c = 0; c < cores.cores(); ++c) {
          cores.next();
          probe->release();
          t0 = Clock::now();
          probe->setup(tr);
          sum += seconds_since(t0);
        }
        probe->release();
        rounds.push_back(sum / static_cast<double>(cores.cores()));
        const double left = seconds - r.window_s;
        closed_loop(*w, left / static_cast<double>(kSetupRounds + 1 - rounds.size()), tr, cursor,
                    r, ops_total);
      }
      outcome.add(r.outcome);
      const double setup_s = median(rounds);
      const double rss = r.rss_mb > 0 ? r.rss_mb : peak_rss_mb();
      const int cycles = w->sim_cycles_per_sm() ? w->sim_cycles_per_sm()
                                                : sim_cycles_probe(state_dir, outcome);
      const double pct = kTailPct.at(workload);
      const size_t n = r.latency_ms.size();
      size_t blocks = 0;
      const double tail = block_tail(r.latency_ms, pct, kQuietLow, &blocks);
      std::printf("setup_s is the median of %zu set-up rounds (min %.6g s, max %.6g s)\n",
                  rounds.size(), quantile(rounds, 0), quantile(rounds, 1));
      std::printf("requests: %zu, ops: %llu, window %.2f s, %.6g ops/s overall\n", n,
                  static_cast<unsigned long long>(r.ops), r.window_s, ops_per_s(r));
      std::printf("ops_per_s over %zu blocks of %g s: min %.6g, median %.6g, q%g %.6g, max %.6g\n",
                  r.block_rates.size(), kBlockSeconds, quantile(r.block_rates, 0),
                  median(r.block_rates), kQuietHigh, quantile(r.block_rates, kQuietHigh),
                  quantile(r.block_rates, 1));
      std::printf("latency_p50_ms per block: q%g %.6g, median %.6g (whole-run median %.6g ms)\n",
                  kQuietLow, quantile(r.block_p50_ms, kQuietLow), median(r.block_p50_ms),
                  quantile(r.latency_ms, 0.5));
      std::printf("latency_tail_ms is p%g, q%g over %zu blocks of %zu samples "
                  "(the rule picks p%g for the run's n=%zu; whole-run p%g %.6g ms)\n",
                  pct, kQuietLow, blocks, tail_block(pct), tail_percentile(n), n, pct,
                  quantile(r.latency_ms, pct / 100));
      if (samples_beyond(n, pct) < 10)
        std::printf("warning: fewer than ten samples beyond p%g\n", pct);
      std::printf("fail_ratio: %.6g (%llu of %llu checks failed)\n", outcome.fail_ratio(),
                  static_cast<unsigned long long>(outcome.failed),
                  static_cast<unsigned long long>(outcome.attempted));
      if (r.rss_mb == 0)
        std::printf("note: RSS checkpoint (%llu ops) not reached; peak RSS read at the end\n",
                    static_cast<unsigned long long>(w->rss_checkpoint_ops()));
      metrics = {
          {"setup_s", setup_s, "s"},
          {"ops_per_s", quantile(r.block_rates, kQuietHigh), "1/s"},
          {"latency_p50_ms", quantile(r.block_p50_ms, kQuietLow), "ms"},
          {"latency_tail_ms", tail, "ms"},
          {"ok_ratio", 1.0 - outcome.fail_ratio(), "ratio"},
          {"peak_rss_mb", rss, "MB"},
          {"sim_cycles_per_sm", static_cast<double>(cycles), "cycles"},
      };
      for (const Metric& m : metrics)
        std::printf("  %-18s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      // Interleaved half-second blocks, tracing off and on in turn, so both
      // configurations see the same drift of a shared host.
      LoopResult off_r, on_r;
      const size_t lib_spans0 = fourq::obs::global().spans.spans().size();
      const uint64_t ops0 = ops_total;
      const double block = std::min(0.5, seconds / 4);
      for (double done = 0; done < seconds; done += 2 * block) {
        tr.set_enabled(false);
        closed_loop(*w, block, tr, cursor, off_r, ops_total);
        tr.set_enabled(true);
        closed_loop(*w, block, tr, cursor, on_r, ops_total);
      }
      outcome.add(off_r.outcome);
      outcome.add(on_r.outcome);
      TracedLoop loop;
      loop.ops_per_s_untraced = ops_per_s(off_r);
      loop.ops_per_s_traced = ops_per_s(on_r);
      const size_t lib_spans = fourq::obs::global().spans.spans().size() - lib_spans0;
      const uint64_t loop_ops = std::max<uint64_t>(1, ops_total - ops0);
      loop.library_spans_per_op = static_cast<double>(lib_spans) / static_cast<double>(loop_ops);
      std::printf("traced loop: %.6g ops/s untraced, %.6g ops/s traced\n",
                  loop.ops_per_s_untraced, loop.ops_per_s_traced);

      const std::vector<LayerMetric> layers =
          layer_metrics(seed, state_dir, loop, tr, outcome);
      print_waterfall(tr);
      std::printf("\n%-34s %14s %-7s %12s %7s  %-38s %s\n", "per-layer metric", "value", "unit",
                  "self/call", "spans", "moves", "note");
      for (const LayerMetric& m : layers) {
        char self[32] = "-";
        if (m.self_ns >= 0) std::snprintf(self, sizeof self, "%.4g ns", m.self_ns);
        std::printf("%-34s %14.6g %-7s %12s %7zu  %-38s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), self, m.spans, m.maps_to.c_str(), m.note.c_str());
        metrics.push_back({m.name, m.value, m.unit});
      }
      const std::string dir = state_dir + "/perfbench-traces";
      std::filesystem::create_directories(dir);
      const std::string path = dir + "/" + workload + "-seed" + std::to_string(seed) + ".json";
      std::ofstream(path) << tr.chrome_json();
      std::printf("\n%zu spans written to %s\n", tr.spans().size(), path.c_str());
      std::printf("fail_ratio: %.6g (%llu of %llu checks failed)\n", outcome.fail_ratio(),
                  static_cast<unsigned long long>(outcome.failed),
                  static_cast<unsigned long long>(outcome.attempted));
    }
    std::printf("%s\n", result_line(outcome, metrics).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
