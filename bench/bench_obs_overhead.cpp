// Observability overhead audit — what does the telemetry layer cost on the
// engine hot path? The contract (docs/OBSERVABILITY.md) is <2% on batch
// scalar multiplication with full instrumentation (spans, labeled metrics,
// lifecycle histograms, flight recorder, and — where available — perf_event
// counter sampling per task). This bench measures it directly:
//
//   bare          the engine's per-task work (decompose/recode/bind each
//                 job, run_lanes waves of 8 over the pre-decoded ROM, read
//                 the outputs) in a plain loop touching no telemetry —
//                 what every task costs under FOURQ_OBS=OFF
//   instrumented  the same loop plus a faithful replica of everything the
//                 obs layer adds per task and per batch in BatchEngine:
//                 two clock reads + two lifecycle-histogram observes, the
//                 per-worker counters and utilisation gauge, a flight-
//                 recorder entry, a perf_event counter-group sample pair
//                 with the six per-kind counter adds, exec_sm's three
//                 counter adds, and the per-batch span/counter/gauge
//                 updates
//
// Comparing against the engine itself would confound telemetry with the
// worker pool's queue mutexes and condvars, which exist identically in the
// FOURQ_OBS=OFF build — the engine's wall time is recorded for context but
// not gated. Repetitions interleave A/B to cancel thermal and cache drift,
// and the headline is computed from per-rep medians. Primitive costs (span
// pair, counter inc, histogram observe, perf read) are reported alongside
// so a regression can be attributed immediately.
//
// BENCH_obs_overhead.json carries engine.overhead_pct, which CI gates with
// tools/perf_regress against tools/baselines/bench_obs_overhead_baseline.jsonl.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "engine/batch.hpp"
#include "obs/obs.hpp"
#include "obs/perfctr.hpp"

namespace {

using namespace fourq;

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);

  bench::print_header("Observability — overhead audit on the engine hot path");

  trace::SmTraceOptions topt;
  topt.endo = trace::EndoVariant::kFunctional;
  engine::CompileKey key;
  key.kind = engine::ProgramKind::kSingleSm;
  key.trace = topt;

  constexpr int kJobs = 64;
  constexpr int kReps = 21;

  Rng rng(20260808);
  curve::Affine base = curve::deterministic_point(1);
  std::vector<engine::SmJob> jobs(kJobs);
  for (auto& j : jobs) j = engine::SmJob{rng.next_u256(), base};

  // Shared compiled program: both paths execute the identical pre-decoded
  // ROM, so the only difference between them is the telemetry layer.
  engine::CompileCache cache;
  std::shared_ptr<const engine::CompiledProgram> prog = cache.get_or_compile(key);
  engine::DecodedRom rom = engine::decode(prog->sm);

  engine::EngineOptions eopt;
  eopt.workers = 1;
  eopt.key = key;
  eopt.cache = &cache;
  engine::BatchEngine eng(eopt);
  eng.program();  // compile/decode outside every timed region

  // One engine task's work without any instrumentation around it: the
  // body of BatchEngine::exec_sm — stage each job (decompose/recode/bind),
  // run_lanes in waves of kMaxLanes with the remainder as one partial wave,
  // read the outputs back.
  engine::LaneWorkspace ws;
  std::vector<trace::InputBindings> bindings(engine::kMaxLanes);
  std::vector<curve::RecodedScalar> recs(engine::kMaxLanes);
  std::vector<trace::EvalContext> ctxs(engine::kMaxLanes);
  const auto run_task = [&](size_t begin, size_t end, curve::Affine& last) {
    const engine::CompiledProgram& p = *prog;
    for (size_t i = begin; i < end; i += engine::kMaxLanes) {
      const int lanes = static_cast<int>(std::min<size_t>(engine::kMaxLanes, end - i));
      for (int l = 0; l < lanes; ++l) {
        const size_t sl = static_cast<size_t>(l);
        const engine::SmJob& job = jobs[i + sl];
        curve::Decomposition dec = curve::decompose(job.k);
        recs[sl] = curve::recode(dec.a);
        trace::InputBindings& b = bindings[sl];
        b.clear();
        b.emplace_back(p.in_zero, curve::Fp2());
        b.emplace_back(p.in_one, curve::Fp2::from_u64(1));
        b.emplace_back(p.in_two_d, curve::curve_2d());
        b.emplace_back(p.in_px, job.base.x);
        b.emplace_back(p.in_py, job.base.y);
        for (size_t c = 0; c < p.in_endo_consts.size(); ++c)
          b.emplace_back(p.in_endo_consts[c], curve::Fp2::from_u64(3 + c, 7 + c));
        ctxs[sl] = trace::EvalContext{};
        ctxs[sl].recoded = &recs[sl];
        ctxs[sl].k_was_even = dec.k_was_even;
      }
      engine::run_lanes(rom, bindings.data(), ctxs.data(), lanes, ws);
      for (int l = 0; l < lanes; ++l)
        last = curve::Affine{engine::lane_output(rom, ws, "x", l),
                             engine::lane_output(rom, ws, "y", l)};
    }
  };

  // The engine's task split: BatchEngine's default chunk for 64 jobs on one
  // worker, ceil(64 / 2) rounded up to a whole wave.
  const size_t kChunk = 32;
  curve::Affine bare_last{};
  auto bare_run = [&]() {
    for (size_t b = 0; b < jobs.size(); b += kChunk)
      run_task(b, std::min(jobs.size(), b + kChunk), bare_last);
  };

  // Instrumented loop: bare + the obs layer's exact per-task and per-batch
  // work, including perf_event sampling (enabled as under `--hw`, degrading
  // hardware -> software -> unavailable exactly like the engine workers).
  obs::perf_set_enabled(true);
  curve::Affine inst_last{};
#if FOURQ_OBS_ENABLED
  obs::Registry& reg = obs::global().metrics;
  const obs::Labels wl{{"worker", "0"}};
  const obs::Labels kl{{"kind", "sm"}};
  obs::Counter& c_tasks = reg.counter("engine.worker.tasks", wl);
  obs::Counter& c_busy = reg.counter("engine.worker.busy_us", wl);
  obs::Gauge& g_util = reg.gauge("engine.worker.utilisation", wl);
  obs::Histogram& wait_h = reg.latency_histogram("engine.queue.wait_us", kl);
  obs::Histogram& svc_h = reg.latency_histogram("engine.job.service_us", kl);
  obs::Counter* perf_ctr[6] = {
      &reg.counter("perf.cycles", kl),        &reg.counter("perf.instructions", kl),
      &reg.counter("perf.cache_refs", kl),    &reg.counter("perf.cache_misses", kl),
      &reg.counter("perf.branch_misses", kl), &reg.counter("perf.task_clock_ns", kl)};
  const uint64_t epoch_us = obs::mono_us();
  uint64_t total_busy_us = 0;
#endif
  auto inst_run = [&]() {
    for (size_t b = 0; b < jobs.size(); b += kChunk) {
#if FOURQ_OBS_ENABLED
      const uint64_t deq_us = obs::mono_us();
      wait_h.observe(1.0);  // queue wait is measured, not invented: fixed obs cost
      obs::PerfSample perf_begin;
      if (obs::perf_enabled()) perf_begin = obs::perf_read_thread();
#endif
      const size_t hi = std::min(jobs.size(), b + kChunk);
      run_task(b, hi, inst_last);
#if FOURQ_OBS_ENABLED
      FOURQ_COUNTER_ADD("engine.lanes.waves", (hi - b + engine::kMaxLanes - 1) / engine::kMaxLanes);
      FOURQ_COUNTER_ADD("engine.lanes.ragged_jobs", (hi - b) % engine::kMaxLanes);
      FOURQ_COUNTER_ADD("engine.jobs.sm", hi - b);
      if (perf_begin.source != obs::PerfSource::kUnavailable) {
        obs::PerfDelta d = obs::perf_delta(perf_begin, obs::perf_read_thread());
        if (d.source != obs::PerfSource::kUnavailable) {
          perf_ctr[0]->inc(d.cycles);
          perf_ctr[1]->inc(d.instructions);
          perf_ctr[2]->inc(d.cache_refs);
          perf_ctr[3]->inc(d.cache_misses);
          perf_ctr[4]->inc(d.branch_misses);
          perf_ctr[5]->inc(d.task_clock_ns);
        }
      }
      const uint64_t done_us = obs::mono_us();
      const uint64_t service_us = done_us - deq_us;
      svc_h.observe(static_cast<double>(service_us));
      c_tasks.inc();
      c_busy.inc(service_us);
      total_busy_us += service_us;
      if (done_us > epoch_us)
        g_util.set(static_cast<double>(total_busy_us) /
                   static_cast<double>(done_us - epoch_us));
      obs::global().flight.record(obs::FlightKind::kTask, "engine.task.sm", done_us,
                                  service_us, 0);
#endif
    }
    // Per-batch obs work (FOURQ_SPAN("engine.run") + batch counters/gauges).
    FOURQ_SPAN("engine.run");
    FOURQ_COUNTER_ADD("engine.batches", 1);
    FOURQ_GAUGE_SET("engine.jobs_per_s", static_cast<double>(jobs.size()));
    FOURQ_GAUGE_SET("engine.queue.depth.max", 8);
    FOURQ_GAUGE_SET("engine.lanes.occupancy", 1.0);
  };

  // One untimed warm-up of each path (first-touch allocation, counter-group
  // open, branch predictors), then interleaved timed repetitions. The
  // engine itself runs once per rep for context only.
  std::vector<engine::SmResult> engine_results = eng.run(jobs);
  inst_run();
  bare_run();

  // Each rep times the instrumented and bare loops back to back, alternating
  // which goes first so slow drift (thermal, frequency, page cache) cancels
  // instead of biasing one side. The headline is the median of the per-rep
  // paired deltas, which is far tighter than the ratio of two medians when
  // per-rep wall noise (~±3% in CI containers) exceeds the effect size.
  std::vector<double> inst_us, bare_us, engine_us, delta_pct;
  for (int rep = 0; rep < kReps; ++rep) {
    double a_us, b_us;
    if (rep % 2 == 0) {
      auto t0 = std::chrono::steady_clock::now();
      inst_run();
      a_us = secs_since(t0) * 1e6 / kJobs;
      auto t1 = std::chrono::steady_clock::now();
      bare_run();
      b_us = secs_since(t1) * 1e6 / kJobs;
    } else {
      auto t1 = std::chrono::steady_clock::now();
      bare_run();
      b_us = secs_since(t1) * 1e6 / kJobs;
      auto t0 = std::chrono::steady_clock::now();
      inst_run();
      a_us = secs_since(t0) * 1e6 / kJobs;
    }
    inst_us.push_back(a_us);
    bare_us.push_back(b_us);
    delta_pct.push_back(b_us > 0 ? 100.0 * (a_us - b_us) / b_us : 0.0);

    auto t2 = std::chrono::steady_clock::now();
    engine_results = eng.run(jobs);
    engine_us.push_back(secs_since(t2) * 1e6 / kJobs);
  }

  // All three paths must produce the same curve point — they really are the
  // same computation.
  bool match = inst_last.x == bare_last.x && inst_last.y == bare_last.y &&
               engine_results.back().out.x == bare_last.x &&
               engine_results.back().out.y == bare_last.y;

  double inst_med = median(inst_us);
  double bare_med = median(bare_us);
  double engine_med = median(engine_us);
  double overhead_pct = median(delta_pct);

  std::printf("Path (median of %d interleaved reps)         %12s\n", kReps, "us/job");
  bench::print_rule(60);
  std::printf("%-44s %12.2f\n", "bare run_lanes loop (= FOURQ_OBS=OFF)", bare_med);
  std::printf("%-44s %12.2f\n", "bare + full obs layer (spans/counters/perf)", inst_med);
  std::printf("%-44s %12.2f\n", "engine (1 worker; pool + obs, context only)", engine_med);
  std::printf("%-44s %+11.2f%%\n", "observability overhead", overhead_pct);
  std::printf("%-44s %12s\n", "output cross-check", match ? "match" : "MISMATCH");
  std::printf("%-44s %12s\n", "perf counter source",
              obs::perf_source_name(obs::perf_thread_source()));

  // Primitive costs, for attribution when the headline moves. Each micro
  // loop is long enough to amortise the clock reads.
  constexpr int kMicro = 20000;
  double span_ns = 0, inc_ns = 0, obs_ns = 0, perf_ns = 0;
  if (obs::compiled_in()) {
    obs::SpanTracer& spans = obs::global().spans;
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kMicro; ++i) {
      spans.begin("bench.micro");
      spans.end();
    }
    span_ns = secs_since(t0) * 1e9 / kMicro;

    obs::Counter& c = obs::global().metrics.counter("bench.micro.counter");
    auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < kMicro; ++i) c.inc();
    inc_ns = secs_since(t1) * 1e9 / kMicro;

    obs::Histogram& h = obs::global().metrics.latency_histogram("bench.micro.latency");
    auto t2 = std::chrono::steady_clock::now();
    for (int i = 0; i < kMicro; ++i) h.observe(static_cast<double>(i & 1023));
    obs_ns = secs_since(t2) * 1e9 / kMicro;

    if (obs::perf_thread_source() != obs::PerfSource::kUnavailable) {
      auto t3 = std::chrono::steady_clock::now();
      for (int i = 0; i < kMicro; ++i) (void)obs::perf_read_thread();
      perf_ns = secs_since(t3) * 1e9 / kMicro;
    }

    std::printf("\nPrimitives: span pair %.0f ns, counter inc %.1f ns, "
                "histogram observe %.1f ns, perf group read %.0f ns\n",
                span_ns, inc_ns, obs_ns, perf_ns);
  } else {
    std::printf("\n(built with FOURQ_OBS=OFF — instrumentation compiled out; "
                "the two paths should be statistically identical)\n");
  }

  bench::JsonRecorder rec("obs_overhead");
  rec.record("engine.instrumented_us_per_job", inst_med, "us");
  rec.record("engine.bare_us_per_job", bare_med, "us");
  rec.record("engine.pool_us_per_job", engine_med, "us");
  rec.record("engine.overhead_pct", overhead_pct, "%");
  rec.record("check.mismatches", match ? 0 : 1);
  if (obs::compiled_in()) {
    rec.record("span.pair_ns", span_ns, "ns");
    rec.record("counter.inc_ns", inc_ns, "ns");
    rec.record("latency.observe_ns", obs_ns, "ns");
    rec.record("perf.read_ns", perf_ns, "ns");
  }

  std::printf("\nThe gate (tools/perf_regress vs bench_obs_overhead_baseline.jsonl)\n"
              "enforces engine.overhead_pct <= 2: full telemetry must stay within\n"
              "2%% of the bare run_lanes loop on the batch hot path.\n");
  return match ? 0 : 1;
}
