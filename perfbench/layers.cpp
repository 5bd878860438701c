#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/rng.hpp"
#include "curve/encoding.hpp"
#include "curve/fixed_base.hpp"
#include "curve/params.hpp"
#include "curve/scalarmul.hpp"
#include "field/fp_lanes.hpp"
#include "obs/obs.hpp"
#include "sched/compile.hpp"
#include "trace/sm_trace.hpp"

namespace perfbench {

namespace field = fourq::field;
namespace obs = fourq::obs;
using fourq::Rng;
using field::Fp;
using field::Fp2;

namespace {

constexpr uint64_t kSweepRequest = 1ull << 62;  // request ids of sweep spans
constexpr int kReps = 15;                        // spans per micro-batch metric
// Where a metric of batch verification or of the streaming MSM maps: no
// end-to-end workload runs BatchEngine::verify or a 2^17-term MSM (see
// README.md), only this sweep does.
constexpr const char* kSweepOnly = "- (sweep only)";

// Keeps results observable so the timed loops are not optimised away.
volatile uint64_t g_sink = 0;

Fp2 random_fp2(Rng& rng) {
  return Fp2(Fp::from_words(rng.next_u64(), rng.next_u64() >> 1),
             Fp::from_words(rng.next_u64(), rng.next_u64() >> 1));
}

// kReps spans of `calls` library calls each.
template <class F>
void timed(Tracer& tr, const char* name, uint64_t calls, F&& body) {
  for (int r = 0; r < kReps; ++r) {
    Tracer::Scope s(tr, name, kSweepRequest, calls);
    body();
  }
}

void field_sweep(Tracer& tr, Rng& rng, std::string& kernel_name) {
  Tracer::Scope root(tr, "sweep.field", kSweepRequest);
  constexpr size_t n = 1024;
  std::vector<Fp2> a(n), b(n), sq(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = random_fp2(rng);
    b[i] = random_fp2(rng);
    sq[i] = a[i].sqr();
  }
  // Dependent chains: each result feeds the next call, as in the point
  // formulas, so the figure is latency rather than pipelined throughput.
  Fp2 x = b[0];
  timed(tr, "field.fp2_mul", n, [&] {
    for (size_t i = 0; i < n; ++i) x = x * a[i];
  });
  timed(tr, "field.fp2_mul_schoolbook", n, [&] {
    for (size_t i = 0; i < n; ++i) x = Fp2::mul_schoolbook(x, a[i]);
  });
  timed(tr, "field.fp2_sqr", n, [&] {
    for (size_t i = 0; i < n; ++i) x = (x + a[i]).sqr();
  });
  constexpr size_t ninv = 64;
  timed(tr, "field.fp_inv", ninv, [&] {
    Fp y = x.re();
    for (size_t i = 0; i < ninv; ++i) y = (y + a[i].re()).inv();
    x = Fp2(y, x.im());
  });
  timed(tr, "field.fp2_sqrt", ninv, [&] {
    Fp2 root;
    for (size_t i = 0; i < ninv; ++i) g_sink = g_sink + (sq[i].sqrt(root) ? root.re().lo() : 1);
  });
  g_sink = g_sink + x.re().lo();

  const field::lanes::Kernels& k = field::lanes::active();
  kernel_name = k.name;
  std::vector<fourq::u128> are(n), aim(n), bre(n), bim(n), rre(n), rim(n);
  for (size_t i = 0; i < n; ++i) {
    field::lanes::split(a[i], are[i], aim[i]);
    field::lanes::split(b[i], bre[i], bim[i]);
  }
  timed(tr, "field.lanes_fp2_mul", n, [&] {
    k.fp2_mul(are.data(), aim.data(), bre.data(), bim.data(), rre.data(), rim.data(), n);
    g_sink = g_sink + static_cast<uint64_t>(rre[n - 1]);
  });
  std::vector<Fp2> inv(n);
  timed(tr, "field.batch_invert", n, [&] {
    inv = a;
    field::batch_invert(inv.data(), n);
    g_sink = g_sink + inv[n - 1].re().lo();
  });
}

void curve_sweep(Tracer& tr, Rng& rng) {
  Tracer::Scope root(tr, "sweep.curve", kSweepRequest);
  const curve::Affine g{curve::candidate_generator_x(), curve::candidate_generator_y()};
  const curve::FixedBaseMul gm(g);
  constexpr size_t n = 1024;
  const curve::PointR1 q = gm.mul(rng.next_u256());
  const curve::PointR2 q2 = curve::to_r2(q);
  const curve::PointR2Aff qa = curve::to_r2aff(curve::to_affine(q));
  curve::PointR1 p = gm.mul(rng.next_u256());
  timed(tr, "curve.dbl", n, [&] {
    for (size_t i = 0; i < n; ++i) p = curve::dbl(p);
  });
  timed(tr, "curve.add", n, [&] {
    for (size_t i = 0; i < n; ++i) p = curve::add(p, q2);
  });
  timed(tr, "curve.add_mixed", n, [&] {
    for (size_t i = 0; i < n; ++i) p = curve::add_mixed(p, qa);
  });
  g_sink = g_sink + p.X.re().lo();

  constexpr size_t nsm = 16;
  std::vector<fourq::U256> k(nsm);
  for (auto& v : k) v = rng.next_u256();
  const curve::Affine base = curve::to_affine(p);
  timed(tr, "curve.scalar_mul", nsm, [&] {
    for (size_t i = 0; i < nsm; ++i) g_sink = g_sink + curve::scalar_mul(k[i], base).X.re().lo();
  });
  timed(tr, "curve.fixed_base_mul", nsm, [&] {
    for (size_t i = 0; i < nsm; ++i) g_sink = g_sink + gm.mul(k[i]).X.re().lo();
  });
  constexpr size_t ndec = 64;
  std::vector<curve::CompressedPoint> enc;
  for (size_t i = 0; i < ndec; ++i)
    enc.push_back(curve::compress(curve::to_affine(gm.mul(rng.next_u256()))));
  timed(tr, "curve.decompress", ndec, [&] {
    for (const auto& e : enc) g_sink = g_sink + (curve::decompress(e) ? 1 : 0);
  });
}

// Median per-call self time of the spans named `name`.
struct SpanStat {
  double self_ns = -1;
  size_t n = 0;
};
SpanStat span_stat(const Tracer& tr, const char* name) {
  const std::vector<double> t = tr.self_per_call(name);
  return t.empty() ? SpanStat{} : SpanStat{median(t), t.size()};
}

// Durations (ms) of the library's own spans named `name`, the last `take`
// of them, in completion order.
std::vector<double> library_span_ms(const std::vector<obs::SpanRecord>& spans,
                                    const std::string& name, size_t take) {
  std::vector<double> ms;
  for (const obs::SpanRecord& r : spans)
    if (r.name == name) ms.push_back(static_cast<double>(r.dur_us) / 1e3);
  if (ms.size() > take) ms.erase(ms.begin(), ms.end() - static_cast<std::ptrdiff_t>(take));
  return ms;
}

uint64_t counter(const char* name) { return obs::global().metrics.counter(name).value(); }

uint64_t worker_busy_us() {
  uint64_t sum = 0;
  for (int w = 0; w < kWorkers; ++w) {
    const obs::Labels l{{"worker", std::to_string(w)}};
    sum += obs::global().metrics.counter("engine.worker.busy_us", l).value();
  }
  return sum;
}

// p50 of the engine's queue-wait histograms for run() and verify() tasks,
// merged bucket by bucket (both use the shared log-2 latency scale).
double queue_wait_p50_us() {
  obs::HistogramStats merged;
  for (const char* kind : {"sm", "verify"}) {
    const obs::HistogramStats h =
        obs::global().metrics.latency_histogram("engine.queue.wait_us", {{"kind", kind}}).stats();
    if (h.count == 0) continue;
    if (merged.count == 0) {
      merged = h;
      continue;
    }
    for (size_t i = 0; i < merged.buckets.size() && i < h.buckets.size(); ++i)
      merged.buckets[i].second += h.buckets[i].second;
    merged.min = std::min(merged.min, h.min);
    merged.max = std::max(merged.max, h.max);
    merged.sum += h.sum;
    merged.count += h.count;
  }
  return merged.count ? merged.quantile(0.5) : 0.0;
}

}  // namespace

std::vector<LayerMetric> layer_metrics(uint64_t seed, const std::string& state_dir,
                                       const TracedLoop& loop, Tracer& tr, Outcome& out) {
  Rng rng(seed ^ 0x1a7e55eedull);
  std::vector<LayerMetric> m;
  auto span_metric = [&](const char* metric, const char* span, double scale, const char* unit,
                         const char* maps_to) {
    const SpanStat s = span_stat(tr, span);
    m.push_back({metric, s.n ? s.self_ns * scale : 0.0, unit, maps_to, s.self_ns, s.n,
                 s.n ? "" : "no spans recorded"});
    return s;
  };
  auto value = [&](const char* metric, double v, const char* unit, const char* maps_to,
                   std::string note = "") {
    m.push_back({metric, v, unit, maps_to, -1, 0, std::move(note)});
  };
  auto run_all = [&](Workload& x) {
    for (size_t i = 0; i < x.pool_size(); ++i) {
      x.request(i, tr, kSweepRequest + 1 + i);
      out.add(x.check());
    }
  };

  // --- field and curve micro-batches.
  std::string kernels;
  field_sweep(tr, rng, kernels);
  curve_sweep(tr, rng);

  // --- dsa: a short valid pass, then the reject census.
  {
    Tracer::Scope root(tr, "sweep.dsa", kSweepRequest);
    SignVerify sv;
    sv.pool = 256;
    sv.generate(seed ^ 0xd5a);
    sv.setup(tr);
    run_all(sv);
    timed(tr, "dsa.challenge", 64, [&] {
      const curve::Affine& g = sv.scheme().generator();
      for (int i = 0; i < 64; ++i)
        g_sink = g_sink + sv.scheme().challenge(g, g, "challenge " + std::to_string(i)).w[0];
    });
    SignVerify census;
    census.pool = 96;
    census.all_hostile = true;
    census.generate(seed ^ 0xce5);
    census.setup(tr);
    run_all(census);
    const char* fixed = "ok_ratio (all); must not move";
    for (Hostile h : {Hostile::kFlipS, Hostile::kWrongMsg, Hostile::kNoPoint}) {
      const size_t i = static_cast<size_t>(h);
      const std::string kind = kHostileNames[i];
      value(("dsa.rejects_at_decode." + kind).c_str(),
            static_cast<double>(census.rejected_at_decode[i]), "count", fixed);
      value(("dsa.rejects_at_verify." + kind).c_str(),
            static_cast<double>(census.rejected_at_verify[i]), "count", fixed);
    }
  }

  // --- batch verification: two batches of 512, one with a planted forgery.
  const size_t first_engine_span = tr.spans().size();
  const uint64_t busy0 = worker_busy_us();
  const size_t msm_spans0 = obs::global().spans.count("curve.msm");
  {
    Tracer::Scope root(tr, "sweep.batch_verify", kSweepRequest);
    BatchVerify bv;
    bv.batches = 2;
    bv.generate(seed ^ 0xba7);
    bv.setup(tr);
    run_all(bv);
    run_all(bv);
  }
  // Read now: the MSM sweep below records curve.msm spans of its own.
  const std::vector<double> msm_calls_bv =
      library_span_ms(obs::global().spans.spans(), "curve.msm",
                      obs::global().spans.count("curve.msm") - msm_spans0);

  // --- simulated scalar multiplication: fixed sizes, ragged and full waves.
  SimSm sim(state_dir);
  const uint64_t ragged0 = counter("engine.lanes.ragged_jobs");
  {
    Tracer::Scope root(tr, "sweep.sim_sm", kSweepRequest);
    sim.fixed_sizes = {1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 64, 128, 256};
    sim.generate(seed ^ 0x515);
    sim.fill_disk_cache();
    for (int i = 0; i < 3; ++i) {
      sim.release();
      sim.setup(tr);
    }
    run_all(sim);
  }
  const uint64_t ragged = counter("engine.lanes.ragged_jobs") - ragged0;

  // --- MSM at n = 2^17.
  MsmStream msm_stream;
  MsmStream* msm = &msm_stream;
  {
    Tracer::Scope root(tr, "sweep.msm", kSweepRequest);
    msm_stream.generate(seed ^ 0x3535);
    msm_stream.setup(tr);
    run_all(msm_stream);
  }
  const uint64_t busy = worker_busy_us() - busy0;

  // --- offline flow: Table I loop body, the paper-cost program, and three
  // cold compiles of the engine's program in fresh caches.
  int loop_body_cycles = 0, paper_cycles = 0;
  {
    Tracer::Scope root(tr, "sweep.compile", kSweepRequest);
    loop_body_cycles =
        fourq::sched::compile_program(fourq::trace::build_loop_body_trace().program)
            .schedule.makespan;
    // The paper-cost program under the Table II flow (annealing, 400 steps).
    fourq::trace::SmTraceOptions topt;
    topt.endo = fourq::trace::EndoVariant::kPaperCost;
    fourq::sched::CompileOptions copt;
    copt.solver = fourq::sched::Solver::kAnneal;
    copt.anneal.iterations = 400;
    paper_cycles =
        fourq::sched::compile_program(fourq::trace::build_sm_trace(topt).program, copt).sm.cycles();
    for (int i = 0; i < 3; ++i) {
      Tracer::Scope s(tr, "engine.cache.cold_compile", kSweepRequest);
      engine::CompileCache cold;
      cold.get_or_compile(engine::CompileKey{});
    }
  }
  const std::vector<obs::SpanRecord> lib = obs::global().spans.spans();

  // --- field
  const char* sv_p50 = "latency_p50_ms @ sign-verify";
  const SpanStat kara = span_metric("field.fp2_mul_ns", "field.fp2_mul", 1, "ns", sv_p50);
  span_metric("field.fp2_sqr_ns", "field.fp2_sqr", 1, "ns", sv_p50);
  span_metric("field.fp_inv_ns", "field.fp_inv", 1, "ns", sv_p50);
  const SpanStat school =
      span_metric("field.fp2_mul_schoolbook_ns", "field.fp2_mul_schoolbook", 1, "ns", sv_p50);
  value("field.karatsuba_over_schoolbook",
        school.self_ns > 0 ? kara.self_ns / school.self_ns : 0.0, "ratio", sv_p50);
  span_metric("field.fp2_sqrt_us", "field.fp2_sqrt", 1e-3, "us", "ops_per_s @ sign-verify");
  span_metric("field.lanes_fp2_mul_ns", "field.lanes_fp2_mul", 1, "ns",
              "ops_per_s @ sim-sm");
  m.back().note = std::string("kernel table: ") + kernels;
  span_metric("field.batch_invert_ns", "field.batch_invert", 1, "ns", kSweepOnly);

  // --- curve
  span_metric("curve.scalar_mul_us", "curve.scalar_mul", 1e-3, "us", sv_p50);
  span_metric("curve.fixed_base_mul_us", "curve.fixed_base_mul", 1e-3, "us", sv_p50);
  span_metric("curve.dbl_ns", "curve.dbl", 1, "ns", sv_p50);
  span_metric("curve.add_ns", "curve.add", 1, "ns", sv_p50);
  span_metric("curve.add_mixed_ns", "curve.add_mixed", 1, "ns", sv_p50);
  span_metric("curve.decompress_us", "curve.decompress", 1e-3, "us", "ops_per_s @ sign-verify");
  {
    std::vector<double> stage, insert, fold, per_add;
    double peak = 0;
    for (const curve::MsmStats& s : msm->stats) {
      stage.push_back(s.stage_ms);
      insert.push_back(s.insert_ms);
      fold.push_back(s.fold_ms);
      const double adds = static_cast<double>(s.sub_terms) * s.windows;
      if (adds > 0) per_add.push_back(s.insert_ms * 1e6 / adds);
      peak = std::max(peak, static_cast<double>(s.peak_bytes) / (1024.0 * 1024.0));
    }
    const curve::MsmStats last = msm->stats.empty() ? curve::MsmStats{} : msm->stats.back();
    const char* ms = kSweepOnly;
    value("curve.msm.stage_ms", median(stage), "ms", ms);
    value("curve.msm.insert_ms", median(insert), "ms", ms);
    value("curve.msm.fold_ms", median(fold), "ms", ms);
    value("curve.msm.ns_per_bucket_add", median(per_add), "ns", ms,
          "insert time over terms x windows");
    value("curve.msm.peak_mb", peak, "MB", ms);
    value("curve.msm.window", last.window, "bits", ms);
    value("curve.msm.chunks", static_cast<double>(last.chunks), "count", ms);
    value("curve.msm.bucket_waves", static_cast<double>(last.bucket_waves), "count", ms);
    value("curve.msm.ms_per_call", median(msm_calls_bv), "ms", kSweepOnly,
          "library span curve.msm, " + std::to_string(msm_calls_bv.size()) + " calls");
  }

  // --- dsa
  span_metric("dsa.sign_us", "dsa.sign", 1e-3, "us", sv_p50);
  span_metric("dsa.verify_us", "dsa.verify", 1e-3, "us", sv_p50);
  span_metric("dsa.challenge_us", "dsa.challenge", 1e-3, "us", sv_p50);
  span_metric("dsa.decode_us", "dsa.decode", 1e-3, "us", "ops_per_s @ sign-verify");

  // --- engine
  span_metric("engine.verify_ms", "engine.verify", 1e-6, "ms", kSweepOnly);
  span_metric("engine.run_us_per_job_ragged", "engine.run.ragged", 1e-3, "us",
              "ops_per_s @ sim-sm");
  span_metric("engine.run_us_per_job_full", "engine.run.full", 1e-3, "us", "ops_per_s @ sim-sm");
  value("engine.lanes.occupancy",
        sim.occupancy_weight > 0 ? sim.occupancy_jobs / sim.occupancy_weight : 0.0, "ratio",
        "ops_per_s @ sim-sm", "job-weighted over the sweep's fixed sizes");
  value("engine.lanes.ragged_jobs", static_cast<double>(ragged), "count", "ops_per_s @ sim-sm",
        "over the sweep's fixed sizes");
  value("engine.queue_wait_p50_us", queue_wait_p50_us(), "us",
        "ops_per_s @ sim-sm", "engine.queue.wait_us{kind=sm,verify}");
  {
    // Pool busy time during the sweep's engine calls, over the wall time of
    // those calls times the pool size.
    double call_ns = 0;
    const auto& spans = tr.spans();
    for (size_t i = first_engine_span; i < spans.size(); ++i) {
      const std::string& n = tr.name_of(spans[i]);
      if (spans[i].end_ns >= 0 && (n == "engine.verify" || n.rfind("engine.run.", 0) == 0 ||
                                   n == "curve.multi_scalar_mul"))
        call_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
    value("engine.worker_utilisation",
          call_ns > 0 ? static_cast<double>(busy) * 1e3 / (kWorkers * call_ns) : 0.0, "ratio",
          "ops_per_s @ sim-sm", "engine.worker.busy_us during engine calls");
  }
  span_metric("engine.cache.disk_load_ms", "engine.cache.disk_load", 1e-6, "ms",
              "setup_s @ sim-sm");
  value("engine.cache.hits", static_cast<double>(sim.cache_stats.hits), "count",
        "setup_s @ sim-sm");
  value("engine.cache.misses", static_cast<double>(sim.cache_stats.misses), "count",
        "setup_s @ sim-sm");
  value("engine.cache.disk_hits", static_cast<double>(sim.cache_stats.disk_hits), "count",
        "setup_s @ sim-sm");

  // --- asic (simulated, exact)
  const char* cyc = "sim_cycles_per_sm @ sim-sm";
  value("asic.mul_issues", sim.golden_stats.mul_issues, "count", cyc);
  value("asic.addsub_issues", sim.golden_stats.addsub_issues, "count", cyc);
  value("asic.stall_cycles", sim.golden_stats.stall_cycles, "cycles", cyc);
  value("asic.mul_utilisation", sim.golden_stats.mul_utilisation(), "ratio", cyc);

  // --- trace and sched: the three cold compiles, from the library's spans.
  const char* cold = "setup_s (cold start) @ sim-sm";
  for (const auto& [metric, span] :
       std::vector<std::pair<const char*, const char*>>{{"trace.build_sm_ms", "trace.build_sm"},
                                                        {"sched.solve_ms", "sched.solve"},
                                                        {"sched.regalloc_ms", "sched.regalloc"},
                                                        {"sched.emit_microcode_ms",
                                                         "sched.emit_microcode"},
                                                        {"sched.compile_ms", "sched.compile"}})
    value(metric, median(library_span_ms(lib, span, 3)), "ms", cold,
          std::string("library span ") + span);
  value("sched.loop_body_cycles", loop_body_cycles, "cycles", cyc, "paper Table I: 25");
  value("sched.paper_cost_sm_cycles", paper_cycles, "cycles", cyc,
        "Table II flow; the power model is unvalidated beyond Table I");

  // --- obs
  value("obs.spans_retained_per_op", loop.library_spans_per_op, "count",
        "peak_rss_mb @ sign-verify", "global SpanTracer growth per op");
  value("obs.trace_overhead_pct",
        loop.ops_per_s_untraced > 0
            ? (loop.ops_per_s_untraced - loop.ops_per_s_traced) / loop.ops_per_s_untraced * 100
            : 0.0,
        "%", "ops_per_s (all)", "untraced vs traced ops_per_s, interleaved blocks");
  return m;
}

void print_waterfall(const Tracer& tr) {
  const auto& spans = tr.spans();
  const std::vector<int64_t> self = tr.self_ns();
  // root name -> (requests, child name -> summed self ns)
  std::map<std::string, std::pair<size_t, std::map<std::string, double>>> agg;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < 0) continue;
    size_t root = i;
    while (spans[root].parent >= 0) root = static_cast<size_t>(spans[root].parent);
    const std::string& rname = tr.name_of(spans[root]);
    if (rname.rfind("request.", 0) != 0) continue;
    auto& entry = agg[rname];
    if (root == i) ++entry.first;
    entry.second[tr.name_of(spans[i])] += static_cast<double>(self[i]);
  }
  std::printf("\nlayer waterfall (mean self time per request)\n");
  for (const auto& [root, entry] : agg) {
    double total = 0;
    for (const auto& kv : entry.second) total += kv.second;
    const double n = static_cast<double>(std::max<size_t>(1, entry.first));
    std::printf("  %-16s %8zu requests, %10.3f ms each\n", root.c_str(), entry.first,
                total / n / 1e6);
    for (const auto& [name, ns] : entry.second)
      std::printf("    %-30s %10.3f ms  %5.1f%%\n", name.c_str(), ns / n / 1e6,
                  total > 0 ? 100.0 * ns / total : 0.0);
  }
}

}  // namespace perfbench
