// Lane executor experiment — wave-width sweep. One pre-decoded program,
// 256 pre-staged jobs, run_lanes called directly in waves of W in
// {1, 2, 4, 8}: W = 1 is the narrowest wave the engine runs (a task's
// one-job tail), W = 8 a full wave. The headline metric is the full
// wave's throughput over 1-lane waves, measured in-process — both sides
// see the same ambient load, so the ratio is stable where absolute jobs/s
// on a shared host is not. The engine itself then runs the same jobs on
// 1 and 8 workers, guarding the queue-chunking fix (8 workers must not
// fall below 1 worker again).
//
// Gated by tools/baselines/bench_lanes_baseline.jsonl via perf_regress:
// the full-wave ratio must hold >= 5x, 8w/1w >= 1, and every output must
// match the software golden model bitwise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "engine/batch.hpp"
#include "field/fp_lanes.hpp"

namespace {

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fourq;
  bench::parse_bench_args(argc, argv);

  bench::print_header("Lane executor — wave-width sweep (run_lanes, W = 1..8)");

  engine::CompileKey key;
  key.kind = engine::ProgramKind::kSingleSm;
  key.trace.endo = trace::EndoVariant::kFunctional;

  constexpr int kJobs = 256;  // a multiple of every swept W
  Rng rng(20260808);
  curve::Affine base = curve::deterministic_point(1);
  std::vector<engine::SmJob> jobs(kJobs);
  for (auto& j : jobs) j = engine::SmJob{rng.next_u256(), base};

  engine::CompileCache cache;
  std::shared_ptr<const engine::CompiledProgram> prog = cache.get_or_compile(key);
  const engine::DecodedRom rom = engine::decode(prog->sm);

  // Every job staged once, outside the timed region, so the sweep times
  // the executor alone: wave i of width W runs jobs [i*W, i*W + W), whose
  // bindings and contexts are contiguous.
  std::vector<trace::InputBindings> bindings(kJobs);
  std::vector<curve::RecodedScalar> recs(kJobs);
  std::vector<trace::EvalContext> ctxs(kJobs);
  for (size_t i = 0; i < jobs.size(); ++i) {
    const engine::CompiledProgram& p = *prog;
    curve::Decomposition dec = curve::decompose(jobs[i].k);
    recs[i] = curve::recode(dec.a);
    ctxs[i].recoded = &recs[i];
    ctxs[i].k_was_even = dec.k_was_even;
    bindings[i] = {{p.in_zero, field::Fp2()},
                   {p.in_one, field::Fp2::from_u64(1)},
                   {p.in_two_d, curve::curve_2d()},
                   {p.in_px, jobs[i].base.x},
                   {p.in_py, jobs[i].base.y}};
    for (size_t c = 0; c < p.in_endo_consts.size(); ++c)
      bindings[i].emplace_back(p.in_endo_consts[c], field::Fp2::from_u64(3 + c, 7 + c));
  }

  // Per-job bitwise check against the software golden model, shared by
  // every configuration (the outputs must not depend on W or workers).
  std::vector<curve::Affine> golden(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i)
    golden[i] = curve::to_affine(curve::scalar_mul(jobs[i].k, jobs[i].base));
  int mismatches = 0;
  const auto check = [&](size_t i, const curve::Affine& out) {
    if (!(out.x == golden[i].x) || !(out.y == golden[i].y)) ++mismatches;
  };

  // One timed pass over all jobs in W-wide waves. The widths are timed in
  // interleaved rounds and each keeps its best pass, so a burst of
  // neighbour load cannot land on one width alone.
  engine::LaneWorkspace ws;
  std::vector<curve::Affine> out(jobs.size());
  const auto pass = [&](int w) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < jobs.size(); i += static_cast<size_t>(w)) {
      engine::run_lanes(rom, &bindings[i], &ctxs[i], w, ws);
      for (int l = 0; l < w; ++l)
        out[i + static_cast<size_t>(l)] = curve::Affine{engine::lane_output(rom, ws, "x", l),
                                                        engine::lane_output(rom, ws, "y", l)};
    }
    const double jps = kJobs / secs_since(t0);
    for (size_t i = 0; i < jobs.size(); ++i) check(i, out[i]);
    return jps;
  };
  const int widths[] = {1, 2, 4, 8};
  double best[4] = {};
  for (int w : widths) pass(w);  // warm-up: workspace sized, caches hot
  for (int round = 0; round < 9; ++round)
    for (int k = 0; k < 4; ++k) best[k] = std::max(best[k], pass(widths[k]));

  const auto run_engine = [&](int workers) {
    engine::EngineOptions eopt;
    eopt.workers = workers;
    eopt.key = key;
    eopt.cache = &cache;
    engine::BatchEngine eng(eopt);
    eng.run(jobs);  // warm-up: arenas sized
    double best = 0.0;
    std::vector<engine::SmResult> results;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      results = eng.run(jobs);
      best = std::max(best, kJobs / secs_since(t0));
    }
    for (size_t i = 0; i < jobs.size(); ++i) check(i, results[i].out);
    return best;
  };

  std::printf("field kernels: %s  (program: functional single-SM, %d jobs)\n\n",
              field::lanes::active().name, kJobs);
  std::printf("%-34s %12s %14s %12s\n", "Configuration", "jobs/s", "vs 1 lane",
              "us/wave");
  bench::print_rule(75);

  bench::JsonRecorder rec("lanes");
  const double one_lane_jps = best[0], full_jps = best[3];
  for (int k = 0; k < 4; ++k) {
    const int w = widths[k];
    char label[64];
    std::snprintf(label, sizeof label, "run_lanes, %d lane%s", w, w == 1 ? "" : "s");
    std::printf("%-34s %12.1f %13.2fx %12.1f\n", label, best[k], best[k] / one_lane_jps,
                1e6 * w / best[k]);
    char metric[32];
    std::snprintf(metric, sizeof metric, "lanes.%d.jobs_per_s", w);
    rec.record(metric, best[k], "jobs/s");
  }

  const double jps_1w = run_engine(1);
  const double jps_8w = run_engine(8);
  std::printf("%-34s %12.1f %13.2fx\n", "engine, 1 worker", jps_1w, jps_1w / one_lane_jps);
  std::printf("%-34s %12.1f %13.2fx\n", "engine, 8 workers", jps_8w, jps_8w / one_lane_jps);

  const double speedup = full_jps / one_lane_jps;
  const double ratio_8w = jps_8w / jps_1w;
  std::printf("\nfull wave vs 1-lane waves: %.2fx   8w/1w: %.2f   cross-check: %s\n",
              speedup, ratio_8w, mismatches == 0 ? "all match" : "MISMATCH");

  rec.record("engine.1w.jobs_per_s", jps_1w, "jobs/s");
  rec.record("engine.8w.jobs_per_s", jps_8w, "jobs/s");
  rec.record("speedup_8lane_vs_1lane", speedup, "x");
  rec.record("ratio_8w_vs_1w", ratio_8w, "x");
  rec.record("check.mismatches", mismatches);

  std::printf(
      "\nEvery wave is one pass over the decoded steps, each field op a\n"
      "W-lane WaveOps call; the engine runs full waves plus at most one\n"
      "partial wave per task. The ratio is measured in-process so\n"
      "shared-host load cancels out of the gate.\n");
  return mismatches == 0 ? 0 : 1;
}
