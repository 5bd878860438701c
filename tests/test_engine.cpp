// Batch execution engine: compile-cache keying and persistence, the
// pre-decoded lane executor against the reference simulator, and the
// worker-pool engine against the software golden model at every request
// shape (full and partial waves).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "asic/romfile.hpp"
#include "asic/simulator.hpp"
#include "common/rng.hpp"
#include "curve/scalarmul.hpp"
#include "engine/batch.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace fourq {
namespace {

namespace fs = std::filesystem;

engine::CompileKey quick_key() {
  // No inversion: the shortest compilable single-SM program, so keying and
  // concurrency tests stay fast.
  engine::CompileKey key;
  key.kind = engine::ProgramKind::kSingleSm;
  key.trace.endo = trace::EndoVariant::kPaperCost;
  key.trace.include_inversion = false;
  return key;
}

engine::CompileKey functional_key() {
  engine::CompileKey key;
  key.kind = engine::ProgramKind::kSingleSm;
  key.trace.endo = trace::EndoVariant::kFunctional;
  return key;
}

std::string rom_text(const sched::CompiledSm& sm) {
  std::ostringstream os;
  asic::save_rom(sm, os);
  return os.str();
}

trace::InputBindings bindings_for(const engine::CompiledProgram& p, const curve::Affine& base) {
  trace::InputBindings b;
  b.emplace_back(p.in_zero, field::Fp2());
  b.emplace_back(p.in_one, field::Fp2::from_u64(1));
  b.emplace_back(p.in_two_d, curve::curve_2d());
  b.emplace_back(p.in_px, base.x);
  b.emplace_back(p.in_py, base.y);
  for (size_t i = 0; i < p.in_endo_consts.size(); ++i)
    b.emplace_back(p.in_endo_consts[i], field::Fp2::from_u64(3 + i, 7 + i));
  return b;
}

TEST(CompileCacheTest, KeyingAcrossBackendsAndConfigs) {
  engine::CompileCache cache;

  engine::CompileKey list_key = quick_key();
  engine::CompileKey seq_key = quick_key();
  seq_key.compile.solver = sched::Solver::kSequential;
  engine::CompileKey lat_key = quick_key();
  lat_key.compile.cfg.mul_latency = 4;

  EXPECT_FALSE(list_key == seq_key);
  EXPECT_FALSE(list_key == lat_key);
  EXPECT_NE(list_key.hash(), seq_key.hash());
  EXPECT_NE(list_key.hash(), lat_key.hash());

  auto p_list = cache.get_or_compile(list_key);
  auto p_seq = cache.get_or_compile(seq_key);
  auto p_lat = cache.get_or_compile(lat_key);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // The three configurations really compiled different artifacts.
  EXPECT_GT(p_seq->sm.cycles(), p_list->sm.cycles());  // no-ILP baseline is slower
  EXPECT_NE(rom_text(p_list->sm), rom_text(p_lat->sm));

  // Same key: served from memory, same object.
  auto p_again = cache.get_or_compile(list_key);
  EXPECT_EQ(p_again.get(), p_list.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(CompileCacheTest, DiskRoundTripBitForBit) {
  fs::path dir = fs::temp_directory_path() / "fourq_engine_cache_test";
  fs::remove_all(dir);

  engine::CompileKey key = quick_key();
  std::string mem_rom;
  {
    engine::CompileCache cold(dir.string());
    auto p = cold.get_or_compile(key);
    EXPECT_FALSE(p->loaded_from_disk);
    EXPECT_EQ(cold.stats().misses, 1u);
    mem_rom = rom_text(p->sm);
    EXPECT_TRUE(fs::exists(dir / ("rom-" + key.hash_hex() + ".txt")));
  }
  {
    // A fresh cache (fresh process, as far as the cache can tell) loads the
    // ROM instead of solving, and the bytes agree exactly.
    engine::CompileCache warm(dir.string());
    auto p = warm.get_or_compile(key);
    EXPECT_TRUE(p->loaded_from_disk);
    EXPECT_EQ(warm.stats().disk_hits, 1u);
    EXPECT_EQ(warm.stats().misses, 0u);
    EXPECT_EQ(rom_text(p->sm), mem_rom);
    // Input-op ids come from the (deterministic) trace rebuild.
    EXPECT_GE(p->in_px, 0);
    EXPECT_GE(p->in_py, 0);
  }
  fs::remove_all(dir);
}

TEST(CompileCacheTest, ConcurrentGetOrCompileCompilesOnce) {
  engine::CompileCache cache;
  engine::CompileKey key = quick_key();

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const engine::CompiledProgram>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] { got[static_cast<size_t>(i)] = cache.get_or_compile(key); });
  for (auto& t : threads) t.join();

  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(got[static_cast<size_t>(i)].get(), got[0].get());
  engine::CompileCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses + s.disk_hits, 1u);
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
}

// One staged job: its bindings and the select context run_lanes and
// asic::simulate take (ctx points into rec).
struct StagedJob {
  trace::InputBindings bindings;
  curve::RecodedScalar rec;
  trace::EvalContext ctx;
};

std::vector<StagedJob> stage_jobs(const engine::CompiledProgram& p, int n, Rng& rng) {
  std::vector<StagedJob> jobs(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    StagedJob& j = jobs[static_cast<size_t>(i)];
    j.bindings = bindings_for(p, curve::deterministic_point(1 + i % 5));
    curve::Decomposition dec = curve::decompose(rng.next_u256());
    j.rec = curve::recode(dec.a);
    j.ctx.recoded = &j.rec;
    j.ctx.k_was_even = dec.k_was_even;
  }
  return jobs;
}

// One run_lanes wave over `jobs`, every lane checked bitwise against
// asic::simulate on the same program.
void expect_wave_matches_simulator(const engine::CompiledProgram& p,
                                   const engine::DecodedRom& rom,
                                   const std::vector<StagedJob>& jobs,
                                   engine::LaneWorkspace& ws) {
  std::vector<trace::InputBindings> bindings;
  std::vector<trace::EvalContext> ctxs;
  for (const StagedJob& j : jobs) {
    bindings.push_back(j.bindings);
    ctxs.push_back(j.ctx);
  }
  const int lanes = static_cast<int>(jobs.size());
  engine::run_lanes(rom, bindings.data(), ctxs.data(), lanes, ws);
  for (int l = 0; l < lanes; ++l) {
    const StagedJob& j = jobs[static_cast<size_t>(l)];
    asic::SimResult ref = asic::simulate(p.sm, j.bindings, j.ctx);
    EXPECT_TRUE(engine::lane_output(rom, ws, "x", l) == ref.outputs.at("x"))
        << "W=" << lanes << " lane " << l;
    EXPECT_TRUE(engine::lane_output(rom, ws, "y", l) == ref.outputs.at("y"))
        << "W=" << lanes << " lane " << l;
    // The decoded stats are derived statically from the control stream;
    // they must equal what the interpreter counts dynamically.
    EXPECT_EQ(rom.stats, ref.stats);
  }
}

TEST(DecodedTest, MatchesReferenceSimulator) {
  auto prog = engine::CompileCache().get_or_compile(functional_key());
  engine::DecodedRom rom = engine::decode(prog->sm);
  Rng rng(7);
  for (int w : {1, 8}) {
    SCOPED_TRACE("W=" + std::to_string(w));
    engine::LaneWorkspace ws;
    expect_wave_matches_simulator(*prog, rom, stage_jobs(*prog, w, rng), ws);
  }
}

TEST(DecodedTest, WorkspaceReuseAcrossJobsIsClean) {
  // One workspace serving full and single-lane waves in turn (the engine's
  // full-then-partial pattern): no wave may see a previous wave's state.
  auto prog = engine::CompileCache().get_or_compile(functional_key());
  engine::DecodedRom rom = engine::decode(prog->sm);
  engine::LaneWorkspace ws;
  Rng rng(99);
  for (int w : {8, 1, 8, 1}) {
    SCOPED_TRACE("W=" + std::to_string(w));
    expect_wave_matches_simulator(*prog, rom, stage_jobs(*prog, w, rng), ws);
  }
}

TEST(DecodedTest, RejectsOutOfRangeIndices) {
  // decode() is the only check the executor gets: a ROM naming a register,
  // unit or select-map entry outside the machine must be refused there.
  auto prog = engine::CompileCache().get_or_compile(functional_key());
  const sched::CompiledSm& good = prog->sm;
  const auto first_reg_read = [](sched::CompiledSm& sm) -> sched::SrcSel& {
    for (sched::CtrlWord& w : sm.rom)
      for (sched::UnitCtrl& u : w.mul)
        if (u.a.kind == sched::SrcSel::Kind::kReg) return u.a;
    throw std::runtime_error("no register read");
  };
  const auto first_issue = [](sched::CompiledSm& sm) -> sched::UnitCtrl& {
    for (sched::CtrlWord& w : sm.rom)
      if (!w.mul.empty()) return w.mul.front();
    throw std::runtime_error("no issue");
  };
  const auto first_wb = [](sched::CompiledSm& sm) -> sched::WbCtrl& {
    for (sched::CtrlWord& w : sm.rom)
      if (!w.writebacks.empty()) return w.writebacks.front();
    throw std::runtime_error("no writeback");
  };

  sched::CompiledSm bad = good;
  first_reg_read(bad).reg = good.rf_slots;
  EXPECT_THROW(engine::decode(bad), std::logic_error);
  bad = good;
  first_issue(bad).unit = good.cfg.num_multipliers;
  EXPECT_THROW(engine::decode(bad), std::logic_error);
  bad = good;
  first_wb(bad).reg = -1;
  EXPECT_THROW(engine::decode(bad), std::logic_error);
  bad = good;
  ASSERT_FALSE(bad.select_maps.empty());
  bad.select_maps.front().reg.front().front() = good.rf_slots;
  EXPECT_THROW(engine::decode(bad), std::logic_error);
  EXPECT_NO_THROW(engine::decode(good));
}

TEST(BatchEngineTest, MatchesGoldenScalarMulAcross1kScalars) {
  engine::CompileCache cache;
  engine::EngineOptions opt;
  opt.workers = 4;
  opt.key = functional_key();
  opt.cache = &cache;
  engine::BatchEngine eng(opt);

  constexpr int kJobs = 1000;
  Rng rng(20260806);
  std::vector<engine::SmJob> jobs(kJobs);
  for (int i = 0; i < kJobs; ++i)
    jobs[static_cast<size_t>(i)] =
        engine::SmJob{rng.next_u256(), curve::deterministic_point(1 + i % 5)};

  std::vector<engine::SmResult> results = eng.run(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  int mismatches = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    curve::Affine sw = curve::to_affine(curve::scalar_mul(jobs[i].k, jobs[i].base));
    if (!(results[i].out.x == sw.x) || !(results[i].out.y == sw.y)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(cache.stats().misses, 1u);  // one compile served the whole batch
}

TEST(BatchEngineTest, RepeatedRunsReuseTheProgram) {
  engine::CompileCache cache;
  engine::EngineOptions opt;
  opt.workers = 2;
  opt.key = functional_key();
  opt.cache = &cache;
  engine::BatchEngine eng(opt);

  Rng rng(5);
  std::vector<engine::SmJob> jobs(8);
  for (auto& j : jobs) j = engine::SmJob{rng.next_u256(), curve::deterministic_point(1)};

  std::vector<engine::SmResult> a = eng.run(jobs);
  std::vector<engine::SmResult> b = eng.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].out.x == b[i].out.x);
    EXPECT_TRUE(a[i].out.y == b[i].out.y);
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(eng.program().sm.cycles(), a.front().stats.cycles);
}

TEST(BatchEngineTest, RaggedRequestsBitwise) {
  // Every request size from one partial wave (1..7) through full waves
  // plus a tail, on one and two workers and with unaligned explicit
  // chunks: each result equals the software [k]P, each request's first job
  // equals asic::simulate including SimStats, and engine.lanes.ragged_jobs
  // counts exactly the jobs of the partial waves.
  engine::CompileCache cache;
  auto prog = cache.get_or_compile(functional_key());
  obs::Counter& ragged = obs::global().metrics.counter("engine.lanes.ragged_jobs");
  const size_t W = engine::kMaxLanes;

  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(255);
  Rng rng(20261019);
  struct Request {
    std::vector<engine::SmJob> jobs;
    std::vector<curve::Affine> golden;
    asic::SimResult first;
  };
  std::vector<Request> reqs;
  for (size_t n : sizes) {
    Request r;
    for (size_t i = 0; i < n; ++i) {
      r.jobs.push_back(engine::SmJob{rng.next_u256(), curve::deterministic_point(1 + i % 5)});
      r.golden.push_back(curve::to_affine(curve::scalar_mul(r.jobs[i].k, r.jobs[i].base)));
    }
    curve::Decomposition dec = curve::decompose(r.jobs[0].k);
    curve::RecodedScalar rec = curve::recode(dec.a);
    trace::EvalContext ctx;
    ctx.recoded = &rec;
    ctx.k_was_even = dec.k_was_even;
    r.first = asic::simulate(prog->sm, bindings_for(*prog, r.jobs[0].base), ctx);
    reqs.push_back(std::move(r));
  }

  struct Config {
    int workers;
    size_t chunk;
  };
  for (Config c : {Config{1, 0}, Config{2, 0}, Config{2, 12}}) {
    engine::EngineOptions opt;
    opt.workers = c.workers;
    opt.chunk = c.chunk;
    opt.key = functional_key();
    opt.cache = &cache;
    engine::BatchEngine eng(opt);
    for (const Request& r : reqs) {
      const size_t n = r.jobs.size();
      SCOPED_TRACE("workers=" + std::to_string(c.workers) + " chunk=" +
                   std::to_string(c.chunk) + " n=" + std::to_string(n));
      const uint64_t ragged0 = ragged.value();
      std::vector<engine::SmResult> results = eng.run(r.jobs);
      ASSERT_EQ(results.size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(results[i].out.x == r.golden[i].x) << "job " << i;
        EXPECT_TRUE(results[i].out.y == r.golden[i].y) << "job " << i;
      }
      EXPECT_TRUE(results[0].out.x == r.first.outputs.at("x"));
      EXPECT_TRUE(results[0].out.y == r.first.outputs.at("y"));
      EXPECT_EQ(results[0].stats, r.first.stats);

      // Default chunks are wave-aligned, so only the last task has a tail;
      // an explicit chunk is honoured exactly and every task may have one.
      size_t tails = n % W;
      if (c.chunk != 0) {
        tails = 0;
        for (size_t b = 0; b < n; b += c.chunk) tails += (std::min(n, b + c.chunk) - b) % W;
      }
      if (obs::compiled_in()) {
        EXPECT_EQ(ragged.value() - ragged0, tails);
      }
    }
  }
}

TEST(BatchEngineTest, VerifyRejectsExactlyTheCorruptedIndices) {
  dsa::SchnorrQ scheme;
  Rng rng(123);

  constexpr int kSigs = 24;
  const std::vector<size_t> corrupted = {3, 11, 17, 23};
  std::vector<dsa::SchnorrQ::BatchItem> items;
  for (int i = 0; i < kSigs; ++i) {
    dsa::SchnorrQ::KeyPair kp = scheme.keygen(rng);
    std::string msg = "engine verify test " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  for (size_t idx : corrupted) items[idx].msg += " tampered";

  engine::EngineOptions opt;
  opt.workers = 3;
  opt.chunk = 6;
  engine::BatchEngine eng(opt);
  std::vector<uint8_t> verdicts = eng.verify(items);

  ASSERT_EQ(verdicts.size(), items.size());
  for (size_t i = 0; i < verdicts.size(); ++i) {
    bool bad = std::find(corrupted.begin(), corrupted.end(), i) != corrupted.end();
    EXPECT_EQ(verdicts[i], bad ? 0 : 1) << "index " << i;
  }
}

TEST(BatchEngineTest, AllValidBatchPasses) {
  dsa::SchnorrQ scheme;
  Rng rng(321);
  std::vector<dsa::SchnorrQ::BatchItem> items;
  for (int i = 0; i < 8; ++i) {
    dsa::SchnorrQ::KeyPair kp = scheme.keygen(rng);
    std::string msg = "all valid " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  engine::EngineOptions opt;
  opt.workers = 2;
  engine::BatchEngine eng(opt);
  std::vector<uint8_t> verdicts = eng.verify(items);
  for (size_t i = 0; i < verdicts.size(); ++i) EXPECT_EQ(verdicts[i], 1u) << "index " << i;
}

TEST(BatchEngineTest, ParallelForCoversEveryIndexOnceIncludingNested) {
  engine::EngineOptions opt;
  opt.workers = 4;
  engine::BatchEngine eng(opt);

  std::vector<std::atomic<int>> hits(257);
  eng.parallel_for(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;

  // Nested fan-out from inside a fan-out body: the inner caller self-drains,
  // so this must complete even when every worker is already occupied.
  std::atomic<int> inner_total{0};
  eng.parallel_for(8, [&](size_t) {
    eng.parallel_for(16, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);

  eng.parallel_for(0, [](size_t) { FAIL() << "body must not run for n=0"; });
}

TEST(BatchEngineTest, VerifyBisectionHoldsAcrossMsmBackends) {
  // Corrupted-index isolation must survive the backend choice and the
  // nested MSM fan-out that multi-worker verification triggers.
  dsa::SchnorrQ scheme;
  Rng rng(456);
  constexpr int kSigs = 32;
  const std::vector<size_t> corrupted = {0, 13, 31};
  std::vector<dsa::SchnorrQ::BatchItem> items;
  for (int i = 0; i < kSigs; ++i) {
    dsa::SchnorrQ::KeyPair kp = scheme.keygen(rng);
    std::string msg = "backend bisection " + std::to_string(i);
    items.push_back({kp.pub, msg, scheme.sign(kp, msg)});
  }
  for (size_t idx : corrupted) items[idx].msg += " tampered";

  using curve::MsmBackend;
  for (MsmBackend b : {MsmBackend::kAuto, MsmBackend::kStraus, MsmBackend::kPippenger}) {
    engine::EngineOptions opt;
    opt.workers = 4;
    opt.msm.backend = b;
    engine::BatchEngine eng(opt);
    std::vector<uint8_t> verdicts = eng.verify(items);
    ASSERT_EQ(verdicts.size(), items.size());
    for (size_t i = 0; i < verdicts.size(); ++i) {
      bool bad = std::find(corrupted.begin(), corrupted.end(), i) != corrupted.end();
      EXPECT_EQ(verdicts[i], bad ? 0 : 1)
          << "index " << i << " backend " << curve::msm_backend_name(b);
    }
  }
}

TEST(BatchEngineTest, EmptyBatchesAreNoOps) {
  engine::EngineOptions opt;
  opt.key = functional_key();
  engine::CompileCache cache;
  opt.cache = &cache;
  engine::BatchEngine eng(opt);
  EXPECT_TRUE(eng.run({}).empty());
  EXPECT_TRUE(eng.verify({}).empty());
  EXPECT_EQ(cache.stats().misses, 0u);  // nothing compiled for empty work
}

TEST(BatchEngineTest, RejectsUnrunnableProgramKinds) {
  engine::CompileKey key = functional_key();
  key.kind = engine::ProgramKind::kDualSm;
  engine::EngineOptions opt;
  opt.key = key;
  engine::CompileCache cache;
  opt.cache = &cache;
  engine::BatchEngine eng(opt);
  std::vector<engine::SmJob> jobs(1, engine::SmJob{U256(5), curve::deterministic_point(1)});
  EXPECT_THROW(eng.run(jobs), std::logic_error);
}

// ---------------------------------------------------------------------------
// Lifecycle telemetry: the engine's queue/worker instrumentation must account
// for every task exactly once.

TEST(BatchEngineTest, LifecycleMetricsAccountForEveryTask) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::global().reset();
  obs::Registry& reg = obs::global().metrics;

  constexpr int kWorkers = 4;
  constexpr int kJobs = 32;
  engine::CompileCache cache;
  engine::EngineOptions opt;
  opt.workers = kWorkers;
  opt.chunk = 1;  // one task per job, so task counts are exact
  opt.key = functional_key();  // run() needs the full program (affine outputs)
  opt.cache = &cache;
  std::vector<engine::SmJob> jobs(kJobs,
                                  engine::SmJob{U256(7), curve::deterministic_point(1)});
  {
    engine::BatchEngine eng(opt);
    eng.run(jobs);
  }

  // Every sm task passed through both lifecycle histograms exactly once.
  obs::HistogramStats wait =
      reg.latency_histogram("engine.queue.wait_us", {{"kind", "sm"}}).stats();
  obs::HistogramStats svc =
      reg.latency_histogram("engine.job.service_us", {{"kind", "sm"}}).stats();
  EXPECT_EQ(wait.count, static_cast<uint64_t>(kJobs));
  EXPECT_EQ(svc.count, static_cast<uint64_t>(kJobs));
  EXPECT_GT(svc.sum, 0.0);
  EXPECT_LE(svc.quantile(0.5), svc.quantile(0.99));

  // Per-worker counters partition the same tasks, and utilisation is a
  // fraction.
  uint64_t tasks = 0;
  for (int w = 0; w < kWorkers; ++w) {
    obs::Labels wl{{"worker", std::to_string(w)}};
    tasks += reg.counter("engine.worker.tasks", wl).value();
    double util = reg.gauge("engine.worker.utilisation", wl).value();
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
  }
  EXPECT_EQ(tasks, static_cast<uint64_t>(kJobs));

  // The queue drained fully and recorded a real high-water mark.
  EXPECT_DOUBLE_EQ(reg.gauge("engine.queue.depth").value(), 0.0);
  EXPECT_GE(reg.gauge("engine.queue.depth.max").value(), 1.0);

  // Worker task completions landed in the flight recorder (bounded memory).
  bool saw_task = false;
  for (const obs::FlightRecorder::Event& e : obs::global().flight.snapshot())
    if (e.kind == obs::FlightKind::kTask && e.name == "engine.task.sm") saw_task = true;
  EXPECT_TRUE(saw_task);
}

TEST(BatchEngineTest, BackpressureStallsAreCounted) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::global().reset();
  obs::Registry& reg = obs::global().metrics;

  // One slow worker behind a 2-slot ring: the producer must block while
  // enqueueing 64 single-job tasks.
  engine::CompileCache cache;
  engine::EngineOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 2;
  opt.chunk = 1;
  opt.key = functional_key();
  opt.cache = &cache;
  std::vector<engine::SmJob> jobs(64, engine::SmJob{U256(9), curve::deterministic_point(2)});
  {
    engine::BatchEngine eng(opt);
    eng.run(jobs);
  }
  EXPECT_GT(reg.counter("engine.queue.backpressure.stalls").value(), 0u);
  EXPECT_GT(reg.counter("engine.queue.backpressure.wait_us").value(), 0u);
}

TEST(BatchEngineTest, TeardownLoopLeavesNoSpanOrphans) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  obs::global().reset();
  obs::SpanTracer& spans = obs::global().spans;
  {
    obs::ScopedSpan anchor(spans, "test.anchor");
  }
  const size_t base_threads = spans.tracked_threads();

  // Pools shrink and regrow across engine lifetimes; each cycle creates and
  // joins fresh worker threads while the calling thread traces engine.run
  // spans. No bookkeeping may accumulate.
  engine::CompileCache cache;
  std::vector<engine::SmJob> jobs(8, engine::SmJob{U256(3), curve::deterministic_point(1)});
  for (int round = 0; round < 4; ++round) {
    engine::EngineOptions opt;
    opt.workers = 2 + round;
    opt.key = functional_key();
    opt.cache = &cache;
    engine::BatchEngine eng(opt);
    eng.run(jobs);
  }
  EXPECT_EQ(spans.tracked_threads(), base_threads);
  EXPECT_EQ(spans.open_stacks(), 0u);
  EXPECT_EQ(spans.count("engine.run"), 4u);
  EXPECT_EQ(spans.abandoned_spans(), 0u);
}

}  // namespace
}  // namespace fourq
