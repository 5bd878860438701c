#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>

#include "common/modint.hpp"
#include "common/rng.hpp"
#include "curve/encoding.hpp"
#include "curve/fixed_base.hpp"
#include "curve/params.hpp"
#include "curve/scalarmul.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using fourq::Monty;
using fourq::Rng;

namespace {

constexpr double kHostileShare = 0.05;  // of sign-verify's verify requests
constexpr size_t kBatchSize = 512;       // signatures per batch-verify request
constexpr size_t kMsmTerms = size_t{1} << 17;
constexpr size_t kSimPool = 65;  // sim-sm requests; odd, so the median is one size, not a boundary

// Distinct generator streams per workload, so two workloads never share
// inputs for one seed.
Rng seeded(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9e3779b97f4a7c15ull ^ (stream + 1) * 0xd1b54a32d192ed03ull);
}

curve::Affine generator() {
  return curve::Affine{curve::candidate_generator_x(), curve::candidate_generator_y()};
}

bool same_point(const curve::Affine& a, const curve::Affine& b) {
  return a.x == b.x && a.y == b.y;
}

// The default single-SM program: functional auxiliary points, so every
// output equals software [k]P.
engine::CompileKey sm_key() { return engine::CompileKey{}; }

std::string rom_dir(const std::string& state_dir) { return state_dir + "/perfbench-rom"; }

// Fisher-Yates with the workload's generator.
template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

// Runs f, turning an exception into a failed outcome.
template <class F>
bool no_throw(F&& f) {
  try {
    return f();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

// --- sign-verify ------------------------------------------------------------

void SignVerify::generate(uint64_t seed) {
  Rng rng = seeded(seed, 1);
  dsa::SchnorrQ scheme;
  keys_.clear();
  for (int i = 0; i < 32; ++i) keys_.push_back(scheme.keygen(rng));
  reqs_.assign(pool, Req{});
  produced_.assign(pool, std::nullopt);
  // Exact shares, shuffled: every seed sends the same mix, so seeds differ
  // in keys, messages and order but not in how much work a pass holds.
  const size_t signs = all_hostile ? 0 : pool / 5;
  const size_t hostiles =
      all_hostile ? pool : static_cast<size_t>(std::llround((pool - signs) * kHostileShare));
  for (size_t i = 0; i < pool; ++i) {
    reqs_[i].sign = i < signs;
    if (i >= signs && i < signs + hostiles)
      reqs_[i].hostile = static_cast<Hostile>(1 + (i - signs) % 3);
  }
  shuffle(reqs_, rng);
  for (size_t i = 0; i < pool; ++i) {
    Req& r = reqs_[i];
    r.signer = static_cast<uint32_t>(rng.next_below(keys_.size()));
    r.msg = "its-cam seed=" + std::to_string(seed) + " n=" + std::to_string(i) +
            " pos=" + std::to_string(rng.next_u64());
    if (r.sign) continue;
    const dsa::SchnorrQ::KeyPair& kp = keys_[r.signer];
    r.pk = scheme.encode_public_key(kp.pub);
    const dsa::SchnorrQ::Signature sig = scheme.sign(kp, r.msg);
    r.sig = scheme.encode_signature(sig);
    switch (r.hostile) {
      case Hostile::kFlipS: {
        // Clear one set bit of s below bit 240: s' < s < N still decodes,
        // so the rejection has to come from verify().
        int bit = 0;
        do {
          bit = static_cast<int>(rng.next_below(240));
        } while (!sig.s.bit(static_cast<unsigned>(bit)));
        r.sig[static_cast<size_t>(32 + bit / 8)] ^= static_cast<uint8_t>(1u << (bit % 8));
        break;
      }
      case Hostile::kWrongMsg:
        r.msg += " (altered)";
        break;
      case Hostile::kNoPoint: {
        // Real part of y set to p itself: a non-canonical field element, so
        // the 32 bytes encode no point. Planted in the key or in R.
        uint8_t* y = rng.next_below(2) ? r.pk.data() : r.sig.data();
        std::fill(y, y + 15, uint8_t{0xff});
        y[15] = 0x7f;
        break;
      }
      case Hostile::kNone:
        break;
    }
  }
}

void SignVerify::setup(Tracer& tr) {
  Tracer::Scope s(tr, "dsa.schnorrq_ctor", 0);
  scheme_ = std::make_unique<dsa::SchnorrQ>();
}

uint64_t SignVerify::request(size_t i, Tracer& tr, uint64_t req_id) {
  last_ = i;
  const Req& r = reqs_[i];
  if (r.sign) {
    Tracer::Scope root(tr, "request.sign", req_id);
    dsa::SchnorrQ::Signature sig;
    {
      Tracer::Scope s(tr, "dsa.sign", req_id);
      sig = scheme_->sign(keys_[r.signer], r.msg);
    }
    Tracer::Scope s(tr, "dsa.encode", req_id);
    last_sig_ = scheme_->encode_signature(sig);
    return 1;
  }
  Tracer::Scope root(tr, "request.verify", req_id);
  std::optional<curve::Affine> pub;
  std::optional<dsa::SchnorrQ::Signature> sig;
  {
    Tracer::Scope s(tr, "dsa.decode", req_id);
    pub = scheme_->decode_public_key(r.pk);
    if (pub) sig = scheme_->decode_signature(r.sig);
  }
  last_rejected_at_decode_ = !pub || !sig;
  if (last_rejected_at_decode_) {
    last_verdict_ = false;
    return 1;
  }
  Tracer::Scope s(tr, "dsa.verify", req_id);
  last_verdict_ = scheme_->verify(*pub, r.msg, *sig);
  return 1;
}

Outcome SignVerify::check() {
  Outcome o;
  const Req& r = reqs_[last_];
  if (!r.sign) {
    const bool want = r.hostile == Hostile::kNone;
    o.record(last_verdict_ == want);
    if (!last_verdict_) {
      auto& where = last_rejected_at_decode_ ? rejected_at_decode : rejected_at_verify;
      ++where[static_cast<size_t>(r.hostile)];
    }
    return o;
  }
  std::optional<dsa::SchnorrQ::EncodedSignature>& first = produced_[last_];
  if (first) {
    o.record(*first == last_sig_);
    return o;
  }
  first = last_sig_;
  o.record(no_throw([&] {
    const auto sig = scheme_->decode_signature(last_sig_);
    return sig && scheme_->encode_signature(*sig) == last_sig_ &&
           scheme_->verify(keys_[r.signer].pub, r.msg, *sig);
  }));
  return o;
}

// --- batch-verify -----------------------------------------------------------

void BatchVerify::generate(uint64_t seed) {
  Rng rng = seeded(seed, 2);
  dsa::SchnorrQ scheme;
  std::vector<dsa::SchnorrQ::KeyPair> keys;
  for (int i = 0; i < 32; ++i) keys.push_back(scheme.keygen(rng));
  batches_.assign(batches, Batch{});
  // One batch in eight (at least one) carries a planted invalid signature.
  const size_t planted_n = std::max<size_t>(1, batches / 8);
  std::vector<size_t> order(batches);
  for (size_t b = 0; b < batches; ++b) order[b] = b;
  shuffle(order, rng);
  for (size_t b = 0; b < batches; ++b) {
    Batch& bt = batches_[b];
    bt.items.resize(kBatchSize);
    bt.truth.assign(kBatchSize, 1);
    for (size_t i = 0; i < kBatchSize; ++i) {
      WireItem& it = bt.items[i];
      const dsa::SchnorrQ::KeyPair& kp = keys[rng.next_below(keys.size())];
      it.msg = "batch seed=" + std::to_string(seed) + " b=" + std::to_string(b) +
               " i=" + std::to_string(i) + " pos=" + std::to_string(rng.next_u64());
      it.pk = scheme.encode_public_key(kp.pub);
      it.sig = scheme.encode_signature(scheme.sign(kp, it.msg));
    }
  }
  for (size_t p = 0; p < planted_n; ++p) {
    Batch& bt = batches_[order[p]];
    const size_t bad = rng.next_below(kBatchSize);
    // A well-formed signature over another message: it decodes, so only
    // the batch equation (and then bisection) can catch it.
    bt.items[bad].msg += " (altered)";
    bt.truth[bad] = 0;
  }
}

void BatchVerify::setup(Tracer& tr) {
  {
    Tracer::Scope s(tr, "dsa.schnorrq_ctor", 0);
    scheme_ = std::make_unique<dsa::SchnorrQ>();
  }
  Tracer::Scope s(tr, "engine.ctor", 0);
  engine::EngineOptions opt;
  opt.workers = kWorkers;
  engine_ = std::make_unique<engine::BatchEngine>(opt);
}

uint64_t BatchVerify::request(size_t i, Tracer& tr, uint64_t req_id) {
  last_ = i;
  const Batch& bt = batches_[i];
  Tracer::Scope root(tr, "request.batch", req_id);
  std::vector<dsa::SchnorrQ::BatchItem> items;
  std::vector<size_t> where;  // items[j] is wire item where[j]
  items.reserve(bt.items.size());
  where.reserve(bt.items.size());
  for (size_t j = 0; j < bt.items.size(); ++j) {
    const WireItem& w = bt.items[j];
    Tracer::Scope s(tr, "dsa.decode", req_id);
    auto pub = scheme_->decode_public_key(w.pk);
    auto sig = pub ? scheme_->decode_signature(w.sig) : std::nullopt;
    if (!pub || !sig) continue;  // rejected at decode: verdict stays 0
    items.push_back({*pub, w.msg, *sig});
    where.push_back(j);
  }
  std::vector<uint8_t> got;
  {
    Tracer::Scope s(tr, "engine.verify", req_id);
    got = engine_->verify(items);
  }
  last_verdicts_.assign(bt.items.size(), 0);
  for (size_t j = 0; j < got.size(); ++j) last_verdicts_[where[j]] = got[j];
  return bt.items.size();
}

Outcome BatchVerify::check() {
  Outcome o;
  const Batch& bt = batches_[last_];
  for (size_t j = 0; j < bt.truth.size(); ++j)
    o.record(j < last_verdicts_.size() && last_verdicts_[j] == bt.truth[j]);
  return o;
}

// --- sim-sm -----------------------------------------------------------------

void SimSm::generate(uint64_t seed) {
  Rng rng = seeded(seed, 3);
  std::vector<curve::Affine> bases;
  for (int j = 0; j < 8; ++j) bases.push_back(curve::deterministic_point(rng.next_below(1u << 20)));
  const size_t count = fixed_sizes.empty() ? kSimPool : fixed_sizes.size();
  reqs_.assign(count, {});
  expected_.assign(count, {});
  golden_checked_.assign(count, 0);
  // Log-uniform sizes in [1, 256]: floor(257^u) at the midpoints u of
  // `count` equal slices. Every seed gets the same size profile, so seeds
  // differ in scalars, bases and order, not in how much work a pass holds.
  std::vector<size_t> sizes = fixed_sizes;
  for (size_t r = 0; sizes.size() < count; ++r) {
    const double u = (static_cast<double>(r) + 0.5) / static_cast<double>(count);
    sizes.push_back(
        std::clamp<size_t>(static_cast<size_t>(std::floor(std::pow(257.0, u))), 1, 256));
  }
  shuffle(sizes, rng);
  for (size_t r = 0; r < count; ++r) {
    const size_t n = sizes[r];
    for (size_t j = 0; j < n; ++j) {
      engine::SmJob job{rng.next_u256(), bases[rng.next_below(bases.size())]};
      expected_[r].push_back(curve::to_affine(curve::scalar_mul(job.k, job.base)));
      reqs_[r].push_back(job);
    }
  }
}

void SimSm::fill_disk_cache() {
  engine::CompileCache cache(rom_dir(state_dir_));
  cache.get_or_compile(sm_key());
}

void SimSm::setup(Tracer& tr) {
  {
    Tracer::Scope s(tr, "engine.cache.disk_load", 0);
    cache_ = std::make_unique<engine::CompileCache>(rom_dir(state_dir_));
    cache_->get_or_compile(sm_key());
  }
  {
    Tracer::Scope s(tr, "engine.ctor", 0);
    engine::EngineOptions opt;
    opt.workers = kWorkers;
    opt.key = sm_key();
    opt.cache = cache_.get();
    engine_ = std::make_unique<engine::BatchEngine>(opt);
  }
  Tracer::Scope s(tr, "engine.program", 0);
  engine_->program();
  cache_stats = cache_->stats();
}

uint64_t SimSm::request(size_t i, Tracer& tr, uint64_t req_id) {
  last_ = i;
  const std::vector<engine::SmJob>& jobs = reqs_[i];
  const size_t n = jobs.size();
  // Requests under one wave run on the scalar walk; multiples of the wave
  // width run entirely in full lane waves.
  const char* span = n < engine::kMaxLanes                ? "engine.run.ragged"
                     : n % engine::kMaxLanes == 0         ? "engine.run.full"
                                                          : "engine.run.mixed";
  Tracer::Scope root(tr, "request.sm", req_id);
  Tracer::Scope s(tr, span, req_id, n);
  last_results_ = engine_->run(jobs);
  return n;
}

Outcome SimSm::check() {
  Outcome o;
  const std::vector<engine::SmJob>& jobs = reqs_[last_];
  const std::vector<curve::Affine>& want = expected_[last_];
  if (cycles_ == 0 && !last_results_.empty()) cycles_ = last_results_[0].stats.cycles;
  for (size_t j = 0; j < jobs.size(); ++j) {
    // Every job of one program has the same static SimStats.
    const bool ok = j < last_results_.size() && same_point(last_results_[j].out, want[j]) &&
                    last_results_[j].stats == last_results_[0].stats &&
                    last_results_[j].stats.cycles == cycles_;
    o.record(ok);
  }
  const fourq::obs::Gauge& occ = fourq::obs::global().metrics.gauge("engine.lanes.occupancy");
  occupancy_jobs += occ.value() * static_cast<double>(jobs.size());
  occupancy_weight += static_cast<double>(jobs.size());
  // First pass over the pool: the first job of each request against the
  // independent cycle-accurate simulator, SimStats included.
  if (!golden_checked_[last_] && !jobs.empty() && !last_results_.empty()) {
    golden_checked_[last_] = 1;
    o.record(no_throw([&] {
      const engine::CompiledProgram& p = engine_->program();
      const curve::Decomposition dec = curve::decompose(jobs[0].k);
      const curve::RecodedScalar rec = curve::recode(dec.a);
      fourq::trace::InputBindings b;
      b.emplace_back(p.in_zero, fourq::field::Fp2());
      b.emplace_back(p.in_one, fourq::field::Fp2::from_u64(1));
      b.emplace_back(p.in_two_d, curve::curve_2d());
      b.emplace_back(p.in_px, jobs[0].base.x);
      b.emplace_back(p.in_py, jobs[0].base.y);
      fourq::trace::EvalContext ctx;
      ctx.recoded = &rec;
      ctx.k_was_even = dec.k_was_even;
      const asic::SimResult sim = asic::simulate(p.sm, b, ctx);
      golden_stats = sim.stats;
      return sim.outputs.at("x") == last_results_[0].out.x &&
             sim.outputs.at("y") == last_results_[0].out.y &&
             sim.stats == last_results_[0].stats;
    }));
  }
  return o;
}

int sim_cycles_probe(const std::string& state_dir, Outcome& out) {
  SimSm sim(state_dir);
  sim.fixed_sizes = {1};
  sim.generate(0x51c7c1e5);
  sim.fill_disk_cache();
  Tracer off;
  sim.setup(off);
  sim.request(0, off, 0);
  out.add(sim.check());
  return sim.sim_cycles_per_sm();
}

// --- msm-stream -------------------------------------------------------------

U256 msm_reference_scalar(const std::vector<U256>& k, const U256& a, const U256& b) {
  const U256& n = curve::candidate_subgroup_order();
  const Monty m(n);
  U256 c = a;  // a + i*b mod N
  U256 acc;    // Montgomery domain
  for (const U256& ki : k) {
    acc = m.add(acc, m.mul(m.to_monty(fourq::mod(ki, n)), m.to_monty(c)));
    c = fourq::addmod(c, b, n);
  }
  return m.from_monty(acc);
}

bool msm_matches(const curve::PointR1& got, const curve::PointR1& want) {
  return curve::equal(got, want);
}

void MsmStream::generate(uint64_t seed) {
  Rng rng = seeded(seed, 4);
  const U256& order = curve::candidate_subgroup_order();
  const size_t n = kMsmTerms;
  const U256 a = rng.next_mod_nonzero(order);
  const U256 b = rng.next_mod_nonzero(order);
  const curve::FixedBaseMul g(generator());
  // Bases P_i = [a + i*b]G by an additive walk, normalised in slices so
  // the walk's projective scratch stays small next to the working set.
  std::vector<curve::Affine> bases;
  bases.reserve(n);
  curve::PointR1 cur = g.mul(a);
  const curve::PointR2 step = curve::to_r2(g.mul(b));
  std::vector<curve::PointR1> slice;
  for (size_t i = 0; i < n;) {
    slice.clear();
    for (; i < n && slice.size() < 4096; ++i) {
      slice.push_back(cur);
      cur = curve::add(cur, step);
    }
    for (const curve::Affine& p : curve::batch_to_affine(slice)) bases.push_back(p);
  }
  terms_.assign(2, {});
  expected_.clear();
  for (auto& set : terms_) {
    std::vector<U256> k(n);
    set.resize(n);
    for (size_t i = 0; i < n; ++i) {
      k[i] = rng.next_u256();
      set[i] = curve::ScalarPoint{k[i], bases[i], 256};
    }
    expected_.push_back(g.mul(msm_reference_scalar(k, a, b)));
  }
}

void MsmStream::setup(Tracer& tr) {
  Tracer::Scope s(tr, "engine.ctor", 0);
  engine::EngineOptions opt;
  opt.workers = kWorkers;
  engine_ = std::make_unique<engine::BatchEngine>(opt);
}

uint64_t MsmStream::request(size_t i, Tracer& tr, uint64_t req_id) {
  last_ = i;
  curve::MsmStats st;
  curve::MsmOptions opt;
  opt.parallel = engine_->msm_parallel();
  opt.stats = &st;
  {
    Tracer::Scope root(tr, "request.msm", req_id);
    Tracer::Scope s(tr, "curve.multi_scalar_mul", req_id);
    last_result_ = curve::multi_scalar_mul(terms_[i], opt);
  }
  stats.push_back(st);
  return terms_[i].size();
}

Outcome MsmStream::check() {
  Outcome o;
  o.record(no_throw([&] { return msm_matches(last_result_, expected_[last_]); }));
  return o;
}

// --- registry and loop ------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name, const std::string& state_dir) {
  if (name == "sign-verify") return std::make_unique<SignVerify>();
  if (name == "sim-sm") return std::make_unique<SimSm>(state_dir);
  return nullptr;
}

void closed_loop(Workload& w, double seconds, Tracer& tr, size_t& cursor, LoopResult& acc,
                 uint64_t& ops_total) {
  CoreRotation cores;
  const uint64_t checkpoint = w.rss_checkpoint_ops();
  double window = 0, block_s = 0;
  uint64_t block_ops = 0;
  size_t block_first = acc.latency_ms.size();
  const auto close_block = [&] {
    acc.block_rates.push_back(static_cast<double>(block_ops) / block_s);
    acc.block_p50_ms.push_back(median(std::vector<double>(
        acc.latency_ms.begin() + static_cast<std::ptrdiff_t>(block_first), acc.latency_ms.end())));
    block_first = acc.latency_ms.size();
    block_s = 0;
    block_ops = 0;
  };
  while (window < seconds) {
    const auto t0 = Clock::now();
    uint64_t ops = 0;
    bool threw = false;
    try {
      ops = w.request(cursor, tr, acc.requests);
    } catch (const std::exception&) {
      threw = true;
    }
    const auto t1 = Clock::now();
    const double lat = std::chrono::duration<double>(t1 - t0).count();
    window += lat;
    block_s += lat;
    acc.latency_ms.push_back(lat * 1e3);
    ++acc.requests;
    if (threw) {
      acc.outcome.record(false);
    } else {
      acc.ops += ops;
      block_ops += ops;
      ops_total += ops;
      acc.outcome.add(w.check());
    }
    if (block_s >= kBlockSeconds) {
      close_block();
      cores.next();
    }
    if (acc.rss_mb == 0 && ops_total >= checkpoint) acc.rss_mb = peak_rss_mb();
    cursor = (cursor + 1) % w.pool_size();
  }
  if (block_s >= kBlockSeconds / 2) close_block();
  acc.window_s += window;
}

}  // namespace perfbench
