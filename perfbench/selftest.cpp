// Tests of the benchmark harness itself: the tail-percentile rule, self-time
// arithmetic for nested spans, fail_ratio counting of a planted wrong
// verdict, and detection of a corrupted MSM result. Exit status 0 iff every
// check passes. Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "curve/fixed_base.hpp"
#include "curve/params.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void tail_rule() {
  expect(samples_beyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  expect(samples_beyond(1000, 99.9) == 1, "1000 samples: 1 beyond p99.9");
  expect(tail_percentile(1000) == 99.0, "1000 samples -> p99");
  expect(tail_percentile(999) == 95.0, "999 samples -> p95 (p99 has 9 beyond)");
  expect(tail_percentile(10000) == 99.9, "10000 samples -> p99.9");
  expect(tail_percentile(60) == 75.0, "60 samples -> p75");
  expect(tail_percentile(19) == 0.0, "19 samples -> no percentile has ten beyond");
  for (size_t n : {20u, 57u, 200u, 480u, 4321u, 123457u}) {
    const double p = tail_percentile(n);
    expect(samples_beyond(n, p) >= 10, "n=" + std::to_string(n) + ": ten beyond the choice");
  }
  for (double p : {99.9, 99.0, 95.0, 75.0}) {
    const size_t b = tail_block(p);
    char what[64];
    std::snprintf(what, sizeof what, "tail block for p%g: fewest samples with ten beyond", p);
    expect(samples_beyond(b, p) == 10 && samples_beyond(b - 1, p) < 10, what);
  }
  // Blocks of 40 for p75; a burst of stalls in one block moves that block
  // only, a short remainder joins the last block, and the quantile over
  // blocks picks the quiet ones.
  std::vector<double> lat(130, 1.0);
  for (size_t i = 0; i < lat.size(); ++i) lat[i] = 1.0 + static_cast<double>(i % 40) / 40;
  for (size_t i = 40; i < 80; ++i) lat[i] = 50.0;
  size_t blocks = 0;
  const double t = block_tail(lat, 75.0, 0.5, &blocks);
  expect(blocks == 3 && t < 2.0, "block tail: median over 3 blocks ignores one stalled block");
  for (size_t i = 40; i < 80; ++i) lat[i] = 0.5;
  expect(near(block_tail(lat, 75.0, 0.0, &blocks), 0.5) &&
             block_tail(lat, 75.0, kQuietLow, &blocks) < block_tail(lat, 75.0, 0.5, &blocks),
         "block tail: a low quantile over blocks reads the quiet block");
  expect(block_tail(std::vector<double>(7, 2.0), 75.0, kQuietLow, &blocks) == 2.0 && blocks == 1,
         "block tail: fewer samples than a block form one block");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  expect(near(quantile(v, 0.5), 51) && near(quantile(v, 0.99), 100), "interpolated quantiles");
}

void self_time() {
  // request [0, 100) with children a [10, 40) and b [50, 90); a has a child
  // c [20, 30). Self: request 100-30-40 = 30, a 30-10 = 20, b 40, c 10.
  Tracer tr;
  const int req = tr.add("request", 7, -1, 0, 100);
  const int a = tr.add("a", 7, req, 10, 40);
  tr.add("c", 7, a, 20, 30);
  tr.add("b", 7, req, 50, 90, 4);
  const std::vector<int64_t> self = tr.self_ns();
  expect(self[0] == 30 && self[1] == 20 && self[2] == 10 && self[3] == 40,
         "self time of nested spans");
  const std::vector<double> tb = tr.self_per_call("b");
  expect(tb.size() == 1 && near(tb[0], 10), "per-call self time of a batch span");

  // Live recording nests by the open-span stack.
  Tracer live(true);
  {
    Tracer::Scope outer(live, "outer", 1);
    Tracer::Scope inner(live, "inner", 1);
  }
  expect(live.spans().size() == 2 && live.spans()[1].parent == 0, "live spans nest");
  Tracer off(false);
  { Tracer::Scope s(off, "x", 1); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

// A workload whose pool entry 3 gets a wrong verdict and entry 5 throws.
class Planted final : public Workload {
 public:
  void generate(uint64_t) override {}
  void setup(Tracer&) override {}
  void release() override {}
  size_t pool_size() const override { return 10; }
  uint64_t request(size_t i, Tracer&, uint64_t) override {
    if (i == 5) throw std::runtime_error("planted exception");
    last_ = i;
    return 1;
  }
  Outcome check() override {
    Outcome o;
    o.record(last_ != 3);
    return o;
  }
  uint64_t rss_checkpoint_ops() const override { return 1; }

 private:
  size_t last_ = 0;
};

void fail_ratio() {
  // Sign-verify with every verify request hostile: a verifier that accepted
  // any of them would fail its check. The real verifier must reject all.
  SignVerify sv;
  sv.pool = 12;
  sv.all_hostile = true;
  sv.generate(3);
  Tracer off;
  sv.setup(off);
  Outcome o;
  for (size_t i = 0; i < sv.pool_size(); ++i) {
    sv.request(i, off, i);
    o.add(sv.check());
  }
  expect(o.attempted == 12 && o.failed == 0, "hostile census: every request rejected");
  expect(sv.rejected_at_decode[static_cast<size_t>(Hostile::kNoPoint)] == 4 &&
             sv.rejected_at_verify[static_cast<size_t>(Hostile::kFlipS)] == 4 &&
             sv.rejected_at_verify[static_cast<size_t>(Hostile::kWrongMsg)] == 4,
         "rejects counted at the layer of each planted kind");

  // Through the closed loop: pool entry 3 returns a wrong verdict and entry
  // 5 throws; both count as failures, every request as one attempt.
  Planted w;
  LoopResult r;
  size_t cursor = 0;
  uint64_t ops = 0;
  closed_loop(w, 1e-3, off, cursor, r, ops);
  uint64_t want = 0;
  for (uint64_t i = 0; i < r.requests; ++i) want += (i % 10 == 3 || i % 10 == 5) ? 1 : 0;
  expect(r.requests >= 10 && r.outcome.attempted == r.requests && r.outcome.failed == want,
         "planted wrong verdicts and exceptions counted in fail_ratio (" +
             std::to_string(r.outcome.failed) + " of " + std::to_string(r.outcome.attempted) + ")");
  const std::string line =
      result_line(r.outcome, {{"ok_ratio", 1 - r.outcome.fail_ratio(), "ratio"}});
  expect(line.find("\"correct\": false") != std::string::npos &&
             line.find("\"failed\": " + std::to_string(want)) != std::string::npos,
         "a failure reaches the result line");
}

void msm_check() {
  namespace curve = fourq::curve;
  fourq::Rng rng(11);
  const fourq::U256& order = curve::candidate_subgroup_order();
  const fourq::U256 a = rng.next_mod_nonzero(order), b = rng.next_mod_nonzero(order);
  const curve::FixedBaseMul g(
      curve::Affine{curve::candidate_generator_x(), curve::candidate_generator_y()});
  std::vector<fourq::U256> k;
  std::vector<curve::ScalarPoint> terms;
  fourq::U256 c = a;
  for (int i = 0; i < 40; ++i) {
    k.push_back(rng.next_u256());
    terms.push_back({k.back(), curve::to_affine(g.mul(c)), 256});
    c = fourq::addmod(c, b, order);
  }
  const curve::PointR1 want = g.mul(msm_reference_scalar(k, a, b));
  const curve::PointR1 got = curve::multi_scalar_mul(terms);
  expect(msm_matches(got, want), "MSM equals [sum k_i (a + i b)]G");
  const curve::PointR1 corrupted = curve::add(got, curve::to_r2(g.mul(fourq::U256(1))));
  expect(!msm_matches(corrupted, want), "a corrupted MSM result is detected");
  terms[17].k = fourq::addmod(fourq::mod(terms[17].k, order), fourq::U256(1), order);
  expect(!msm_matches(curve::multi_scalar_mul(terms), want), "a perturbed term is detected");
}

}  // namespace

int main() {
  tail_rule();
  self_time();
  fail_ratio();
  msm_check();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED", g_failures);
  return g_failures ? 1 : 0;
}
