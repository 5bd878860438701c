// Field-layer ratio gate: paper Algorithm 2 (Karatsuba F_{p^2} mul, 3 F_p
// products with lazy reduction) against the 4-product schoolbook, both as
// dependent chains of Fp2 multiplications, plus the F_p inversion cost.
// Each round times one block of each kind back to back and the headline
// ratio is the median of the per-round ratios, so both sides see the same
// ambient load and the ratio holds on a shared host where absolute ns do
// not. Both chains start from the same operands and must end bitwise equal.
//
// Gated by tools/baselines/bench_field_baseline.jsonl via perf_regress:
// karatsuba_over_schoolbook <= 1 and zero chain mismatches.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "field/fp2.hpp"

namespace {

using fourq::field::Fp;
using fourq::field::Fp2;
using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fourq;
  bench::parse_bench_args(argc, argv);
  bench::print_header("Field layer — Karatsuba vs schoolbook F_{p^2} mul, F_p inverse");

  constexpr int kRounds = 21;
  constexpr int kChain = 20000;  // dependent multiplications per block
  constexpr int kInvs = 200;     // dependent inversions per block

  Rng rng(12);
  const Fp2 x0(Fp::from_u256(rng.next_u256()), Fp::from_u256(rng.next_u256()));
  const Fp2 y(Fp::from_u256(rng.next_u256()), Fp::from_u256(rng.next_u256()));
  const Fp f0 = Fp::from_u256(rng.next_u256());

  std::vector<double> kara_ns, school_ns, ratio, inv_ns;
  int mismatches = 0;
  for (int r = 0; r < kRounds; ++r) {
    Fp2 k = x0, s = x0;
    auto t0 = Clock::now();
    for (int i = 0; i < kChain; ++i) k = Fp2::mul_karatsuba(k, y);
    const double tk = ns_since(t0) / kChain;
    t0 = Clock::now();
    for (int i = 0; i < kChain; ++i) s = Fp2::mul_schoolbook(s, y);
    const double ts = ns_since(t0) / kChain;
    mismatches += k != s;
    kara_ns.push_back(tk);
    school_ns.push_back(ts);
    ratio.push_back(tk / ts);

    Fp f = f0;
    t0 = Clock::now();
    for (int i = 0; i < kInvs; ++i) f = f.inv();  // f^(-1)^(-1) = f: stays non-zero
    inv_ns.push_back(ns_since(t0) / kInvs);
    mismatches += f != f0;  // an even number of inversions returns to f0
  }

  const double kara = median(kara_ns), school = median(school_ns);
  const double kos = median(ratio), inv = median(inv_ns);
  std::printf("%-34s %12s\n", "metric (median of 21 rounds)", "value");
  bench::print_rule(48);
  std::printf("%-34s %9.1f ns\n", "Fp2 mul, Karatsuba (Alg. 2)", kara);
  std::printf("%-34s %9.1f ns\n", "Fp2 mul, schoolbook", school);
  std::printf("%-34s %11.3f x\n", "karatsuba / schoolbook", kos);
  std::printf("%-34s %9.1f ns\n", "Fp inverse (addition chain)", inv);
  std::printf("%-34s %12d\n", "chain mismatches", mismatches);

  bench::JsonRecorder rec("field");
  rec.record("fp2_mul_ns", kara, "ns");
  rec.record("fp2_mul_schoolbook_ns", school, "ns");
  rec.record("karatsuba_over_schoolbook", kos, "x");
  rec.record("fp_inv_ns", inv, "ns");
  rec.record("check.mismatches", mismatches);
  return mismatches == 0 ? 0 : 1;
}
