// Lane-parallel execution: the vector Fp/Fp2 batch kernels differentially
// against the scalar field operators (every compiled-in dispatch table, 10k
// random inputs plus boundary operands incl. p-1), each table's wave ops
// over long random op chains, the lane executor
// against the reference simulator for every wave width, ragged tails and
// mixed preloads, and the strip-parallel batch inversion.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "asic/simulator.hpp"
#include "common/rng.hpp"
#include "curve/point.hpp"
#include "curve/scalar.hpp"
#include "engine/batch.hpp"
#include "engine/lanes.hpp"
#include "field/fp2.hpp"
#include "field/fp_lanes.hpp"

namespace fourq {
namespace {

namespace lk = field::lanes;
using field::Fp;
using field::Fp2;

u128 p_minus(uint64_t k) { return Fp::P() - k; }

// Deterministic operand stream: random canonical values with the boundary
// operands (0, 1, p-1, 2^64 +/- 1, ...) planted pairwise at the front.
std::vector<u128> operand_stream(size_t n, uint64_t seed, size_t phase) {
  const u128 bnd[] = {0,
                      1,
                      2,
                      p_minus(1),
                      p_minus(2),
                      (u128(1) << 64) - 1,
                      (u128(1) << 64),
                      (u128(1) << 64) + 1,
                      (u128(1) << 126)};
  constexpr size_t kB = sizeof(bnd) / sizeof(bnd[0]);
  Rng rng(seed);
  std::vector<u128> v(n);
  for (size_t i = 0; i < n; ++i) {
    U256 r = rng.next_u256();
    u128 x = (u128(r.w[1]) << 64) | r.w[0];
    x &= (u128(1) << 127) - 1;
    if (x >= Fp::P()) x -= Fp::P();
    v[i] = x;
  }
  // Pairwise boundary coverage: stream "phase" strides the second index so
  // (a, b) streams built with phases 0/1 cover every boundary pair.
  for (size_t i = 0; i < kB * kB && i < n; ++i)
    v[i] = bnd[phase == 0 ? i % kB : i / kB];
  return v;
}

std::vector<const lk::Kernels*> compiled_tables() {
  std::vector<const lk::Kernels*> t{&lk::generic_kernels()};
  if (lk::avx512_supported()) t.push_back(&lk::avx512_kernels());
  return t;
}

TEST(LaneKernelsTest, FpKernelsMatchScalarOperators) {
  constexpr size_t N = 10007;  // odd: every table exercises its ragged tail
  std::vector<u128> a = operand_stream(N, 11, 0);
  std::vector<u128> b = operand_stream(N, 22, 1);
  std::vector<u128> r(N), r2(N);
  std::vector<U256> w(N);
  for (const lk::Kernels* k : compiled_tables()) {
    SCOPED_TRACE(k->name);
    k->fp_mul(a.data(), b.data(), r.data(), N);
    k->mul_wide(a.data(), b.data(), w.data(), N);
    k->reduce_wide(w.data(), r2.data(), N);
    for (size_t i = 0; i < N; ++i) {
      const u128 want =
          (Fp::from_canonical(a[i]) * Fp::from_canonical(b[i])).raw();
      ASSERT_EQ(r[i], want) << "fp_mul lane " << i;
      ASSERT_EQ(r2[i], want) << "mul_wide+reduce_wide lane " << i;
    }
    k->sqr_wide(a.data(), w.data(), N);
    k->reduce_wide(w.data(), r.data(), N);
    for (size_t i = 0; i < N; ++i) {
      const Fp ai = Fp::from_canonical(a[i]);
      ASSERT_EQ(r[i], (ai * ai).raw()) << "sqr_wide lane " << i;
    }
  }
}

TEST(LaneKernelsTest, Fp2KernelsMatchScalarOperators) {
  constexpr size_t N = 10007;
  std::vector<u128> are = operand_stream(N, 31, 0);
  std::vector<u128> aim = operand_stream(N, 32, 1);
  std::vector<u128> bre = operand_stream(N, 33, 1);
  std::vector<u128> bim = operand_stream(N, 34, 0);
  std::vector<u128> r1(N), r2(N);
  for (const lk::Kernels* k : compiled_tables()) {
    SCOPED_TRACE(k->name);
    struct Case {
      const char* what;
      Fp2 (*scalar)(const Fp2&, const Fp2&);
    };
    k->fp2_mul(are.data(), aim.data(), bre.data(), bim.data(), r1.data(),
               r2.data(), N);
    for (size_t i = 0; i < N; ++i) {
      const Fp2 want = lk::join(are[i], aim[i]) * lk::join(bre[i], bim[i]);
      ASSERT_EQ(r1[i], want.re().raw()) << "fp2_mul re lane " << i;
      ASSERT_EQ(r2[i], want.im().raw()) << "fp2_mul im lane " << i;
    }
    k->fp2_add(are.data(), aim.data(), bre.data(), bim.data(), r1.data(),
               r2.data(), N);
    for (size_t i = 0; i < N; ++i) {
      const Fp2 want = lk::join(are[i], aim[i]) + lk::join(bre[i], bim[i]);
      ASSERT_EQ(r1[i], want.re().raw()) << "fp2_add re lane " << i;
      ASSERT_EQ(r2[i], want.im().raw()) << "fp2_add im lane " << i;
    }
    k->fp2_sub(are.data(), aim.data(), bre.data(), bim.data(), r1.data(),
               r2.data(), N);
    for (size_t i = 0; i < N; ++i) {
      const Fp2 want = lk::join(are[i], aim[i]) - lk::join(bre[i], bim[i]);
      ASSERT_EQ(r1[i], want.re().raw()) << "fp2_sub re lane " << i;
      ASSERT_EQ(r2[i], want.im().raw()) << "fp2_sub im lane " << i;
    }
    k->fp2_conj(are.data(), aim.data(), r1.data(), r2.data(), N);
    for (size_t i = 0; i < N; ++i) {
      const Fp2 want = lk::join(are[i], aim[i]).conj();
      ASSERT_EQ(r1[i], want.re().raw()) << "fp2_conj re lane " << i;
      ASSERT_EQ(r2[i], want.im().raw()) << "fp2_conj im lane " << i;
    }
  }
}

TEST(LaneKernelsTest, RaggedAndAliasedCalls) {
  // Every n in [1, 17] (straddling both vector widths), results written
  // over the inputs — the elementwise-aliasing case the contract allows.
  std::vector<u128> are = operand_stream(17, 41, 0);
  std::vector<u128> aim = operand_stream(17, 42, 1);
  std::vector<u128> bre = operand_stream(17, 43, 0);
  std::vector<u128> bim = operand_stream(17, 44, 1);
  for (const lk::Kernels* k : compiled_tables()) {
    SCOPED_TRACE(k->name);
    for (size_t n = 1; n <= 17; ++n) {
      std::vector<u128> xre(are.begin(), are.begin() + n);
      std::vector<u128> xim(aim.begin(), aim.begin() + n);
      k->fp2_mul(xre.data(), xim.data(), bre.data(), bim.data(), xre.data(),
                 xim.data(), n);
      for (size_t i = 0; i < n; ++i) {
        const Fp2 want = lk::join(are[i], aim[i]) * lk::join(bre[i], bim[i]);
        ASSERT_EQ(xre[i], want.re().raw()) << "n=" << n << " lane " << i;
        ASSERT_EQ(xim[i], want.im().raw()) << "n=" << n << " lane " << i;
      }
    }
  }
}

TEST(LaneKernelsTest, WaveOpsMatchScalarOperatorsOverChains) {
  // The lane executor feeds wave-op outputs straight back in as operands,
  // and the AVX-512 layout keeps them semi-reduced between ops, so check
  // long random op chains (not just single ops on canonical inputs): 8
  // blocks x 8 lanes seeded with boundary and random values, 20k random
  // mul/add/sub/conj/gather/set steps, every lane of every result
  // compared with the scalar operators through get().
  constexpr size_t kBlocks = 8, kL = lk::kWaveLanes;
  const std::vector<u128> seed_re = operand_stream(kBlocks * kL, 51, 0);
  const std::vector<u128> seed_im = operand_stream(kBlocks * kL, 52, 1);
  for (const lk::Kernels* k : compiled_tables()) {
    SCOPED_TRACE(k->name);
    const lk::WaveOps& op = k->wave;
    std::vector<lk::WaveBlock> blk(kBlocks, lk::WaveBlock{});
    std::vector<Fp2> want(kBlocks * kL);
    for (size_t i = 0; i < kBlocks * kL; ++i) {
      op.set(blk[i / kL], i % kL, seed_re[i], seed_im[i]);
      want[i] = lk::join(seed_re[i], seed_im[i]);
    }
    Rng rng(53);
    for (int step = 0; step < 20000; ++step) {
      const size_t a = rng.next_u64() % kBlocks;
      const size_t b = rng.next_u64() % kBlocks;
      size_t r = rng.next_u64() % kBlocks;
      while (r == a || r == b) r = (r + 1) % kBlocks;
      const int kind = static_cast<int>(rng.next_u64() % 7);
      for (size_t l = 0; l < kL; ++l) {
        const Fp2 x = want[a * kL + l], y = want[b * kL + l];
        Fp2& z = want[r * kL + l];
        switch (kind) {
          case 0: case 1: case 2: z = x * y; break;
          case 3: z = x + y; break;
          case 4: z = x - y; break;
          case 5: z = x.conj(); break;
          default: break;  // gather, below
        }
      }
      if (kind <= 2) op.mul(blk[a], blk[b], blk[r], kL);
      if (kind == 3) op.add(blk[a], blk[b], blk[r], kL);
      if (kind == 4) op.sub(blk[a], blk[b], blk[r], kL);
      if (kind == 5) op.conj(blk[a], blk[r], kL);
      if (kind == 6) {
        // Per-lane sources, as a digit-table select gathers them.
        const lk::WaveBlock* src[kL];
        for (size_t l = 0; l < kL; ++l) {
          size_t s = rng.next_u64() % kBlocks;
          if (s == r) s = a;
          src[l] = &blk[s];
          want[r * kL + l] = want[s * kL + l];
        }
        op.gather(src, blk[r], kL);
      }
      for (size_t l = 0; l < kL; ++l) {
        u128 re, im;
        op.get(blk[r], l, re, im);
        ASSERT_EQ(re, want[r * kL + l].re().raw()) << "step " << step << " op " << kind;
        ASSERT_EQ(im, want[r * kL + l].im().raw()) << "step " << step << " op " << kind;
      }
      if (step % 97 == 0) {  // re-plant a boundary value
        const size_t i = rng.next_u64() % (kBlocks * kL);
        const size_t j = rng.next_u64() % 81;
        op.set(blk[i / kL], i % kL, seed_re[j % 64], seed_im[(j * 7) % 64]);
        want[i] = lk::join(seed_re[j % 64], seed_im[(j * 7) % 64]);
      }
    }
  }
}

TEST(LaneKernelsTest, DispatchHonorsEnvOverride) {
  // active() resolves once per process, so spawn nothing: just check the
  // compiled-in tables expose distinct names and the active one is among
  // them (the generic-only CI leg sees exactly {"generic"}).
  std::vector<const lk::Kernels*> tables = compiled_tables();
  bool found = false;
  for (const lk::Kernels* k : tables)
    if (std::string(k->name) == lk::active().name) found = true;
  EXPECT_TRUE(found) << "active table " << lk::active().name
                     << " not in the compiled-in set";
}

// --- lane executor vs the reference simulator ------------------------------

engine::CompileKey functional_key() {
  engine::CompileKey key;
  key.kind = engine::ProgramKind::kSingleSm;
  key.trace.endo = trace::EndoVariant::kFunctional;
  return key;
}

trace::InputBindings bindings_for(const engine::CompiledProgram& p,
                                  const curve::Affine& base) {
  trace::InputBindings b;
  b.emplace_back(p.in_zero, Fp2());
  b.emplace_back(p.in_one, Fp2::from_u64(1));
  b.emplace_back(p.in_two_d, curve::curve_2d());
  b.emplace_back(p.in_px, base.x);
  b.emplace_back(p.in_py, base.y);
  for (size_t i = 0; i < p.in_endo_consts.size(); ++i)
    b.emplace_back(p.in_endo_consts[i], Fp2::from_u64(3 + i, 7 + i));
  return b;
}

// Runs `lanes` jobs through run_lanes and checks every lane bitwise against
// asic::simulate on the same program. Mixed preloads: each lane gets its
// own base point and scalar.
void check_lane_width(int lanes) {
  SCOPED_TRACE("lanes=" + std::to_string(lanes));
  auto prog = engine::CompileCache::process_cache().get_or_compile(functional_key());
  engine::DecodedRom rom = engine::decode(prog->sm);

  Rng rng(1000 + static_cast<uint64_t>(lanes));
  std::vector<trace::InputBindings> bindings;
  std::vector<curve::Decomposition> decs(static_cast<size_t>(lanes));
  std::vector<curve::RecodedScalar> recs(static_cast<size_t>(lanes));
  std::vector<trace::EvalContext> ctxs(static_cast<size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    const size_t i = static_cast<size_t>(l);
    bindings.push_back(
        bindings_for(*prog, curve::deterministic_point(1 + i)));
    decs[i] = curve::decompose(rng.next_u256());
    recs[i] = curve::recode(decs[i].a);
    ctxs[i].recoded = &recs[i];
    ctxs[i].k_was_even = decs[i].k_was_even;
  }

  engine::LaneWorkspace ws;
  engine::run_lanes(rom, bindings.data(), ctxs.data(), lanes, ws);

  for (int l = 0; l < lanes; ++l) {
    const size_t i = static_cast<size_t>(l);
    asic::SimResult ref = asic::simulate(prog->sm, bindings[i], ctxs[i]);
    EXPECT_TRUE(engine::lane_output(rom, ws, "x", l) == ref.outputs.at("x"))
        << "lane " << l << " x";
    EXPECT_TRUE(engine::lane_output(rom, ws, "y", l) == ref.outputs.at("y"))
        << "lane " << l << " y";
  }
}

TEST(LaneExecutorTest, EveryWidthMatchesReferenceSimulator) {
  for (int w : {1, 2, 4, 8}) check_lane_width(w);
}

TEST(LaneExecutorTest, RaggedWidthsMatchReferenceSimulator) {
  for (int w : {3, 5, 7}) check_lane_width(w);
}

TEST(LaneExecutorTest, WorkspaceReuseAcrossWidths) {
  // One workspace serving wide then narrow waves (the engine's ragged-tail
  // pattern): the narrow run must not see stale wide-lane state.
  auto prog = engine::CompileCache::process_cache().get_or_compile(functional_key());
  engine::DecodedRom rom = engine::decode(prog->sm);
  engine::LaneWorkspace ws;
  Rng rng(77);
  for (int lanes : {8, 3, 8, 1}) {
    std::vector<trace::InputBindings> bindings;
    std::vector<curve::Decomposition> decs(static_cast<size_t>(lanes));
    std::vector<curve::RecodedScalar> recs(static_cast<size_t>(lanes));
    std::vector<trace::EvalContext> ctxs(static_cast<size_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      const size_t i = static_cast<size_t>(l);
      bindings.push_back(bindings_for(*prog, curve::deterministic_point(3 + i)));
      decs[i] = curve::decompose(rng.next_u256());
      recs[i] = curve::recode(decs[i].a);
      ctxs[i].recoded = &recs[i];
      ctxs[i].k_was_even = decs[i].k_was_even;
    }
    engine::run_lanes(rom, bindings.data(), ctxs.data(), lanes, ws);
    for (int l = 0; l < lanes; ++l) {
      const size_t i = static_cast<size_t>(l);
      asic::SimResult ref = asic::simulate(prog->sm, bindings[i], ctxs[i]);
      ASSERT_TRUE(engine::lane_output(rom, ws, "x", l) == ref.outputs.at("x"))
          << "lanes=" << lanes << " lane " << l;
      ASSERT_TRUE(engine::lane_output(rom, ws, "y", l) == ref.outputs.at("y"))
          << "lanes=" << lanes << " lane " << l;
    }
  }
}

// --- strip-parallel batch inversion ----------------------------------------

TEST(LaneBatchInvertTest, MatchesPerElementInversionIncludingZeros) {
  for (size_t n : {1u, 7u, 31u, 32u, 33u, 64u, 257u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(500 + n);
    std::vector<Fp2> xs(n), want(n);
    for (size_t i = 0; i < n; ++i) {
      U256 r = rng.next_u256();
      xs[i] = Fp2::from_u64(r.w[0], r.w[1]);
      if (i % 5 == 3) xs[i] = Fp2();  // zeros pass through untouched
      want[i] = xs[i].is_zero() ? Fp2() : xs[i].inv();
    }
    field::batch_invert(xs.data(), n);
    for (size_t i = 0; i < n; ++i)
      ASSERT_TRUE(xs[i] == want[i]) << "element " << i;
  }
}

}  // namespace
}  // namespace fourq
