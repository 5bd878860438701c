#include "field/fp_lanes.hpp"

#include <cstdlib>
#include <cstring>

#include "field/alg2.hpp"

namespace fourq::field::lanes {

namespace {

// ---------------------------------------------------------------------------
// Generic lane kernels: flat loops over the scalar stage code in alg2.hpp,
// the same functions Fp and Fp2 call. W independent carry chains in flight
// give the out-of-order core the ILP a single dependent chain cannot.

void g_mul_wide(const u128* a, const u128* b, U256* r, size_t n) {
  for (size_t i = 0; i < n; ++i) r[i] = alg2::mul(a[i], b[i]);
}

void g_sqr_wide(const u128* a, U256* r, size_t n) {
  for (size_t i = 0; i < n; ++i) r[i] = alg2::sqr(a[i]);
}

void g_reduce_wide(const U256* v, u128* r, size_t n) {
  for (size_t i = 0; i < n; ++i) r[i] = alg2::fold(v[i]);
}

void g_fp_mul(const u128* a, const u128* b, u128* r, size_t n) {
  for (size_t i = 0; i < n; ++i) r[i] = alg2::fold(alg2::mul(a[i], b[i]));
}

void g_fp2_mul(const u128* are, const u128* aim, const u128* bre, const u128* bim,
               u128* rre, u128* rim, size_t n) {
  for (size_t i = 0; i < n; ++i) alg2::fp2_mul(are[i], aim[i], bre[i], bim[i], rre[i], rim[i]);
}

// The fp2 kernels read every input of an element before writing either
// output so that r aliasing any input array — even cross-component, e.g.
// rre == aim — stays well-defined.
void g_fp2_add(const u128* are, const u128* aim, const u128* bre, const u128* bim,
               u128* rre, u128* rim, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const u128 re = alg2::add(are[i], bre[i]);
    const u128 im = alg2::add(aim[i], bim[i]);
    rre[i] = re;
    rim[i] = im;
  }
}

void g_fp2_sub(const u128* are, const u128* aim, const u128* bre, const u128* bim,
               u128* rre, u128* rim, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const u128 re = alg2::sub(are[i], bre[i]);
    const u128 im = alg2::sub(aim[i], bim[i]);
    rre[i] = re;
    rim[i] = im;
  }
}

void g_fp2_conj(const u128* are, const u128* aim, u128* rre, u128* rim, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const u128 re = are[i];
    const u128 im = alg2::sub(0, aim[i]);
    rre[i] = re;
    rim[i] = im;
  }
}

// Fused mixed addition, one lane at a time — the curve's 7M + 7A formula
// (curve/point.hpp add_mixed) restated on raw canonical values. Every
// intermediate is a full canonical field op, so this is the reference the
// vector implementations must match bit for bit.
void g_pt_addmix(u128* const* p, const u128* const* q, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const u128 X0 = p[0][i], X1 = p[1][i], Y0 = p[2][i], Y1 = p[3][i];
    const u128 Z0 = p[4][i], Z1 = p[5][i];
    u128 t0, t1, a0, a1, b0, b1, c0, c1;
    alg2::fp2_mul(p[6][i], p[7][i], p[8][i], p[9][i], t0, t1);  // t = Ta*Tb
    alg2::fp2_mul(alg2::sub(Y0, X0), alg2::sub(Y1, X1), q[2][i], q[3][i], a0, a1);
    alg2::fp2_mul(alg2::add(Y0, X0), alg2::add(Y1, X1), q[0][i], q[1][i], b0, b1);
    alg2::fp2_mul(t0, t1, q[4][i], q[5][i], c0, c1);  // c = t*dt2
    const u128 d0 = alg2::add(Z0, Z0), d1 = alg2::add(Z1, Z1);
    const u128 e0 = alg2::sub(b0, a0), e1 = alg2::sub(b1, a1);
    const u128 f0 = alg2::sub(d0, c0), f1 = alg2::sub(d1, c1);
    const u128 g0 = alg2::add(d0, c0), g1 = alg2::add(d1, c1);
    const u128 h0 = alg2::add(b0, a0), h1 = alg2::add(b1, a1);
    alg2::fp2_mul(e0, e1, f0, f1, p[0][i], p[1][i]);  // X = e*f
    alg2::fp2_mul(g0, g1, h0, h1, p[2][i], p[3][i]);  // Y = g*h
    alg2::fp2_mul(f0, f1, g0, g1, p[4][i], p[5][i]);  // Z = f*g
    p[6][i] = e0;  // Ta = e
    p[7][i] = e1;
    p[8][i] = h0;  // Tb = h
    p[9][i] = h1;
  }
}

constexpr Kernels kGeneric = {
    "generic", g_mul_wide, g_sqr_wide, g_reduce_wide, g_fp_mul,
    g_fp2_mul, g_fp2_add,  g_fp2_sub,  g_fp2_conj,   g_pt_addmix, 1,
    u128_wave::ops<g_fp2_mul, g_fp2_add, g_fp2_sub, g_fp2_conj>(),
};

// ---------------------------------------------------------------------------
// Dispatch.

const Kernels* resolve_active() {
  const char* req = std::getenv("FOURQ_FP_LANES");
  const bool want_generic = req && std::strcmp(req, "generic") == 0;
  const bool want_avx512 = req && std::strcmp(req, "avx512") == 0;
  const bool want_auto = req == nullptr || std::strcmp(req, "auto") == 0;
  if (want_generic) return &kGeneric;
  if (avx512_supported() && (want_avx512 || want_auto))
    return &avx512_kernels();
  // Unknown value (including the retired "avx2") or unsatisfiable request:
  // portable path, never a crash.
  return &kGeneric;
}

}  // namespace

const Kernels& generic_kernels() { return kGeneric; }

void u128_wave::gather(const WaveBlock* const* src, WaveBlock& r, size_t n) {
  for (size_t l = 0; l < n; ++l) {
    re(r)[l] = re(*src[l])[l];
    im(r)[l] = im(*src[l])[l];
  }
}

void u128_wave::set(WaveBlock& b, size_t lane, u128 v_re, u128 v_im) {
  re(b)[lane] = v_re;
  im(b)[lane] = v_im;
}

void u128_wave::get(const WaveBlock& b, size_t lane, u128& v_re, u128& v_im) {
  v_re = re(b)[lane];
  v_im = im(b)[lane];
}

bool avx512_supported() {
#if FOURQ_LANES_AVX512_ENABLED
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512ifma") != 0;
#else
  return false;
#endif
}

#if !FOURQ_LANES_AVX512_ENABLED
// Generic-only build: the specialization is compiled out entirely and the
// dispatcher above can never select it.
const Kernels& avx512_kernels() { return kGeneric; }
#endif

const Kernels& active() {
  static const Kernels* table = resolve_active();
  return *table;
}

}  // namespace fourq::field::lanes
