// The client workloads. Each is a closed loop driven by one client thread
// that calls the library only through its public entry points:
//
//   sign-verify   message authentication: ~80% decode + SchnorrQ::verify,
//                 ~20% sign + encode, a small seeded share of hostile
//                 verify requests (scalar Fp2 / point path, no pool).
//   sim-sm        BatchEngine::run on the pool, request sizes log-uniform in
//                 [1, 256] jobs, warm start from a ROM disk cache.
//
// BatchVerify (wire-encoded batches of 512 signatures, decoded on the client
// thread and verified by BatchEngine::verify on the pool, with a planted
// invalid signature) and MsmStream (multi_scalar_mul at n = 2^17 with the
// engine pool as the parallel hook) run only in the traced layer sweep. On
// the shared reference host, timed runs long enough to be steady fit for two
// workloads only (README.md).
//
// generate() builds the request pool and every reference answer from the
// seed; setup() builds the library objects (the part setup_s times);
// request() issues one pool entry and keeps its outputs; check() compares
// those outputs with the references. The loop times check() separately and
// leaves it out of the measured window.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "curve/multiscalar.hpp"
#include "dsa/schnorrq.hpp"
#include "engine/batch.hpp"
#include "harness.hpp"

namespace perfbench {

namespace asic = fourq::asic;
namespace curve = fourq::curve;
namespace dsa = fourq::dsa;
namespace engine = fourq::engine;
using fourq::U256;

// Engine pool size: half the benchmark host's 4 cores. The host is shared,
// and a pool that fills every core is held back by whichever core another
// tenant slows most; with two spare cores for the client thread and the
// rest of the machine, pooled workloads spread about half as much run to run.
constexpr int kWorkers = 2;

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the request pool and references from the seed. Not timed.
  virtual void generate(uint64_t seed) = 0;
  // Builds the library objects requests need (the part setup_s times).
  virtual void setup(Tracer& tr) = 0;
  // Destroys what setup() built, so the next setup() starts from nothing
  // and the teardown (joining engine workers) stays out of its time.
  virtual void release() = 0;
  virtual size_t pool_size() const = 0;
  // Issues pool entry i; returns the operations it completed.
  virtual uint64_t request(size_t i, Tracer& tr, uint64_t req_id) = 0;
  // Checks the outputs of the last request.
  virtual Outcome check() = 0;
  // Simulated cycles per [k]P from the SimStats of the workload's own
  // results; 0 when it runs no simulation (then sim_cycles_probe() gives it).
  virtual int sim_cycles_per_sm() const { return 0; }
  // Operation count after which peak_rss_mb is read: a fixed amount of
  // work, so a faster build is not charged for the spans the library
  // retains from the extra operations it completes in the window.
  virtual uint64_t rss_checkpoint_ops() const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, const std::string& state_dir);

// One simulated [k]P on an engine loaded from the ROM disk cache,
// checked against the software golden model; returns SimStats cycles. Gives
// sim_cycles_per_sm on workloads that run no simulation of their own.
int sim_cycles_probe(const std::string& state_dir, Outcome& out);

// --- The workloads (exposed for the traced layer sweep) ---------------------

enum class Hostile : uint8_t { kNone, kFlipS, kWrongMsg, kNoPoint };
inline constexpr const char* kHostileNames[] = {"none", "flip_s", "wrong_msg", "no_point"};

class SignVerify final : public Workload {
 public:
  void generate(uint64_t seed) override;
  void setup(Tracer& tr) override;
  void release() override { scheme_.reset(); }
  size_t pool_size() const override { return reqs_.size(); }
  uint64_t request(size_t i, Tracer& tr, uint64_t req_id) override;
  Outcome check() override;
  uint64_t rss_checkpoint_ops() const override { return 20000; }

  // Generation knobs. The sweep's reject census sets all_hostile: every
  // request is a verify, planted kinds in turn, so counts are exact.
  size_t pool = 2048;
  bool all_hostile = false;

  // Where each planted kind was rejected (index: Hostile).
  std::array<uint64_t, 4> rejected_at_decode{}, rejected_at_verify{};
  const dsa::SchnorrQ& scheme() const { return *scheme_; }

 private:
  struct Req {
    bool sign = false;
    uint32_t signer = 0;
    std::string msg;
    curve::CompressedPoint pk{};
    dsa::SchnorrQ::EncodedSignature sig{};
    Hostile hostile = Hostile::kNone;
  };
  std::unique_ptr<dsa::SchnorrQ> scheme_;
  std::vector<dsa::SchnorrQ::KeyPair> keys_;
  std::vector<Req> reqs_;
  // Outputs of the last request.
  size_t last_ = 0;
  bool last_verdict_ = false;
  bool last_rejected_at_decode_ = false;
  dsa::SchnorrQ::EncodedSignature last_sig_{};
  // First signature produced for each sign request: checked in full once,
  // later productions must repeat it byte for byte (nonces are derived).
  std::vector<std::optional<dsa::SchnorrQ::EncodedSignature>> produced_;
};

class BatchVerify final : public Workload {
 public:
  void generate(uint64_t seed) override;
  void setup(Tracer& tr) override;
  void release() override {
    engine_.reset();
    scheme_.reset();
  }
  size_t pool_size() const override { return batches_.size(); }
  uint64_t request(size_t i, Tracer& tr, uint64_t req_id) override;
  Outcome check() override;
  uint64_t rss_checkpoint_ops() const override { return 512 * 128; }

  size_t batches = 8;

 private:
  struct WireItem {
    curve::CompressedPoint pk{};
    dsa::SchnorrQ::EncodedSignature sig{};
    std::string msg;
  };
  struct Batch {
    std::vector<WireItem> items;
    std::vector<uint8_t> truth;
  };
  std::unique_ptr<dsa::SchnorrQ> scheme_;
  std::unique_ptr<engine::BatchEngine> engine_;
  std::vector<Batch> batches_;
  size_t last_ = 0;
  std::vector<uint8_t> last_verdicts_;
};

class SimSm final : public Workload {
 public:
  explicit SimSm(std::string state_dir) : state_dir_(std::move(state_dir)) {}
  void generate(uint64_t seed) override;
  void setup(Tracer& tr) override;
  void release() override {
    engine_.reset();
    cache_.reset();
  }
  size_t pool_size() const override { return reqs_.size(); }
  uint64_t request(size_t i, Tracer& tr, uint64_t req_id) override;
  Outcome check() override;
  int sim_cycles_per_sm() const override { return cycles_; }
  uint64_t rss_checkpoint_ops() const override { return 50000; }

  std::vector<size_t> fixed_sizes;  // non-empty: one request per size
  // Cache statistics of the last setup (one disk load, one memory hit).
  engine::CompileCache::Stats cache_stats{};
  // The SimStats of the sampled asic::simulate cross-check.
  asic::SimStats golden_stats{};
  // Lane-packing occupancy, weighted by request size.
  double occupancy_jobs = 0, occupancy_weight = 0;
  // Fills the ROM disk cache (a cold compile when it is empty).
  void fill_disk_cache();

 private:
  std::string state_dir_;
  std::unique_ptr<engine::CompileCache> cache_;
  std::unique_ptr<engine::BatchEngine> engine_;
  std::vector<std::vector<engine::SmJob>> reqs_;
  std::vector<std::vector<curve::Affine>> expected_;
  std::vector<uint8_t> golden_checked_;
  size_t last_ = 0;
  std::vector<engine::SmResult> last_results_;
  int cycles_ = 0;
};

class MsmStream final : public Workload {
 public:
  void generate(uint64_t seed) override;
  void setup(Tracer& tr) override;
  void release() override { engine_.reset(); }
  size_t pool_size() const override { return terms_.size(); }
  uint64_t request(size_t i, Tracer& tr, uint64_t req_id) override;
  Outcome check() override;
  uint64_t rss_checkpoint_ops() const override { return uint64_t{16} << 17; }

  // MsmStats of every request issued, in order.
  std::vector<curve::MsmStats> stats;

 private:
  std::unique_ptr<engine::BatchEngine> engine_;
  std::vector<std::vector<curve::ScalarPoint>> terms_;
  std::vector<curve::PointR1> expected_;
  size_t last_ = 0;
  curve::PointR1 last_result_{};
};

// True when an MSM result equals the reference point (projective equality,
// so any representation of the right group element passes).
bool msm_matches(const curve::PointR1& got, const curve::PointR1& want);

// The exact MSM reference: with bases P_i = [a + i*b]G, the sum
// sum_i [k_i]P_i equals [e]G for e = sum_i k_i (a + i*b) mod N, one
// fixed-base scalar multiplication for any n.
U256 msm_reference_scalar(const std::vector<U256>& k, const U256& a,
                                 const U256& b);

// --- The closed loop --------------------------------------------------------

// Throughput and median latency are taken per block of this much measured
// time; ops_per_s and latency_p50_ms read the quiet blocks (kQuietHigh,
// kQuietLow), so stalls on the shared host move only the blocks they hit.
constexpr double kBlockSeconds = 0.25;

struct LoopResult {
  uint64_t ops = 0;
  uint64_t requests = 0;
  double window_s = 0;  // time spent inside requests (checks excluded)
  std::vector<double> latency_ms;
  std::vector<double> block_rates;   // ops/s of each measured block
  std::vector<double> block_p50_ms;  // median latency of each measured block
  Outcome outcome;
  double rss_mb = 0;  // peak RSS read at the workload's checkpoint (0: not reached)
};

// Issues requests back to back, cycling the pool from `cursor`, until the
// measured window reaches `seconds`; each request's outputs are checked
// before the next one is sent, outside the window.
void closed_loop(Workload& w, double seconds, Tracer& tr, size_t& cursor, LoopResult& acc,
                 uint64_t& ops_total);

}  // namespace perfbench
