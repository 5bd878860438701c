#include "engine/lanes.hpp"

#include "asic/select_resolve.hpp"
#include "common/check.hpp"

namespace fourq::engine {

using field::Fp2;
namespace lk = field::lanes;

static_assert(kMaxLanes <= static_cast<int>(lk::kWaveLanes),
              "a wave block must hold every lane of a wave");

void LaneWorkspace::prepare(const DecodedRom& rom, const lk::Kernels& k) {
  kernels = &k;
  // All-zero bytes are canonical zeros in every table's layout.
  blocks.assign(static_cast<size_t>(rom.blocks), lk::WaveBlock{});
  ga = lk::WaveBlock{};
  gb = lk::WaveBlock{};
}

void run_lanes(const DecodedRom& rom, const trace::InputBindings* inputs,
               const trace::EvalContext* ctxs, int lanes, LaneWorkspace& ws) {
  FOURQ_CHECK_MSG(lanes >= 1 && lanes <= kMaxLanes, "lane count out of range");
  const lk::Kernels& k = lk::active();
  if (ws.kernels != &k || ws.blocks.size() != static_cast<size_t>(rom.blocks))
    ws.prepare(rom, k);
  const lk::WaveOps& op = k.wave;
  const size_t n = static_cast<size_t>(lanes);
  lk::WaveBlock* blk = ws.blocks.data();

  for (const auto& [op_id, reg] : rom.preload) {
    for (int l = 0; l < lanes; ++l) {
      bool bound = false;
      for (const auto& [id, v] : inputs[l]) {
        if (id == op_id) {
          op.set(blk[reg], static_cast<size_t>(l), v.re().raw(), v.im().raw());
          bound = true;
          break;
        }
      }
      FOURQ_CHECK_MSG(bound, "input op " + std::to_string(op_id) + " not bound");
    }
  }

  // Operand i: block i, or for i = -1 - k the per-lane select
  // selects[k] (the block depends on each lane's recoded scalar: the
  // one per-lane scalar step in the loop), gathered into scratch. Results
  // never alias an operand: a step's result block holds a value whose last
  // read came before the step's cycle.
  const auto operand = [&](int32_t i, lk::WaveBlock& scratch) -> const lk::WaveBlock& {
    if (i >= 0) return blk[i];
    const LaneSelect& s = rom.selects[static_cast<size_t>(-1 - i)];
    const sched::SelectMap& map = rom.select_maps[static_cast<size_t>(s.map)];
    const int32_t* block_of = rom.select_blocks.data() + s.blocks;
    const lk::WaveBlock* src[kMaxLanes];
    for (int l = 0; l < lanes; ++l)
      src[l] = &blk[block_of[asic::resolve_select_reg(map, s.iter, ctxs[l])]];
    op.gather(src, scratch, n);
    return scratch;
  };

  for (const LaneStep& st : rom.steps) {
    lk::WaveBlock& r = blk[st.r];
    switch (st.op) {
      case LaneStep::Op::kMul:
        op.mul(operand(st.a, ws.ga), operand(st.b, ws.gb), r, n);
        break;
      case LaneStep::Op::kAdd:
        op.add(operand(st.a, ws.ga), operand(st.b, ws.gb), r, n);
        break;
      case LaneStep::Op::kSub:
        op.sub(operand(st.a, ws.ga), operand(st.b, ws.gb), r, n);
        break;
      case LaneStep::Op::kConj:
        op.conj(operand(st.a, ws.ga), r, n);
        break;
      case LaneStep::Op::kInvalid:
        FOURQ_CHECK_MSG(false, "invalid lane step");
    }
  }
}

Fp2 lane_output(const DecodedRom& rom, const LaneWorkspace& ws,
                const std::string& name, int lane) {
  FOURQ_CHECK_MSG(ws.kernels != nullptr && lane >= 0 && lane < kMaxLanes,
                  "lane out of range");
  for (const auto& [n, block] : rom.outputs) {
    if (n == name) {
      u128 re, im;
      ws.kernels->wave.get(ws.blocks[static_cast<size_t>(block)], static_cast<size_t>(lane),
                           re, im);
      return lk::join(re, im);
    }
  }
  FOURQ_CHECK_MSG(false, "unknown output '" + name + "'");
}

}  // namespace fourq::engine
