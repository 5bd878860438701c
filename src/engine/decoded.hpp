// Pre-decoded ROM — the batch engine's form of a compiled program.
//
// asic::simulate() is the reference interpreter: it walks vector<CtrlWord>
// (three nested vectors per cycle), re-validates port limits and pipeline
// legality every cycle, and publishes an obs::CycleEvent per action. All of
// that is the right thing for a *model* and wrong for a *farm*: the control
// stream is static, so its legality and its statistics are data-independent
// and can be established once per program instead of once per job.
//
// decode() does that once: it validates the unit and register indices,
// derives SimStats from the static stream, and flattens the cycle walk into
// a register-renamed step list for the lane executor (engine/lanes.hpp),
// which runs every job. Legality stays the flat simulator's and the static
// verifier's job; tests pin run_lanes() outputs bitwise to asic::simulate().
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "asic/simulator.hpp"

namespace fourq::engine {

// One issue of the ROM with registers renamed to state blocks (see
// build_lane_steps in decoded.cpp): steps are in execution order — per
// cycle the multiplier issues, then the adder issues — each reading and
// writing block indices. A negative operand -1 - k is the per-lane
// register select selects[k].
struct LaneStep {
  enum class Op : uint8_t { kMul, kAdd, kSub, kConj, kInvalid };
  Op op = Op::kInvalid;
  int32_t a = 0, b = 0, r = 0;
};

// A kIndexed operand of the steps: select_maps[map] picks register r at
// run time, whose value then sits in block select_blocks[blocks + r].
struct LaneSelect {
  int map = 0;
  int iter = 0;
  size_t blocks = 0;
};

struct DecodedRom {
  std::vector<sched::SelectMap> select_maps;
  std::vector<std::pair<int, int>> preload;  // (input op id, block)
  std::vector<LaneStep> steps;
  std::vector<LaneSelect> selects;           // kIndexed operands
  std::vector<int32_t> select_blocks;        // one block per register, per select
  std::vector<std::pair<std::string, int>> outputs;  // name -> block
  int blocks = 0;  // state blocks; preloaded register r is block r
  // SimStats are a function of the control stream alone (operand *values*
  // never change which events fire), so they are computed here, once.
  asic::SimStats stats;
};

DecodedRom decode(const sched::CompiledSm& sm);

}  // namespace fourq::engine
