// Lane-parallel decoded-ROM executor — W jobs, one control stream.
//
// The paper's ASIC never pays control cost per datum: one control ROM
// drives a wide datapath. run_lanes() is the software analogue and the
// engine's only executor: the simulation state is a set of
// field::lanes::WaveBlocks, each holding one value for all W lanes, and a
// single pass over the ROM's steps executes all W jobs: one decode walk,
// W datapaths. decode() renames registers to blocks (DecodedRom::steps),
// so the steps are the issues alone — a writeback only re-points a
// register at its value's block, and no step copies. Blocks are in the
// active kernel table's own layout (radix-2^52 limb rows for AVX-512), so
// operands go to the table's WaveOps as they are and no field op converts
// them; values are converted only at preload and output. Only kIndexed
// operands (digit-table selects, which depend on each job's recoded
// scalar) gather per lane.
//
// Every value entering the state is canonical and WaveOps::get returns
// canonical components, so each lane's outputs are bitwise-equal to
// asic::simulate() — tests/test_lanes.cpp pins this for W in {1, 2, 4, 8}
// and ragged widths, and tests/test_engine.cpp for the engine's partial
// waves.
#pragma once

#include <string>
#include <vector>

#include "engine/decoded.hpp"
#include "field/fp_lanes.hpp"

namespace fourq::engine {

// Maximum lane width accepted by run_lanes: the width of every full engine
// wave.
inline constexpr int kMaxLanes = 8;

// Reusable execution state for waves of up to kMaxLanes lanes: the
// rom.blocks state blocks plus gather scratch. prepare() sizes it for
// (rom, kernel table); run_lanes() re-prepares automatically when either
// changed, so steady-state waves perform zero heap allocations.
struct LaneWorkspace {
  const field::lanes::Kernels* kernels = nullptr;  // layout of the blocks
  std::vector<field::lanes::WaveBlock> blocks;     // see DecodedRom::steps
  field::lanes::WaveBlock ga{}, gb{};              // kIndexed gather scratch

  void prepare(const DecodedRom& rom, const field::lanes::Kernels& k);
};

// Executes the decoded program for `lanes` (1..kMaxLanes) jobs at once.
// inputs[l] / ctxs[l] are lane l's preload bindings and select context
// (the same values asic::simulate takes). Results stay in ws; read them
// per lane with lane_output().
void run_lanes(const DecodedRom& rom, const trace::InputBindings* inputs,
               const trace::EvalContext* ctxs, int lanes, LaneWorkspace& ws);

// Named output of one lane from a finished workspace.
field::Fp2 lane_output(const DecodedRom& rom, const LaneWorkspace& ws,
                       const std::string& name, int lane);

}  // namespace fourq::engine
