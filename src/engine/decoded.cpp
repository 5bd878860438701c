#include "engine/decoded.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace fourq::engine {

namespace {

using Src = sched::SrcSel;

bool is_rf_read(const Src& s) {
  return s.kind == Src::Kind::kReg || s.kind == Src::Kind::kIndexed;
}

bool is_forward(const Src& s) {
  return s.kind == Src::Kind::kMulBus || s.kind == Src::Kind::kAddBus;
}

// Checks every index the step builder follows (units, registers, select
// maps) once, and counts the static SimStats on the same pass. kConj
// consumes only operand a; the simulator never resolves b.
asic::SimStats check_and_count(const sched::CompiledSm& sm) {
  const sched::MachineConfig& cfg = sm.cfg;
  const auto check_reg = [&](int r) { FOURQ_CHECK(r >= 0 && r < sm.rf_slots); };
  const auto check_src = [&](const Src& s) {
    switch (s.kind) {
      case Src::Kind::kReg:
        check_reg(s.reg);
        break;
      case Src::Kind::kMulBus:
        FOURQ_CHECK(s.unit >= 0 && s.unit < cfg.num_multipliers);
        break;
      case Src::Kind::kAddBus:
        FOURQ_CHECK(s.unit >= 0 && s.unit < cfg.num_addsubs);
        break;
      case Src::Kind::kIndexed:
        FOURQ_CHECK(s.map >= 0 && static_cast<size_t>(s.map) < sm.select_maps.size());
        for (const auto& row : sm.select_maps[static_cast<size_t>(s.map)].reg)
          for (int r : row) check_reg(r);
        break;
      case Src::Kind::kNone:
        FOURQ_CHECK_MSG(false, "unresolvable decoded operand");
    }
  };

  asic::SimStats st;
  st.cycles = sm.cycles();
  for (const sched::CtrlWord& w : sm.rom) {
    int reads = 0;
    if (w.mul.empty() && w.addsub.empty()) ++st.stall_cycles;
    const auto operand = [&](const Src& s) {
      check_src(s);
      reads += is_rf_read(s);
      st.forwarded_operands += is_forward(s);
    };
    for (const sched::UnitCtrl& u : w.mul) {
      FOURQ_CHECK(u.unit >= 0 && u.unit < cfg.num_multipliers);
      operand(u.a);
      operand(u.b);
      ++st.mul_issues;
    }
    for (const sched::UnitCtrl& u : w.addsub) {
      FOURQ_CHECK(u.unit >= 0 && u.unit < cfg.num_addsubs);
      operand(u.a);
      if (u.op != trace::OpKind::kConj) operand(u.b);
      ++st.addsub_issues;
    }
    for (const sched::WbCtrl& wb : w.writebacks) {
      check_reg(wb.reg);
      FOURQ_CHECK(wb.unit >= 0 &&
                  wb.unit < (wb.from_mul ? cfg.num_multipliers : cfg.num_addsubs));
    }
    st.rf_reads += reads;
    st.max_reads_in_cycle = std::max(st.max_reads_in_cycle, reads);
    st.rf_writes += static_cast<int>(w.writebacks.size());
    st.max_writes_in_cycle =
        std::max(st.max_writes_in_cycle, static_cast<int>(w.writebacks.size()));
  }
  for (const auto& [id, reg] : sm.preload) check_reg(reg);
  for (const auto& [name, reg] : sm.outputs) check_reg(reg);
  return st;
}

// Flattens the cycle walk into the lane executor's step list, renaming
// registers the way an out-of-order core does: every result is a value
// with its own state block, a writeback only re-points the register at
// that value, and a block is reused once the value it holds is read no
// more. So the steps are the issues alone, no writeback copies, each
// operand resolved to the block holding the value the hardware would read
// at that cycle (reads see the register map before the cycle's
// writebacks, bus reads see the result emerging that cycle).
//
// Values [0, rf_slots) are the registers' initial contents, held in blocks
// of the same index (so preloads go to block reg); then one value per
// issue, in step order. Pass 1 finds each value's last read cycle, pass 2
// assigns blocks: an issue at cycle t takes a block whose value was last
// read before t.
void build_lane_steps(const sched::CompiledSm& sm, DecodedRom& rom) {
  const int rf = sm.rf_slots, cycles = sm.cycles();
  const int mul_lat = sm.cfg.mul_latency, add_lat = sm.cfg.addsub_latency;
  const int mul_ring = mul_lat + 1, add_ring = add_lat + 1;
  const size_t issues = static_cast<size_t>(rom.stats.mul_issues + rom.stats.addsub_issues);

  std::vector<int> last_read(static_cast<size_t>(rf), -1);  // per value
  last_read.reserve(static_cast<size_t>(rf) + issues);
  std::vector<int> regmap(static_cast<size_t>(rf));          // reg -> value
  std::vector<int> mul_ring_val(static_cast<size_t>(sm.cfg.num_multipliers * mul_ring), -1);
  std::vector<int> add_ring_val(static_cast<size_t>(sm.cfg.num_addsubs * add_ring), -1);
  const auto bus = [&](bool from_mul, int unit, int t) -> int& {
    return from_mul ? mul_ring_val[static_cast<size_t>(unit * mul_ring + t % mul_ring)]
                    : add_ring_val[static_cast<size_t>(unit * add_ring + t % add_ring)];
  };
  // Value read by operand s at cycle t (-1 for kIndexed: it reads every
  // register of its map, all marked read).
  const auto read = [&](const Src& s, int t) -> int {
    int v = -1;
    switch (s.kind) {
      case Src::Kind::kReg:
        v = regmap[static_cast<size_t>(s.reg)];
        break;
      case Src::Kind::kMulBus:
      case Src::Kind::kAddBus:
        v = bus(s.kind == Src::Kind::kMulBus, s.unit, t);
        FOURQ_CHECK_MSG(v >= 0, "bus read with no result emerging");
        break;
      case Src::Kind::kIndexed:
        for (const auto& row : rom.select_maps[static_cast<size_t>(s.map)].reg)
          for (int r : row) {
            int& lr = last_read[static_cast<size_t>(regmap[static_cast<size_t>(r)])];
            lr = std::max(lr, t);
          }
        return -1;
      case Src::Kind::kNone:
        FOURQ_CHECK_MSG(false, "unresolvable decoded operand");
    }
    int& lr = last_read[static_cast<size_t>(v)];
    lr = std::max(lr, t);
    return v;
  };
  // One walk over the cycles in executor order; on_issue(u, from_mul, t,
  // a, b) receives the operand values and returns the new value's id.
  const auto walk = [&](const auto& on_issue) {
    for (int r = 0; r < rf; ++r) regmap[static_cast<size_t>(r)] = r;
    std::fill(mul_ring_val.begin(), mul_ring_val.end(), -1);
    std::fill(add_ring_val.begin(), add_ring_val.end(), -1);
    for (int t = 0; t < cycles; ++t) {
      const sched::CtrlWord& w = sm.rom[static_cast<size_t>(t)];
      for (const sched::UnitCtrl& u : w.mul) {
        const int a = read(u.a, t), b = read(u.b, t);
        bus(true, u.unit, t + mul_lat) = on_issue(u, true, t, a, b);
      }
      for (const sched::UnitCtrl& u : w.addsub) {
        const int a = read(u.a, t);
        const int b = u.op == trace::OpKind::kConj ? -1 : read(u.b, t);
        bus(false, u.unit, t + add_lat) = on_issue(u, false, t, a, b);
      }
      for (const sched::WbCtrl& wb : w.writebacks) {
        const int v = bus(wb.from_mul, wb.unit, t);
        FOURQ_CHECK_MSG(v >= 0, "writeback with no result emerging");
        regmap[static_cast<size_t>(wb.reg)] = v;
      }
    }
  };

  // Pass 1: last read cycle of every value; outputs are read at the end.
  walk([&](const sched::UnitCtrl&, bool, int, int, int) {
    last_read.push_back(-1);
    return static_cast<int>(last_read.size()) - 1;
  });
  for (const auto& [name, reg] : sm.outputs)
    last_read[static_cast<size_t>(regmap[static_cast<size_t>(reg)])] = cycles;

  // Pass 2: blocks and steps. A block is free from the cycle after its
  // value's last read: free_at[c] chains (through next_free) the blocks
  // freed at cycle c, moved to `idle` when the walk reaches c.
  std::vector<int32_t> block_of(last_read.size(), -1), free_at(
      static_cast<size_t>(cycles) + 2, -1), next_free, idle;
  const auto release = [&](int32_t blk, int last) {
    const size_t c = static_cast<size_t>(std::clamp(last + 1, 0, cycles + 1));
    next_free[static_cast<size_t>(blk)] = free_at[c];
    free_at[c] = blk;
  };
  for (int r = 0; r < rf; ++r) {
    block_of[static_cast<size_t>(r)] = r;
    next_free.push_back(-1);
    release(r, last_read[static_cast<size_t>(r)]);
  }
  int released = 0;  // free_at[0, released) already moved to idle
  int next_value = rf;
  rom.steps.reserve(issues);
  const auto operand = [&](const Src& s, int v) -> int32_t {
    if (v >= 0) return block_of[static_cast<size_t>(v)];
    // kIndexed: snapshot the block of every register for this cycle.
    rom.selects.push_back({s.map, s.iter, rom.select_blocks.size()});
    for (int r = 0; r < rf; ++r)
      rom.select_blocks.push_back(
          block_of[static_cast<size_t>(regmap[static_cast<size_t>(r)])]);
    return -static_cast<int32_t>(rom.selects.size());
  };
  walk([&](const sched::UnitCtrl& u, bool from_mul, int t, int a, int b) {
    LaneStep st;
    st.op = from_mul                           ? LaneStep::Op::kMul
            : u.op == trace::OpKind::kAdd      ? LaneStep::Op::kAdd
            : u.op == trace::OpKind::kSub      ? LaneStep::Op::kSub
            : u.op == trace::OpKind::kConj     ? LaneStep::Op::kConj
                                               : LaneStep::Op::kInvalid;
    FOURQ_CHECK_MSG(st.op != LaneStep::Op::kInvalid, "invalid decoded adder opcode");
    st.a = operand(u.a, a);
    if (st.op != LaneStep::Op::kConj) st.b = operand(u.b, b);
    for (; released <= t; ++released)
      for (int32_t blk = free_at[static_cast<size_t>(released)]; blk >= 0;
           blk = next_free[static_cast<size_t>(blk)])
        idle.push_back(blk);
    if (idle.empty()) {
      idle.push_back(static_cast<int32_t>(next_free.size()));
      next_free.push_back(-1);
    }
    const int v = next_value++;
    st.r = block_of[static_cast<size_t>(v)] = idle.back();
    idle.pop_back();
    release(st.r, std::max(last_read[static_cast<size_t>(v)], t));
    rom.steps.push_back(st);
    return v;
  });
  rom.blocks = static_cast<int>(next_free.size());
  for (const auto& [name, reg] : sm.outputs)
    rom.outputs.emplace_back(name, block_of[static_cast<size_t>(regmap[static_cast<size_t>(reg)])]);
}

}  // namespace

DecodedRom decode(const sched::CompiledSm& sm) {
  DecodedRom rom;
  rom.select_maps = sm.select_maps;
  rom.preload = sm.preload;
  rom.stats = check_and_count(sm);
  build_lane_steps(sm, rom);
  return rom;
}

}  // namespace fourq::engine
