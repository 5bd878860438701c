#include "engine/decoded.hpp"

#include <algorithm>

#include "asic/select_resolve.hpp"
#include "common/check.hpp"

namespace fourq::engine {

using field::Fp2;

namespace {

DecodedSrc decode_src(const sched::SrcSel& s) {
  DecodedSrc d;
  switch (s.kind) {
    case sched::SrcSel::Kind::kNone:
      d.kind = DecodedSrc::Kind::kNone;
      break;
    case sched::SrcSel::Kind::kReg:
      d.kind = DecodedSrc::Kind::kReg;
      d.reg = static_cast<int16_t>(s.reg);
      break;
    case sched::SrcSel::Kind::kMulBus:
      d.kind = DecodedSrc::Kind::kMulBus;
      d.unit = static_cast<uint8_t>(s.unit);
      break;
    case sched::SrcSel::Kind::kAddBus:
      d.kind = DecodedSrc::Kind::kAddBus;
      d.unit = static_cast<uint8_t>(s.unit);
      break;
    case sched::SrcSel::Kind::kIndexed:
      d.kind = DecodedSrc::Kind::kIndexed;
      d.map = static_cast<int16_t>(s.map);
      d.iter = static_cast<int16_t>(s.iter);
      break;
  }
  return d;
}

bool is_rf_read(const DecodedSrc& s) {
  return s.kind == DecodedSrc::Kind::kReg || s.kind == DecodedSrc::Kind::kIndexed;
}

bool is_forward(const DecodedSrc& s) {
  return s.kind == DecodedSrc::Kind::kMulBus || s.kind == DecodedSrc::Kind::kAddBus;
}

// Flattens the three streams into run_lanes' step list, renaming
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
void build_lane_steps(DecodedRom& rom) {
  const int rf = rom.rf_slots;
  const int mul_lat = rom.cfg.mul_latency, add_lat = rom.cfg.addsub_latency;
  const int mul_ring = mul_lat + 1, add_ring = add_lat + 1;

  std::vector<int> last_read(static_cast<size_t>(rf), -1);  // per value
  last_read.reserve(static_cast<size_t>(rf) + rom.mul.size() + rom.addsub.size());
  std::vector<int> regmap(static_cast<size_t>(rf));          // reg -> value
  std::vector<int> mul_ring_val(static_cast<size_t>(rom.cfg.num_multipliers * mul_ring), -1);
  std::vector<int> add_ring_val(static_cast<size_t>(rom.cfg.num_addsubs * add_ring), -1);
  const auto bus = [&](bool from_mul, int unit, int t) -> int& {
    return from_mul ? mul_ring_val[static_cast<size_t>(unit * mul_ring + t % mul_ring)]
                    : add_ring_val[static_cast<size_t>(unit * add_ring + t % add_ring)];
  };
  // Value read by operand s at cycle t (-1 for kIndexed: it reads every
  // register of its map, all marked read).
  const auto read = [&](const DecodedSrc& s, int t) -> int {
    int v = -1;
    switch (s.kind) {
      case DecodedSrc::Kind::kReg:
        v = regmap[static_cast<size_t>(s.reg)];
        break;
      case DecodedSrc::Kind::kMulBus:
      case DecodedSrc::Kind::kAddBus:
        v = bus(s.kind == DecodedSrc::Kind::kMulBus, s.unit, t);
        FOURQ_CHECK_MSG(v >= 0, "bus read with no result emerging");
        break;
      case DecodedSrc::Kind::kIndexed:
        for (const auto& row : rom.select_maps[static_cast<size_t>(s.map)].reg)
          for (int r : row) {
            int& lr = last_read[static_cast<size_t>(regmap[static_cast<size_t>(r)])];
            lr = std::max(lr, t);
          }
        return -1;
      case DecodedSrc::Kind::kNone:
        FOURQ_CHECK_MSG(false, "unresolvable decoded operand");
    }
    int& lr = last_read[static_cast<size_t>(v)];
    lr = std::max(lr, t);
    return v;
  };
  // One walk over the cycles in executor order; on_issue(u, from_mul, a, b)
  // receives the operand values and returns the new value's id.
  const auto walk = [&](const auto& on_issue) {
    for (int r = 0; r < rf; ++r) regmap[static_cast<size_t>(r)] = r;
    std::fill(mul_ring_val.begin(), mul_ring_val.end(), -1);
    std::fill(add_ring_val.begin(), add_ring_val.end(), -1);
    size_t mi = 0, ai = 0, wi = 0;
    for (int t = 0; t < rom.cycles; ++t) {
      for (; mi < rom.mul.size() && rom.mul[mi].cycle == t; ++mi) {
        const DecodedIssue& u = rom.mul[mi];
        const int a = read(u.a, t), b = read(u.b, t);
        bus(true, u.unit, t + mul_lat) = on_issue(u, true, a, b);
      }
      for (; ai < rom.addsub.size() && rom.addsub[ai].cycle == t; ++ai) {
        const DecodedIssue& u = rom.addsub[ai];
        const int a = read(u.a, t);
        const int b = u.op == trace::OpKind::kConj ? -1 : read(u.b, t);
        bus(false, u.unit, t + add_lat) = on_issue(u, false, a, b);
      }
      for (; wi < rom.writebacks.size() && rom.writebacks[wi].cycle == t; ++wi) {
        const DecodedWb& wb = rom.writebacks[wi];
        const int v = bus(wb.from_mul, wb.unit, t);
        FOURQ_CHECK_MSG(v >= 0, "writeback with no result emerging");
        regmap[static_cast<size_t>(wb.reg)] = v;
      }
    }
  };

  // Pass 1: last read cycle of every value; outputs are read at the end.
  walk([&](const DecodedIssue&, bool, int, int) {
    last_read.push_back(-1);
    return static_cast<int>(last_read.size()) - 1;
  });
  for (const auto& [name, reg] : rom.outputs)
    last_read[static_cast<size_t>(regmap[static_cast<size_t>(reg)])] = rom.cycles;

  // Pass 2: blocks and steps. A block is free from the cycle after its
  // value's last read: free_at[c] chains (through next_free) the blocks
  // freed at cycle c, moved to `idle` when the walk reaches c.
  std::vector<int32_t> block_of(last_read.size(), -1), free_at(
      static_cast<size_t>(rom.cycles) + 2, -1), next_free, idle;
  const auto release = [&](int32_t blk, int last) {
    const size_t c = static_cast<size_t>(std::clamp(last + 1, 0, rom.cycles + 1));
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
  rom.lane_steps.reserve(rom.mul.size() + rom.addsub.size());
  const auto operand = [&](const DecodedSrc& s, int v) -> int32_t {
    if (v >= 0) return block_of[static_cast<size_t>(v)];
    // kIndexed: snapshot the block of every register for this cycle.
    rom.lane_selects.push_back({s.map, s.iter, rom.lane_select_blocks.size()});
    for (int r = 0; r < rf; ++r)
      rom.lane_select_blocks.push_back(
          block_of[static_cast<size_t>(regmap[static_cast<size_t>(r)])]);
    return -static_cast<int32_t>(rom.lane_selects.size());
  };
  walk([&](const DecodedIssue& u, bool from_mul, int a, int b) {
    LaneStep st;
    st.op = from_mul                           ? LaneStep::Op::kMul
            : u.op == trace::OpKind::kAdd      ? LaneStep::Op::kAdd
            : u.op == trace::OpKind::kSub      ? LaneStep::Op::kSub
            : u.op == trace::OpKind::kConj     ? LaneStep::Op::kConj
                                               : LaneStep::Op::kInvalid;
    FOURQ_CHECK_MSG(st.op != LaneStep::Op::kInvalid, "invalid decoded adder opcode");
    st.a = operand(u.a, a);
    if (st.op != LaneStep::Op::kConj) st.b = operand(u.b, b);
    for (; released <= u.cycle; ++released)
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
    release(st.r, std::max(last_read[static_cast<size_t>(v)], u.cycle));
    rom.lane_steps.push_back(st);
    return v;
  });
  rom.lane_blocks = static_cast<int>(next_free.size());
  for (const auto& [name, reg] : rom.outputs)
    rom.lane_outputs.emplace_back(name, block_of[static_cast<size_t>(regmap[static_cast<size_t>(reg)])]);
}

}  // namespace

DecodedRom decode(const sched::CompiledSm& sm) {
  DecodedRom rom;
  rom.cycles = sm.cycles();
  rom.rf_slots = sm.rf_slots;
  rom.cfg = sm.cfg;
  rom.select_maps = sm.select_maps;
  rom.preload = sm.preload;
  rom.outputs = sm.outputs;

  asic::SimStats& st = rom.stats;
  st.cycles = rom.cycles;
  for (int t = 0; t < rom.cycles; ++t) {
    const sched::CtrlWord& w = sm.rom[static_cast<size_t>(t)];
    int reads = 0;
    if (w.mul.empty() && w.addsub.empty()) ++st.stall_cycles;
    for (const sched::UnitCtrl& u : w.mul) {
      FOURQ_CHECK(u.unit >= 0 && u.unit < sm.cfg.num_multipliers);
      DecodedIssue iss;
      iss.cycle = t;
      iss.op = u.op;
      iss.unit = static_cast<uint8_t>(u.unit);
      iss.a = decode_src(u.a);
      iss.b = decode_src(u.b);
      rom.mul.push_back(iss);
      ++st.mul_issues;
      reads += is_rf_read(iss.a) + is_rf_read(iss.b);
      st.forwarded_operands += is_forward(iss.a) + is_forward(iss.b);
    }
    for (const sched::UnitCtrl& u : w.addsub) {
      FOURQ_CHECK(u.unit >= 0 && u.unit < sm.cfg.num_addsubs);
      DecodedIssue iss;
      iss.cycle = t;
      iss.op = u.op;
      iss.unit = static_cast<uint8_t>(u.unit);
      iss.a = decode_src(u.a);
      iss.b = decode_src(u.b);
      // kConj consumes only operand a; the simulator never resolves b.
      if (iss.op == trace::OpKind::kConj) iss.b = DecodedSrc{};
      rom.addsub.push_back(iss);
      ++st.addsub_issues;
      reads += is_rf_read(iss.a) + is_rf_read(iss.b);
      st.forwarded_operands += is_forward(iss.a) + is_forward(iss.b);
    }
    for (const sched::WbCtrl& wb : w.writebacks) {
      FOURQ_CHECK(wb.reg >= 0 && wb.reg < sm.rf_slots);
      DecodedWb d;
      d.cycle = t;
      d.reg = static_cast<int16_t>(wb.reg);
      d.from_mul = wb.from_mul;
      d.unit = static_cast<uint8_t>(wb.unit);
      rom.writebacks.push_back(d);
    }
    st.rf_reads += reads;
    st.max_reads_in_cycle = std::max(st.max_reads_in_cycle, reads);
    st.rf_writes += static_cast<int>(w.writebacks.size());
    st.max_writes_in_cycle =
        std::max(st.max_writes_in_cycle, static_cast<int>(w.writebacks.size()));
  }
  build_lane_steps(rom);
  return rom;
}

void SimWorkspace::prepare(const DecodedRom& rom) {
  rf.assign(static_cast<size_t>(rom.rf_slots), Fp2());
  mul_pipes.assign(static_cast<size_t>(rom.cfg.num_multipliers),
                   asic::PipeRing(rom.cfg.mul_latency));
  add_pipes.assign(static_cast<size_t>(rom.cfg.num_addsubs),
                   asic::PipeRing(rom.cfg.addsub_latency));
}

namespace {

inline const Fp2& resolve(const DecodedSrc& s, int t, const DecodedRom& rom,
                          const SimWorkspace& ws, const trace::EvalContext& ctx) {
  switch (s.kind) {
    case DecodedSrc::Kind::kReg:
      return ws.rf[static_cast<size_t>(s.reg)];
    case DecodedSrc::Kind::kIndexed:
      return ws.rf[static_cast<size_t>(asic::resolve_select_reg(
          rom.select_maps[static_cast<size_t>(s.map)], s.iter, ctx))];
    case DecodedSrc::Kind::kMulBus:
      return ws.mul_pipes[s.unit].get(t);
    case DecodedSrc::Kind::kAddBus:
      return ws.add_pipes[s.unit].get(t);
    case DecodedSrc::Kind::kNone:
      break;
  }
  FOURQ_CHECK_MSG(false, "unresolvable decoded operand");
}

}  // namespace

void run(const DecodedRom& rom, const trace::InputBindings& inputs,
         const trace::EvalContext& ctx, SimWorkspace& ws) {
  if (ws.rf.size() != static_cast<size_t>(rom.rf_slots) ||
      ws.mul_pipes.size() != static_cast<size_t>(rom.cfg.num_multipliers)) {
    ws.prepare(rom);
  }

  for (const auto& [op_id, reg] : rom.preload) {
    bool bound = false;
    for (const auto& [id, v] : inputs) {
      if (id == op_id) {
        ws.rf[static_cast<size_t>(reg)] = v;
        bound = true;
        break;
      }
    }
    FOURQ_CHECK_MSG(bound, "input op " + std::to_string(op_id) + " not bound");
  }

  // Three cursors over the cycle-sorted streams replace simulate()'s
  // per-cycle vectors-of-vectors walk. Stale PipeRing slots from a previous
  // job are harmless: a forwarded/written-back result at cycle t exists only
  // because this program issued it (put() overwrites unconditionally), and
  // the schedule's legality was established against the reference simulator.
  size_t mi = 0, ai = 0, wi = 0;
  const size_t mn = rom.mul.size(), an = rom.addsub.size(), wn = rom.writebacks.size();
  for (int t = 0; t < rom.cycles; ++t) {
    for (; mi < mn && rom.mul[mi].cycle == t; ++mi) {
      const DecodedIssue& u = rom.mul[mi];
      const Fp2& a = resolve(u.a, t, rom, ws, ctx);
      const Fp2& b = resolve(u.b, t, rom, ws, ctx);
      ws.mul_pipes[u.unit].put(t + rom.cfg.mul_latency, Fp2::mul_karatsuba(a, b));
    }
    for (; ai < an && rom.addsub[ai].cycle == t; ++ai) {
      const DecodedIssue& u = rom.addsub[ai];
      const Fp2& a = resolve(u.a, t, rom, ws, ctx);
      Fp2 r;
      switch (u.op) {
        case trace::OpKind::kAdd:
          r = a + resolve(u.b, t, rom, ws, ctx);
          break;
        case trace::OpKind::kSub:
          r = a - resolve(u.b, t, rom, ws, ctx);
          break;
        case trace::OpKind::kConj:
          r = a.conj();
          break;
        default:
          FOURQ_CHECK_MSG(false, "invalid decoded adder opcode");
      }
      ws.add_pipes[u.unit].put(t + rom.cfg.addsub_latency, r);
    }
    for (; wi < wn && rom.writebacks[wi].cycle == t; ++wi) {
      const DecodedWb& wb = rom.writebacks[wi];
      const asic::PipeRing& pipe =
          wb.from_mul ? ws.mul_pipes[wb.unit] : ws.add_pipes[wb.unit];
      ws.rf[static_cast<size_t>(wb.reg)] = pipe.get(t);
    }
  }
}

const Fp2& output_value(const DecodedRom& rom, const SimWorkspace& ws,
                        const std::string& name) {
  for (const auto& [n, reg] : rom.outputs)
    if (n == name) return ws.rf[static_cast<size_t>(reg)];
  FOURQ_CHECK_MSG(false, "unknown output '" + name + "'");
}

}  // namespace fourq::engine
