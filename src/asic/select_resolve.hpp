// Indexed-operand resolution shared by the cycle-accurate simulators
// (machine_state.cpp) and the batch engine's lane executor
// (engine/lanes.cpp): maps an indexed control field plus the runtime
// EvalContext (recoded digits, even-k flags, loop counter) to the concrete
// register the hardware mux would select this iteration.
#pragma once

#include "common/check.hpp"
#include "curve/scalar.hpp"
#include "sched/microcode.hpp"
#include "trace/eval.hpp"
#include "trace/ir.hpp"

namespace fourq::asic {

// Returns the register a select map picks for digit position `iter`, before
// any looped bank translation.
inline int resolve_select_reg(const sched::SelectMap& m, int iter,
                              const trace::EvalContext& ctx) {
  if (m.kind == trace::SelKind::kCorrection) {
    bool even = (iter == 1) ? ctx.k2_was_even : ctx.k_was_even;
    return m.reg[0][even ? 1 : 0];
  }
  if (trace::is_counter_iter(iter)) {
    FOURQ_CHECK_MSG(ctx.counter_iter >= 0, "counter-driven read without counter value");
    iter = ctx.counter_iter - trace::counter_offset(iter);
  }
  const curve::RecodedScalar* rec = ctx.recoded;
  if (iter >= trace::kStream2IterBase) {
    iter -= trace::kStream2IterBase;
    rec = ctx.recoded2;
  }
  FOURQ_CHECK_MSG(rec != nullptr, "indexed read without recoded digits");
  FOURQ_CHECK(iter >= 0 && iter < curve::kDigits);
  int digit = rec->digit[static_cast<size_t>(iter)];
  int variant = rec->sign[static_cast<size_t>(iter)] > 0 ? 0 : 1;
  return m.reg[static_cast<size_t>(variant)][static_cast<size_t>(digit)];
}

// SrcSel::kIndexed convenience overload. `src.map` must index into `maps`.
inline int resolve_select_reg(const sched::SrcSel& src,
                              const std::vector<sched::SelectMap>& maps,
                              const trace::EvalContext& ctx) {
  return resolve_select_reg(maps[static_cast<size_t>(src.map)], src.iter, ctx);
}

}  // namespace fourq::asic
