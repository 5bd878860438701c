#include "obs/events.hpp"

namespace fourq::obs {

const char* sim_event_kind_name(SimEventKind k) {
  switch (k) {
    case SimEventKind::kCycle: return "cycle";
    case SimEventKind::kMulIssue: return "mul_issue";
    case SimEventKind::kAddsubIssue: return "addsub_issue";
    case SimEventKind::kRfRead: return "rf_read";
    case SimEventKind::kRfWrite: return "rf_write";
    case SimEventKind::kForward: return "forward";
    case SimEventKind::kStall: return "stall";
  }
  return "unknown";
}

std::string events_to_jsonl(const std::vector<CycleEvent>& events) {
  std::string out;
  out.reserve(events.size() * 48);
  for (const CycleEvent& e : events) {
    out += "{\"kind\":\"";
    out += sim_event_kind_name(e.kind);
    out += "\",\"cycle\":" + std::to_string(e.cycle);
    if (e.unit >= 0) out += ",\"unit\":" + std::to_string(e.unit);
    if (e.kind == SimEventKind::kRfRead || e.kind == SimEventKind::kRfWrite)
      out += ",\"reg\":" + std::to_string(e.arg);
    if (e.kind == SimEventKind::kForward)
      out += ",\"from_mul\":" + std::to_string(e.arg);
    out += "}\n";
  }
  return out;
}

}  // namespace fourq::obs
