// Cycle-level event stream — the telemetry contract between the
// cycle-accurate datapath simulators and every consumer (SimStats
// derivation, per-phase energy attribution, event-log export).
//
// The simulator publishes one kCycle event per executed control word plus
// one event per micro-architectural action inside it (issues, RF port
// traffic, forwarded operands, writebacks, idle bubbles). Consumers
// implement CycleEventSink; the simulator always feeds its own SimStats
// sink and forwards to an extra sink only when one is given (nullptr = none).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fourq::obs {

enum class SimEventKind : uint8_t {
  kCycle = 0,       // a control word executed; `cycle` = absolute cycle index
  kMulIssue,        // `unit` = multiplier instance
  kAddsubIssue,     // `unit` = adder/subtractor instance
  kRfRead,          // port-consuming register-file read; `arg` = register
  kRfWrite,         // writeback; `unit` = producing unit, `arg` = register
  kForward,         // operand taken from a unit output bus; `unit` = instance,
                    // `arg` = 1 if from the multiplier bus, 0 if from add/sub
  kStall,           // a cycle that issues no operation on any unit (bubble)
};

struct CycleEvent {
  SimEventKind kind = SimEventKind::kCycle;
  int32_t cycle = 0;
  int16_t unit = -1;
  int32_t arg = 0;
};

const char* sim_event_kind_name(SimEventKind k);

class CycleEventSink {
 public:
  virtual ~CycleEventSink() = default;
  virtual void on_event(const CycleEvent& e) = 0;
};

// Buffers the full stream in memory (the flat SM program runs for a few
// thousand cycles, so this stays small).
class RecordingSink final : public CycleEventSink {
 public:
  void on_event(const CycleEvent& e) override { events.push_back(e); }
  std::vector<CycleEvent> events;
};

// One JSON object per event, one per line.
std::string events_to_jsonl(const std::vector<CycleEvent>& events);

}  // namespace fourq::obs
