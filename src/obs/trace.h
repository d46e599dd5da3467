// Fleet observability, part 2: round-phase tracing. A process-global span
// collector that records steady-clock intervals — intake, verify,
// hop(layer,gid), exit sort/check/finalize, transport-lane drains, driver
// round phases — and writes them as Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load directly), so overlapping pipelined
// rounds can be SEEN instead of inferred from aggregate counters.
//
// Cost contract: when tracing is disabled (the default), constructing a
// TraceSpan is one relaxed atomic load and a branch — no clock read, no
// allocation, no lock. When enabled, each span costs two steady_clock
// reads and one short mutex-guarded vector append at destruction; spans
// are pure observation (they never touch an Rng or reorder work), so a
// seeded round's RoundResult is byte-identical with tracing on or off —
// pinned by tests/obs_test.cpp.
//
// Aggregate-only, like the metrics plane: span args carry round ids,
// layers, gids, and counts — never a client identity.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace atom {
namespace obs {

// One completed span ("ph":"X" in the trace-event format). name/cat/arg
// keys are string literals at every call site, so the collector stores
// the pointers.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  int64_t ts_us = 0;   // start, microseconds since the collector epoch
  int64_t dur_us = 0;
  uint32_t tid = 0;    // small per-thread ordinal (first-use assignment)
  uint64_t round_id = 0;
  const char* k0 = nullptr;  // up to two extra numeric args
  uint64_t v0 = 0;
  const char* k1 = nullptr;
  uint64_t v1 = 0;
};

// The process-global collector. Enable() arms it (and pins the time
// epoch on first arm); Disable() stops collection but keeps the events;
// Clear() drops them.
class Trace {
 public:
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void Enable();
  static void Disable();
  static void Clear();
  static size_t EventCount();

  // Microseconds since the collector epoch (valid after first Enable()).
  static int64_t NowUs();

  // Appends one completed span. Callers normally go through TraceSpan;
  // direct Emit exists for spans whose start was recorded elsewhere
  // (e.g. a driver round that completes on a reader thread).
  static void Emit(const TraceEvent& event);

  // The collected events as one Chrome trace-event JSON document:
  // {"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,...},...]}.
  static std::string ToJson();

 private:
  static std::atomic<bool> enabled_;
};

// RAII span: samples the clock at construction and emits a completed
// event at destruction — if tracing was enabled when it was constructed.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, uint64_t round_id = 0)
      : name_(name), cat_(cat), round_id_(round_id) {
    if (Trace::Enabled()) {
      start_us_ = Trace::NowUs();
    }
  }
  TraceSpan(const char* name, const char* cat, uint64_t round_id,
            const char* k0, uint64_t v0, const char* k1 = nullptr,
            uint64_t v1 = 0)
      : TraceSpan(name, cat, round_id) {
    k0_ = k0;
    v0_ = v0;
    k1_ = k1;
    v1_ = v1;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (start_us_ >= 0) {
      TraceEvent event;
      event.name = name_;
      event.cat = cat_;
      event.ts_us = start_us_;
      event.dur_us = Trace::NowUs() - start_us_;
      event.round_id = round_id_;
      event.k0 = k0_;
      event.v0 = v0_;
      event.k1 = k1_;
      event.v1 = v1_;
      Trace::Emit(event);
    }
  }

 private:
  const char* name_;
  const char* cat_;
  uint64_t round_id_;
  const char* k0_ = nullptr;
  uint64_t v0_ = 0;
  const char* k1_ = nullptr;
  uint64_t v1_ = 0;
  int64_t start_us_ = -1;  // -1: tracing was off at construction
};

// Minimal well-formedness checker for the files Trace writes (no external
// JSON dependency): full syntactic JSON parse, plus the structural check
// that the document is an object whose "traceEvents" member is an array
// of objects each carrying name/ph/ts/dur/pid/tid. Used by tests and by
// the --trace-out self-validation in the example binaries.
bool ValidateTraceJson(const std::string& json, std::string* error);

}  // namespace obs
}  // namespace atom

#endif  // SRC_OBS_TRACE_H_
