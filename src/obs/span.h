// Scoped trace spans recorded into per-thread ring buffers and exported as
// Chrome trace-event JSON (the format Perfetto and chrome://tracing load).
//
//   void run_tick() {
//     OBS_SPAN("fleet.tick");               // span = this scope's lifetime
//     { OBS_SPAN("fleet.gather"); ... }     // nested spans nest in the UI
//   }
//
// Each thread owns a fixed-capacity ring (oldest events overwritten), so
// recording is wait-free and memory is bounded no matter how long a run
// is. `TraceBuffer::global().write_chrome_json(path)` dumps complete
// "ph":"X" duration events; export is meant to run when workers are
// quiescent (end of a run / a bench), matching how the CLI and tests use
// it.
//
// Span names must be string literals (or otherwise outlive the buffer):
// the ring stores the pointer, never a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace libra::obs {

// Microseconds since the process's trace epoch (the first call), from
// steady_clock. Also used by the thread-pool wait/run instrumentation.
std::uint64_t trace_now_us();

// Per-thread ring capacity, in events.
inline constexpr std::size_t kTraceRingCapacity = 8192;

// Cross-process trace correlation: the (trace id, enclosing span id) pair a
// caller stamps onto outgoing RPCs so the remote side's spans nest under it
// in a merged export. trace_id == 0 means "no active trace".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

namespace detail {
inline thread_local TraceContext t_trace_ctx;
}  // namespace detail

// The calling thread's current context: what the next SpanGuard parents
// under, and what rpc::DecisionClient copies into ClassifyRequest.
inline TraceContext current_trace() { return detail::t_trace_ctx; }

// Allocate a process-unique, never-zero span/trace id. Ids are salted per
// process so controller-side and daemon-side allocations don't collide in
// a merged export.
std::uint64_t next_trace_id();

// RAII override of the calling thread's context. The rpc server wraps each
// classify in a scope built from the request's trace fields, so daemon-side
// spans parent under the controller's decide span. Restores the previous
// context on destruction.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

// Process identity stamped on exported events ("pid" plus a process_name
// metadata row). Defaults to pid 1, no name; `libra serve` sets pid 2 /
// "libra-serve" so a merged controller+daemon export keeps distinct rows.
void set_trace_process(std::uint32_t pid, std::string name);

class TraceBuffer {
 public:
  TraceBuffer();
  ~TraceBuffer();
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  static TraceBuffer& global();

  // Record one completed span on the calling thread's ring. The id triple
  // is optional (0 = unset) and flows into the exported event's args.
  void record(const char* name, std::uint64_t ts_us, std::uint64_t dur_us,
              std::uint64_t trace_id = 0, std::uint64_t span_id = 0,
              std::uint64_t parent_id = 0);

  // Chrome trace-event JSON: {"traceEvents":[...],"displayTimeUnit":"ms"}.
  std::string to_chrome_json() const;
  // Write to a file; throws std::runtime_error when the file can't open.
  void write_chrome_json(const std::string& path) const;

  // Total events currently buffered across threads (capped by the rings).
  std::size_t event_count() const;
  // Drop all buffered events (tests/benches). Only safe when quiescent.
  void clear();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// RAII span: times its own scope and records into the global TraceBuffer.
// With telemetry disabled (set_enabled(false)) it records nothing.
// Optionally feeds the measured duration into a Histogram so the scrape and
// the trace share one clock-read pair.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name, Histogram* hist = nullptr) {
    if (enabled()) {
      name_ = name;
      hist_ = hist;
      parent_ = detail::t_trace_ctx;
      span_id_ = next_trace_id();
      // Root spans open a fresh trace; nested spans (and spans under an
      // adopted RPC context) continue the caller's.
      const std::uint64_t trace =
          parent_.trace_id != 0 ? parent_.trace_id : next_trace_id();
      detail::t_trace_ctx = {trace, span_id_};
      start_ = trace_now_us();
    }
  }
  ~SpanGuard() {
    if (name_ != nullptr) {
      const std::uint64_t dur = trace_now_us() - start_;
      TraceBuffer::global().record(name_, start_, dur,
                                   detail::t_trace_ctx.trace_id, span_id_,
                                   parent_.span_id);
      detail::t_trace_ctx = parent_;
      if (hist_ != nullptr) hist_->observe(static_cast<double>(dur));
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_ = nullptr;
  Histogram* hist_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint64_t span_id_ = 0;
  TraceContext parent_;
};

#define OBS_SPAN_CONCAT_INNER(a, b) a##b
#define OBS_SPAN_CONCAT(a, b) OBS_SPAN_CONCAT_INNER(a, b)
// Trace the enclosing scope: OBS_SPAN("name") or OBS_SPAN("name", &hist).
#define OBS_SPAN(...) \
  ::libra::obs::SpanGuard OBS_SPAN_CONCAT(obs_span_, __COUNTER__)(__VA_ARGS__)

}  // namespace libra::obs
