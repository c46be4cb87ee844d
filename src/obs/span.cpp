#include "obs/span.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace libra::obs {

std::uint64_t trace_now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::uint64_t next_trace_id() {
  // Salted per process (pid-ish entropy from the heap + clock) so ids from
  // a controller and a daemon never collide in a merged export. The low
  // bits stay a plain counter: allocation is one relaxed fetch_add.
  static const char g_salt_anchor = 0;
  static std::atomic<std::uint64_t> g_next_id{[] {
    std::uint64_t salt = 0xcbf29ce484222325ull;
    const auto now = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    const auto where = reinterpret_cast<std::uintptr_t>(&g_salt_anchor);
    for (std::uint64_t v : {now, static_cast<std::uint64_t>(where)}) {
      for (int i = 0; i < 8; ++i) {
        salt ^= (v >> (8 * i)) & 0xff;
        salt *= 0x100000001b3ull;
      }
    }
    return (salt << 20) | 1u;  // never zero, ~2^20 ids before salt bits mix
  }()};
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

TraceContextScope::TraceContextScope(TraceContext ctx)
    : saved_(detail::t_trace_ctx) {
  detail::t_trace_ctx = ctx;
}

TraceContextScope::~TraceContextScope() { detail::t_trace_ctx = saved_; }

namespace {

std::mutex g_process_mu;
std::uint32_t g_process_pid = 1;
std::string g_process_name;

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

// One thread's ring. Only the owner writes events and publishes `head`
// with a release store; readers acquire-load `head` and walk the completed
// prefix, so export sees fully written events.
struct Ring {
  std::array<TraceEvent, kTraceRingCapacity> events;
  std::atomic<std::uint64_t> head{0};
  std::uint32_t tid = 0;
};

struct RingCacheEntry {
  std::uint64_t uid = 0;
  std::shared_ptr<Ring> ring;
};

std::atomic<std::uint64_t> g_buffer_uid{0};
thread_local std::vector<RingCacheEntry> t_ring_cache;

}  // namespace

struct TraceBuffer::Impl {
  std::uint64_t uid = ++g_buffer_uid;
  mutable std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;

  Ring& local_ring() {
    for (const RingCacheEntry& e : t_ring_cache) {
      if (e.uid == uid) return *e.ring;
    }
    auto ring = std::make_shared<Ring>();
    {
      std::lock_guard<std::mutex> lock(mu);
      ring->tid = static_cast<std::uint32_t>(rings.size() + 1);
      rings.push_back(ring);
    }
    t_ring_cache.push_back({uid, ring});
    return *ring;
  }
};

TraceBuffer::TraceBuffer() : impl_(std::make_unique<Impl>()) {}
TraceBuffer::~TraceBuffer() = default;

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer buffer;
  return buffer;
}

void TraceBuffer::record(const char* name, std::uint64_t ts_us,
                         std::uint64_t dur_us, std::uint64_t trace_id,
                         std::uint64_t span_id, std::uint64_t parent_id) {
  Ring& ring = impl_->local_ring();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  TraceEvent& slot = ring.events[head % kTraceRingCapacity];
  slot.name = name;
  slot.ts_us = ts_us;
  slot.dur_us = dur_us;
  slot.trace_id = trace_id;
  slot.span_id = span_id;
  slot.parent_id = parent_id;
  ring.head.store(head + 1, std::memory_order_release);
}

void set_trace_process(std::uint32_t pid, std::string name) {
  std::lock_guard<std::mutex> lock(g_process_mu);
  g_process_pid = pid;
  g_process_name = std::move(name);
}

std::size_t TraceBuffer::event_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::size_t total = 0;
  for (const std::shared_ptr<Ring>& ring : impl_->rings) {
    total += static_cast<std::size_t>(std::min<std::uint64_t>(
        ring->head.load(std::memory_order_acquire), kTraceRingCapacity));
  }
  return total;
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const std::shared_ptr<Ring>& ring : impl_->rings) {
    ring->head.store(0, std::memory_order_release);
  }
}

namespace {

std::string hex_id(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string TraceBuffer::to_chrome_json() const {
  std::uint32_t pid;
  std::string pname;
  {
    std::lock_guard<std::mutex> lock(g_process_mu);
    pid = g_process_pid;
    pname = g_process_name;
  }
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  if (!pname.empty()) {
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << pname << "\"}}";
    first = false;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const std::shared_ptr<Ring>& ring : impl_->rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(head, kTraceRingCapacity);
    // Oldest surviving event first (ring order once wrapped).
    const std::uint64_t base = head - n;
    for (std::uint64_t i = 0; i < n; ++i) {
      const TraceEvent& e = ring->events[(base + i) % kTraceRingCapacity];
      if (e.name == nullptr) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << e.name << "\",\"cat\":\"libra\",\"ph\":\"X\""
         << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
         << ",\"pid\":" << pid << ",\"tid\":" << ring->tid;
      if (e.trace_id != 0) {
        os << ",\"args\":{\"trace\":\"" << hex_id(e.trace_id)
           << "\",\"span\":\"" << hex_id(e.span_id) << "\",\"parent\":\""
           << hex_id(e.parent_id) << "\"}";
      }
      os << "}";
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

void TraceBuffer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("obs: cannot open trace output file: " + path);
  }
  out << to_chrome_json();
  if (!out) {
    throw std::runtime_error("obs: failed writing trace output: " + path);
  }
}

}  // namespace libra::obs
