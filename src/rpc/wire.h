// The LiBRA wire protocol: length-prefixed, versioned, checksummed binary
// frames carrying classify batches between the fleet (client) and the
// inference daemon (server) -- the controller/minion topology of ROADMAP
// item 2.
//
// Frame layout (all integers little-endian, fixed width):
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic 0x4152424C ("LBRA")
//        4     2  protocol version (kVersion)
//        6     2  message type (MsgType)
//        8     4  payload length in bytes
//       12     4  reserved, must be 0
//       16     8  FNV-1a 64 checksum of the payload bytes
//       24     -  payload
//
// Message payloads (same integer discipline; doubles as raw IEEE-754 bit
// patterns, which is what keeps a loopback round trip bit-identical to the
// in-process call):
//
//   Hello           u16 version, u8 model_loaded, u8 pad, i32 num_classes,
//                   u32 num_trees  (client sends its version, server echoes
//                   the served model's shape)
//   ClassifyRequest u64 request_id, u64 trace_id, u64 parent_span_id,
//                   u32 num_rows, u32 row_dim,
//                   f64[num_rows * row_dim] row-major feature rows
//                   (already jittered client-side from each link's own RNG
//                   stream -- the server stays stateless and deterministic).
//                   trace_id/parent_span_id carry the caller's
//                   obs::TraceContext (0 = no active trace) so daemon-side
//                   spans nest under the controller's decide span in a
//                   merged Perfetto export
//   VerdictReply    u64 request_id, u32 num_rows, u32 num_classes,
//                   f64[num_rows * num_classes] per-class vote fractions
//   ModelPush       u64 request_id, u32 text_len, bytes[text_len] -- the
//                   ml/model_io.h text serialization of a RandomForest; the
//                   server re-validates it through load_forest/import_model
//                   (untrusted-input discipline) and compiles it
//   Ack             u64 request_id, u8 ok, u8 pad[3], u32 message_len,
//                   bytes[message_len] (ModelPush outcome / server errors)
//   StatsPush/      u64 request_id, string origin, then three counted
//   StatsAck        sections (counters: u32 n, [string name, u64 value];
//                   gauges: u32 n, [string name, f64 value]; histograms:
//                   u32 n, [string name, u64 count, f64 sum, f64 min,
//                   f64 max, u32 n_buckets, u64[n_buckets]]) -- a
//                   serialized obs::MetricsSnapshot. Strings are u16
//                   length-prefixed. The controller's aggregator sends
//                   StatsPush as a solicitation (empty snapshot) and the
//                   daemon answers StatsAck with its cumulative registry
//                   snapshot, which then appears under its origin label in
//                   the controller's merged scrape
//
// Every decoder is bounds-checked against both the declared counts and the
// actual payload size, all size arithmetic runs in uint64 before any
// uint32/size_t narrowing, and oversized claims (a crafted >4 GiB header,
// a num_rows that cannot fit the payload) are rejected with WireError
// BEFORE any allocation -- the same untrusted-input discipline as
// ml::import_model. See tests/rpc_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ml/data.h"
#include "obs/metrics.h"

namespace libra::rpc {

// Malformed or hostile wire data: bad magic/version, truncated or
// oversized frames, checksum mismatch, inconsistent counts.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::uint32_t kMagic = 0x4152424Cu;  // "LBRA" little-endian
// v2: ClassifyRequest gained trace_id/parent_span_id and the
// StatsPush/StatsAck pair joined the protocol. v3: Ping/Pong (types 2 and
// 3) left it; those type numbers are unknown now. Both sides of this
// codebase always speak the current version; a version skew is a hard
// WireError.
inline constexpr std::uint16_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 24;

// Hard caps on what a peer may claim. A classify batch of kMaxBatchRows *
// kMaxRowDim doubles is ~64 MiB, so the payload cap bounds every message;
// anything larger is a protocol violation, not a bigger buffer.
inline constexpr std::uint64_t kMaxPayloadBytes = 64ull << 20;  // 64 MiB
inline constexpr std::uint64_t kMaxBatchRows = 1ull << 20;
inline constexpr std::uint64_t kMaxRowDim = 512;
inline constexpr std::uint64_t kMaxModelTextBytes = 48ull << 20;
inline constexpr std::uint64_t kMaxAckMessageBytes = 1ull << 16;
// Stats snapshots: per-kind entry caps far above the registry's own
// capacities, plus a metric/origin name cap.
inline constexpr std::uint64_t kMaxStatsEntries = 4096;
inline constexpr std::uint64_t kMaxStatsNameBytes = 256;

enum class MsgType : std::uint16_t {
  kHello = 1,
  kClassifyRequest = 4,
  kVerdictReply = 5,
  kModelPush = 6,
  kAck = 7,
  kStatsPush = 8,
  kStatsAck = 9,
};

std::string_view to_string(MsgType type);

// FNV-1a 64 over raw bytes (the same fold sim::golden uses for digests).
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

struct Frame {
  MsgType type = MsgType::kHello;
  std::vector<std::uint8_t> payload;
};

// Header + payload, ready to write to a socket. Throws WireError when the
// payload exceeds kMaxPayloadBytes.
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::span<const std::uint8_t> payload);

// Decode one frame from the front of `buf`. Returns nullopt with
// `consumed` == 0 when the buffer holds only a partial frame (read more);
// otherwise returns the frame and sets `consumed` to its full size. Throws
// WireError on bad magic, unsupported version, nonzero reserved bits, an
// oversized payload claim (checked before any allocation), an unknown
// message type, or a checksum mismatch.
std::optional<Frame> decode_frame(std::span<const std::uint8_t> buf,
                                  std::size_t& consumed);

struct HelloMsg {
  std::uint16_t version = kVersion;
  bool model_loaded = false;
  std::int32_t num_classes = 0;
  std::uint32_t num_trees = 0;

  std::vector<std::uint8_t> encode() const;
  static HelloMsg decode(std::span<const std::uint8_t> payload);
};

struct ClassifyRequestMsg {
  std::uint64_t request_id = 0;
  // The caller's obs::TraceContext (0 = no active trace): the server wraps
  // its classify handling in a TraceContextScope built from these, so
  // daemon spans parent under the controller's decide span.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint32_t row_dim = 0;
  std::vector<double> rows;  // row-major, rows.size() == num_rows * row_dim

  std::size_t num_rows() const {
    return row_dim == 0 ? 0 : rows.size() / row_dim;
  }

  // Throws WireError when the batch exceeds kMaxBatchRows/kMaxRowDim (the
  // caller must split, not truncate).
  std::vector<std::uint8_t> encode() const;
  static ClassifyRequestMsg decode(std::span<const std::uint8_t> payload);

  static ClassifyRequestMsg from_dataset(std::uint64_t request_id,
                                         const ml::DataSet& data);
  ml::DataSet to_dataset() const;
};

struct VerdictReplyMsg {
  std::uint64_t request_id = 0;
  std::uint32_t num_classes = 0;
  std::vector<double> votes;  // row-major, num_rows * num_classes

  std::size_t num_rows() const {
    return num_classes == 0 ? 0 : votes.size() / num_classes;
  }

  std::vector<std::uint8_t> encode() const;
  static VerdictReplyMsg decode(std::span<const std::uint8_t> payload);

  static VerdictReplyMsg from_votes(
      std::uint64_t request_id,
      const std::vector<std::vector<double>>& vote_rows);
  std::vector<std::vector<double>> to_votes() const;
};

struct ModelPushMsg {
  std::uint64_t request_id = 0;
  std::string model_text;  // ml/model_io.h serialization

  std::vector<std::uint8_t> encode() const;
  static ModelPushMsg decode(std::span<const std::uint8_t> payload);
};

struct AckMsg {
  std::uint64_t request_id = 0;
  bool ok = true;
  std::string message;  // empty on success; the rejection reason otherwise

  std::vector<std::uint8_t> encode() const;
  static AckMsg decode(std::span<const std::uint8_t> payload);
};

// One obs::MetricsSnapshot with an origin label -- the payload of both
// kStatsPush (a solicitation, snapshot usually empty) and kStatsAck (the
// daemon's cumulative registry snapshot).
struct StatsMsg {
  std::uint64_t request_id = 0;
  std::string origin;
  obs::MetricsSnapshot snapshot;

  std::vector<std::uint8_t> encode() const;
  static StatsMsg decode(std::span<const std::uint8_t> payload);
};

}  // namespace libra::rpc
