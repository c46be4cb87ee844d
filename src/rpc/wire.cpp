#include "rpc/wire.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>

namespace libra::rpc {

namespace {

// Bounds-checked little-endian writer. All appends go through here so a
// message struct can never emit a frame its own decoder would reject.
struct Writer {
  std::vector<std::uint8_t> out;

  void u8(std::uint8_t v) { out.push_back(v); }
  void u16(std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> b) {
    out.insert(out.end(), b.begin(), b.end());
  }
};

// Bounds-checked reader: every get_* throws WireError instead of running
// off the payload, and trailing garbage is rejected by expect_done().
struct Reader {
  std::span<const std::uint8_t> buf;
  std::size_t pos = 0;
  const char* what;  // message name for errors

  explicit Reader(std::span<const std::uint8_t> b, const char* name)
      : buf(b), what(name) {}

  void need(std::size_t n) const {
    if (buf.size() - pos < n) {
      throw WireError(std::string(what) + ": truncated payload (" +
                      std::to_string(buf.size()) + " bytes, need " +
                      std::to_string(pos + n) + ")");
    }
  }
  std::uint8_t u8() {
    need(1);
    return buf[pos++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(v | (std::uint16_t{buf[pos + static_cast<std::size_t>(i)]} << (8 * i)));
    }
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= std::uint32_t{buf[pos + static_cast<std::size_t>(i)]} << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t{buf[pos + static_cast<std::size_t>(i)]} << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const std::span<const std::uint8_t> b = buf.subspan(pos, n);
    pos += n;
    return b;
  }
  void expect_done() const {
    if (pos != buf.size()) {
      throw WireError(std::string(what) + ": " +
                      std::to_string(buf.size() - pos) +
                      " trailing bytes after payload");
    }
  }
};

bool known_type(std::uint16_t t) {
  return t == static_cast<std::uint16_t>(MsgType::kHello) ||
         (t >= static_cast<std::uint16_t>(MsgType::kClassifyRequest) &&
          t <= static_cast<std::uint16_t>(MsgType::kStatsAck));
}

// Shared string codec for the stats messages: u16 length prefix, capped.
void put_string(Writer& w, const std::string& s, const char* what) {
  if (s.size() > kMaxStatsNameBytes) {
    throw WireError(std::string(what) + ": string of " +
                    std::to_string(s.size()) + " bytes exceeds the cap of " +
                    std::to_string(kMaxStatsNameBytes));
  }
  w.u16(static_cast<std::uint16_t>(s.size()));
  w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::string get_string(Reader& r, const char* what) {
  const std::uint64_t len = r.u16();
  if (len > kMaxStatsNameBytes) {
    throw WireError(std::string(what) + ": string-length claim of " +
                    std::to_string(len) + " bytes exceeds the cap of " +
                    std::to_string(kMaxStatsNameBytes));
  }
  const std::span<const std::uint8_t> b =
      r.bytes(static_cast<std::size_t>(len));
  return b.empty()
             ? std::string()
             : std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace

std::string_view to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kClassifyRequest: return "ClassifyRequest";
    case MsgType::kVerdictReply: return "VerdictReply";
    case MsgType::kModelPush: return "ModelPush";
    case MsgType::kAck: return "Ack";
    case MsgType::kStatsPush: return "StatsPush";
    case MsgType::kStatsAck: return "StatsAck";
  }
  return "unknown";
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw WireError("encode_frame: payload of " +
                    std::to_string(payload.size()) + " bytes exceeds the " +
                    std::to_string(kMaxPayloadBytes) + "-byte frame cap");
  }
  Writer w;
  w.out.reserve(kHeaderBytes + payload.size());
  w.u32(kMagic);
  w.u16(kVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(0);  // reserved
  w.u64(fnv1a64(payload));
  w.bytes(payload);
  return w.out;
}

std::optional<Frame> decode_frame(std::span<const std::uint8_t> buf,
                                  std::size_t& consumed) {
  consumed = 0;
  if (buf.size() < kHeaderBytes) return std::nullopt;
  Reader r(buf.first(kHeaderBytes), "frame header");
  const std::uint32_t magic = r.u32();
  if (magic != kMagic) {
    throw WireError("frame: bad magic 0x" +
                    [&] {
                      char hex[16];
                      std::snprintf(hex, sizeof hex, "%08x", magic);
                      return std::string(hex);
                    }());
  }
  const std::uint16_t version = r.u16();
  if (version != kVersion) {
    throw WireError("frame: unsupported protocol version " +
                    std::to_string(version) + " (this side speaks " +
                    std::to_string(kVersion) + ")");
  }
  const std::uint16_t type = r.u16();
  if (!known_type(type)) {
    throw WireError("frame: unknown message type " + std::to_string(type));
  }
  // The length claim is validated against the cap BEFORE comparing with the
  // buffer or allocating: a crafted header claiming ~4 GiB must die here,
  // not stall the reader waiting for bytes that never come.
  const std::uint64_t payload_len = r.u32();
  if (payload_len > kMaxPayloadBytes) {
    throw WireError("frame: payload claim of " + std::to_string(payload_len) +
                    " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
                    "-byte frame cap");
  }
  const std::uint32_t reserved = r.u32();
  if (reserved != 0) {
    throw WireError("frame: nonzero reserved field");
  }
  const std::uint64_t checksum = r.u64();
  const std::uint64_t total = kHeaderBytes + payload_len;
  if (buf.size() < total) return std::nullopt;  // partial frame, read more
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  const std::span<const std::uint8_t> payload =
      buf.subspan(kHeaderBytes, static_cast<std::size_t>(payload_len));
  if (fnv1a64(payload) != checksum) {
    throw WireError(std::string("frame: checksum mismatch on ") +
                    std::string(to_string(frame.type)) + " payload");
  }
  frame.payload.assign(payload.begin(), payload.end());
  consumed = static_cast<std::size_t>(total);
  return frame;
}

// ---------- Hello ----------

std::vector<std::uint8_t> HelloMsg::encode() const {
  Writer w;
  w.u16(version);
  w.u8(model_loaded ? 1 : 0);
  w.u8(0);  // pad
  w.i32(num_classes);
  w.u32(num_trees);
  return w.out;
}

HelloMsg HelloMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "Hello");
  HelloMsg m;
  m.version = r.u16();
  const std::uint8_t loaded = r.u8();
  if (loaded > 1) {
    throw WireError("Hello: model_loaded must be 0 or 1, got " +
                    std::to_string(loaded));
  }
  m.model_loaded = loaded == 1;
  if (r.u8() != 0) throw WireError("Hello: nonzero pad byte");
  m.num_classes = r.i32();
  m.num_trees = r.u32();
  r.expect_done();
  return m;
}

// ---------- ClassifyRequest ----------

std::vector<std::uint8_t> ClassifyRequestMsg::encode() const {
  if (row_dim == 0 && !rows.empty()) {
    throw WireError("ClassifyRequest: nonzero rows with row_dim 0");
  }
  if (row_dim > kMaxRowDim) {
    throw WireError("ClassifyRequest: row_dim " + std::to_string(row_dim) +
                    " exceeds the cap of " + std::to_string(kMaxRowDim));
  }
  if (row_dim != 0 && rows.size() % row_dim != 0) {
    throw WireError("ClassifyRequest: " + std::to_string(rows.size()) +
                    " doubles do not tile into rows of " +
                    std::to_string(row_dim));
  }
  // All size math in uint64: a caller batching size_t rows must get a loud
  // rejection when the batch cannot be expressed on the wire, never a
  // silently truncated uint32.
  const std::uint64_t n_rows = num_rows();
  if (n_rows > kMaxBatchRows) {
    throw WireError("ClassifyRequest: batch of " + std::to_string(n_rows) +
                    " rows exceeds the cap of " +
                    std::to_string(kMaxBatchRows) +
                    " -- split the batch, truncation would corrupt verdicts");
  }
  Writer w;
  w.out.reserve(32 + rows.size() * 8);
  w.u64(request_id);
  w.u64(trace_id);
  w.u64(parent_span_id);
  w.u32(static_cast<std::uint32_t>(n_rows));
  w.u32(row_dim);
  for (const double v : rows) w.f64(v);
  return w.out;
}

ClassifyRequestMsg ClassifyRequestMsg::decode(
    std::span<const std::uint8_t> payload) {
  Reader r(payload, "ClassifyRequest");
  ClassifyRequestMsg m;
  m.request_id = r.u64();
  m.trace_id = r.u64();
  m.parent_span_id = r.u64();
  const std::uint64_t n_rows = r.u32();
  m.row_dim = r.u32();
  if (n_rows > kMaxBatchRows) {
    throw WireError("ClassifyRequest: row-count claim of " +
                    std::to_string(n_rows) + " exceeds the cap of " +
                    std::to_string(kMaxBatchRows));
  }
  if (m.row_dim > kMaxRowDim) {
    throw WireError("ClassifyRequest: row_dim claim of " +
                    std::to_string(m.row_dim) + " exceeds the cap of " +
                    std::to_string(kMaxRowDim));
  }
  if (n_rows > 0 && m.row_dim == 0) {
    throw WireError("ClassifyRequest: " + std::to_string(n_rows) +
                    " rows claimed with row_dim 0");
  }
  const std::uint64_t count = n_rows * m.row_dim;  // <= 2^20 * 512, no wrap
  r.need(static_cast<std::size_t>(count) * 8);     // before the allocation
  m.rows.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) m.rows.push_back(r.f64());
  r.expect_done();
  return m;
}

ClassifyRequestMsg ClassifyRequestMsg::from_dataset(std::uint64_t request_id,
                                                    const ml::DataSet& data) {
  if (data.num_features() > kMaxRowDim) {
    throw WireError("ClassifyRequest: dataset with " +
                    std::to_string(data.num_features()) +
                    " features exceeds the row_dim cap of " +
                    std::to_string(kMaxRowDim));
  }
  if (data.size() > kMaxBatchRows) {
    throw WireError("ClassifyRequest: dataset of " +
                    std::to_string(data.size()) +
                    " rows exceeds the batch cap of " +
                    std::to_string(kMaxBatchRows) +
                    " -- split the batch, truncation would corrupt verdicts");
  }
  ClassifyRequestMsg m;
  m.request_id = request_id;
  m.row_dim = static_cast<std::uint32_t>(data.num_features());
  m.rows.reserve(data.size() * data.num_features());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::span<const double> row = data.row(i);
    m.rows.insert(m.rows.end(), row.begin(), row.end());
  }
  return m;
}

ml::DataSet ClassifyRequestMsg::to_dataset() const {
  ml::DataSet data(row_dim);
  const std::size_t n = num_rows();
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.add({rows.data() + i * row_dim, row_dim}, 0);
  }
  return data;
}

// ---------- VerdictReply ----------

std::vector<std::uint8_t> VerdictReplyMsg::encode() const {
  if (num_classes == 0 && !votes.empty()) {
    throw WireError("VerdictReply: nonzero votes with num_classes 0");
  }
  if (num_classes > kMaxRowDim) {
    throw WireError("VerdictReply: num_classes " +
                    std::to_string(num_classes) + " exceeds the cap of " +
                    std::to_string(kMaxRowDim));
  }
  if (num_classes != 0 && votes.size() % num_classes != 0) {
    throw WireError("VerdictReply: " + std::to_string(votes.size()) +
                    " doubles do not tile into rows of " +
                    std::to_string(num_classes));
  }
  const std::uint64_t n_rows = num_rows();
  if (n_rows > kMaxBatchRows) {
    throw WireError("VerdictReply: batch of " + std::to_string(n_rows) +
                    " rows exceeds the cap of " +
                    std::to_string(kMaxBatchRows));
  }
  Writer w;
  w.out.reserve(16 + votes.size() * 8);
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(n_rows));
  w.u32(num_classes);
  for (const double v : votes) w.f64(v);
  return w.out;
}

VerdictReplyMsg VerdictReplyMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "VerdictReply");
  VerdictReplyMsg m;
  m.request_id = r.u64();
  const std::uint64_t n_rows = r.u32();
  m.num_classes = r.u32();
  if (n_rows > kMaxBatchRows) {
    throw WireError("VerdictReply: row-count claim of " +
                    std::to_string(n_rows) + " exceeds the cap of " +
                    std::to_string(kMaxBatchRows));
  }
  if (m.num_classes > kMaxRowDim) {
    throw WireError("VerdictReply: num_classes claim of " +
                    std::to_string(m.num_classes) + " exceeds the cap of " +
                    std::to_string(kMaxRowDim));
  }
  if (n_rows > 0 && m.num_classes == 0) {
    throw WireError("VerdictReply: " + std::to_string(n_rows) +
                    " rows claimed with num_classes 0");
  }
  const std::uint64_t count = n_rows * m.num_classes;
  r.need(static_cast<std::size_t>(count) * 8);
  m.votes.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) m.votes.push_back(r.f64());
  r.expect_done();
  return m;
}

VerdictReplyMsg VerdictReplyMsg::from_votes(
    std::uint64_t request_id,
    const std::vector<std::vector<double>>& vote_rows) {
  VerdictReplyMsg m;
  m.request_id = request_id;
  if (vote_rows.empty()) return m;
  m.num_classes = static_cast<std::uint32_t>(vote_rows.front().size());
  m.votes.reserve(vote_rows.size() * m.num_classes);
  for (const std::vector<double>& row : vote_rows) {
    if (row.size() != m.num_classes) {
      throw WireError("VerdictReply: ragged vote rows (" +
                      std::to_string(row.size()) + " vs " +
                      std::to_string(m.num_classes) + " classes)");
    }
    m.votes.insert(m.votes.end(), row.begin(), row.end());
  }
  return m;
}

std::vector<std::vector<double>> VerdictReplyMsg::to_votes() const {
  std::vector<std::vector<double>> rows;
  const std::size_t n = num_rows();
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rows.emplace_back(votes.begin() + static_cast<std::ptrdiff_t>(i * num_classes),
                      votes.begin() + static_cast<std::ptrdiff_t>((i + 1) * num_classes));
  }
  return rows;
}

// ---------- ModelPush ----------

std::vector<std::uint8_t> ModelPushMsg::encode() const {
  if (model_text.size() > kMaxModelTextBytes) {
    throw WireError("ModelPush: serialized model of " +
                    std::to_string(model_text.size()) +
                    " bytes exceeds the cap of " +
                    std::to_string(kMaxModelTextBytes));
  }
  Writer w;
  w.out.reserve(12 + model_text.size());
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(model_text.size()));
  w.bytes({reinterpret_cast<const std::uint8_t*>(model_text.data()),
           model_text.size()});
  return w.out;
}

ModelPushMsg ModelPushMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "ModelPush");
  ModelPushMsg m;
  m.request_id = r.u64();
  const std::uint64_t len = r.u32();
  if (len > kMaxModelTextBytes) {
    throw WireError("ModelPush: text-length claim of " + std::to_string(len) +
                    " bytes exceeds the cap of " +
                    std::to_string(kMaxModelTextBytes));
  }
  const std::span<const std::uint8_t> text =
      r.bytes(static_cast<std::size_t>(len));
  if (!text.empty()) {
    m.model_text.assign(reinterpret_cast<const char*>(text.data()),
                        text.size());
  }
  r.expect_done();
  return m;
}

// ---------- Ack ----------

std::vector<std::uint8_t> AckMsg::encode() const {
  if (message.size() > kMaxAckMessageBytes) {
    throw WireError("Ack: message of " + std::to_string(message.size()) +
                    " bytes exceeds the cap of " +
                    std::to_string(kMaxAckMessageBytes));
  }
  Writer w;
  w.u64(request_id);
  w.u8(ok ? 1 : 0);
  w.u8(0);
  w.u8(0);
  w.u8(0);
  w.u32(static_cast<std::uint32_t>(message.size()));
  w.bytes({reinterpret_cast<const std::uint8_t*>(message.data()),
           message.size()});
  return w.out;
}

AckMsg AckMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "Ack");
  AckMsg m;
  m.request_id = r.u64();
  const std::uint8_t ok = r.u8();
  if (ok > 1) {
    throw WireError("Ack: ok must be 0 or 1, got " + std::to_string(ok));
  }
  m.ok = ok == 1;
  for (int i = 0; i < 3; ++i) {
    if (r.u8() != 0) throw WireError("Ack: nonzero pad byte");
  }
  const std::uint64_t len = r.u32();
  if (len > kMaxAckMessageBytes) {
    throw WireError("Ack: message-length claim of " + std::to_string(len) +
                    " bytes exceeds the cap of " +
                    std::to_string(kMaxAckMessageBytes));
  }
  const std::span<const std::uint8_t> text =
      r.bytes(static_cast<std::size_t>(len));
  if (!text.empty()) {
    m.message.assign(reinterpret_cast<const char*>(text.data()), text.size());
  }
  r.expect_done();
  return m;
}

// ---------- StatsPush / StatsAck ----------

std::vector<std::uint8_t> StatsMsg::encode() const {
  if (snapshot.counters.size() > kMaxStatsEntries ||
      snapshot.gauges.size() > kMaxStatsEntries ||
      snapshot.histograms.size() > kMaxStatsEntries) {
    throw WireError("Stats: snapshot exceeds the per-kind entry cap of " +
                    std::to_string(kMaxStatsEntries));
  }
  Writer w;
  w.u64(request_id);
  put_string(w, origin, "Stats origin");
  w.u32(static_cast<std::uint32_t>(snapshot.counters.size()));
  for (const auto& c : snapshot.counters) {
    put_string(w, c.name, "Stats counter name");
    w.u64(c.value);
  }
  w.u32(static_cast<std::uint32_t>(snapshot.gauges.size()));
  for (const auto& g : snapshot.gauges) {
    put_string(w, g.name, "Stats gauge name");
    w.f64(g.value);
  }
  w.u32(static_cast<std::uint32_t>(snapshot.histograms.size()));
  for (const auto& h : snapshot.histograms) {
    put_string(w, h.name, "Stats histogram name");
    w.u64(h.data.count);
    w.f64(h.data.sum);
    w.f64(h.data.min);
    w.f64(h.data.max);
    // Trailing all-zero buckets are elided on the wire.
    std::size_t last = obs::kHistogramBuckets;
    while (last > 0 && h.data.buckets[last - 1] == 0) --last;
    w.u32(static_cast<std::uint32_t>(last));
    for (std::size_t b = 0; b < last; ++b) w.u64(h.data.buckets[b]);
  }
  return w.out;
}

StatsMsg StatsMsg::decode(std::span<const std::uint8_t> payload) {
  Reader r(payload, "Stats");
  StatsMsg m;
  m.request_id = r.u64();
  m.origin = get_string(r, "Stats origin");

  const std::uint64_t n_counters = r.u32();
  if (n_counters > kMaxStatsEntries) {
    throw WireError("Stats: counter-count claim of " +
                    std::to_string(n_counters) + " exceeds the cap of " +
                    std::to_string(kMaxStatsEntries));
  }
  // Each entry is at least 10 bytes (2-byte length + 8-byte value), so the
  // claim is sanity-checked against the remaining payload before reserving.
  r.need(static_cast<std::size_t>(n_counters) * 10);
  m.snapshot.counters.reserve(static_cast<std::size_t>(n_counters));
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    obs::MetricsSnapshot::CounterValue c;
    c.name = get_string(r, "Stats counter name");
    c.value = r.u64();
    m.snapshot.counters.push_back(std::move(c));
  }

  const std::uint64_t n_gauges = r.u32();
  if (n_gauges > kMaxStatsEntries) {
    throw WireError("Stats: gauge-count claim of " + std::to_string(n_gauges) +
                    " exceeds the cap of " + std::to_string(kMaxStatsEntries));
  }
  r.need(static_cast<std::size_t>(n_gauges) * 10);
  m.snapshot.gauges.reserve(static_cast<std::size_t>(n_gauges));
  for (std::uint64_t i = 0; i < n_gauges; ++i) {
    obs::MetricsSnapshot::GaugeValue g;
    g.name = get_string(r, "Stats gauge name");
    g.value = r.f64();
    m.snapshot.gauges.push_back(std::move(g));
  }

  const std::uint64_t n_hists = r.u32();
  if (n_hists > kMaxStatsEntries) {
    throw WireError("Stats: histogram-count claim of " +
                    std::to_string(n_hists) + " exceeds the cap of " +
                    std::to_string(kMaxStatsEntries));
  }
  r.need(static_cast<std::size_t>(n_hists) * 38);
  m.snapshot.histograms.reserve(static_cast<std::size_t>(n_hists));
  for (std::uint64_t i = 0; i < n_hists; ++i) {
    obs::MetricsSnapshot::HistogramValue h;
    h.name = get_string(r, "Stats histogram name");
    h.data.count = r.u64();
    h.data.sum = r.f64();
    h.data.min = r.f64();
    h.data.max = r.f64();
    const std::uint64_t n_buckets = r.u32();
    if (n_buckets > obs::kHistogramBuckets) {
      throw WireError("Stats: bucket-count claim of " +
                      std::to_string(n_buckets) + " exceeds the " +
                      std::to_string(obs::kHistogramBuckets) +
                      "-bucket histogram layout");
    }
    r.need(static_cast<std::size_t>(n_buckets) * 8);
    for (std::uint64_t b = 0; b < n_buckets; ++b) {
      h.data.buckets[b] = r.u64();
    }
    m.snapshot.histograms.push_back(std::move(h));
  }
  r.expect_done();
  return m;
}

}  // namespace libra::rpc
