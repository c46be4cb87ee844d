// The decision wire protocol and the controller/minion split (src/rpc/):
//
//  - wire round trips are bit-exact (raw IEEE-754 transport) and every
//    malformed or hostile frame is rejected with WireError before any
//    allocation -- the import_model untrusted-input discipline at the
//    transport seam;
//  - a loopback DecisionServer serving the same forest is bit-identical
//    to in-process inference, for the raw client, for the fleet engine,
//    and for ANY (shards, num_threads) grid point (the determinism
//    contract survives the socket);
//  - a dead or dropped backend degrades through rung 2 of the ladder:
//    frame-identical to a 100% classifier outage, which in turn reduces
//    to the RA-first heuristic (faults_test proves that last hop);
//  - ModelPush hot swaps are atomic per batch: concurrent classify
//    traffic never crashes and never sees two forests inside one reply;
//  - the v2 additions hold their contracts: StatsPush/StatsAck round
//    trips a labeled MetricsSnapshot (and rejects forged claims), a
//    loopback pull_stats() returns the daemon's own origin label, the
//    retry/reconnect ladder is counted, daemon classify spans parent
//    under the caller's span in a merged trace export, and mounting a
//    scrape endpoint on a fleet run is observation-only (bit-identical
//    digests) while serving controller- AND daemon-origin series.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/controller.h"
#include "core/decision_backend.h"
#include "env/registry.h"
#include "ml/model_io.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "obs/span.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "sim/fleet.h"
#include "sim/golden.h"
#include "test_helpers.h"
#include "util/json.h"

namespace libra {
namespace {

using libra::testing::make_record;

// ---------- shared fixtures ----------

// A unique unix socket path per call (tests run in one process; the pid
// guards against a stale file from a crashed previous run).
std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/libra_rpc_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// A trained 3-class classifier over clearly separated synthetic cases
// (same corpus as fleet_test/faults_test).
core::LibraClassifier make_classifier() {
  trace::Dataset ds;
  for (int i = 0; i < 40; ++i) {
    trace::CaseRecord ba = make_record(4, -1, 4);
    ba.init_best.snr_db = 20.0;
    ba.new_at_init_pair.snr_db = 5.0 - 0.1 * (i % 5);
    ba.new_at_init_pair.tof_ns = std::nullopt;
    ds.records.push_back(ba);
    trace::CaseRecord ra = make_record(8, 5, 5);
    ra.init_best.snr_db = 26.0;
    ra.init_best.tof_ns = 20.0;
    ra.new_at_init_pair.snr_db = 19.0 - 0.1 * (i % 7);
    ra.new_at_init_pair.tof_ns = 45.0;
    ds.records.push_back(ra);
    trace::CaseRecord na = make_record(6, 6, 6);
    na.forced_na = true;
    na.init_best.snr_db = 22.0;
    na.new_at_init_pair.snr_db = 22.0 - 0.05 * (i % 3);
    ds.na_records.push_back(na);
  }
  core::LibraClassifierConfig cfg;
  cfg.forest.num_threads = 4;
  core::LibraClassifier c(cfg);
  util::Rng rng(1);
  c.train(ds, {}, rng);
  return c;
}

const phy::ErrorModel& shared_error_model() {
  static const phy::McsTable table;
  static const phy::ErrorModel em(&table);
  return em;
}

// A small fitted forest over a trivially separable 3-feature corpus, with
// a chosen tree count -- the hot-swap test tells forests apart by their
// vote denominators (k/10 vs k/7).
ml::RandomForest make_small_forest(int num_trees, std::uint64_t seed = 3) {
  ml::DataSet ds(3);
  for (int i = 0; i < 30; ++i) {
    const double j = 0.01 * i;
    ds.add(std::vector<double>{0.0 + j, 1.0, 5.0}, 0);
    ds.add(std::vector<double>{5.0 + j, 2.0, 1.0}, 1);
    ds.add(std::vector<double>{10.0 + j, 3.0, 3.0}, 2);
  }
  ml::RandomForestConfig cfg;
  cfg.num_trees = num_trees;
  ml::RandomForest forest(cfg);
  util::Rng rng(seed);
  forest.fit(ds, rng);
  return forest;
}

ml::DataSet make_query_rows() {
  ml::DataSet rows(3);
  rows.add(std::vector<double>{0.2, 1.0, 4.9}, 0);
  rows.add(std::vector<double>{5.1, 2.0, 1.2}, 0);
  rows.add(std::vector<double>{9.8, 3.1, 2.9}, 0);
  rows.add(std::vector<double>{4.0, 1.5, 3.0}, 0);
  return rows;
}

// ---------- wire: round trips ----------

TEST(Wire, FrameRoundTripAllTypes) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  for (const rpc::MsgType type :
       {rpc::MsgType::kHello, rpc::MsgType::kClassifyRequest,
        rpc::MsgType::kVerdictReply, rpc::MsgType::kModelPush,
        rpc::MsgType::kAck, rpc::MsgType::kStatsPush,
        rpc::MsgType::kStatsAck}) {
    const std::vector<std::uint8_t> bytes = rpc::encode_frame(type, payload);
    ASSERT_EQ(bytes.size(), rpc::kHeaderBytes + payload.size());
    std::size_t consumed = 0;
    const std::optional<rpc::Frame> frame = rpc::decode_frame(bytes, consumed);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, payload);
  }
}

TEST(Wire, PartialFrameAsksForMoreBytes) {
  const std::vector<std::uint8_t> bytes =
      rpc::encode_frame(rpc::MsgType::kAck, std::vector<std::uint8_t>(8, 7));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::size_t consumed = 99;
    const std::optional<rpc::Frame> frame = rpc::decode_frame(
        std::span<const std::uint8_t>(bytes.data(), cut), consumed);
    EXPECT_FALSE(frame.has_value()) << "cut " << cut;
    EXPECT_EQ(consumed, 0u) << "cut " << cut;
  }
}

TEST(Wire, TwoFramesDecodeInSequence) {
  std::vector<std::uint8_t> stream =
      rpc::encode_frame(rpc::MsgType::kHello, {});
  const std::vector<std::uint8_t> second =
      rpc::encode_frame(rpc::MsgType::kAck, std::vector<std::uint8_t>{9});
  stream.insert(stream.end(), second.begin(), second.end());

  std::size_t consumed = 0;
  const std::optional<rpc::Frame> first = rpc::decode_frame(stream, consumed);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, rpc::MsgType::kHello);
  const std::span<const std::uint8_t> rest(stream.data() + consumed,
                                           stream.size() - consumed);
  std::size_t consumed2 = 0;
  const std::optional<rpc::Frame> next = rpc::decode_frame(rest, consumed2);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->type, rpc::MsgType::kAck);
  EXPECT_EQ(consumed + consumed2, stream.size());
}

TEST(Wire, ClassifyRequestRoundTripIsBitExact) {
  // Extreme doubles must survive the wire with their exact bit patterns --
  // that is the whole determinism argument for remote serving.
  const std::vector<double> extremes = {
      0.0,
      -0.0,
      1.0 / 3.0,
      -1.0 / 7.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      6.02214076e23,
      -2.2250738585072011e-308,  // the infamous slow-parse denormal
  };
  rpc::ClassifyRequestMsg msg;
  msg.request_id = 0xDEADBEEFCAFEF00Dull;
  msg.trace_id = 0x1122334455667788ull;
  msg.parent_span_id = 0x99AABBCCDDEEFF00ull;
  msg.row_dim = 5;
  msg.rows.assign(extremes.begin(), extremes.end());
  const std::vector<std::uint8_t> payload = msg.encode();
  const rpc::ClassifyRequestMsg back = rpc::ClassifyRequestMsg::decode(payload);
  EXPECT_EQ(back.request_id, msg.request_id);
  EXPECT_EQ(back.trace_id, msg.trace_id);
  EXPECT_EQ(back.parent_span_id, msg.parent_span_id);
  EXPECT_EQ(back.row_dim, msg.row_dim);
  ASSERT_EQ(back.rows.size(), msg.rows.size());
  EXPECT_EQ(std::memcmp(back.rows.data(), msg.rows.data(),
                        msg.rows.size() * sizeof(double)),
            0);
}

TEST(Wire, VerdictReplyRoundTripThroughVotes) {
  const std::vector<std::vector<double>> votes = {
      {0.25, 0.5, 0.25}, {1.0, 0.0, 0.0}, {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0}};
  const rpc::VerdictReplyMsg msg = rpc::VerdictReplyMsg::from_votes(42, votes);
  const rpc::VerdictReplyMsg back =
      rpc::VerdictReplyMsg::decode(msg.encode());
  EXPECT_EQ(back.request_id, 42u);
  EXPECT_EQ(back.to_votes(), votes);
}

TEST(Wire, HelloModelPushAckRoundTrips) {
  rpc::HelloMsg hello;
  hello.version = rpc::kVersion;
  hello.model_loaded = true;
  hello.num_classes = 3;
  hello.num_trees = 60;
  const rpc::HelloMsg hback = rpc::HelloMsg::decode(hello.encode());
  EXPECT_EQ(hback.version, hello.version);
  EXPECT_EQ(hback.model_loaded, hello.model_loaded);
  EXPECT_EQ(hback.num_classes, hello.num_classes);
  EXPECT_EQ(hback.num_trees, hello.num_trees);

  rpc::ModelPushMsg push;
  push.request_id = 7;
  push.model_text = "forest 1\nnot actually validated here\n";
  const rpc::ModelPushMsg pback = rpc::ModelPushMsg::decode(push.encode());
  EXPECT_EQ(pback.request_id, 7u);
  EXPECT_EQ(pback.model_text, push.model_text);

  rpc::AckMsg ack;
  ack.request_id = 9;
  ack.ok = false;
  ack.message = "nope";
  const rpc::AckMsg aback = rpc::AckMsg::decode(ack.encode());
  EXPECT_EQ(aback.request_id, 9u);
  EXPECT_FALSE(aback.ok);
  EXPECT_EQ(aback.message, "nope");

  rpc::AckMsg empty;  // empty message must round-trip too
  const rpc::AckMsg eback = rpc::AckMsg::decode(empty.encode());
  EXPECT_TRUE(eback.ok);
  EXPECT_TRUE(eback.message.empty());
}

// ---------- wire: hostile input ----------

TEST(Wire, RejectsBadMagicVersionReservedTypeChecksum) {
  const std::vector<std::uint8_t> good =
      rpc::encode_frame(rpc::MsgType::kAck, std::vector<std::uint8_t>{1, 2});
  std::size_t consumed = 0;

  auto corrupt = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] = value;
    return bad;
  };
  // magic (offset 0), version (4), type (6), reserved (12), checksum (16),
  // payload byte (header+0 -> checksum mismatch).
  EXPECT_THROW(rpc::decode_frame(corrupt(0, 0xFF), consumed), rpc::WireError);
  EXPECT_THROW(rpc::decode_frame(corrupt(4, 0x7F), consumed), rpc::WireError);
  EXPECT_THROW(rpc::decode_frame(corrupt(6, 0x63), consumed), rpc::WireError);
  // Types 2 and 3 were Ping and Pong before protocol v3; 0 never was one.
  for (const int retired : {0, 2, 3}) {
    EXPECT_THROW(rpc::decode_frame(
                     corrupt(6, static_cast<std::uint8_t>(retired)), consumed),
                 rpc::WireError)
        << retired;
  }
  EXPECT_THROW(rpc::decode_frame(corrupt(12, 1), consumed), rpc::WireError);
  EXPECT_THROW(rpc::decode_frame(corrupt(16, good[16] ^ 0x5A), consumed),
               rpc::WireError);
  EXPECT_THROW(
      rpc::decode_frame(corrupt(rpc::kHeaderBytes, good[rpc::kHeaderBytes] ^ 1),
                        consumed),
      rpc::WireError);
}

TEST(Wire, RejectsOversizedPayloadClaimBeforeAllocation) {
  // A crafted header claiming a ~4 GiB payload: the decoder must throw on
  // the length field itself -- BEFORE comparing against the buffer or
  // allocating -- so a 24-byte datagram cannot request a 4 GiB buffer.
  std::vector<std::uint8_t> header =
      rpc::encode_frame(rpc::MsgType::kAck, {});
  const std::uint32_t huge = 0xFFFFFFF0u;  // ~4 GiB claim
  std::memcpy(header.data() + 8, &huge, sizeof(huge));
  std::size_t consumed = 0;
  EXPECT_THROW(rpc::decode_frame(header, consumed), rpc::WireError);

  // Just over the cap must also be rejected even though the u32 fits.
  const auto just_over =
      static_cast<std::uint32_t>(rpc::kMaxPayloadBytes + 1);
  std::memcpy(header.data() + 8, &just_over, sizeof(just_over));
  EXPECT_THROW(rpc::decode_frame(header, consumed), rpc::WireError);
}

TEST(Wire, RejectsCountPayloadMismatch) {
  // num_rows * row_dim larger than the shipped doubles.
  rpc::ClassifyRequestMsg msg;
  msg.request_id = 1;
  msg.row_dim = 4;
  msg.rows.assign(8, 1.5);  // 2 rows
  std::vector<std::uint8_t> payload = msg.encode();
  // Bump the num_rows field (offset 24, after the u64 request_id /
  // trace_id / parent_span_id triple).
  const std::uint32_t forged_rows = 1000;
  std::memcpy(payload.data() + 24, &forged_rows, sizeof(forged_rows));
  EXPECT_THROW(rpc::ClassifyRequestMsg::decode(payload), rpc::WireError);

  // Claimed row_dim over the cap.
  const std::uint32_t two = 2;
  std::memcpy(payload.data() + 24, &two, sizeof(two));
  const auto huge_dim = static_cast<std::uint32_t>(rpc::kMaxRowDim + 1);
  std::memcpy(payload.data() + 28, &huge_dim, sizeof(huge_dim));
  EXPECT_THROW(rpc::ClassifyRequestMsg::decode(payload), rpc::WireError);
}

TEST(Wire, RejectsTrailingBytes) {
  rpc::AckMsg ack;
  ack.message = "fine";
  std::vector<std::uint8_t> payload = ack.encode();
  payload.push_back(0);  // one stray byte
  EXPECT_THROW(rpc::AckMsg::decode(payload), rpc::WireError);
}

TEST(Wire, EncodeRejectsOversizedBatch) {
  rpc::ClassifyRequestMsg msg;
  msg.row_dim = 1;
  msg.rows.assign(rpc::kMaxBatchRows + 1, 0.0);
  EXPECT_THROW(msg.encode(), rpc::WireError);
}

// ---------- wire: stats push/ack ----------

TEST(Wire, StatsMsgRoundTripsLabeledSnapshot) {
  rpc::StatsMsg msg;
  msg.request_id = 31;
  msg.origin = "daemon:rack12";
  msg.snapshot.counters.push_back({"rpc.server.requests", 12345});
  msg.snapshot.counters.push_back({"rpc.server.rows", 0});
  msg.snapshot.gauges.push_back({"fleet.links_active", 42.5});
  obs::MetricsSnapshot::HistogramValue h;
  h.name = "rpc.server.classify_us";
  h.data.count = 3;
  h.data.sum = 7.5;
  h.data.min = 0.5;
  h.data.max = 4.0;
  h.data.buckets[0] = 1;  // 0.5
  h.data.buckets[2] = 1;  // 3.0 in [2, 4)
  h.data.buckets[3] = 1;  // 4.0 in [4, 8)
  msg.snapshot.histograms.push_back(h);

  const rpc::StatsMsg back = rpc::StatsMsg::decode(msg.encode());
  EXPECT_EQ(back.request_id, 31u);
  EXPECT_EQ(back.origin, "daemon:rack12");
  ASSERT_EQ(back.snapshot.counters.size(), 2u);
  EXPECT_EQ(back.snapshot.counters[0].name, "rpc.server.requests");
  EXPECT_EQ(back.snapshot.counters[0].value, 12345u);
  EXPECT_EQ(back.snapshot.counters[1].value, 0u);
  ASSERT_EQ(back.snapshot.gauges.size(), 1u);
  EXPECT_EQ(back.snapshot.gauges[0].value, 42.5);
  ASSERT_EQ(back.snapshot.histograms.size(), 1u);
  const obs::HistogramData& hd = back.snapshot.histograms[0].data;
  EXPECT_EQ(hd.count, 3u);
  EXPECT_EQ(hd.sum, 7.5);
  EXPECT_EQ(hd.min, 0.5);
  EXPECT_EQ(hd.max, 4.0);
  // The elided trailing buckets must come back as zeros, the occupied
  // ones exactly.
  for (std::size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    EXPECT_EQ(hd.buckets[b], h.data.buckets[b]) << "bucket " << b;
  }

  // The solicitation form pull_stats() sends: an empty snapshot.
  rpc::StatsMsg probe;
  probe.request_id = 7;
  probe.origin = "controller";
  const rpc::StatsMsg pback = rpc::StatsMsg::decode(probe.encode());
  EXPECT_EQ(pback.origin, "controller");
  EXPECT_TRUE(pback.snapshot.counters.empty());
  EXPECT_TRUE(pback.snapshot.gauges.empty());
  EXPECT_TRUE(pback.snapshot.histograms.empty());
}

TEST(Wire, StatsMsgElidesTrailingZeroBucketsOnTheWire) {
  rpc::StatsMsg low, high;
  low.snapshot.histograms.emplace_back();
  low.snapshot.histograms[0].name = "h";
  low.snapshot.histograms[0].data.buckets[0] = 1;
  high.snapshot.histograms.emplace_back();
  high.snapshot.histograms[0].name = "h";
  high.snapshot.histograms[0].data.buckets[obs::kHistogramBuckets - 1] = 1;
  // Same shape except for which bucket is occupied: the low histogram
  // ships 1 bucket, the high one all of them.
  EXPECT_EQ(high.encode().size() - low.encode().size(),
            (obs::kHistogramBuckets - 1) * sizeof(std::uint64_t));
}

TEST(Wire, StatsMsgRejectsHostileClaims) {
  // Encode-side caps: too many entries, oversized names.
  rpc::StatsMsg fat;
  fat.snapshot.counters.resize(rpc::kMaxStatsEntries + 1);
  EXPECT_THROW(fat.encode(), rpc::WireError);
  rpc::StatsMsg longname;
  longname.snapshot.counters.push_back(
      {std::string(rpc::kMaxStatsNameBytes + 1, 'n'), 1});
  EXPECT_THROW(longname.encode(), rpc::WireError);

  // Decode-side: forge the counter-count field of a valid payload. With
  // origin "x" it sits at offset 11 (u64 request_id + u16 len + 1 byte).
  rpc::StatsMsg msg;
  msg.request_id = 1;
  msg.origin = "x";
  msg.snapshot.counters.push_back({"c", 9});
  const std::vector<std::uint8_t> good = msg.encode();

  std::vector<std::uint8_t> over_cap = good;
  const auto huge = static_cast<std::uint32_t>(rpc::kMaxStatsEntries + 1);
  std::memcpy(over_cap.data() + 11, &huge, sizeof(huge));
  EXPECT_THROW(rpc::StatsMsg::decode(over_cap), rpc::WireError);

  // A claim under the cap but past the shipped bytes must fail the
  // payload-size sanity check, not read garbage.
  std::vector<std::uint8_t> starved = good;
  const std::uint32_t hundred = 100;
  std::memcpy(starved.data() + 11, &hundred, sizeof(hundred));
  EXPECT_THROW(rpc::StatsMsg::decode(starved), rpc::WireError);

  // Trailing bytes after a complete snapshot are a framing error.
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(rpc::StatsMsg::decode(trailing), rpc::WireError);
}

// ---------- address parsing ----------

TEST(RpcClient, ParseRemoteAddrForms) {
  EXPECT_EQ(rpc::parse_remote_addr("unix:/tmp/x.sock").unix_socket,
            "/tmp/x.sock");
  EXPECT_EQ(rpc::parse_remote_addr("/tmp/y.sock").unix_socket, "/tmp/y.sock");
  const rpc::ClientConfig tcp = rpc::parse_remote_addr("127.0.0.1:9000");
  EXPECT_TRUE(tcp.unix_socket.empty());
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 9000);

  EXPECT_THROW(rpc::parse_remote_addr("unix:"), std::invalid_argument);
  EXPECT_THROW(rpc::parse_remote_addr("nocolon"), std::invalid_argument);
  EXPECT_THROW(rpc::parse_remote_addr("host:notaport"), std::invalid_argument);
  EXPECT_THROW(rpc::parse_remote_addr("host:70000"), std::invalid_argument);
  EXPECT_THROW(rpc::parse_remote_addr(":9000"), std::invalid_argument);
}

// `libra top` parses its HOST:PORT with the same function, so a port that
// is not all digits or is outside [1, 65535] must throw rather than become
// 0 or overflow.
TEST(RpcClient, ParseRemoteAddrRejectsBadPorts) {
  for (const char* addr :
       {"127.0.0.1:http", "127.0.0.1:0", "127.0.0.1:65536",
        "127.0.0.1:4294967297", "127.0.0.1:-1", "127.0.0.1: 80",
        "127.0.0.1:+80", "127.0.0.1:80x", "127.0.0.1:"}) {
    EXPECT_THROW(rpc::parse_remote_addr(addr), std::invalid_argument) << addr;
  }
  EXPECT_EQ(rpc::parse_remote_addr("127.0.0.1:1").port, 1);
  EXPECT_EQ(rpc::parse_remote_addr("127.0.0.1:65535").port, 65535);
}

// A NaN or non-positive deadline would leave the socket blocking forever
// while the plan seam counted every injected kRpcDelay as past it; +inf is
// the one way to ask for no deadline. Every accepted finite value, down to
// a sub-microsecond one and up to one far past any socket timeout, must
// also connect (the socket timeout is set on connect).
TEST(RpcClient, DeadlineMustBePositiveOrInfinite) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  rpc::ClientConfig cfg;
  cfg.unix_socket = unique_socket_path();
  for (const double bad :
       {0.0, -0.0, -1.0, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    cfg.deadline_ms = bad;
    EXPECT_THROW(rpc::DecisionClient client(cfg), std::invalid_argument)
        << "deadline_ms=" << bad;
    EXPECT_THROW(rpc::RemoteBackend backend(cfg), std::invalid_argument)
        << "deadline_ms=" << bad;
  }
  rpc::ServerConfig scfg;
  scfg.unix_socket = cfg.unix_socket;
  rpc::DecisionServer server(scfg);
  server.start();
  for (const double good : {5e-4, 1e-3, 250.0, 1e300, kInf}) {
    cfg.deadline_ms = good;
    EXPECT_NO_THROW({
      rpc::DecisionClient client(cfg);
      EXPECT_TRUE(client.connect()) << "deadline_ms=" << good;
    }) << "deadline_ms=" << good;
  }
  server.stop();
}

// ---------- server/client loopback ----------

TEST(RpcLoopback, HelloClassifyMatchInProcessBitExact) {
  const ml::RandomForest forest = make_small_forest(10);
  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  server.set_forest(forest);
  server.start();

  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  rpc::DecisionClient client(ccfg);
  ASSERT_TRUE(client.connect());

  const std::optional<rpc::HelloMsg> hello = client.hello();
  ASSERT_TRUE(hello.has_value());
  EXPECT_TRUE(hello->model_loaded);
  EXPECT_EQ(hello->num_trees, 10u);
  EXPECT_EQ(hello->num_classes, 3);

  const ml::DataSet rows = make_query_rows();
  const std::optional<std::vector<std::vector<double>>> votes =
      client.classify(rows);
  ASSERT_TRUE(votes.has_value());
  const std::vector<std::vector<double>> local =
      forest.vote_fractions_batch(rows);
  ASSERT_EQ(votes->size(), local.size());
  for (std::size_t r = 0; r < local.size(); ++r) {
    ASSERT_EQ((*votes)[r].size(), local[r].size()) << "row " << r;
    for (std::size_t c = 0; c < local[r].size(); ++c) {
      EXPECT_EQ((*votes)[r][c], local[r][c]) << "row " << r << " class " << c;
    }
  }
  server.stop();
}

TEST(RpcLoopback, TcpEphemeralPortServes) {
  rpc::ServerConfig scfg;  // empty unix_socket -> TCP, port 0 -> ephemeral
  rpc::DecisionServer server(scfg);
  server.set_forest(make_small_forest(5));
  server.start();
  ASSERT_GT(server.port(), 0);

  rpc::ClientConfig ccfg;
  ccfg.port = server.port();
  rpc::DecisionClient client(ccfg);
  EXPECT_TRUE(client.hello().has_value());
  const std::optional<std::vector<std::vector<double>>> votes =
      client.classify(make_query_rows());
  ASSERT_TRUE(votes.has_value());
  EXPECT_EQ(votes->size(), 4u);
  server.stop();
}

// One negative case per ServerConfig field: the socket path, port and
// worker count at construction, the host when start() parses it. A
// negative num_workers used to mean hardware_concurrency() silently.
TEST(RpcServer, RejectsBadConfig) {
  {
    rpc::ServerConfig cfg;
    cfg.unix_socket = std::string(200, 'x');
    EXPECT_THROW(rpc::DecisionServer{cfg}, std::invalid_argument);
  }
  for (const int bad : {-1, 65536}) {
    rpc::ServerConfig cfg;
    cfg.port = bad;
    EXPECT_THROW(rpc::DecisionServer{cfg}, std::invalid_argument) << bad;
  }
  for (const int bad : {-1, -4}) {
    rpc::ServerConfig cfg;
    cfg.num_workers = bad;
    EXPECT_THROW(rpc::DecisionServer{cfg}, std::invalid_argument) << bad;
  }
  rpc::ServerConfig zero_workers;
  zero_workers.num_workers = 0;  // hardware_concurrency()
  EXPECT_NO_THROW(rpc::DecisionServer{zero_workers});
  rpc::ServerConfig bad_host;
  bad_host.host = "not-an-address";
  rpc::DecisionServer server(bad_host);
  EXPECT_THROW(server.start(), std::runtime_error);
  EXPECT_FALSE(server.running());
}

TEST(RpcLoopback, ClassifyAgainstEmptyServerFailsSoft) {
  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);  // no forest installed
  server.start();

  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  rpc::DecisionClient client(ccfg);
  const std::optional<rpc::HelloMsg> hello = client.hello();
  ASSERT_TRUE(hello.has_value());
  EXPECT_FALSE(hello->model_loaded);
  EXPECT_FALSE(client.classify(make_query_rows()).has_value());
  server.stop();
}

TEST(RpcLoopback, TamperedModelPushIsRejectedAndOldModelKeepsServing) {
  const ml::RandomForest forest = make_small_forest(10);
  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  server.set_forest(forest);
  server.start();

  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  rpc::DecisionClient client(ccfg);

  // Take a healthy serialization and vandalize it: the server must run the
  // full load_forest/import_model validation and keep the old model.
  std::ostringstream out;
  ml::save_forest(forest, out);
  std::string tampered = out.str();
  const std::size_t digit = tampered.find_first_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  tampered.replace(digit, 1, "999999");  // absurd header count

  const std::optional<rpc::AckMsg> ack = client.push_model_text(tampered);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->ok);
  EXPECT_FALSE(ack->message.empty());

  // Garbage that is not even close to the format.
  const std::optional<rpc::AckMsg> ack2 =
      client.push_model_text("DROP TABLE forests;");
  ASSERT_TRUE(ack2.has_value());
  EXPECT_FALSE(ack2->ok);

  // The original 10-tree model still answers, bit-exact.
  const ml::DataSet rows = make_query_rows();
  const std::optional<std::vector<std::vector<double>>> votes =
      client.classify(rows);
  ASSERT_TRUE(votes.has_value());
  EXPECT_EQ(*votes, forest.vote_fractions_batch(rows));
  server.stop();
}

// True when `v` is an exact multiple of 1/num_trees (vote fractions are
// integer tree counts over num_trees, and both 10ths and 7ths are exact
// in double for the k/N values a forest can emit).
bool fits_denominator(double v, int num_trees) {
  const double scaled = v * num_trees;
  const double rounded = std::round(scaled);
  return scaled == rounded && rounded >= 0 && rounded <= num_trees;
}

TEST(RpcLoopback, ModelPushHotSwapNeverMixesForestsMidBatch) {
  // Serve a 10-tree forest, hammer it with classify batches from two
  // threads while the main thread repeatedly swaps between a 10-tree and a
  // 7-tree forest. Every reply must be internally consistent with exactly
  // one forest: all votes in one reply fit k/10 or all fit k/7. A torn
  // swap would produce a reply mixing denominators (or a crash).
  const ml::RandomForest ten = make_small_forest(10);
  const ml::RandomForest seven = make_small_forest(7, /*seed=*/5);

  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  server.set_forest(ten);
  server.start();

  std::ostringstream ten_text_s, seven_text_s;
  ml::save_forest(ten, ten_text_s);
  ml::save_forest(seven, seven_text_s);
  const std::string ten_text = ten_text_s.str();
  const std::string seven_text = seven_text_s.str();

  std::atomic<bool> stop{false};
  std::atomic<int> replies{0};
  std::atomic<int> violations{0};
  auto hammer = [&] {
    rpc::ClientConfig ccfg;
    ccfg.unix_socket = scfg.unix_socket;
    rpc::DecisionClient client(ccfg);
    const ml::DataSet rows = make_query_rows();
    while (!stop.load(std::memory_order_acquire)) {
      const std::optional<std::vector<std::vector<double>>> votes =
          client.classify(rows);
      if (!votes.has_value()) continue;  // transient (server busy swapping)
      replies.fetch_add(1);
      bool all_ten = true, all_seven = true;
      for (const std::vector<double>& row : *votes) {
        for (const double v : row) {
          if (!fits_denominator(v, 10)) all_ten = false;
          if (!fits_denominator(v, 7)) all_seven = false;
        }
      }
      if (!all_ten && !all_seven) violations.fetch_add(1);
    }
  };
  std::thread t1(hammer), t2(hammer);

  rpc::ClientConfig pcfg;
  pcfg.unix_socket = scfg.unix_socket;
  rpc::DecisionClient pusher(pcfg);
  // Swap only once the hammers are serving, so the swaps race live
  // batches; on a loaded host all 20 could otherwise finish before either
  // thread's first reply. Bounded: a dead server still fails below.
  const auto serving_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (replies.load() == 0 &&
         std::chrono::steady_clock::now() < serving_deadline) {
    std::this_thread::yield();
  }
  for (int swap = 0; swap < 20; ++swap) {
    const std::optional<rpc::AckMsg> ack =
        pusher.push_model_text(swap % 2 == 0 ? seven_text : ten_text);
    ASSERT_TRUE(ack.has_value());
    EXPECT_TRUE(ack->ok) << ack->message;
  }
  stop.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  server.stop();

  EXPECT_GT(replies.load(), 0);
  EXPECT_EQ(violations.load(), 0);
}

// ---------- stats pull: loopback ----------

// pull_stats() must return the snapshot labeled with the DAEMON's origin
// (rpc::kStatsOrigin) -- the controller never invents a label for a peer
// (the aggregator keys its delta chains on that string).
TEST(RpcLoopback, PullStatsReturnsDaemonLabeledSnapshot) {
  const ml::RandomForest forest = make_small_forest(10);
  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  server.set_forest(forest);
  server.start();

  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  rpc::DecisionClient client(ccfg);
  ASSERT_TRUE(client.classify(make_query_rows()).has_value());

  const std::optional<rpc::StatsMsg> stats = client.pull_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->origin, "daemon");
  // The loopback daemon shares this process's registry, so its snapshot
  // carries the server-side counters the classify above just bumped.
  const auto* requests = stats->snapshot.find_counter("rpc.server.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GT(requests->value, 0u);
  const auto* classify_us =
      stats->snapshot.find_histogram("rpc.server.classify_us");
  ASSERT_NE(classify_us, nullptr);
  EXPECT_GT(classify_us->data.count, 0u);

  // RemoteBackend passes the origin through as core::PeerStats verbatim.
  rpc::RemoteBackend backend(ccfg);
  const std::optional<core::PeerStats> peer = backend.peer_stats();
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->origin, rpc::kStatsOrigin);
  server.stop();

  // Against a dead daemon the pull degrades to nullopt, never throws.
  EXPECT_FALSE(backend.peer_stats().has_value());
}

// ---------- client telemetry: retries and reconnects ----------

std::uint64_t counter_now(const char* name) {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto* c = snap.find_counter(name);
  return c != nullptr ? c->value : 0u;
}

TEST(RpcClient, DeadSocketBurnsTheRetryWithoutAReconnect) {
  const std::uint64_t retries0 = counter_now("rpc.client.retries");
  const std::uint64_t reconnects0 = counter_now("rpc.client.reconnects");
  const std::uint64_t outages0 = counter_now("rpc.client.outages");

  rpc::ClientConfig dead;
  dead.unix_socket = unique_socket_path();  // never bound
  dead.deadline_ms = 50.0;
  rpc::DecisionClient client(dead);
  EXPECT_FALSE(client.classify(make_query_rows()).has_value());

  // One failed round trip, one counted retry on a connect that also
  // fails, one outage -- and no reconnect, because nothing connected.
  EXPECT_EQ(counter_now("rpc.client.retries"), retries0 + 1);
  EXPECT_EQ(counter_now("rpc.client.outages"), outages0 + 1);
  EXPECT_EQ(counter_now("rpc.client.reconnects"), reconnects0);
}

TEST(RpcClient, ServerRestartCountsOneRetryAndOneReconnect) {
  const ml::RandomForest forest = make_small_forest(10);
  const std::string path = unique_socket_path();
  auto serve = [&] {
    rpc::ServerConfig scfg;
    scfg.unix_socket = path;
    auto server = std::make_unique<rpc::DecisionServer>(scfg);
    server->set_forest(forest);
    server->start();
    return server;
  };

  auto server = serve();
  rpc::ClientConfig ccfg;
  ccfg.unix_socket = path;
  rpc::DecisionClient client(ccfg);
  ASSERT_TRUE(client.classify(make_query_rows()).has_value());

  const std::uint64_t retries0 = counter_now("rpc.client.retries");
  const std::uint64_t reconnects0 = counter_now("rpc.client.reconnects");

  // Restart the daemon on the same socket. The client's next classify
  // finds the stale connection dead, retries once on a fresh one, and
  // succeeds -- exactly one retry, exactly one reconnect.
  server->stop();
  server = serve();
  ASSERT_TRUE(client.classify(make_query_rows()).has_value());
  EXPECT_EQ(counter_now("rpc.client.retries"), retries0 + 1);
  EXPECT_EQ(counter_now("rpc.client.reconnects"), reconnects0 + 1);
  server->stop();
}

// ---------- trace propagation across the wire ----------

// The acceptance criterion for cross-process tracing: a daemon-side
// rpc.server.classify span must land in the SAME trace as the caller's
// span and parent directly under it. On the loopback both sides share
// this process's TraceBuffer, so one export shows the whole tree.
TEST(RpcTrace, DaemonClassifySpanParentsUnderCallerSpan) {
  const ml::RandomForest forest = make_small_forest(10);
  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  server.set_forest(forest);
  server.start();

  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  rpc::DecisionClient client(ccfg);

  obs::TraceBuffer& buf = obs::TraceBuffer::global();
  buf.clear();
  {
    OBS_SPAN("rpc_test.decide");
    ASSERT_TRUE(client.classify(make_query_rows()).has_value());
  }
  server.stop();  // quiesce the worker threads before exporting

  const util::JsonValue root = util::parse_json(buf.to_chrome_json());
  const util::JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const util::JsonValue* decide = nullptr;
  const util::JsonValue* served = nullptr;
  for (const util::JsonValue& e : events->array) {
    const util::JsonValue* n = e.find("name");
    if (n == nullptr) continue;
    if (n->str == "rpc_test.decide") decide = &e;
    if (n->str == "rpc.server.classify") served = &e;
  }
  ASSERT_NE(decide, nullptr);
  ASSERT_NE(served, nullptr);
  const util::JsonValue* dargs = decide->find("args");
  const util::JsonValue* sargs = served->find("args");
  ASSERT_NE(dargs, nullptr);
  ASSERT_NE(sargs, nullptr);
  // Same trace id across the socket; the daemon span's parent is the
  // caller's span id, and the caller is the root.
  EXPECT_EQ(sargs->find("trace")->str, dargs->find("trace")->str);
  EXPECT_EQ(sargs->find("parent")->str, dargs->find("span")->str);
  EXPECT_EQ(dargs->find("parent")->str, "0x0");
  buf.clear();
}

// ---------- fleet integration: loopback bit-identity ----------

// One station's whole world (same corpus as fleet_test).
struct Station {
  env::Environment env;
  array::PhasedArray ap;
  array::PhasedArray client;
  channel::Link link;
  std::unique_ptr<core::LinkController> controller;
  sim::SessionScript script;

  Station(const array::Codebook* codebook, geom::Vec2 client_pos,
          const core::LibraClassifier* clf)
      : env(env::make_lobby()),
        ap({2, 6}, 0.0, codebook),
        client(client_pos, 180.0, codebook),
        link(&env, &ap, &client) {
    if (clf != nullptr) {
      controller = std::make_unique<core::LibraController>(
          &link, &shared_error_model(), clf);
    } else {
      controller = std::make_unique<core::RaFirstController>(
          &link, &shared_error_model());
    }
  }
};

std::vector<std::unique_ptr<Station>> build_stations(
    const array::Codebook* codebook, const core::LibraClassifier* clf) {
  std::vector<std::unique_ptr<Station>> stations;
  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{10, 6}, clf));
  stations[0]->script.duration_ms = 1500.0;
  stations[0]->script.rx_trajectory =
      sim::Trajectory::stationary({10, 6}, 180.0);
  stations[0]->script.blockage.push_back({400.0, 1100.0, {{6, 6}, 0.3, 35.0}});

  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{12, 7}, clf));
  stations[1]->script.duration_ms = 1500.0;
  stations[1]->script.rx_trajectory =
      sim::Trajectory::walk({12, 7}, {17, 8}, 1500.0, geom::Vec2{2, 6});

  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{9, 5}, clf));
  stations[2]->script.duration_ms = 1500.0;
  stations[2]->script.rx_trajectory =
      sim::Trajectory::stationary({9, 5}, 180.0);
  stations[2]->script.interference.push_back(
      {300.0, 1000.0, {{10, 1}, 50.0, 0.5}});

  stations.push_back(
      std::make_unique<Station>(codebook, geom::Vec2{11, 6}, clf));
  stations[3]->script.duration_ms = 700.0;  // early finisher
  stations[3]->script.rx_trajectory =
      sim::Trajectory::stationary({11, 6}, 180.0);
  return stations;
}

sim::FleetResult run_station_fleet(const core::LibraClassifier* clf,
                                   std::uint64_t seed,
                                   core::DecisionBackend* backend = nullptr,
                                   int shards = 0, int num_threads = 1,
                                   const faults::FaultPlan& plan = {},
                                   int scrape_port = 0) {
  const array::Codebook codebook;
  auto stations = build_stations(&codebook, clf);
  std::vector<sim::FleetLink> members;
  for (auto& s : stations) {
    members.push_back({&s->env, &s->link, s->controller.get(), s->script});
  }
  sim::FleetConfig cfg;
  cfg.seed = seed;
  cfg.keep_frame_logs = true;
  cfg.backend = backend;
  cfg.shards = shards;
  cfg.num_threads = num_threads;
  cfg.faults = plan;
  cfg.scrape_port = scrape_port;
  return sim::run_fleet(members, cfg);
}

void expect_frame_logs_identical(const sim::FleetResult& a,
                                 const sim::FleetResult& b) {
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    const sim::SessionResult& x = a.links[i];
    const sim::SessionResult& y = b.links[i];
    EXPECT_EQ(x.frames, y.frames) << "link " << i;
    EXPECT_EQ(x.adaptations_ba, y.adaptations_ba) << "link " << i;
    EXPECT_EQ(x.adaptations_ra, y.adaptations_ra) << "link " << i;
    EXPECT_EQ(x.outages, y.outages) << "link " << i;
    ASSERT_EQ(x.frame_log.size(), y.frame_log.size()) << "link " << i;
    for (std::size_t f = 0; f < x.frame_log.size(); ++f) {
      const core::FrameReport& p = x.frame_log[f];
      const core::FrameReport& q = y.frame_log[f];
      ASSERT_EQ(p.t_ms, q.t_ms) << "link " << i << " frame " << f;
      ASSERT_EQ(p.mcs, q.mcs) << "link " << i << " frame " << f;
      ASSERT_EQ(p.goodput_mbps, q.goodput_mbps)
          << "link " << i << " frame " << f;
      ASSERT_EQ(p.ack, q.ack) << "link " << i << " frame " << f;
      ASSERT_EQ(p.action, q.action) << "link " << i << " frame " << f;
    }
  }
  EXPECT_EQ(sim::degradation_digest(a), sim::degradation_digest(b));
}

// The acceptance criterion for the whole split: a loopback daemon serving
// the classifier's own forest is bit-identical to in-process inference --
// same frames, same digest -- at every (shards, num_threads) grid point.
TEST(RpcFleet, LoopbackRemoteBitIdenticalToLocalAcrossGrid) {
  const core::LibraClassifier clf = make_classifier();
  constexpr std::uint64_t kSeed = 77;
  const sim::FleetResult local = run_station_fleet(&clf, kSeed);

  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  server.set_forest(clf.forest());
  server.start();

  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  ccfg.deadline_ms = 5000.0;  // generous: CI machines stall
  rpc::RemoteBackend backend(ccfg);

  const struct {
    int shards;
    int threads;
  } grid[] = {{0, 1}, {1, 1}, {3, 2}, {2, 4}};
  for (const auto& g : grid) {
    const sim::FleetResult remote =
        run_station_fleet(&clf, kSeed, &backend, g.shards, g.threads);
    SCOPED_TRACE("shards=" + std::to_string(g.shards) +
                 " threads=" + std::to_string(g.threads));
    expect_frame_logs_identical(local, remote);
  }
  server.stop();
}

// ---------- fleet integration: outage degradation ----------

// A backend that is dead from frame 0 (nothing ever listened on the
// socket) must degrade exactly like a 100% classifier outage: the rung-2
// check fires at plan time, no jitter draws are consumed, and the frames
// are bit-identical. faults_test proves the outage run in turn equals the
// RA-first heuristic, closing the chain remote-dead == RA-first.
TEST(RpcFleet, DeadBackendFromStartEqualsFullClassifierOutage) {
  constexpr std::uint64_t kSeed = 77;

  core::LibraClassifier outage_clf = make_classifier();
  faults::FaultPlan outage;
  outage.seed = 5;
  outage.add(faults::FaultKind::kClassifierOutage, 1.0);
  const sim::FleetResult outaged =
      run_station_fleet(&outage_clf, kSeed, nullptr, 0, 1, outage);

  rpc::ClientConfig dead;
  dead.unix_socket = unique_socket_path();  // never bound
  dead.deadline_ms = 50.0;
  rpc::RemoteBackend backend(dead);
  core::LibraClassifier remote_clf = make_classifier();
  const sim::FleetResult degraded =
      run_station_fleet(&remote_clf, kSeed, &backend);

  expect_frame_logs_identical(outaged, degraded);
  const auto* fallbacks =
      degraded.metrics.find_counter("rpc.outage_fallbacks");
  ASSERT_NE(fallbacks, nullptr);
  EXPECT_GT(fallbacks->value, 0u);
}

// 100% kRpcDrop against a live loopback backend must be frame-identical to
// 100% kClassifierOutage: both fire the same rung-2 check at plan time and
// neither consumes a fault draw (probability >= 1 windows are free), so
// the transport fault is indistinguishable from an inference outage.
TEST(RpcFleet, FullRpcDropEqualsFullClassifierOutage) {
  constexpr std::uint64_t kSeed = 77;
  constexpr std::uint64_t kFaultSeed = 5;

  core::LibraClassifier outage_clf = make_classifier();
  faults::FaultPlan outage;
  outage.seed = kFaultSeed;
  outage.add(faults::FaultKind::kClassifierOutage, 1.0);
  const sim::FleetResult outaged =
      run_station_fleet(&outage_clf, kSeed, nullptr, 0, 1, outage);

  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  core::LibraClassifier remote_clf = make_classifier();
  server.set_forest(remote_clf.forest());
  server.start();
  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  rpc::RemoteBackend backend(ccfg);

  faults::FaultPlan drop;
  drop.seed = kFaultSeed;
  drop.add(faults::FaultKind::kRpcDrop, 1.0);
  const sim::FleetResult dropped =
      run_station_fleet(&remote_clf, kSeed, &backend, 0, 1, drop);
  server.stop();

  expect_frame_logs_identical(outaged, dropped);
}

// An RPC delay at or past the deadline is an outage; below it, nothing
// changes (only telemetry notices).
TEST(RpcFleet, RpcDelayPastDeadlineIsAnOutageBelowItIsNot) {
  constexpr std::uint64_t kSeed = 77;
  constexpr std::uint64_t kFaultSeed = 5;

  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  core::LibraClassifier clf = make_classifier();
  server.set_forest(clf.forest());
  server.start();
  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  ccfg.deadline_ms = 250.0;
  rpc::RemoteBackend backend(ccfg);

  // Slow (at the deadline) == a full classifier outage.
  core::LibraClassifier outage_clf = make_classifier();
  faults::FaultPlan outage;
  outage.seed = kFaultSeed;
  outage.add(faults::FaultKind::kClassifierOutage, 1.0);
  const sim::FleetResult outaged =
      run_station_fleet(&outage_clf, kSeed, nullptr, 0, 1, outage);

  faults::FaultPlan slow;
  slow.seed = kFaultSeed;
  slow.add(faults::FaultKind::kRpcDelay, 1.0, 0.0, faults::kForever,
           /*magnitude=*/250.0);
  const sim::FleetResult delayed =
      run_station_fleet(&clf, kSeed, &backend, 0, 1, slow);
  expect_frame_logs_identical(outaged, delayed);

  // Fast (under the deadline) == a clean loopback run.
  const sim::FleetResult clean = run_station_fleet(&clf, kSeed, &backend);
  faults::FaultPlan mild;
  mild.seed = kFaultSeed;
  mild.add(faults::FaultKind::kRpcDelay, 1.0, 0.0, faults::kForever,
           /*magnitude=*/10.0);
  const sim::FleetResult mildly_delayed =
      run_station_fleet(&clf, kSeed, &backend, 0, 1, mild);
  server.stop();
  expect_frame_logs_identical(clean, mildly_delayed);
}

// Kill the daemon under a fleet that is mid-run via FleetConfig::backend:
// the decide-phase BackendOutageError path substitutes every affected
// row's plan-time fallback verdict. The run must complete every link, not
// crash, count its fallbacks, and stay deterministic: two identical
// dead-server runs, and runs on other (shards, threads) grids, produce the
// same frames and batch the same rows. The grid points matter because the
// health probe reads socket state that every shard shares: a shard whose
// failed batch closes the connection must not turn a later shard's links
// in the same tick into plan-time fallbacks.
TEST(RpcFleet, ServerKilledBeforeDecideDegradesAndStaysDeterministic) {
  constexpr std::uint64_t kSeed = 77;
  const core::LibraClassifier clf = make_classifier();

  auto run_against_killed_server = [&](int shards, int threads) {
    rpc::ServerConfig scfg;
    scfg.unix_socket = unique_socket_path();
    rpc::DecisionServer server(scfg);
    server.set_forest(clf.forest());
    server.start();
    rpc::ClientConfig ccfg;
    ccfg.unix_socket = scfg.unix_socket;
    ccfg.deadline_ms = 100.0;
    rpc::RemoteBackend backend(ccfg);
    // Establish the connection the fleet will try to use, then kill the
    // daemon. The plan-time probe still sees the open connection, so the
    // first classify hits the dead socket at decide time -- the path this
    // test is about; the probe pre-empts the ticks after it.
    EXPECT_TRUE(backend.available());
    server.stop();
    return run_station_fleet(&clf, kSeed, &backend, shards, threads);
  };

  // Keep the snapshot alive: find_counter returns a pointer into it.
  const obs::MetricsSnapshot snap_before = obs::Registry::global().snapshot();
  const auto* before = snap_before.find_counter("rpc.outage_fallbacks");
  const std::uint64_t fallbacks_before =
      before != nullptr ? before->value : 0;
  const sim::FleetResult first = run_against_killed_server(0, 1);
  EXPECT_GT(first.batched_rows, 0);
  const sim::FleetResult second = run_against_killed_server(0, 1);
  ASSERT_EQ(first.links.size(), 4u);
  for (const sim::SessionResult& link : first.links) {
    EXPECT_GT(link.frames, 0);
  }
  expect_frame_logs_identical(first, second);
  const struct {
    int shards;
    int threads;
  } grid[] = {{1, 1}, {3, 1}, {2, 4}};
  for (const auto& g : grid) {
    SCOPED_TRACE("shards=" + std::to_string(g.shards) +
                 " threads=" + std::to_string(g.threads));
    const sim::FleetResult other =
        run_against_killed_server(g.shards, g.threads);
    expect_frame_logs_identical(first, other);
    // Rows shipped to the backend: each one consumed its link's jitter
    // draws, so every grid must ship the same ones.
    EXPECT_EQ(first.batched_rows, other.batched_rows);
  }
  const obs::MetricsSnapshot snap_after = obs::Registry::global().snapshot();
  const auto* after = snap_after.find_counter("rpc.outage_fallbacks");
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->value, fallbacks_before);
}

// ---------- fleet integration: live scrape ----------

// Bind an ephemeral TCP port on loopback and release it: the usual
// pick-a-free-port trick for handing run_fleet a concrete scrape port.
int free_tcp_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

// The observation-only contract: mounting the aggregator + scrape
// endpoint on a run must not perturb a single frame or the digest, even
// when the aggregator is concurrently pulling daemon stats over the SAME
// client connection the fleet classifies through. The scraped run holds
// its middle batch in flight -- re-issuing it over the shared client --
// until the aggregator's thread has rolled up at its 1 s period, on top of
// the roll-up run_fleet takes before tick 0.
TEST(RpcFleet, ScrapeEndpointIsObservationOnly) {
  constexpr std::uint64_t kSeed = 77;
  const core::LibraClassifier clf = make_classifier();

  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  server.set_forest(clf.forest());
  server.start();
  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  ccfg.deadline_ms = 5000.0;
  rpc::RemoteBackend backend(ccfg);

  std::size_t batches = 0;
  testing::HoldingBackend counting(&backend, [&](std::size_t) {
    ++batches;  // num_threads = 1: batches arrive one at a time
    return false;
  });
  const sim::FleetResult plain = run_station_fleet(&clf, kSeed, &counting);
  ASSERT_GE(batches, 2u);

  auto rollups = [] {
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    const auto* c = snap.find_counter("obs.aggregator.rollups");
    return c != nullptr ? c->value : 0;
  };
  const std::uint64_t rollups_before = rollups();
  testing::HoldingBackend held(&backend, [&](std::size_t batch) {
    return batch >= batches / 2 && rollups() < rollups_before + 2;
  });
  const sim::FleetResult scraped =
      run_station_fleet(&clf, kSeed, &held, 0, 1, {}, free_tcp_port());
  server.stop();
  EXPECT_GE(rollups(), rollups_before + 2);
  expect_frame_logs_identical(plain, scraped);
}

// The merged-scrape acceptance criterion: while a fleet run is in
// flight, GET /metrics must return valid Prometheus text carrying
// controller-origin AND daemon-origin series in one document.
TEST(RpcFleet, MidRunScrapeServesMergedControllerAndDaemonSeries) {
  constexpr std::uint64_t kSeed = 77;
  const core::LibraClassifier clf = make_classifier();

  rpc::ServerConfig scfg;
  scfg.unix_socket = unique_socket_path();
  rpc::DecisionServer server(scfg);
  server.set_forest(clf.forest());
  server.start();
  rpc::ClientConfig ccfg;
  ccfg.unix_socket = scfg.unix_socket;
  ccfg.deadline_ms = 5000.0;
  rpc::RemoteBackend remote(ccfg);
  std::atomic<bool> released{false};
  testing::HoldingBackend held(&remote,
                               [&](std::size_t) { return !released.load(); });

  const int port = free_tcp_port();
  std::thread fleet([&] {
    run_station_fleet(&clf, kSeed, &held, 0, 1, {}, port);
  });

  // The run is held on its first batch; poll the live endpoint until one
  // scrape shows both origins (the aggregator needs a rollup or two to
  // pull the daemon's first snapshot).
  std::string merged_body;
  for (int attempt = 0; attempt < 2000 && merged_body.empty(); ++attempt) {
    const std::optional<obs::HttpResponse> resp =
        obs::http_get("127.0.0.1", port, "/metrics", /*timeout_ms=*/500);
    if (resp.has_value() && resp->status == 200 &&
        resp->body.find("origin=\"controller\"") != std::string::npos &&
        resp->body.find("origin=\"daemon\"") != std::string::npos) {
      merged_body = resp->body;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  released.store(true);
  fleet.join();
  server.stop();

  ASSERT_FALSE(merged_body.empty())
      << "no merged scrape within the polling window";
  // Spot-check that the merged document carries per-origin samples of
  // the daemon's own serving counters next to the controller's.
  EXPECT_NE(merged_body.find("libra_rpc_server_requests"), std::string::npos);
  EXPECT_NE(merged_body.find("libra_obs_aggregator_rollups"),
            std::string::npos);
}

}  // namespace
}  // namespace libra
