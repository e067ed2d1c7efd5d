// The serving wire layer under attack: WireWriter/WireReader latching,
// protocol encode/decode round trips, and an adversarial frame corpus
// fired at a live server — truncated frames, oversize length words,
// zero-length and byte-by-byte partial writes, mid-request disconnects
// — and a large frame whose send is cut short by a signal.
// The server must latch the bad connection's error and keep serving
// every other connection.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "util/serial.h"
#include "util/wire.h"

namespace pae {
namespace {

constexpr char kPageHtml[] = "<p>色は赤です。</p>";

class RedTagger : public text::SequenceTagger {
 public:
  Status Train(const std::vector<text::LabeledSequence>&) override {
    return Status::Ok();
  }
  std::vector<std::string> Predict(
      const text::LabeledSequence& seq) const override {
    std::vector<std::string> labels(seq.tokens.size(), text::kOutsideLabel);
    for (size_t i = 0; i < seq.tokens.size(); ++i) {
      if (seq.tokens[i] == "赤") labels[i] = "B-色";
    }
    return labels;
  }
  ScoredPrediction PredictScored(
      const text::LabeledSequence& seq) const override {
    ScoredPrediction out;
    out.labels = Predict(seq);
    out.confidence.assign(out.labels.size(), 0.9);
    return out;
  }
  std::string Name() const override { return "red"; }
};

std::shared_ptr<const core::ExtractionEngine> MakeEngine() {
  return std::make_shared<core::ExtractionEngine>(
      std::make_shared<RedTagger>(), text::Language::kJa,
      std::vector<std::string>{"です"}, text::PosLexicon{},
      core::EngineOptions{});
}

std::string TestSocketPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// A server fixture shared by the adversarial tests: unix socket, 4
/// workers, one published stub generation.
class ProtocolServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One path per case and process: ctest runs the cases as concurrent
    // processes, and ListenUnix unlinks whatever sits at the path, so a
    // shared path would let one case steal another's socket.
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    options_.unix_path =
        TestSocketPath(std::string("pae_protocol_") + test->name() + "_" +
                       std::to_string(::getpid()) + ".sock");
    options_.workers = 4;
    server_ = std::make_unique<serve::Server>(options_);
    ASSERT_TRUE(server_->Start().ok());
    server_->Publish(MakeEngine());
  }
  void TearDown() override { server_->Stop(); }

  /// A healthy request on a fresh connection must succeed — the
  /// liveness probe run after every attack.
  void ExpectServerStillHealthy() {
    auto client = serve::Client::ConnectUnixSocket(options_.unix_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto response = client.value().Extract("probe", kPageHtml);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().triples.size(), 1u);
  }

  serve::ServerOptions options_;
  std::unique_ptr<serve::Server> server_;
};

// ---------------------------------------------------------------------
// WireWriter / WireReader

TEST(WireTest, ScalarAndStringRoundTrip) {
  util::WireWriter writer;
  writer.PutU8(7);
  writer.PutU32(123456);
  writer.PutU64(1ull << 40);
  writer.PutString("みかん");
  ASSERT_TRUE(writer.Finish().ok());

  util::WireReader reader(writer.data());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s;
  EXPECT_TRUE(reader.GetU8(&u8));
  EXPECT_TRUE(reader.GetU32(&u32));
  EXPECT_TRUE(reader.GetU64(&u64));
  EXPECT_TRUE(reader.GetString(&s));
  EXPECT_TRUE(reader.ExpectEnd());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(s, "みかん");
}

TEST(WireTest, UnderrunLatchesAndStaysLatched) {
  util::WireReader reader(std::string_view("\x01"));
  uint32_t v = 0;
  EXPECT_FALSE(reader.GetU32(&v));
  EXPECT_FALSE(reader.ok());
  // Latched: even a 1-byte read that would fit now fails.
  uint8_t b = 0;
  EXPECT_FALSE(reader.GetU8(&b));
}

TEST(WireTest, OversizeStringLengthRejectedBeforeAllocation) {
  // A length word claiming kMaxSerialElements bytes with a 4-byte body.
  util::WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(kMaxSerialElements));
  writer.PutU32(0);
  util::WireReader reader(writer.data());
  std::string s;
  EXPECT_FALSE(reader.GetString(&s));
  EXPECT_EQ(reader.status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(s.empty());
}

TEST(WireTest, TrailingBytesFailExpectEnd) {
  util::WireWriter writer;
  writer.PutU8(1);
  writer.PutU8(2);
  util::WireReader reader(writer.data());
  uint8_t b = 0;
  EXPECT_TRUE(reader.GetU8(&b));
  EXPECT_FALSE(reader.ExpectEnd());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Protocol encode/decode

// A frame far larger than the socket buffer, whose one sendmsg is
// interrupted by a signal once the buffer is full: the send returns
// short, and the rest of the frame must continue exactly where it
// stopped.
TEST(FrameTest, InterruptedLargeFrameArrivesIntact) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::Fd writer(fds[0]);
  serve::Fd reader(fds[1]);

  struct sigaction interrupt {};
  interrupt.sa_handler = [](int) {};  // no SA_RESTART: the send returns
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &interrupt, &previous), 0);

  std::string payload(4 << 20, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131) >> 7);
  }
  Status written;
  std::thread send([&] { written = serve::WriteFrame(writer, payload); });
  // Nothing reads yet, so the send blocks on a full buffer; interrupt it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ::pthread_kill(send.native_handle(), SIGUSR1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::string received;
  const Status read = serve::ReadFrame(reader, &received);
  send.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  ASSERT_TRUE(written.ok()) << written.ToString();
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_TRUE(received == payload);
}

TEST(ProtocolTest, RequestRoundTrips) {
  serve::ExtractRequest extract;
  extract.product_id = "p9";
  extract.html = "<p>x</p>";
  auto decoded = serve::DecodeRequest(serve::EncodeExtractRequest(extract));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().op, serve::Op::kExtract);
  EXPECT_EQ(decoded.value().extract.product_id, "p9");
  EXPECT_EQ(decoded.value().extract.html, "<p>x</p>");

  auto ping = serve::DecodeRequest(serve::EncodePingRequest());
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().op, serve::Op::kPing);

  serve::PublishRequest publish;
  publish.model_path = "m.paez";
  publish.resources_dir = "dir";
  auto pub = serve::DecodeRequest(serve::EncodePublishRequest(publish));
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(pub.value().publish.model_path, "m.paez");
}

TEST(ProtocolTest, UnknownOpcodeAndTrailingBytesRejected) {
  EXPECT_FALSE(serve::DecodeRequest(std::string("\x7f", 1)).ok());
  EXPECT_FALSE(serve::DecodeRequest(std::string()).ok());
  std::string trailing = serve::EncodePingRequest() + "extra";
  EXPECT_FALSE(serve::DecodeRequest(trailing).ok());
}

TEST(ProtocolTest, ErrorResponseCarriesStatusThroughEnvelope) {
  const std::string payload = serve::EncodeErrorResponse(
      serve::Op::kExtract, Status::FailedPrecondition("no model"));
  auto decoded = serve::DecodeExtractResponse(payload, "p1");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(decoded.status().message(), "no model");
}

TEST(ProtocolTest, ExtractResponseReattachesProductId) {
  serve::ExtractResponse response;
  response.generation = 3;
  response.triples = {core::Triple{"", "色", "赤"}};
  auto decoded = serve::DecodeExtractResponse(
      serve::EncodeExtractResponse(response), "p42");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().generation, 3u);
  ASSERT_EQ(decoded.value().triples.size(), 1u);
  EXPECT_EQ(decoded.value().triples[0].product_id, "p42");
}

TEST(ProtocolTest, CorruptResponseBodyNeverDecodesOk) {
  serve::ExtractResponse response;
  response.generation = 1;
  response.triples = {core::Triple{"", "色", "赤"}};
  std::string payload = serve::EncodeExtractResponse(response);
  // Truncate mid-body at every offset: none may decode as Ok.
  for (size_t cut = 1; cut < payload.size(); ++cut) {
    auto decoded =
        serve::DecodeExtractResponse(payload.substr(0, cut), "p");
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------
// Adversarial frames against a live server

TEST_F(ProtocolServerTest, TruncatedFrameLatchesOnlyThatConnection) {
  auto fd = serve::ConnectUnix(options_.unix_path);
  ASSERT_TRUE(fd.ok());
  // Announce 100 bytes, deliver 10, hang up.
  const uint32_t length = 100;
  ASSERT_TRUE(
      serve::WriteFull(fd.value(), &length, sizeof(length)).ok());
  ASSERT_TRUE(serve::WriteFull(fd.value(), "0123456789", 10).ok());
  fd.value().Close();
  ExpectServerStillHealthy();
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(ProtocolServerTest, OversizeLengthWordsRejected) {
  for (const uint32_t length :
       {UINT32_MAX, static_cast<uint32_t>(kMaxSerialElements),
        serve::kMaxFrameBytes + 1}) {
    auto fd = serve::ConnectUnix(options_.unix_path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        serve::WriteFull(fd.value(), &length, sizeof(length)).ok());
    // The server must reject before reading (or allocating) the body:
    // the next read on this connection observes EOF/reset promptly.
    std::string response;
    Status read = serve::ReadFrame(fd.value(), &response);
    EXPECT_FALSE(read.ok()) << "length=" << length;
    ExpectServerStillHealthy();
  }
  EXPECT_GE(server_->stats().protocol_errors, 3u);
}

TEST_F(ProtocolServerTest, ZeroLengthFrameGetsErrorResponse) {
  auto fd = serve::ConnectUnix(options_.unix_path);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(serve::WriteFrame(fd.value(), std::string()).ok());
  // An empty payload cannot carry an opcode: the server answers with an
  // error envelope, then closes.
  std::string response;
  ASSERT_TRUE(serve::ReadFrame(fd.value(), &response).ok());
  size_t body_pos = 0;
  Status carried =
      serve::DecodeResponseEnvelope(response, serve::Op::kPing, &body_pos);
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  ExpectServerStillHealthy();
}

TEST_F(ProtocolServerTest, BytewisePartialWritesStillParse) {
  auto fd = serve::ConnectUnix(options_.unix_path);
  ASSERT_TRUE(fd.ok());
  const std::string payload = serve::EncodePingRequest();
  const uint32_t length = static_cast<uint32_t>(payload.size());
  char header[sizeof(length)];
  std::memcpy(header, &length, sizeof(length));
  // Dribble the frame one byte at a time: framing must reassemble it.
  for (char byte : std::string(header, sizeof(header)) + payload) {
    ASSERT_TRUE(serve::WriteFull(fd.value(), &byte, 1).ok());
  }
  std::string response;
  ASSERT_TRUE(serve::ReadFrame(fd.value(), &response).ok());
  auto ping = serve::DecodePingResponse(response);
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping.value().generation, 1u);
}

TEST_F(ProtocolServerTest, MidRequestDisconnectKeepsServing) {
  for (int i = 0; i < 8; ++i) {
    auto fd = serve::ConnectUnix(options_.unix_path);
    ASSERT_TRUE(fd.ok());
    const std::string payload = serve::EncodeExtractRequest(
        serve::ExtractRequest{"p1", kPageHtml});
    const uint32_t length = static_cast<uint32_t>(payload.size());
    ASSERT_TRUE(
        serve::WriteFull(fd.value(), &length, sizeof(length)).ok());
    // Half the body, then vanish.
    ASSERT_TRUE(
        serve::WriteFull(fd.value(), payload.data(), payload.size() / 2)
            .ok());
    fd.value().Close();
  }
  ExpectServerStillHealthy();
}

TEST_F(ProtocolServerTest, MalformedInnerStringsRejected) {
  // A kExtract opcode whose product_id length word covers more bytes
  // than the payload holds.
  util::WireWriter writer;
  writer.PutU8(static_cast<uint8_t>(serve::Op::kExtract));
  writer.PutU32(1000);  // product_id allegedly 1000 bytes...
  writer.PutU8('x');    // ...but only one follows
  auto fd = serve::ConnectUnix(options_.unix_path);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(serve::WriteFrame(fd.value(), writer.data()).ok());
  std::string response;
  ASSERT_TRUE(serve::ReadFrame(fd.value(), &response).ok());
  size_t body_pos = 0;
  Status carried = serve::DecodeResponseEnvelope(
      response, serve::Op::kExtract, &body_pos);
  EXPECT_FALSE(carried.ok());
  ExpectServerStillHealthy();
}

TEST_F(ProtocolServerTest, HealthyConnectionSurvivesConcurrentAttack) {
  // One long-lived healthy client interleaved with attacks: its
  // connection must never be collateral damage.
  auto client = serve::Client::ConnectUnixSocket(options_.unix_path);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().Extract("p1", kPageHtml).ok());

  for (int round = 0; round < 4; ++round) {
    auto attacker = serve::ConnectUnix(options_.unix_path);
    ASSERT_TRUE(attacker.ok());
    const uint32_t garbage = UINT32_MAX - static_cast<uint32_t>(round);
    ASSERT_TRUE(
        serve::WriteFull(attacker.value(), &garbage, sizeof(garbage))
            .ok());
    attacker.value().Close();

    auto response = client.value().Extract("p1", kPageHtml);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().triples.size(), 1u);
  }
  // Each attacker is rejected by whichever worker picks its connection
  // up, possibly after the healthy client's last request, so wait (up
  // to a generous deadline) for all four rejections to be counted.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  uint64_t protocol_errors = 0;
  while (true) {
    auto stats = client.value().Stats();
    ASSERT_TRUE(stats.ok());
    protocol_errors = stats.value().protocol_errors;
    if (protocol_errors >= 4u ||
        std::chrono::steady_clock::now() > deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(protocol_errors, 4u);
}

TEST_F(ProtocolServerTest, PublishOfMissingModelFailsWithoutSwap) {
  auto client = serve::Client::ConnectUnixSocket(options_.unix_path);
  ASSERT_TRUE(client.ok());
  auto generation =
      client.value().Publish("/nonexistent/model.paez", "/nonexistent");
  ASSERT_FALSE(generation.ok());
  // The failed publish must not advance the generation.
  auto ping = client.value().Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().generation, 1u);
  EXPECT_EQ(server_->stats().hot_swaps, 0u);

  // A CRF artifact whose table carries retired section kind 7, with
  // every checksum valid, is refused with a typed error, and
  // generation 1 serves on.
  generation = client.value().Publish(
      std::string(PAE_FUZZ_CORPUS_DIR) + "/paez/malformed-retired-kind.bin",
      "/nonexistent");
  ASSERT_FALSE(generation.ok());
  EXPECT_EQ(generation.status().code(), StatusCode::kInvalidArgument)
      << generation.status().ToString();
  EXPECT_NE(generation.status().ToString().find("unknown section kind"),
            std::string::npos)
      << generation.status().ToString();
  EXPECT_EQ(server_->stats().hot_swaps, 0u);
  auto response = client.value().Extract("after-refused-publish", kPageHtml);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().generation, 1u);
}

}  // namespace
}  // namespace pae
