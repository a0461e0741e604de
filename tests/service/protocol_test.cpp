// Wire-protocol units (the little JSON codec, frame encode/decode) plus
// the framing fuzz corpus: truncated length prefixes, oversized frames,
// malformed JSON, mid-frame disconnects. Every mutant is thrown at a
// live server, which must answer with a structured error or drop the
// connection — never crash, hang, or leak a session. Mirrors the GDSII
// byte-flip harness in tests/gdsii/gdsii_fuzz_test.cpp.
#include "service/protocol.h"

#include "service/client.h"
#include "service/server.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dfm::service {
namespace {

// --------------------------------------------------------------------------
// Json codec

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, DumpSortsKeysAndRoundTrips) {
  const Json v = Json::parse(
      R"({"zeta":1,"alpha":[1,2,{"b":true,"a":null}],"mid":"x\n\"y\""})");
  const std::string dumped = v.dump();
  // Deterministic: object keys come out sorted.
  EXPECT_EQ(dumped,
            "{\"alpha\":[1,2,{\"a\":null,\"b\":true}],"
            "\"mid\":\"x\\n\\\"y\\\"\",\"zeta\":1}");
  EXPECT_EQ(Json::parse(dumped).dump(), dumped);
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);       // trailing garbage
  EXPECT_THROW(Json::parse("\"\\q\""), JsonError);   // bad escape
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError); // missing colon
}

TEST(Json, RejectsNumbersThatOverflowADouble) {
  EXPECT_THROW(Json::parse("1e999"), JsonError);
  EXPECT_THROW(Json::parse("-1e999"), JsonError);
  EXPECT_THROW(Json::parse("{\"min_gain\": 1e999}"), JsonError);
  for (const double d : {0.1, -2.5e-300, 1.7976931348623157e308, 3.0}) {
    const std::string dumped = Json(d).dump();
    EXPECT_EQ(Json::parse(dumped).as_double(), d) << dumped;
  }
}

TEST(Json, RejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(Json, AccessorsTypeCheck) {
  const Json v = Json::parse("{\"n\":3}");
  EXPECT_EQ(v.get_int("n", 0), 3);
  EXPECT_EQ(v.get_int("missing", -1), -1);
  EXPECT_THROW(v.as_string(), JsonError);
  EXPECT_THROW(Json::parse("\"s\"").as_int(), JsonError);
}

// --------------------------------------------------------------------------
// Framing fuzz against a live server

std::string sock_path(const std::string& tag) {
  // ctest runs each discovered test as its own process, possibly in
  // parallel: the pid keeps concurrent servers off each other's socket.
  return ::testing::TempDir() + "dfm_proto_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

ServiceOptions tiny_server_options(const std::string& tag) {
  ServiceOptions opt;
  opt.unix_path = sock_path(tag);
  opt.workers = 2;
  opt.pool_threads = 2;
  return opt;
}

/// Raw connection: consumes the hello frame, then lets the test push
/// arbitrary bytes.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ADD_FAILURE() << "connect failed";
    }
    std::string hello;
    EXPECT_TRUE(read_frame(fd_, hello, kDefaultMaxFrameBytes));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(const std::string& bytes) {
    (void)!::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }
  void half_close() { ::shutdown(fd_, SHUT_WR); }

  /// Reads the server's reaction: a structured error reply, or a clean
  /// drop. Anything else (a hang would trip the test timeout) fails.
  void expect_error_or_drop() {
    std::string payload;
    try {
      if (!read_frame(fd_, payload, kDefaultMaxFrameBytes)) {
        return;  // dropped: acceptable
      }
    } catch (const ProtocolError&) {
      return;  // connection reset mid-reply: still a drop
    }
    const Json reply = Json::parse(payload);
    EXPECT_FALSE(reply.get_bool("ok", true))
        << "server accepted a corrupt frame: " << payload;
    EXPECT_FALSE(reply.get_string("error", "").empty());
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

std::string frame_bytes(const std::string& payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.push_back(static_cast<char>((n >> 24) & 0xff));
  out.push_back(static_cast<char>((n >> 16) & 0xff));
  out.push_back(static_cast<char>((n >> 8) & 0xff));
  out.push_back(static_cast<char>(n & 0xff));
  out += payload;
  return out;
}

class ProtocolFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ServiceServer>(tiny_server_options("fuzz"));
    server_->start();
  }

  /// The liveness probe the corpus asserts after every mutant: a fresh
  /// connection still gets a hello and answers ping, and the mutant
  /// leaked no session into the registry.
  void assert_server_healthy() {
    ServiceClient probe =
        ServiceClient::connect_unix(server_->options().unix_path);
    EXPECT_TRUE(probe.ping().get_bool("ok", false));
    const Json stats = probe.stats();
    EXPECT_EQ(stats.get_int("active_sessions", -1), 0);
  }

  void run_mutant(const std::string& bytes) {
    RawConn conn(server_->options().unix_path);
    conn.send_bytes(bytes);
    conn.half_close();
    conn.expect_error_or_drop();
    assert_server_healthy();
  }

  std::unique_ptr<ServiceServer> server_;
};

TEST_F(ProtocolFuzz, TruncatedLengthPrefixes) {
  const std::string full = frame_bytes("{\"op\":\"ping\",\"id\":1}");
  for (std::size_t cut = 1; cut < kFrameHeaderBytes; ++cut) {
    run_mutant(full.substr(0, cut));
  }
}

TEST_F(ProtocolFuzz, MidFrameDisconnects) {
  const std::string full = frame_bytes("{\"op\":\"ping\",\"id\":1}");
  for (const std::size_t cut :
       {kFrameHeaderBytes, kFrameHeaderBytes + 1, full.size() - 1}) {
    run_mutant(full.substr(0, cut));
  }
}

TEST_F(ProtocolFuzz, UndersizedAndOversizedDeclaredLengths) {
  run_mutant(std::string("\x00\x00\x00\x00", 4));  // len 0 < minimum 2
  run_mutant(std::string("\x00\x00\x00\x01", 4) + "x");
  // Declares 1 GiB; the server must refuse without trying to read it.
  run_mutant(std::string("\x40\x00\x00\x00", 4));
}

TEST_F(ProtocolFuzz, MalformedJsonPayloads) {
  for (const std::string payload :
       {"{]", "{\"op\":", "ping", "\xff\xfe garbage \x00x", "[1,2,3",
        "{\"op\":\"ping\"", "{{}}"}) {
    run_mutant(frame_bytes(payload));
  }
}

TEST_F(ProtocolFuzz, ValidJsonWrongShape) {
  // Parses fine, but is not a usable request: structured error expected.
  for (const std::string payload :
       {"[1,2,3]", "42", "\"ping\"", "{\"id\":1}",
        "{\"op\":\"no_such_op\",\"id\":7}",
        "{\"op\":\"open\",\"id\":8}",                 // missing path
        "{\"op\":\"flow\",\"id\":9,\"session\":\"nope\"}"}) {
    RawConn conn(server_->options().unix_path);
    conn.send_bytes(frame_bytes(payload));
    std::string reply_payload;
    ASSERT_TRUE(read_frame(conn.fd(), reply_payload, kDefaultMaxFrameBytes));
    const Json reply = Json::parse(reply_payload);
    EXPECT_FALSE(reply.get_bool("ok", true)) << payload;
    EXPECT_FALSE(reply.get_string("error", "").empty()) << payload;
    assert_server_healthy();
  }
}

TEST_F(ProtocolFuzz, RandomByteSoup) {
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(1, 64);
  for (int trial = 0; trial < 24; ++trial) {
    std::string soup(len(rng), '\0');
    for (char& c : soup) c = static_cast<char>(byte(rng));
    // Cap the declared length so a random prefix cannot make the server
    // legitimately wait for gigabytes we will never send.
    soup[0] = 0;
    soup[1] = 0;
    run_mutant(soup);
  }
}

TEST_F(ProtocolFuzz, CorruptFrameAfterValidTraffic) {
  // A connection that was speaking the protocol correctly, then breaks
  // it: the good request is answered, the bad one errors or drops.
  RawConn conn(server_->options().unix_path);
  conn.send_bytes(frame_bytes("{\"op\":\"ping\",\"id\":1}"));
  std::string payload;
  ASSERT_TRUE(read_frame(conn.fd(), payload, kDefaultMaxFrameBytes));
  EXPECT_TRUE(Json::parse(payload).get_bool("ok", false));
  conn.send_bytes(std::string("\x00\x00\x00\x01", 4));
  conn.half_close();
  conn.expect_error_or_drop();
  assert_server_healthy();
}

}  // namespace
}  // namespace dfm::service
