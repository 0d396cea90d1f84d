// TCP transport under adversarial conditions: Endpoint parsing, framing
// split at every byte boundary, an oversized length prefix rejected before
// allocation, a slow-loris client reaped by the server's idle deadline,
// ephemeral-port resolution, and a journaled restart on a fixed port.
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "srv/client.hpp"
#include "srv/server.hpp"
#include "srv/wire.hpp"
#include "util/error.hpp"

namespace lpm::srv {
namespace {

TEST(Endpoint, ParsesAllThreeSpellings) {
  const Endpoint unix_ep = Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(unix_ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
  EXPECT_EQ(unix_ep.to_string(), "unix:/tmp/x.sock");

  const Endpoint bare = Endpoint::parse("/tmp/y.sock");
  EXPECT_EQ(bare.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(bare.path, "/tmp/y.sock");

  const Endpoint tcp = Endpoint::parse("tcp:127.0.0.1:7800");
  EXPECT_EQ(tcp.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7800);
  EXPECT_EQ(tcp.to_string(), "tcp:127.0.0.1:7800");
}

TEST(Endpoint, Ipv6HostSplitsOnLastColon) {
  const Endpoint tcp = Endpoint::parse("tcp:::1:7800");
  EXPECT_EQ(tcp.host, "::1");
  EXPECT_EQ(tcp.port, 7800);
}

TEST(Endpoint, RejectsMalformedSpellings) {
  EXPECT_THROW(Endpoint::parse(""), util::ConfigError);
  EXPECT_THROW(Endpoint::parse("tcp:nohost"), util::ConfigError);
  EXPECT_THROW(Endpoint::parse("tcp:host:"), util::ConfigError);
  EXPECT_THROW(Endpoint::parse("tcp:host:notaport"), util::ConfigError);
  EXPECT_THROW(Endpoint::parse("tcp:host:70000"), util::ConfigError);
}

/// A loopback listener on an ephemeral port plus a connected client fd.
struct TcpPair {
  Fd listener;
  Fd client;
  Fd server;
};

TcpPair make_tcp_pair() {
  TcpPair pair;
  Endpoint ep = Endpoint::parse("tcp:127.0.0.1:0");
  pair.listener = listen_endpoint(ep);
  ep.port = bound_tcp_port(pair.listener);
  EXPECT_NE(ep.port, 0);
  pair.client = connect_endpoint(ep);
  auto accepted = accept_socket(pair.listener, 2'000);
  EXPECT_TRUE(accepted.has_value());
  pair.server = std::move(*accepted);
  return pair;
}

TEST(WireTcp, FrameRoundTripOverLoopback) {
  TcpPair pair = make_tcp_pair();
  const std::string payload = R"({"op":"ping","id":"tcp"})";
  ASSERT_EQ(write_frame(pair.client, payload, 2'000), IoStatus::kOk);
  std::string out;
  ASSERT_EQ(read_frame(pair.server, out, 2'000), IoStatus::kOk);
  EXPECT_EQ(out, payload);
}

TEST(WireTcp, EphemeralPortResolvesAndAcceptsAgain) {
  Endpoint ep = Endpoint::parse("tcp:127.0.0.1:0");
  Fd listener = listen_endpoint(ep);
  const std::uint16_t port = bound_tcp_port(listener);
  ASSERT_NE(port, 0);
  // Two sequential connections through the resolved port both succeed.
  for (int i = 0; i < 2; ++i) {
    Endpoint dial = Endpoint::parse("tcp:127.0.0.1:" + std::to_string(port));
    Fd c = connect_endpoint(dial);
    auto accepted = accept_socket(listener, 2'000);
    ASSERT_TRUE(accepted.has_value());
  }
}

// The reader must reassemble a frame no matter where the peer's writes
// split it — including inside the 4-byte length prefix. Drive every split
// point of a small frame through a raw TCP socket.
TEST(WireTcp, ReaderSurvivesSplitAtEveryByteBoundary) {
  const std::string payload = R"({"op":"ack","id":"split"})";
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::string raw;
  raw.push_back(static_cast<char>((len >> 24) & 0xff));
  raw.push_back(static_cast<char>((len >> 16) & 0xff));
  raw.push_back(static_cast<char>((len >> 8) & 0xff));
  raw.push_back(static_cast<char>(len & 0xff));
  raw += payload;

  for (std::size_t split = 1; split < raw.size(); ++split) {
    TcpPair pair = make_tcp_pair();
    std::thread writer([&] {
      // Two raw sends with a pause between them; TCP_NODELAY keeps each
      // as its own segment so the reader really sees a partial frame.
      ASSERT_EQ(::send(pair.client.get(), raw.data(), split, MSG_NOSIGNAL),
                static_cast<ssize_t>(split));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ASSERT_EQ(::send(pair.client.get(), raw.data() + split,
                       raw.size() - split, MSG_NOSIGNAL),
                static_cast<ssize_t>(raw.size() - split));
    });
    std::string out;
    ASSERT_EQ(read_frame(pair.server, out, 5'000), IoStatus::kOk)
        << "split at byte " << split;
    EXPECT_EQ(out, payload) << "split at byte " << split;
    writer.join();
  }
}

// A hostile length prefix over the cap must close the connection before
// any payload allocation — and promptly, not after a read timeout.
TEST(WireTcp, OversizedPrefixRejectedBeforeAllocation) {
  TcpPair pair = make_tcp_pair();
  const std::uint32_t huge = kMaxFramePayload + 1;
  unsigned char prefix[4] = {
      static_cast<unsigned char>((huge >> 24) & 0xff),
      static_cast<unsigned char>((huge >> 16) & 0xff),
      static_cast<unsigned char>((huge >> 8) & 0xff),
      static_cast<unsigned char>(huge & 0xff)};
  ASSERT_EQ(::send(pair.client.get(), prefix, sizeof(prefix), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(prefix)));
  const auto started = std::chrono::steady_clock::now();
  std::string out;
  EXPECT_EQ(read_frame(pair.server, out, 30'000), IoStatus::kClosed);
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(5))
      << "oversized prefix should be rejected immediately, not via timeout";
}

// A slow-loris client — connected over TCP, dribbling no complete frame —
// must be reaped by the server's idle deadline, not allowed to pin a
// reader thread forever.
TEST(WireTcp, SlowLorisClientIsReapedByIdleDeadline) {
  Server::Options opts;
  opts.endpoint = "tcp:127.0.0.1:0";
  opts.workers = 1;
  opts.idle_timeout_ms = 300;
  Server server(opts);
  server.start();

  Fd loris = connect_endpoint(Endpoint::parse(server.bound_endpoint()));
  // One byte of a would-be length prefix, then silence.
  const char crumb = 0;
  ASSERT_EQ(::send(loris.get(), &crumb, 1, MSG_NOSIGNAL), 1);

  // The server shuts the connection down once the idle budget lapses: our
  // next read sees EOF rather than hanging.
  std::string out;
  const IoStatus status = read_frame(loris, out, 10'000);
  EXPECT_EQ(status, IoStatus::kClosed);

  // And an honest client still gets service afterwards.
  Client client(server.bound_endpoint(), "after-loris");
  client.connect(5'000);
  EXPECT_TRUE(client.ping());
  const auto pong = client.poll(3'000);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->get_string("op").value_or(""), "pong");
  server.stop();
}

// End-to-end sanity: the whole job protocol runs unchanged over TCP.
TEST(WireTcp, ServerServesJobsOverTcp) {
  Server::Options opts;
  opts.endpoint = "tcp:127.0.0.1:0";
  opts.workers = 1;
  Server server(opts);
  server.start();
  ASSERT_NE(server.bound_endpoint().find("tcp:127.0.0.1:"), std::string::npos);

  Client client(server.bound_endpoint(), "tcp1");
  client.connect(5'000);
  EXPECT_EQ(client.server_proto(), kProtocolVersion);
  JobSpec spec;
  spec.backend = "rdh";
  spec.length = 1000;
  ASSERT_TRUE(client.submit("j1", spec));
  bool done = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done && std::chrono::steady_clock::now() < deadline) {
    const auto frame = client.poll(500);
    if (!frame) continue;
    if (frame->get_string("op").value_or("") == "done") done = true;
    ASSERT_NE(frame->get_string("op").value_or(""), "error");
  }
  EXPECT_TRUE(done);
  server.stop();
}

// A journaled server killed and restarted on the same fixed TCP port: the
// listener rebinds at once (SO_REUSEADDR, although the old connections
// linger in TIME_WAIT), and a client that reconnects and attaches gets the
// done frame replayed from the journal exactly once.
TEST(WireTcp, ClientRecoversAfterServerRestartOnSamePort) {
  using Clock = std::chrono::steady_clock;
  Server::Options opts;
  opts.endpoint = "tcp:127.0.0.1:0";
  opts.journal_path = testing::TempDir() + std::to_string(::getpid()) +
                      "_tcp_restart.journal";
  std::remove(opts.journal_path.c_str());
  opts.workers = 1;
  auto server = std::make_unique<Server>(opts);
  server->start();
  opts.endpoint = server->bound_endpoint();  // pin the port for the restart

  Client client(opts.endpoint, "t1");
  client.connect(5'000);
  JobSpec spec;
  spec.backend = "rdh";  // analytic: instant
  spec.length = 1000;
  spec.seed = 5;
  ASSERT_TRUE(client.submit("j1", spec));
  bool done = false;
  for (auto deadline = Clock::now() + std::chrono::seconds(20);
       !done && Clock::now() < deadline;) {
    const auto frame = client.poll(200);
    done = frame && frame->get_string("op").value_or("") == "done";
  }
  ASSERT_TRUE(done);

  server->stop();
  server = std::make_unique<Server>(opts);
  server->start();
  EXPECT_EQ(server->bound_endpoint(), opts.endpoint);

  // The old session died with the first incarnation; the client notices on
  // its next poll, then reconnects and attaches.
  for (auto deadline = Clock::now() + std::chrono::seconds(5);
       client.connected() && Clock::now() < deadline;) {
    (void)client.poll(100);
  }
  ASSERT_FALSE(client.connected());
  client.connect(10'000);
  ASSERT_TRUE(client.attach("j1"));

  int dones = 0;
  auto until = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < until) {
    const auto frame = client.poll(100);
    if (!frame) continue;
    const std::string op = frame->get_string("op").value_or("");
    ASSERT_NE(op, "error") << frame->get_string("code").value_or("");
    if (op == "done" && ++dones == 1) {
      // Keep listening a little: a duplicate replay would arrive now.
      until = Clock::now() + std::chrono::milliseconds(500);
    }
  }
  EXPECT_EQ(dones, 1);
  server->stop();
  std::remove(opts.journal_path.c_str());
}

}  // namespace
}  // namespace lpm::srv
