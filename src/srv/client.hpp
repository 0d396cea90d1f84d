// Client side of the lpmd protocol: connection management + frame
// plumbing for the lpmc CLI and the lpm_loadgen soak harness.
//
// The protocol is asynchronous — after `submit`, result frames for any of
// the client's jobs may arrive interleaved with acks for new submissions —
// so the API is deliberately event-shaped: senders fire one frame, and
// poll() returns whatever frame arrives next. Callers keep their own
// job-state maps (see tools/lpm_loadgen.cpp for the full
// resubmit/attach/dedup discipline).
//
// A client holds one endpoint (unix or tcp; see wire::Endpoint). connect()
// retries it until it accepts or the budget lapses, which is what makes
// kill-and-restart recovery exercisable from the outside: the harness
// SIGKILLs a server, restarts it on the same endpoint and journal, and
// every client simply reconnects, re-hellos, and attaches the ids it has
// not yet seen a terminal frame for.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "srv/job_spec.hpp"
#include "srv/wire.hpp"
#include "util/flat_json.hpp"

namespace lpm::srv {

class Client {
 public:
  /// `name` identifies this client to the server (job keys are
  /// "<name>/<id>"); must satisfy valid_name(). `endpoint` is one
  /// wire::Endpoint spelling ("unix:...", "tcp:host:port", bare path).
  Client(const std::string& endpoint, std::string name);

  /// Connects and completes the hello exchange, retrying a refused or
  /// absent endpoint until `budget_ms` lapses (the server may be
  /// mid-restart). Throws util::IoError when the budget runs out, and
  /// util::ConfigError when the server refuses our protocol version.
  void connect(std::uint64_t budget_ms = 5'000);
  /// True between a successful connect() and a peer-closed poll()/send.
  [[nodiscard]] bool connected() const { return fd_.valid(); }
  void disconnect();

  /// `recovered` count reported by the server's hello_ok on last connect.
  [[nodiscard]] std::uint64_t server_recovered() const { return recovered_; }
  /// Protocol version announced by the server's hello_ok on last connect.
  [[nodiscard]] int server_proto() const { return server_proto_; }

  /// Fire-and-forget senders; responses arrive via poll(). They return
  /// false (after dropping the connection) when the peer is gone.
  bool submit(const std::string& id, const JobSpec& spec);
  bool attach(const std::string& id);
  bool ping();
  bool request_stats();
  bool request_shutdown();

  /// The next frame from the server within `timeout_ms`, parsed. Empty on
  /// timeout; empty + connected()==false when the peer closed.
  [[nodiscard]] std::optional<util::FlatJson> poll(int timeout_ms);

 private:
  bool send(const std::string& payload);

  Endpoint endpoint_;
  std::string name_;
  Fd fd_;
  std::uint64_t recovered_ = 0;
  int server_proto_ = 0;
};

}  // namespace lpm::srv
