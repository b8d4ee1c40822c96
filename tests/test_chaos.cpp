// Degraded-network chaos layer, end to end: every injected fault type
// (latency, throttle, torn writes, first-read stall, mid-stream reset),
// the server's slow-client defenses (408 header deadline, 400 on garbage,
// Retry-After on shed 503s), and the client retry policy that bridges all
// of it (backoff budget, Retry-After honoring, idempotency gating).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fs/docbase.h"
#include "http/parser.h"
#include "obs/registry.h"
#include "runtime/chaos.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"
#include "runtime/socket.h"

namespace sweb::runtime {
namespace {

using namespace std::chrono_literals;

fs::Docbase small_docbase(int nodes) {
  return fs::make_uniform(12, 4096, nodes, fs::Placement::kRoundRobin,
                          nullptr, "/docs");
}

[[nodiscard]] std::chrono::milliseconds elapsed_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
}

/// Spins until `predicate` holds or `timeout` passes; true on success.
template <typename Predicate>
[[nodiscard]] bool eventually(Predicate predicate,
                              std::chrono::milliseconds timeout = 5000ms) {
  const Deadline deadline = deadline_after(timeout);
  while (!predicate()) {
    if (time_remaining(deadline) <= 0ms) return false;
    std::this_thread::sleep_for(2ms);
  }
  return true;
}

/// Reads one full HTTP response off `stream`; nullopt on failure/timeout.
[[nodiscard]] std::optional<http::Response> try_read_response(
    TcpStream& stream, std::chrono::milliseconds timeout = 2000ms) {
  http::ResponseParser parser;
  http::ParseResult state = http::ParseResult::kNeedMore;
  const Deadline deadline = deadline_after(timeout);
  while (state == http::ParseResult::kNeedMore) {
    const auto chunk = stream.read_some(16 * 1024, time_remaining(deadline));
    if (!chunk.ok) return std::nullopt;
    if (chunk.eof) {
      state = parser.finish_eof();
      break;
    }
    std::size_t consumed = 0;
    state = parser.feed(chunk.data, consumed);
  }
  if (state != http::ParseResult::kComplete) return std::nullopt;
  return parser.message();
}

/// A listener with chaos attached plus one connected client/server stream
/// pair whose server side carries the director's fault plan.
struct ChaosPair {
  TcpListener listener{0};
  ChaosDirector director;
  TcpStream client;
  TcpStream server;
};

[[nodiscard]] bool connect_pair(ChaosPair& pair, const FaultPlan& plan) {
  pair.director.configure(plan);
  pair.listener.set_chaos(&pair.director);
  auto client = TcpStream::connect(
      SocketAddress::loopback(pair.listener.port()), 2000ms);
  if (!client) return false;
  pair.client = std::move(*client);
  auto server = pair.listener.accept(2000ms);
  if (!server) return false;
  pair.server = std::move(*server);
  return true;
}

// --- Socket-level fault injection ------------------------------------------

TEST(Chaos, ReadDelayInjectsLatency) {
  ChaosPair pair;
  FaultPlan plan;
  plan.read_delay = 80ms;
  ASSERT_TRUE(connect_pair(pair, plan));
  ASSERT_TRUE(pair.client.write_all("ping", 2000ms));
  const auto start = std::chrono::steady_clock::now();
  const auto chunk = pair.server.read_some(16, 2000ms);
  EXPECT_TRUE(chunk.ok);
  EXPECT_EQ(chunk.data, "ping");
  // The injected delay lands on the degraded (server) side of the link.
  EXPECT_GE(elapsed_since(start), 60ms);
}

TEST(Chaos, FirstReadStallFiresExactlyOnce) {
  FaultPlan plan;
  plan.first_read_stall = 80ms;
  ConnectionFaults faults(plan, /*seed=*/1, /*doomed=*/false, nullptr);
  auto start = std::chrono::steady_clock::now();
  (void)faults.before_read(1024);
  EXPECT_GE(elapsed_since(start), 60ms);  // the one-time stall
  start = std::chrono::steady_clock::now();
  (void)faults.before_read(1024);
  EXPECT_LT(elapsed_since(start), 40ms);  // later reads run clean
}

TEST(Chaos, ThrottlePacesWritesToTheConfiguredRate) {
  ChaosPair pair;
  FaultPlan plan;
  plan.throttle_bytes_per_sec = 8 * 1024;
  ASSERT_TRUE(connect_pair(pair, plan));
  const std::string payload(4096, 'x');
  std::string received;
  std::thread reader([&] {
    while (received.size() < payload.size()) {
      const auto chunk = pair.client.read_some(16 * 1024, 3000ms);
      if (!chunk.ok || chunk.eof) break;
      received += chunk.data;
    }
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(pair.server.write_all(payload, 5000ms));
  // 4096 B at 8192 B/s is half a second of pacing (margin for scheduling).
  EXPECT_GE(elapsed_since(start), 300ms);
  reader.join();
  EXPECT_EQ(received, payload);
}

TEST(Chaos, TornWritesClampSegmentsButDeliverEveryByte) {
  FaultPlan plan;
  plan.torn_write_max_bytes = 128;
  ConnectionFaults faults(plan, /*seed=*/1, /*doomed=*/false, nullptr);
  bool reset_now = true;
  EXPECT_LE(faults.clamp_write(10 * 1024, reset_now), 128u);
  EXPECT_FALSE(reset_now);

  ChaosPair pair;
  ASSERT_TRUE(connect_pair(pair, plan));
  std::string payload;
  for (int i = 0; i < 4096; ++i) payload.push_back(static_cast<char>(i));
  std::string received;
  std::thread reader([&] {
    while (received.size() < payload.size()) {
      const auto chunk = pair.client.read_some(16 * 1024, 3000ms);
      if (!chunk.ok || chunk.eof) break;
      received += chunk.data;
    }
  });
  EXPECT_TRUE(pair.server.write_all(payload, 5000ms));
  reader.join();
  EXPECT_EQ(received, payload);  // torn, not corrupted
}

TEST(Chaos, MidStreamResetAbortsTheTransfer) {
  ChaosPair pair;
  FaultPlan plan;
  plan.reset_first_connections = 1;
  plan.reset_after_bytes = 256;
  ASSERT_TRUE(connect_pair(pair, plan));
  const std::string payload(4096, 'y');
  // The doomed connection writes its 256 bytes, then dies with an RST.
  EXPECT_FALSE(pair.server.write_all(payload, 2000ms));
  EXPECT_EQ(pair.director.resets_injected(), 1u);
  std::string received;
  for (;;) {
    const auto chunk = pair.client.read_some(16 * 1024, 2000ms);
    if (!chunk.ok || chunk.eof) break;
    received += chunk.data;
  }
  EXPECT_LT(received.size(), payload.size());

  // Only the first connection was doomed; the next one runs clean.
  auto client2 = TcpStream::connect(
      SocketAddress::loopback(pair.listener.port()), 2000ms);
  ASSERT_TRUE(client2.has_value());
  auto server2 = pair.listener.accept(2000ms);
  ASSERT_TRUE(server2.has_value());
  EXPECT_TRUE(server2->write_all(payload, 2000ms));
  EXPECT_EQ(pair.director.resets_injected(), 1u);
}

TEST(Chaos, SameSeedDoomsTheSameConnections) {
  FaultPlan plan;
  plan.reset_probability = 0.5;
  plan.reset_after_bytes = 0;  // doomed connections reset on first write
  const auto doom_pattern = [&plan](std::uint64_t seed) {
    ChaosDirector director;
    director.configure(plan, seed);
    std::vector<bool> pattern;
    for (int i = 0; i < 32; ++i) {
      const auto faults = director.admit();
      bool reset_now = false;
      (void)faults->clamp_write(64, reset_now);
      pattern.push_back(reset_now);
    }
    return pattern;
  };
  EXPECT_EQ(doom_pattern(7), doom_pattern(7));  // reproducible chaos
}

// --- Server hardening -------------------------------------------------------

TEST(Chaos, GarbageRequestAnswers400AndCloses) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  auto stream =
      TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
  ASSERT_TRUE(stream.has_value());
  ASSERT_TRUE(stream->write_all("GARBAGE\r\n\r\n", 2000ms));
  const auto response = try_read_response(*stream);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(http::code(response->status), 400);
  EXPECT_EQ(response->headers.get("Connection"), "close");
  EXPECT_TRUE(response->headers.has("Server"));
  EXPECT_EQ(cluster.node(0).bad_requests(), 1u);
}

TEST(Chaos, OversizedRequestLineAnswers400) {
  // The request line blows past ParserLimits::max_request_line (8 KB)
  // without ever finishing — the parser must reject it, not buffer forever.
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  auto stream =
      TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
  ASSERT_TRUE(stream.has_value());
  const std::string huge = "GET /" + std::string(10 * 1024, 'a');
  ASSERT_TRUE(stream->write_all(huge, 2000ms));
  const auto response = try_read_response(*stream);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(http::code(response->status), 400);
  EXPECT_EQ(cluster.node(0).bad_requests(), 1u);
}

TEST(Chaos, SlowlorisClientGets408WithinHeaderDeadline) {
  MiniClusterOptions options;
  options.header_timeout = 300ms;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  auto stream =
      TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
  ASSERT_TRUE(stream.has_value());
  // Trickle one header byte per 100 ms — far slower than the deadline —
  // then go quiet and listen. (No writes once the 408 may have fired: a
  // write racing the server's close would RST away the buffered response.)
  const std::string request = "GET /docs/file0.html HTTP/1.0\r\n\r\n";
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(stream->write_all(std::string(1, request[i]), 500ms));
    std::this_thread::sleep_for(100ms);
  }
  const auto response = try_read_response(*stream);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(http::code(response->status), 408);
  EXPECT_EQ(response->headers.get("Connection"), "close");
  // Answered within the header deadline (plus slack), not io_timeout.
  EXPECT_LT(elapsed_since(start), 1500ms);
  EXPECT_EQ(cluster.node(0).request_timeouts(), 1u);
  // The slot freed itself: the node drains back to no connections.
  EXPECT_TRUE(
      eventually([&] { return cluster.node(0).active_connections() == 0; }));
}

TEST(Chaos, Shed503CarriesRetryAfterHint) {
  MiniClusterOptions options;
  options.max_connections = 2;
  options.retry_after_hint = 1500ms;  // rounds up to "2" on the wire
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  // Two silent connections fill the cap; subsequent ones are shed with
  // 503 + Retry-After at accept.
  std::vector<TcpStream> held;
  std::optional<http::Response> shed_response;
  for (int i = 0; i < 20 && !shed_response.has_value(); ++i) {
    auto conn =
        TcpStream::connect(SocketAddress::loopback(cluster.port(0)), 2000ms);
    ASSERT_TRUE(conn.has_value());
    if (conn->wait_readable(300ms)) {
      shed_response = try_read_response(*conn);
    } else {
      held.push_back(std::move(*conn));  // admitted: hold it
    }
  }
  ASSERT_TRUE(shed_response.has_value());
  EXPECT_EQ(http::code(shed_response->status), 503);
  EXPECT_EQ(shed_response->headers.get("Retry-After"), "2");
  EXPECT_GE(cluster.node(0).shed_count(), 1u);
}

TEST(Chaos, ShedOnDegradedLinkNeverStallsTheReactor) {
  // The shed 503 goes out from the reactor thread itself. A degraded
  // link's write delay must not apply to it: three sheds on a 400 ms
  // write-delay link would otherwise park the loop for 1.2 s, and every
  // admitted connection with it.
  MiniClusterOptions options;
  options.max_connections = 1;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  const auto address = SocketAddress::loopback(cluster.port(0));
  http::Request request;
  request.target = "/docs/file0.html";
  request.headers.add("Connection", "Keep-Alive");
  // A: a clean keep-alive connection, admitted before the link degrades.
  auto a = TcpStream::connect(address, 2000ms);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(a->write_all(request.serialize(), 2000ms));
  const auto first = try_read_response(*a);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(http::code(first->status), 200);

  FaultPlan slow;
  slow.write_delay = 400ms;
  cluster.set_chaos(0, slow);
  std::vector<TcpStream> shed;
  for (int i = 0; i < 3; ++i) {
    auto conn = TcpStream::connect(address, 2000ms);
    ASSERT_TRUE(conn.has_value());
    shed.push_back(std::move(*conn));
  }
  std::this_thread::sleep_for(50ms);  // the loop is now at the sheds

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(a->write_all(request.serialize(), 2000ms));
  const auto second = try_read_response(*a);
  const auto elapsed = elapsed_since(start);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(http::code(second->status), 200);
  EXPECT_LT(elapsed, 200ms);
  for (TcpStream& conn : shed) {
    const auto busy = try_read_response(conn);
    ASSERT_TRUE(busy.has_value());
    EXPECT_EQ(http::code(busy->status), 503);
  }
  EXPECT_EQ(cluster.node(0).shed_count(), 3u);
}

TEST(Chaos, StatusReportsErrorsByReasonAndChaosState) {
  MiniCluster cluster(1, small_docbase(1));
  cluster.start();
  const std::string base =
      "http://127.0.0.1:" + std::to_string(cluster.port(0));
  const auto missing = fetch(base + "/docs/no-such-file.html");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(http::code(missing->response.status), 404);
  const auto status = fetch(base + "/sweb/status");
  ASSERT_TRUE(status.has_value());
  const std::string& body = status->response.body;
  EXPECT_NE(body.find("\"errors_by_reason\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"404\":1"), std::string::npos) << body;
  EXPECT_NE(body.find("\"chaos\":"), std::string::npos) << body;
  EXPECT_NE(body.find("\"enabled\":false"), std::string::npos) << body;
}

// --- Client retry policy ----------------------------------------------------

TEST(Chaos, InjectedResetIsRecoveredByClientRetry) {
  MiniClusterOptions options;
  options.chaos_node = 0;
  options.chaos.reset_first_connections = 1;
  options.chaos.reset_after_bytes = 0;  // RST before the first response byte
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  obs::Registry client_metrics;
  FetchOptions fetch_options;
  fetch_options.registry = &client_metrics;
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(cluster.port(0)) +
                "/docs/file0.html",
            fetch_options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->response.body.size(), 4096u);
  EXPECT_EQ(result->attempts, 2);  // one reset, one clean retry
  EXPECT_EQ(cluster.node(0).chaos().resets_injected(), 1u);
  EXPECT_EQ(client_metrics.counter("client.retries").value(), 1u);
}

TEST(Chaos, InjectedResetWithoutRetryFailsTheFetch) {
  MiniClusterOptions options;
  options.chaos_node = 0;
  options.chaos.reset_first_connections = 1;
  options.chaos.reset_after_bytes = 0;
  MiniCluster cluster(1, small_docbase(1), options);
  cluster.start();
  obs::Registry client_metrics;
  FetchOptions fetch_options;
  fetch_options.registry = &client_metrics;
  fetch_options.retry.max_attempts = 1;  // retries off
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(cluster.port(0)) +
                "/docs/file0.html",
            fetch_options);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(client_metrics.counter("client.retry_exhausted").value(), 1u);
}

TEST(Chaos, ClientHonorsRetryAfterOn503) {
  // A hand-rolled server: sheds the first request with Retry-After: 0.2
  // (fractional delta-seconds), serves the second. The client must wait at
  // least the hint before re-asking.
  TcpListener listener(0);
  std::thread server([&listener] {
    for (int i = 0; i < 2; ++i) {
      auto peer = listener.accept(5000ms);
      if (!peer) return;
      (void)peer->read_some(16 * 1024, 2000ms);
      const char* reply =
          i == 0 ? "HTTP/1.0 503 Service Unavailable\r\n"
                   "Retry-After: 0.2\r\nContent-Length: 0\r\n\r\n"
                 : "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok";
      (void)peer->write_all(reply, 2000ms);
      peer->shutdown_write();
    }
  });
  obs::Registry client_metrics;
  FetchOptions options;
  options.registry = &client_metrics;
  options.retry.base_backoff = 1ms;  // the hint, not the backoff, dominates
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(listener.port()) + "/x",
            options);
  server.join();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 200);
  EXPECT_EQ(result->attempts, 2);
  EXPECT_GE(elapsed_since(start), 150ms);  // slept the Retry-After floor
  EXPECT_EQ(client_metrics.counter("client.retries").value(), 1u);
}

TEST(Chaos, ExhaustedRetriesReturnTheLast503) {
  // Every attempt is shed: the caller must see the server's final word (a
  // 503), not a bare nullopt.
  TcpListener listener(0);
  std::atomic<int> sheds{0};
  std::jthread server([&listener, &sheds](const std::stop_token& token) {
    while (!token.stop_requested()) {
      auto peer = listener.accept(100ms);
      if (!peer) continue;
      (void)peer->read_some(16 * 1024, 2000ms);
      (void)peer->write_all(
          "HTTP/1.0 503 Service Unavailable\r\n"
          "Retry-After: 0.05\r\nContent-Length: 0\r\n\r\n",
          2000ms);
      peer->shutdown_write();
      ++sheds;
    }
  });
  FetchOptions options;
  options.retry.max_attempts = 3;
  options.retry.base_backoff = 1ms;
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(listener.port()) + "/x",
            options);
  server.request_stop();
  server.join();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 503);
  EXPECT_EQ(result->attempts, 3);
  EXPECT_EQ(sheds.load(), 3);
}

TEST(Chaos, PostIsNeverRetried) {
  // Non-idempotent requests must not be resent: one 503 is the answer,
  // and the server sees exactly one request.
  TcpListener listener(0);
  std::atomic<int> requests{0};
  std::jthread server([&listener, &requests](const std::stop_token& token) {
    while (!token.stop_requested()) {
      auto peer = listener.accept(100ms);
      if (!peer) continue;
      (void)peer->read_some(16 * 1024, 2000ms);
      (void)peer->write_all(
          "HTTP/1.0 503 Service Unavailable\r\n"
          "Retry-After: 0.01\r\nContent-Length: 0\r\n\r\n",
          2000ms);
      peer->shutdown_write();
      ++requests;
    }
  });
  FetchOptions options;
  options.post_body = "x=1";
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(listener.port()) + "/cgi",
            options);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(http::code(result->response.status), 503);
  EXPECT_EQ(result->attempts, 1);
  server.request_stop();
  server.join();
  EXPECT_EQ(requests.load(), 1);
}

TEST(Chaos, RetryBudgetBoundsTotalFetchTime) {
  // Nothing listens on the target port: every attempt fails instantly, so
  // only the deadline budget stops the loop — and it must.
  std::uint16_t dead_port = 0;
  {
    TcpListener placeholder(0);
    dead_port = placeholder.port();
  }  // closed: connects now get ECONNREFUSED
  obs::Registry client_metrics;
  FetchOptions options;
  options.registry = &client_metrics;
  options.retry.max_attempts = 1000;
  options.retry.base_backoff = 20ms;
  options.retry.max_backoff = 50ms;
  options.retry.total_deadline = 250ms;
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      fetch("http://127.0.0.1:" + std::to_string(dead_port) + "/x", options);
  EXPECT_FALSE(result.has_value());
  EXPECT_LT(elapsed_since(start), 1000ms);  // budget held, 1000 tries did not
  EXPECT_EQ(client_metrics.counter("client.retry_exhausted").value(), 1u);
}

// --- Cluster drill: degraded link, zero client-visible errors ---------------

TEST(Chaos, DegradedNodeStillServesEveryRequestIntact) {
  MiniClusterOptions options;
  options.chaos_node = 0;
  options.chaos.read_delay = 2ms;
  options.chaos.write_delay = 2ms;
  options.chaos.delay_jitter = 2ms;
  options.chaos.torn_write_max_bytes = 256;
  options.chaos.throttle_bytes_per_sec = 512 * 1024;
  MiniCluster cluster(2, small_docbase(2), options);
  cluster.start();
  obs::Registry client_metrics;
  FetchOptions fetch_options;
  fetch_options.registry = &client_metrics;
  FetchSession session(fetch_options);
  // Every document through the degraded node: slower, never wrong.
  for (int d = 0; d < 12; ++d) {
    const std::string url =
        "http://127.0.0.1:" + std::to_string(cluster.port(0)) + "/docs/file" +
        std::to_string(d) + ".html";
    const auto result = session.fetch(url);
    ASSERT_TRUE(result.has_value()) << url;
    EXPECT_EQ(http::code(result->response.status), 200) << url;
    EXPECT_EQ(result->response.body.size(), 4096u) << url;
  }
  EXPECT_GT(cluster.node(0).chaos().connections_faulted(), 0u);
}

}  // namespace
}  // namespace sweb::runtime
