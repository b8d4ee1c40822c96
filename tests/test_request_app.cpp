// RequestApp without sockets: the broker, brownout and board-charge
// decisions of one node, driven directly from a DocStore, a LoadBoard and
// a CacheDirectory. Every branch here is deterministic — no reactor, no
// timing.
#include "runtime/request_app.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fs/docbase.h"
#include "http/date.h"
#include "obs/phase.h"
#include "obs/registry.h"

namespace sweb::runtime {
namespace {

constexpr std::uint64_t kDocBytes = 4096;

/// Two nodes; the app under test is node 0. Round-robin placement makes
/// file0 node 0's own document and file1 node 1's.
struct AppFixture {
  fs::Docbase docbase = fs::make_uniform(4, kDocBytes, 2,
                                         fs::Placement::kRoundRobin);
  DocStore docs{docbase};
  LoadBoard board{2};
  CacheDirectory caches{2, 1024 * 1024};
  obs::Registry registry;
  NodeMetrics metrics{registry, 0};
  OverloadController overload;
  std::unique_ptr<RequestApp> app;

  AppFixture() {
    docs.register_cgi("/cgi/echo.cgi", 0,
                      [](const http::Request&, std::string_view query) {
                        return http::make_ok(std::string(query),
                                             "text/plain");
                      });
    board.heartbeat(0);
    board.heartbeat(1);
    RequestApp::Config config;
    config.node_id = 0;
    config.caches = &caches;
    app = std::make_unique<RequestApp>(config, docs, board, overload,
                                       metrics);
    app->set_peer_ports({8000, 8001});
  }

  RequestApp::Outcome handle(http::Method method, const std::string& target,
                             std::uint64_t trace_id = 0) {
    http::Request request;
    request.method = method;
    request.target = target;
    return handle(request, trace_id);
  }
  RequestApp::Outcome handle(const http::Request& request,
                             std::uint64_t trace_id = 0) {
    obs::PhaseClock clock;
    return app->handle(request, trace_id, clock);
  }

  /// Nothing left charged on node 0, and no charge ever closed twice.
  void expect_board_settled() const {
    const NodeLoad self = board.snapshot(0);
    EXPECT_EQ(self.active_connections, 0);
    EXPECT_EQ(self.bytes_in_flight, 0u);
    EXPECT_EQ(board.underflows(), 0u);
  }
};

TEST(RequestApp, OwnerRedirectCarriesHopMarkerAndRequestId) {
  AppFixture f;
  const auto out = f.handle(http::Method::kGet, "/docs/file1.html", 42);
  EXPECT_EQ(out.cgi, nullptr);
  EXPECT_EQ(http::code(out.response.status), 302);
  EXPECT_EQ(out.response.headers.get("Location"),
            "http://127.0.0.1:8001/docs/file1.html?sweb-hop=1&sweb-rid=42");
  EXPECT_EQ(out.response.headers.get("X-SWEB-Request-Id"), "42");
  EXPECT_EQ(f.board.snapshot(1).redirect_inflation, 1);
  EXPECT_EQ(f.metrics.redirects.value(), 1u);
  f.expect_board_settled();
}

TEST(RequestApp, AlreadyHoppedRequestIsNeverRedirected) {
  AppFixture f;
  // Node 0 looks far busier than the owner: a fresh request would bounce.
  for (int i = 0; i < 10; ++i) f.board.connection_opened(0, 0);
  EXPECT_EQ(http::code(f.handle(http::Method::kGet, "/docs/file0.html")
                           .response.status),
            302);
  const auto hopped =
      f.handle(http::Method::kGet, "/docs/file1.html?sweb-hop=1&sweb-rid=7");
  EXPECT_EQ(http::code(hopped.response.status), 200);
  EXPECT_EQ(hopped.response.headers.get("X-Sweb-Node"), "0");
  http::Request marked;
  marked.target = "/docs/file1.html";
  marked.headers.add("X-Sweb-Redirected", "1");
  EXPECT_EQ(http::code(f.handle(marked).response.status), 200);
  EXPECT_EQ(f.metrics.redirects.value(), 1u);
  for (int i = 0; i < 10; ++i) f.board.connection_closed(0, 0);
  f.expect_board_settled();
}

TEST(RequestApp, BrownoutShedsOnlyNonResidentGets) {
  AppFixture f;
  f.overload.force_state(OverloadState::kBrownout, 0.0);
  const auto cold = f.handle(http::Method::kGet, "/docs/file0.html");
  EXPECT_EQ(http::code(cold.response.status), 503);
  EXPECT_TRUE(cold.response.headers.get("Retry-After").has_value());
  EXPECT_EQ(f.metrics.shed_uncached.value(), 1u);
  EXPECT_EQ(f.metrics.err503.value(), 1u);
  f.expect_board_settled();

  // Cheap work still goes through: HEAD, a fresh conditional GET, and a
  // document already resident in this node's cache.
  EXPECT_EQ(http::code(f.handle(http::Method::kHead, "/docs/file0.html")
                           .response.status),
            200);
  f.expect_board_settled();
  http::Request conditional;
  conditional.target = "/docs/file0.html";
  conditional.headers.add("If-Modified-Since",
                          http::format_http_date(2000000000));
  EXPECT_EQ(http::code(f.handle(conditional).response.status), 304);
  f.expect_board_settled();
  f.caches.node(0).insert("/docs/file0.html", kDocBytes);
  const auto warm = f.handle(http::Method::kGet, "/docs/file0.html");
  EXPECT_EQ(http::code(warm.response.status), 200);
  EXPECT_EQ(warm.body, f.docs.find("/docs/file0.html")->content);  // alias
  EXPECT_EQ(f.metrics.shed_uncached.value(), 1u);
  f.expect_board_settled();

  const auto cgi = f.handle(http::Method::kGet, "/cgi/echo.cgi?x=1");
  EXPECT_EQ(cgi.cgi, nullptr);
  EXPECT_EQ(http::code(cgi.response.status), 503);
  EXPECT_EQ(f.metrics.shed_cgi.value(), 1u);
  f.expect_board_settled();
}

TEST(RequestApp, EveryInlineOutcomeSettlesTheBoard) {
  AppFixture f;
  const auto cold = f.handle(http::Method::kGet, "/docs/file0.html", 5);
  EXPECT_EQ(http::code(cold.response.status), 200);
  ASSERT_NE(cold.body, nullptr);
  EXPECT_EQ(cold.body->size(), kDocBytes);
  EXPECT_NE(cold.body, f.docs.find("/docs/file0.html")->content);  // copy
  EXPECT_EQ(cold.response.headers.get("X-SWEB-Request-Id"), "5");
  EXPECT_EQ(cold.response.headers.get("Server"), "SWEB/1.0");
  EXPECT_TRUE(f.caches.resident(0, "/docs/file0.html"));  // admitted
  f.expect_board_settled();

  EXPECT_EQ(http::code(f.handle(http::Method::kGet, "/docs/missing.html")
                           .response.status),
            404);
  EXPECT_EQ(f.metrics.err404.value(), 1u);
  EXPECT_EQ(http::code(f.handle(http::Method::kUnknown, "/docs/file0.html")
                           .response.status),
            501);
  EXPECT_EQ(http::code(f.handle(http::Method::kPost, "/docs/file0.html")
                           .response.status),
            501);
  EXPECT_EQ(http::code(f.handle(http::Method::kGet, "/../etc/passwd")
                           .response.status),
            400);
  f.expect_board_settled();
  EXPECT_EQ(f.board.snapshot(0).served, 1u);
}

TEST(RequestApp, CgiOutcomeHandsItsChargeToTheCaller) {
  AppFixture f;
  auto out = f.handle(http::Method::kHead, "/cgi/echo.cgi?q=abc", 9);
  ASSERT_NE(out.cgi, nullptr);
  EXPECT_EQ(out.query, "q=abc");
  EXPECT_EQ(f.board.snapshot(0).active_connections, 1);  // still charged

  http::Request request;
  request.method = http::Method::kHead;
  http::Response response = (*out.cgi)(request, out.query);
  obs::PhaseClock clock;
  f.app->finish_cgi(response, out.pending, 9, clock);
  EXPECT_EQ(http::code(response.status), 200);
  EXPECT_TRUE(response.body.empty());  // HEAD: headers only
  EXPECT_EQ(response.headers.get("Content-Length"), "5");
  EXPECT_EQ(response.headers.get("X-Sweb-Node"), "0");
  EXPECT_EQ(response.headers.get("X-SWEB-Request-Id"), "9");
  f.expect_board_settled();

  // A caller that drops the outcome (its connection died mid-handler)
  // closes the charge exactly once.
  {
    const auto abandoned = f.handle(http::Method::kGet, "/cgi/echo.cgi");
    ASSERT_NE(abandoned.cgi, nullptr);
    EXPECT_EQ(f.board.snapshot(0).active_connections, 1);
  }
  f.expect_board_settled();
}

}  // namespace
}  // namespace sweb::runtime
