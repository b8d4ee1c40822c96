// One SWEB node as a real concurrent HTTP server: the transport half.
//
// NodeServer owns the sockets and the node's lifecycle; the per-request
// application (broker, brownout gate, board charge, document fulfil) lives
// in RequestApp (request_app.h), which this class drives once per parsed
// request. The paper's per-node pipeline — accept -> parse (preprocess) ->
// broker decision -> 302 redirect to a better node, or serve the document
// — thus splits at the parsed request. The X-Sweb-Redirected request
// header (or the `sweb-hop=1` query marker) enforces the at-most-once
// redirect rule across real connections.
//
// Concurrency: a single reactor thread runs an edge-triggered epoll event
// loop over nonblocking sockets. Every connection is a small state machine
// (header read -> parse -> serve -> write) that resumes partial reads and
// writes on readiness, so an idle keep-alive connection costs a few hundred
// bytes of state instead of a parked thread. Admission is bounded by
// Config::max_connections (48 by default); arrivals past it are shed with
// one best-effort nonblocking 503 Service Unavailable, which is what makes
// the broker's effective_connections() signal meaningful. Deadlines (the
// slowloris 408 header budget, silent idle keep-alive close, write stalls)
// live in a min-heap timer wheel with lazy invalidation. CGI handlers —
// the only CPU-bound stage — run on a small pool (Config::max_workers) and
// hand their responses back to the loop through an eventfd wakeup.
//
// Observability: every node serves GET /sweb/status — a JSON snapshot of
// its loadd view (each peer's last update and age, Δ-inflation), its own
// counters, and the attached registry — and GET /sweb/metrics, the same
// registry in Prometheus text-exposition format. With a SpanTracer
// attached, each request leaves preprocess/analysis/redirect/data/send
// spans in real time; the request id is propagated through the 302
// (`sweb-rid` query param + X-SWEB-Request-Id header) so the origin and
// target nodes' spans stitch into one logical trace.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "http/message.h"
#include "http/parser.h"
#include "obs/audit.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "runtime/chaos.h"
#include "runtime/doc_store.h"
#include "runtime/load_board.h"
#include "runtime/node_cache.h"
#include "runtime/overload.h"
#include "runtime/reactor.h"
#include "runtime/request_app.h"
#include "runtime/socket.h"

namespace sweb::runtime {

class NodeServer {
 public:
  /// The application's knobs (node id, server name, broker, caches,
  /// tracer, audit, Retry-After hint) plus the transport's own.
  struct Config : RequestApp::Config {
    std::chrono::milliseconds io_timeout{2000};
    /// HTTP/1.0 keep-alive: requests served on one connection before the
    /// server closes it anyway (a fairness/robustness cap).
    int max_requests_per_connection = 32;
    /// CGI execution pool: the reactor offloads CGI handlers (the only
    /// CPU-bound stage) to up to this many threads (clamped to >= 1).
    int max_workers = 16;
    /// Hard cap on concurrently admitted connections (clamped to >= 1);
    /// arrivals past it are shed with 503.
    int max_connections = 48;
    /// Liveness lease period: how often this node stamps its own LoadBoard
    /// entry (the paper's 2-3 s loadd tick; sub-second in tests). Each
    /// stamp also runs the board's failure detector, so peers whose stamps
    /// aged past the board's staleness timeout get marked unavailable.
    std::chrono::milliseconds heartbeat_period{2000};
    /// Slowloris defense: one overall deadline for receiving a complete
    /// request (header + body) before the node answers 408 Request
    /// Timeout and reclaims the connection. Zero falls back to io_timeout.
    std::chrono::milliseconds header_timeout{0};
    /// Overload control (off by default): the reactor samples queue delay
    /// and in-flight work into an OverloadController; brownout sheds CGI
    /// and non-resident documents, shedding refuses at accept with an
    /// adaptive Retry-After, and the broker routes 302s around the node.
    OverloadParams overload{};
    /// Degraded-link fault injection applied to every connection this node
    /// accepts (chaos drills); an inactive plan (the default) is free.
    FaultPlan chaos{};
    std::uint64_t chaos_seed = ChaosDirector::kDefaultSeed;
    /// Optional metrics sink (typically the MiniCluster's; may be null).
    /// Without a registry the node counts into one of its own, which
    /// /sweb/status and /sweb/metrics do not export.
    obs::Registry* registry = nullptr;
    /// Slow-request forensics sink (typically the MiniCluster's; may be
    /// null). A request whose measured total exceeds `slow_budget` — or
    /// that rode a chaos-faulted connection — leaves one JSONL record
    /// carrying its full phase vector and request id.
    obs::SlowLog* slow_log = nullptr;
    /// The slow budget. Zero: only chaos-faulted requests are recorded.
    std::chrono::milliseconds slow_budget{0};
  };

  /// Binds an ephemeral loopback port immediately; serving starts at
  /// start(). `peer_ports` must be filled (by the MiniCluster) before
  /// start() so redirects know the other nodes' addresses.
  NodeServer(Config config, const DocStore& docs, LoadBoard& board);
  ~NodeServer();
  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }
  [[nodiscard]] int node_id() const noexcept { return config_.node_id; }

  void set_peer_ports(std::vector<std::uint16_t> ports) {
    app_.set_peer_ports(std::move(ports));
  }

  void start();
  void stop();

  // --- Fault injection (tests, benches, chaos drills) --------------------
  /// Abrupt node death: closes the listener (connects are refused), kills
  /// the reactor/CGI/heartbeat threads — WITHOUT touching the board's
  /// availability. Peers must discover the death via the failure detector
  /// (missed heartbeats), exactly as they would a real crash.
  void crash();
  /// Zombie node: stops heartbeating only. The node still accepts and
  /// serves, but its liveness lease lapses and peers mark it unavailable.
  void hang();
  /// Undoes crash()/hang(): rebinds the same port if the listener was
  /// closed, restarts the threads, and resumes heartbeats — the board
  /// re-admits the node on the first stamp (counted as a rejoin).
  void recover();
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  /// Installs (or replaces) the degraded-link fault plan live — every
  /// connection accepted from now on is degraded per `plan`. An inactive
  /// plan switches injection off.
  void set_chaos(const FaultPlan& plan,
                 std::uint64_t seed = ChaosDirector::kDefaultSeed) {
    chaos_.configure(plan, seed);
  }
  /// The injector itself (tests read connections_faulted/resets_injected).
  [[nodiscard]] ChaosDirector& chaos() noexcept { return chaos_; }

  [[nodiscard]] std::uint64_t requests_handled() const noexcept {
    return handled_.load();
  }
  /// Admitted connections currently held by the reactor.
  [[nodiscard]] int active_connections() const noexcept {
    return active_conns_.load(std::memory_order_relaxed);
  }
  /// The admission cap: connections at/past it are shed with 503.
  [[nodiscard]] int connection_cap() const noexcept {
    return std::max(1, config_.max_connections);
  }
  /// Connections answered 503 because the admission cap was reached or
  /// the node was shedding at accept.
  [[nodiscard]] std::uint64_t shed_count() const noexcept {
    return metrics_.shed.value();
  }
  /// Per-reason client-visible error counts (also in /sweb/status under
  /// "errors_by_reason"; 503s are shed_count() plus brownout rejections).
  [[nodiscard]] std::uint64_t bad_requests() const noexcept {
    return metrics_.err400.value();
  }
  [[nodiscard]] std::uint64_t request_timeouts() const noexcept {
    return metrics_.err408.value();
  }
  [[nodiscard]] std::uint64_t not_found() const noexcept {
    return metrics_.err404.value();
  }

  // --- Overload control ---------------------------------------------------
  /// The admission governor (tests read estimates and transition counts).
  [[nodiscard]] const OverloadController& overload() const noexcept {
    return overload_;
  }
  [[nodiscard]] OverloadState overload_state() const {
    return overload_.state();
  }
  /// Test/drill hook: pin the controller's state and publish it (board
  /// flag + gauge) immediately, without waiting for the reactor's next
  /// evaluation. Pair with a large min_dwell_s (or a disabled controller)
  /// when the pin must hold against evaluate().
  void force_overload(OverloadState state);
  /// Brownout rejections by class, plus accepts refused while shedding.
  [[nodiscard]] std::uint64_t overload_shed_cgi() const noexcept {
    return metrics_.shed_cgi.value();
  }
  [[nodiscard]] std::uint64_t overload_shed_uncached() const noexcept {
    return metrics_.shed_uncached.value();
  }
  [[nodiscard]] std::uint64_t overload_shed_accept() const noexcept {
    return metrics_.shed_accept.value();
  }

 private:
  /// Per-connection state machine. Owned by the reactor loop; every field
  /// is touched from the loop thread only.
  struct Conn {
    enum class State {
      kReading,        // pumping header/body bytes into the parser
      kDeferredRead,   // chaos defer or throttle pacing before the next read
      kCgiWait,        // handler running on the CGI pool; awaiting handback
      kWriting,        // pumping the response out
      kDeferredWrite,  // chaos defer or throttle pacing before the next send
    };

    /// Everything one request/response exchange owns. A keep-alive
    /// connection starts the next request by assigning a fresh one, so no
    /// field can leak from one request into the next.
    struct Exchange {
      http::RequestParser parser = http::RequestParser();
      bool got_bytes = false;  // the first byte of this request arrived
      bool keep_alive = false;

      // Chaos gates ({read,write}_defer charged once per I/O op).
      bool read_gate_passed = false;
      bool write_gate_passed = false;
      bool throttled_min_read = false;
      bool throttled_min_write = false;
      bool response_started = false;  // first send of this response done

      // Phase attribution: every gap between attentions is charged to
      // wait_phase; synchronous work laps directly.
      obs::PhaseClock clock;
      std::chrono::steady_clock::time_point request_start{};
      std::chrono::steady_clock::time_point phase_mark{};
      obs::Phase wait_phase = obs::Phase::kHeaderRead;
      double queue_wait_s = 0.0;   // accept -> first attention (1st request)
      double t_parse_start = 0.0;  // tracer timestamps
      double t_send_start = 0.0;
      std::uint64_t trace_id = 0;
      bool inflight_marked = false;

      // Response write state.
      std::string head;  // serialized status line + headers
      std::shared_ptr<const std::string> body;  // null when bodiless
      std::size_t written = 0;
      int status = 0;
      std::string method;
      std::string path;
      bool suppress_record = false;  // /sweb/* scrape exclusion
      /// Parsed requests count as handled only once written; 400s and
      /// 408s count even when the write fails.
      bool count_handled_on_success = false;
      bool observe_response_hist = false;

      RequestApp::CgiPending cgi;  // the handback's charge and timestamps
    };

    TcpStream stream;
    std::uint64_t id = 0;
    State state = State::kReading;
    bool can_read = false;   // edge-triggered readiness cache
    bool can_write = true;   // a fresh socket is writable
    std::string leftover;    // bytes past the parsed request (pipelining)
    int served = 0;          // requests completed on this connection

    // Deadlines and the connection's timer-heap entry.
    Deadline read_deadline{};
    Deadline write_deadline{};
    bool has_write_deadline = false;
    std::chrono::steady_clock::time_point defer_until{};
    std::uint64_t timer_gen = 0;  // lazy invalidation of heap entries
    bool timer_armed = false;
    std::chrono::steady_clock::time_point timer_when{};

    std::chrono::steady_clock::time_point accepted_at{};
    bool first_attention = true;

    Exchange ex;

    /// Keep-alive think time: a later request whose first byte has not
    /// arrived yet. The gap is the client's, not service.
    [[nodiscard]] bool idle() const noexcept {
      return served > 0 && !ex.got_bytes;
    }
  };

  // --- Reactor loop -------------------------------------------------------
  void reactor_loop(const std::stop_token& token);
  void accept_ready();
  void admit(TcpStream stream);
  void shed(TcpStream stream);
  void destroy_conn(std::uint64_t id);
  void clear_conns();
  /// Charges the gap since the last attention to the connection's wait
  /// phase (or starts the request clocks on first attention).
  void attend(Conn& conn);
  void lap(Conn& conn, obs::Phase phase);
  /// Marks the first byte of a request; on a keep-alive connection this
  /// restarts the request clocks (think time excluded).
  void begin_request(Conn& conn);
  /// Pumps reads/parse until EAGAIN, a defer, or a complete request.
  /// All drive_*/finish_* helpers return false when the connection was
  /// destroyed.
  [[nodiscard]] bool drive_read(Conn& conn);
  [[nodiscard]] bool finish_parse(Conn& conn, http::ParseResult state);
  /// Answers /sweb/status and /sweb/metrics; nullopt for any other target.
  [[nodiscard]] std::optional<http::Response> introspect(
      const http::Request& request) const;
  /// Sends response's head, then `body` — or the response's inline body,
  /// moved into that slot. Time since the caller's phase_mark is write.
  [[nodiscard]] bool start_write(Conn& conn, http::Response response,
                                 std::shared_ptr<const std::string> body);
  [[nodiscard]] bool drive_write(Conn& conn);
  [[nodiscard]] bool write_complete(Conn& conn, bool ok);
  [[nodiscard]] bool on_timer(Conn& conn);
  [[nodiscard]] bool read_timed_out(Conn& conn);
  void start_defer(Conn& conn, Conn::State state,
                   std::chrono::milliseconds delay, obs::Phase wait_phase);
  void arm_conn_timer(Conn& conn);
  void finish_cgi(CgiPool::Result result);
  /// Re-evaluates the overload state machine (once per loop wake) and, on
  /// a transition, publishes it: LoadBoard overload flag + state gauge.
  void evaluate_overload();
  [[nodiscard]] std::chrono::milliseconds read_budget() const noexcept;

  /// Stamps this node's liveness lease every heartbeat_period and runs the
  /// board's failure detector over the peers.
  void heartbeat_loop(const std::stop_token& token);
  /// Stamps the first heartbeat synchronously (so the node is joined the
  /// moment start()/recover() returns) and launches the heartbeat thread.
  void start_heartbeat();
  void stop_heartbeat();
  void stop_serving();  // reactor thread, CGI pool, admitted connections

  /// Flushes a finished request's phase vector into the per-phase
  /// histograms and, when it blew the slow budget or rode a chaos-faulted
  /// connection, into the slow log.
  void record_phases(const Conn& conn);

  /// The /sweb/status introspection body: this node's view of the world.
  [[nodiscard]] http::Response status_response() const;
  /// The /sweb/metrics body: the registry in Prometheus text format.
  [[nodiscard]] http::Response metrics_response() const;

  /// Fresh cluster-unique request id (tracer-backed when one is attached,
  /// else node-local).
  [[nodiscard]] std::uint64_t next_request_id();

  [[nodiscard]] bool tracing() const noexcept {
    return config_.tracer != nullptr && config_.tracer->enabled();
  }

  Config config_;
  LoadBoard& board_;
  /// Backs the instruments when no registry is attached.
  obs::Registry own_registry_;
  NodeMetrics metrics_;
  OverloadController overload_;
  RequestApp app_;
  /// Last state pushed to the board/gauge; reactor-thread-only (forced
  /// publishes from test threads write the board directly and converge).
  OverloadState published_overload_ = OverloadState::kHealthy;
  ChaosDirector chaos_;
  TcpListener listener_;
  std::jthread thread_;  // the reactor loop
  // Reactor state: owned and touched by the loop thread only (stop_serving
  // clears conns_ strictly after joining the thread).
  WakeFd wake_;
  std::unique_ptr<CgiPool> pool_;
  std::unique_ptr<Epoller> epoller_;
  TimerHeap timers_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  // 0/1 tag the listener and the wakeup
  std::atomic<int> active_conns_{0};
  std::atomic<std::uint64_t> handled_{0};
  std::atomic<std::uint64_t> local_ids_{1};  // fallback id source, no tracer
  std::chrono::steady_clock::time_point started_at_{};
  // Liveness: the heartbeat thread sleeps on hb_cv_ so a stop request
  // interrupts the wait mid-period instead of burning a whole tick.
  std::jthread heartbeat_thread_;
  std::mutex hb_mutex_;
  std::condition_variable_any hb_cv_;
  bool crashed_ = false;
};

}  // namespace sweb::runtime
