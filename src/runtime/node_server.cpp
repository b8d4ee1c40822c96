#include "runtime/node_server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <charconv>
#include <optional>

#include "http/message.h"
#include "http/url.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sweb::runtime {

using namespace std::chrono_literals;

namespace {

// Epoll tags 0 and 1 are the listener and the wakeup eventfd; connection
// ids start at 2 (NodeServer::next_conn_id_).
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::size_t kReadChunk = 16 * 1024;
// Upper bound on one epoll_wait so the loop re-checks its stop token even
// with no timers armed.
constexpr std::chrono::milliseconds kLoopTick{100};

[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value == 0) return std::nullopt;
  return value;
}

/// The request id a redirected request carries back in: the
/// X-SWEB-Request-Id header, or the `sweb-rid` query parameter (the form
/// that survives a standard browser following the 302's Location).
[[nodiscard]] std::optional<std::uint64_t> incoming_request_id(
    const http::Request& request) {
  if (const auto header = request.headers.get("X-SWEB-Request-Id")) {
    if (const auto id = parse_u64(*header)) return id;
  }
  const std::string& target = request.target;
  constexpr std::string_view kParam = "sweb-rid=";
  for (std::size_t at = target.find(kParam); at != std::string::npos;
       at = target.find(kParam, at + 1)) {
    // Require a separator before the key so "xsweb-rid=" doesn't match.
    if (at > 0 && target[at - 1] != '?' && target[at - 1] != '&') continue;
    std::size_t end = at + kParam.size();
    while (end < target.size() &&
           target[end] >= '0' && target[end] <= '9') {
      ++end;
    }
    if (const auto id =
            parse_u64(std::string_view(target).substr(at + kParam.size(),
                                                      end - at -
                                                          kParam.size()))) {
      return id;
    }
  }
  return std::nullopt;
}

}  // namespace

NodeServer::NodeServer(Config config, const DocStore& docs, LoadBoard& board)
    : config_(std::move(config)),
      board_(board),
      metrics_(config_.registry != nullptr ? *config_.registry
                                           : own_registry_,
               config_.node_id),
      overload_(config_.overload),
      app_(config_, docs, board, overload_, metrics_),
      listener_(0) {
  if (config_.chaos.active()) {
    chaos_.configure(config_.chaos, config_.chaos_seed);
  }
  listener_.set_chaos(&chaos_);
  pool_ = std::make_unique<CgiPool>(std::max(1, config_.max_workers), wake_);
}

NodeServer::~NodeServer() { stop(); }

void NodeServer::start_heartbeat() {
  // First stamp before the thread exists: the node is in the pool the
  // moment this returns, so a caller's immediate fetch cannot race the
  // first tick and find the node still unavailable.
  board_.heartbeat(config_.node_id);
  heartbeat_thread_ = std::jthread(
      [this](const std::stop_token& token) { heartbeat_loop(token); });
}

void NodeServer::stop_heartbeat() {
  if (heartbeat_thread_.joinable()) {
    heartbeat_thread_.request_stop();
    heartbeat_thread_.join();
  }
}

void NodeServer::stop_serving() {
  // The reactor thread first (the wake makes its epoll_wait return
  // promptly), then the CGI pool — a running handler finishes, its result
  // is simply never collected. Admitted connections are cleared strictly
  // after the join; destroying them closes the sockets — that is the drain.
  if (thread_.joinable()) {
    thread_.request_stop();
    wake_.notify();
    thread_.join();
  }
  pool_->stop();
  clear_conns();
}

void NodeServer::start() {
  if (thread_.joinable()) return;
  started_at_ = std::chrono::steady_clock::now();
  if (config_.tracer != nullptr) {
    config_.tracer->set_process_name(
        config_.node_id, "node " + std::to_string(config_.node_id));
  }
  pool_->start();
  thread_ = std::jthread(
      [this](const std::stop_token& token) { reactor_loop(token); });
  start_heartbeat();
}

void NodeServer::stop() {
  const bool was_active =
      thread_.joinable() || heartbeat_thread_.joinable();
  stop_heartbeat();
  stop_serving();
  // Graceful leave: the node announces its departure instead of letting
  // the failure detector discover it (and unlike a sweep, this does not
  // count toward liveness.marked_down). The overload flag is cleared too —
  // a stopped node must not come back still branded browned-out.
  if (was_active) {
    board_.set_available(config_.node_id, false);
    board_.set_overloaded(config_.node_id, false);
  }
  crashed_ = false;
}

void NodeServer::crash() {
  // Order matters: join the reactor thread before closing its listener fd
  // so the loop is never polling a dead descriptor. The board is
  // deliberately NOT told — discovering the silence is the failure
  // detector's job.
  stop_heartbeat();
  stop_serving();
  listener_.close();
  crashed_ = true;
}

void NodeServer::hang() { stop_heartbeat(); }

void NodeServer::recover() {
  if (crashed_) {
    // Same port: every peer captured it in its peer ports at cluster build.
    listener_ = TcpListener(listener_.port());
    // The rebind built a fresh listener with no chaos attachment — a node
    // that recovered onto a still-degraded link must stay degraded.
    listener_.set_chaos(&chaos_);
    pool_->start();
    thread_ = std::jthread(
        [this](const std::stop_token& token) { reactor_loop(token); });
  }
  if (!heartbeat_thread_.joinable()) start_heartbeat();
  crashed_ = false;
}

void NodeServer::heartbeat_loop(const std::stop_token& token) {
  util::set_thread_log_context("node " + std::to_string(config_.node_id) +
                               "/hb");
  std::unique_lock<std::mutex> lock(hb_mutex_);
  while (!token.stop_requested()) {
    // Nothing ever signals hb_cv_; the wait is purely a stop-interruptible
    // sleep for one heartbeat period.
    hb_cv_.wait_for(lock, token, config_.heartbeat_period,
                    [] { return false; });
    if (token.stop_requested()) break;
    board_.heartbeat(config_.node_id);
    board_.sweep_stale();
  }
  util::set_thread_log_context({});
}

std::chrono::milliseconds NodeServer::read_budget() const noexcept {
  return config_.header_timeout > 0ms ? config_.header_timeout
                                      : config_.io_timeout;
}

// --- The reactor loop ------------------------------------------------------

void NodeServer::reactor_loop(const std::stop_token& token) {
  // Availability is not set here: joining the pool is the heartbeat's job
  // (start_heartbeat stamps it), and leaving is either stop()'s explicit
  // announcement or — after a crash — the failure detector's discovery.
  util::set_thread_log_context("node " + std::to_string(config_.node_id));
  epoller_ = std::make_unique<Epoller>();
  timers_ = TimerHeap{};
  listener_.set_nonblocking(true);
  // The listener and the wakeup stay level-triggered: a backlog left
  // behind by a transient accept error re-fires on the next wait instead
  // of starving until the next fresh connect.
  (void)epoller_->add(listener_.fd(), EPOLLIN, kListenerTag);
  (void)epoller_->add(wake_.fd(), EPOLLIN, kWakeTag);
  std::vector<Epoller::Event> events;
  events.reserve(64);
  while (!token.stop_requested()) {
    events.clear();
    epoller_->wait(events, timers_.next_delay(kLoopTick));
    if (token.stop_requested()) break;
    for (const Epoller::Event& event : events) {
      if (event.tag == kListenerTag) {
        accept_ready();
        continue;
      }
      if (event.tag == kWakeTag) {
        wake_.drain();
        for (CgiPool::Result& result : pool_->drain_results()) {
          finish_cgi(std::move(result));
        }
        continue;
      }
      const auto it = conns_.find(event.tag);
      if (it == conns_.end()) continue;  // closed before its event drained
      Conn& conn = *it->second;
      attend(conn);
      if ((event.events & (EPOLLERR | EPOLLHUP)) != 0) {
        // Force both directions live so the next syscall surfaces the
        // error instead of the state machine parking forever.
        conn.can_read = true;
        conn.can_write = true;
      }
      if ((event.events & (EPOLLIN | EPOLLRDHUP)) != 0) conn.can_read = true;
      if ((event.events & EPOLLOUT) != 0) conn.can_write = true;
      bool alive = true;
      if (conn.state == Conn::State::kReading) {
        alive = drive_read(conn);
      } else if (conn.state == Conn::State::kWriting) {
        alive = drive_write(conn);
      }
      // Deferred states wait for their timer; kCgiWait for its handback.
      if (alive) arm_conn_timer(conn);
    }
    TimerHeap::Entry due;
    const auto now = std::chrono::steady_clock::now();
    while (timers_.pop_due(now, due)) {
      const auto it = conns_.find(due.conn_id);
      if (it == conns_.end() || it->second->timer_gen != due.generation) {
        continue;  // stale entry: superseded, or the connection is gone
      }
      if (on_timer(*it->second)) arm_conn_timer(*it->second);
    }
    // Once per wake (at worst every kLoopTick, even idle): re-evaluate the
    // overload state machine and publish transitions to the board/gauge.
    evaluate_overload();
  }
  epoller_.reset();
  util::set_thread_log_context({});
}

void NodeServer::accept_ready() {
  // In shedding, arrivals are refused at the door regardless of the cap:
  // the node is behind on work it already holds, and the adaptive
  // Retry-After (estimated drain time) tells the herd when to come back.
  const bool shedding = overload_.state() == OverloadState::kShedding;
  for (;;) {
    auto stream = listener_.accept_nb();
    if (!stream) return;
    if (shedding) {
      metrics_.shed_accept.inc();
      shed(std::move(*stream));
      continue;
    }
    if (static_cast<int>(conns_.size()) >= connection_cap()) {
      shed(std::move(*stream));
      continue;
    }
    admit(std::move(*stream));
  }
}

void NodeServer::admit(TcpStream stream) {
  auto conn = std::make_unique<Conn>();
  Conn& c = *conn;
  c.stream = std::move(stream);
  c.id = next_conn_id_++;
  c.stream.set_nonblocking(true);
  const auto now = std::chrono::steady_clock::now();
  c.accepted_at = now;
  c.ex.phase_mark = now;
  c.read_deadline = deadline_after(read_budget());
  if (!epoller_->add(c.stream.fd(),
                     EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, c.id)) {
    return;  // registration failed: drop the connection
  }
  conns_.emplace(c.id, std::move(conn));
  active_conns_.store(static_cast<int>(conns_.size()),
                      std::memory_order_relaxed);
  arm_conn_timer(c);
}

void NodeServer::shed(TcpStream stream) {
  metrics_.shed.inc();
  metrics_.err503.inc();
  // This connection never reaches connection_opened, so the Δ-inflation a
  // redirect placed on this (overloaded) node must be consumed here.
  board_.note_shed(config_.node_id);
  http::Response busy = http::make_error(http::Status::kServiceUnavailable,
                                         "connection limit reached");
  busy.headers.add("Server", config_.server_name);
  busy.headers.set("Connection", "close");
  busy.headers.set("Retry-After", std::to_string(app_.retry_after_now()));
  // One best-effort nonblocking send from the loop: a fresh connection's
  // send buffer is empty, so the whole reply fits. The stream's chaos
  // faults are deliberately bypassed — a faulted link must never sleep the
  // reactor once per shed connection.
  const std::string wire = busy.serialize();
  const std::string_view segment = wire;
  (void)stream.write_some_v_nb(&segment, 1);
  stream.shutdown_write();
}

void NodeServer::evaluate_overload() {
  const OverloadState state =
      overload_.evaluate(board_.now_seconds(),
                         static_cast<int>(conns_.size()), connection_cap());
  if (state == published_overload_) return;
  published_overload_ = state;
  board_.set_overloaded(config_.node_id, state != OverloadState::kHealthy);
  metrics_.overload_state.set(static_cast<int>(state));
}

void NodeServer::force_overload(OverloadState state) {
  overload_.force_state(state, board_.now_seconds());
  board_.set_overloaded(config_.node_id, state != OverloadState::kHealthy);
  metrics_.overload_state.set(static_cast<int>(state));
}

void NodeServer::destroy_conn(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (c.ex.inflight_marked) metrics_.inflight.add(-1);
  if (epoller_ != nullptr) epoller_->remove(c.stream.fd());
  conns_.erase(it);  // an open CGI board charge closes with the connection
  active_conns_.store(static_cast<int>(conns_.size()),
                      std::memory_order_relaxed);
}

void NodeServer::clear_conns() {
  for (auto& [id, conn] : conns_) {
    if (conn->ex.inflight_marked) metrics_.inflight.add(-1);
  }
  conns_.clear();
  active_conns_.store(0, std::memory_order_relaxed);
}

void NodeServer::attend(Conn& c) {
  const auto now = std::chrono::steady_clock::now();
  if (c.first_attention) {
    // The accept→first-readiness gap is the reactor's queue_wait: time a
    // ready connection spent waiting for the loop's attention.
    c.first_attention = false;
    c.ex.queue_wait_s =
        std::chrono::duration<double>(now - c.accepted_at).count();
    c.ex.clock.add(obs::Phase::kQueueWait, c.ex.queue_wait_s);
    // The same measurement feeds the overload controller: queue_wait
    // growing is the earliest sign the loop is falling behind arrivals.
    overload_.record_queue_delay(board_.now_seconds(), c.ex.queue_wait_s);
    c.ex.request_start = now;
    c.ex.phase_mark = now;
    c.ex.t_parse_start = tracing() ? config_.tracer->now_seconds() : 0.0;
    return;
  }
  // Keep-alive think time is the client's, not service — the clocks
  // restart when the next request's first byte arrives (begin_request).
  if (!c.idle()) {
    c.ex.clock.add(c.ex.wait_phase,
                   std::chrono::duration<double>(now - c.ex.phase_mark)
                       .count());
  }
  c.ex.phase_mark = now;
}

void NodeServer::lap(Conn& c, obs::Phase phase) {
  const auto now = std::chrono::steady_clock::now();
  c.ex.clock.add(phase,
                 std::chrono::duration<double>(now - c.ex.phase_mark).count());
  c.ex.phase_mark = now;
}

void NodeServer::begin_request(Conn& c) {
  if (c.idle()) {
    const auto now = std::chrono::steady_clock::now();
    c.ex.request_start = now;
    c.ex.phase_mark = now;
    c.ex.t_parse_start = tracing() ? config_.tracer->now_seconds() : 0.0;
  }
  c.ex.got_bytes = true;
}

void NodeServer::start_defer(Conn& c, Conn::State state,
                             std::chrono::milliseconds delay,
                             obs::Phase wait_phase) {
  c.state = state;
  c.defer_until = std::chrono::steady_clock::now() + delay;
  c.ex.wait_phase = wait_phase;
}

void NodeServer::arm_conn_timer(Conn& c) {
  TimerHeap::TimePoint when;
  bool want = true;
  switch (c.state) {
    case Conn::State::kReading:
      when = c.read_deadline;
      break;
    case Conn::State::kDeferredRead:
    case Conn::State::kDeferredWrite:
      when = c.defer_until;
      break;
    case Conn::State::kWriting:
      if (c.has_write_deadline) {
        when = c.write_deadline;
      } else {
        want = false;
      }
      break;
    case Conn::State::kCgiWait:
      want = false;  // woken by the pool's handback, not a deadline
      break;
  }
  if (!want) {
    ++c.timer_gen;  // invalidate whatever entry is still in the heap
    c.timer_armed = false;
    return;
  }
  if (c.timer_armed && c.timer_when == when) return;  // already armed
  ++c.timer_gen;
  c.timer_armed = true;
  c.timer_when = when;
  timers_.arm(c.id, c.timer_gen, when);
}

bool NodeServer::on_timer(Conn& c) {
  attend(c);
  c.timer_armed = false;  // this generation's entry was just consumed
  const auto now = std::chrono::steady_clock::now();
  switch (c.state) {
    case Conn::State::kDeferredRead:
      if (now < c.defer_until) return true;  // rounding; re-arm
      c.state = Conn::State::kReading;
      return drive_read(c);
    case Conn::State::kDeferredWrite:
      if (now < c.defer_until) return true;
      c.state = Conn::State::kWriting;
      return drive_write(c);
    case Conn::State::kReading:
      if (now < c.read_deadline) return true;
      return read_timed_out(c);
    case Conn::State::kWriting:
      if (!c.has_write_deadline || now < c.write_deadline) return true;
      return write_complete(c, false);
    case Conn::State::kCgiWait:
      return true;
  }
  return true;
}

bool NodeServer::read_timed_out(Conn& c) {
  // Graceful silence for a keep-alive connection that simply went idle
  // between requests; a connection that ran out its budget mid-request (or
  // never sent its first one) is a slow client: tell it so and take the
  // slot back (the slowloris defense).
  if (c.idle()) {
    destroy_conn(c.id);
    return false;
  }
  metrics_.err408.inc();
  metrics_.errors.inc();
  http::Response timeout = http::make_error(
      http::Status::kRequestTimeout,
      "request not received within " +
          std::to_string(read_budget().count()) + " ms");
  timeout.headers.add("Server", config_.server_name);
  timeout.headers.set("Connection", "close");
  c.ex.trace_id = config_.slow_log != nullptr ? next_request_id() : 0;
  c.ex.status = 408;
  return start_write(c, std::move(timeout), nullptr);
}

bool NodeServer::drive_read(Conn& c) {
  for (;;) {
    // Pipelined bytes first: a complete next request may already be here.
    if (!c.leftover.empty()) {
      begin_request(c);
      std::size_t consumed = 0;
      const auto state = c.ex.parser.feed(c.leftover, consumed);
      c.leftover.erase(0, consumed);
      lap(c, obs::Phase::kParse);
      if (state != http::ParseResult::kNeedMore) {
        return finish_parse(c, state);
      }
    }
    if (!c.can_read) return true;  // parked until the next EPOLLIN edge
    ConnectionFaults* faults = c.stream.faults_state();
    std::size_t max = kReadChunk;
    if (faults != nullptr) {
      if (!c.ex.read_gate_passed) {
        const auto delay = faults->read_defer();
        c.ex.read_gate_passed = true;
        if (delay > 0ms) {
          start_defer(c, Conn::State::kDeferredRead, delay,
                      obs::Phase::kHeaderRead);
          return true;
        }
      }
      max = faults->clamp_read(max);
      if (max == 0 && !c.ex.throttled_min_read) {
        // A throttle slice below one byte paces instead of spinning: wait
        // one slice, then move at least one byte.
        c.ex.throttled_min_read = true;
        start_defer(c, Conn::State::kDeferredRead, faults->throttle_slice(),
                    obs::Phase::kHeaderRead);
        return true;
      }
      if (max == 0) max = 1;
      c.ex.throttled_min_read = false;
    }
    auto r = c.stream.read_nb(max);
    c.ex.read_gate_passed = false;  // the gated op happened; next op re-asks
    if (!r.ok) {
      destroy_conn(c.id);
      return false;
    }
    if (r.would_block) {
      c.can_read = false;
      return true;
    }
    if (r.eof) {
      // Client went away between or within requests: drop silently.
      destroy_conn(c.id);
      return false;
    }
    if (faults != nullptr) faults->note_read_nb(r.data.size());
    begin_request(c);
    lap(c, obs::Phase::kHeaderRead);
    std::size_t consumed = 0;
    const auto state = c.ex.parser.feed(r.data, consumed);
    lap(c, obs::Phase::kParse);
    if (state != http::ParseResult::kNeedMore) {
      if (state == http::ParseResult::kComplete) {
        c.leftover.assign(r.data, consumed, r.data.size() - consumed);
      }
      return finish_parse(c, state);
    }
  }
}

bool NodeServer::finish_parse(Conn& c, http::ParseResult state) {
  Conn::Exchange& ex = c.ex;
  const bool tracing_on = tracing();
  // Resolve the request id only once the request is parsed: a redirected
  // request carries the id its origin node assigned (header or query
  // param), and reusing it is what stitches the two nodes' spans — and
  // the audit's decision/outcome — and the slow log's forensics — into
  // one logical request.
  if (tracing_on || config_.audit != nullptr ||
      config_.slow_log != nullptr) {
    if (state == http::ParseResult::kComplete) {
      const auto incoming = incoming_request_id(ex.parser.message());
      ex.trace_id = incoming ? *incoming : next_request_id();
    } else {
      ex.trace_id = next_request_id();
    }
  }
  if (tracing_on) {
    trace_phase(*config_.tracer, config_.node_id, "preprocess", ex.trace_id,
                ex.t_parse_start);
  }
  metrics_.requests.inc();
  metrics_.inflight.add(1);
  ex.inflight_marked = true;

  if (state == http::ParseResult::kError) {
    metrics_.err400.inc();
    metrics_.errors.inc();
    http::Response bad =
        http::make_error(http::Status::kBadRequest, ex.parser.error());
    bad.headers.add("Server", config_.server_name);
    bad.headers.add("Connection", "close");
    ex.status = 400;
    ex.phase_mark = std::chrono::steady_clock::now();
    return start_write(c, std::move(bad), nullptr);
  }

  const http::Request& request = ex.parser.message();
  // HTTP/1.0: keep-alive only on explicit request (and not for the
  // headerless 0.9 simple requests).
  const auto connection_header = request.headers.get("Connection");
  const bool client_keep_alive =
      request.version_major >= 1 && connection_header.has_value() &&
      util::iequals(*connection_header, "keep-alive");
  ex.keep_alive = client_keep_alive &&
                  c.served + 1 < config_.max_requests_per_connection;
  ex.method = std::string(http::to_string(request.method));
  ex.path = request.target;
  // Introspection polls (/sweb/status, /sweb/metrics) are excluded from
  // phase recording so a dashboard scraping every 250 ms cannot pollute
  // the latency story.
  ex.suppress_record = request.target.rfind("/sweb/", 0) == 0;
  ex.count_handled_on_success = true;
  ex.observe_response_hist = true;

  const double attributed_before = ex.clock.measured_sum();
  const auto process_start = std::chrono::steady_clock::now();
  std::optional<http::Response> page;
  if (ex.suppress_record) page = introspect(request);
  RequestApp::Outcome out;
  if (page) {
    out.response = std::move(*page);
  } else {
    out = app_.handle(request, ex.trace_id, ex.clock);
  }
  // Tile the decomposition: whatever the application spent outside its
  // timed windows (target analysis, hop detection, completion bookkeeping,
  // error paths) lands in broker_decide — the paper's "SWEB analysis"
  // bucket — so the phase vector sums to the total.
  const double process_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    process_start)
          .count();
  const double attributed = ex.clock.measured_sum() - attributed_before;
  if (process_wall > attributed) {
    ex.clock.add(obs::Phase::kBrokerDecide, process_wall - attributed);
  }
  ex.phase_mark = std::chrono::steady_clock::now();

  if (out.cgi != nullptr) {
    // Offload the CPU-bound stage; the loop resumes at finish_cgi. The
    // request is copied into the job — the parser (and the connection)
    // could be gone before the handler runs.
    c.state = Conn::State::kCgiWait;
    ex.wait_phase = obs::Phase::kCgiExec;
    ex.cgi = std::move(out.pending);
    const auto submitted = std::chrono::steady_clock::now();
    pool_->submit(CgiPool::Job{
        c.id, [this, submitted, cgi = out.cgi, req = request,
               query = std::move(out.query)] {
          // Time on the pool's queue is queue delay every bit as much as
          // time between accept and the loop's first attention — and it is
          // the signal that keeps the controller engaged while a CGI
          // backlog drains, when the reactor-side symptoms (connection
          // pileup, accept latency) have already been relieved by the
          // brownout itself.
          overload_.record_queue_delay(
              board_.now_seconds(),
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            submitted)
                  .count());
          return (*cgi)(req, query);
        }});
    return true;
  }

  // A brownout 503 is response-scoped, not connection-scoped: a pipelined
  // keep-alive client with cheap cache-resident requests queued behind the
  // rejected one must get them served — that is the whole brownout
  // bargain. The slot itself is reclaimed by the accept-path shed once the
  // node escalates to kShedding.
  out.response.headers.set("Connection",
                           ex.keep_alive ? "Keep-Alive" : "close");
  ex.status = static_cast<int>(out.response.status);
  return start_write(c, std::move(out.response), std::move(out.body));
}

std::optional<http::Response> NodeServer::introspect(
    const http::Request& request) const {
  // Every node answers for itself, to the same methods the application
  // accepts; anything else under /sweb/ falls through to it (404/501).
  if (request.method != http::Method::kGet &&
      request.method != http::Method::kHead &&
      request.method != http::Method::kPost) {
    return std::nullopt;
  }
  const auto canonical = http::canonicalize_target(request.target);
  if (!canonical) return std::nullopt;
  std::optional<http::Response> page;
  if (canonical->path == "/sweb/status") page = status_response();
  if (canonical->path == "/sweb/metrics") page = metrics_response();
  if (page) page->headers.add("Server", config_.server_name);
  return page;
}

void NodeServer::finish_cgi(CgiPool::Result result) {
  const auto it = conns_.find(result.conn_id);
  if (it == conns_.end()) return;  // connection died; its charge is closed
  Conn& c = *it->second;
  if (c.state != Conn::State::kCgiWait) return;
  attend(c);  // the async execution span lands in cgi_exec
  http::Response ok = std::move(result.response);
  app_.finish_cgi(ok, c.ex.cgi, c.ex.trace_id, c.ex.clock);
  ok.headers.set("Connection", c.ex.keep_alive ? "Keep-Alive" : "close");
  c.ex.status = static_cast<int>(ok.status);
  if (start_write(c, std::move(ok), nullptr)) arm_conn_timer(c);
}

bool NodeServer::start_write(Conn& c, http::Response response,
                             std::shared_ptr<const std::string> body) {
  // One write path: the head, then the body slot, gathered one sendmsg at
  // a time. An inline body (302, error, CGI) moves into the slot; nothing
  // is concatenated. No re-mark: serialization is charged to write. The
  // exchange is fresh (one response per request), so its write cursor and
  // chaos gates start cleared.
  if (body == nullptr && !response.body.empty()) {
    body = std::make_shared<const std::string>(std::move(response.body));
  }
  c.ex.head = response.serialize_head();
  c.ex.body = std::move(body);
  c.has_write_deadline = false;
  c.state = Conn::State::kWriting;
  c.ex.wait_phase = obs::Phase::kWrite;
  c.ex.t_send_start = tracing() ? config_.tracer->now_seconds() : 0.0;
  if (c.stream.faults_state() == nullptr) {
    c.write_deadline = deadline_after(config_.io_timeout);
    c.has_write_deadline = true;
  }
  // With faults attached, the deadline starts after the first-send defer
  // resolves (chaos delays deliberately don't eat the write budget).
  return drive_write(c);
}

bool NodeServer::drive_write(Conn& c) {
  Conn::Exchange& ex = c.ex;
  for (;;) {
    const std::size_t total =
        ex.head.size() + (ex.body != nullptr ? ex.body->size() : 0);
    if (ex.written >= total) return write_complete(c, true);
    if (!c.can_write) return true;  // parked until the next EPOLLOUT edge
    ConnectionFaults* faults = c.stream.faults_state();
    std::size_t want = total - ex.written;
    if (faults != nullptr) {
      if (!ex.write_gate_passed) {
        const auto delay = faults->write_defer(!ex.response_started);
        ex.write_gate_passed = true;
        if (delay > 0ms) {
          start_defer(c, Conn::State::kDeferredWrite, delay,
                      obs::Phase::kWrite);
          return true;
        }
      }
      if (!c.has_write_deadline) {
        c.write_deadline = deadline_after(config_.io_timeout);
        c.has_write_deadline = true;
      }
      bool reset_now = false;
      want = faults->clamp_write(want, reset_now);
      if (reset_now) {
        c.stream.hard_reset();
        return write_complete(c, false);
      }
      if (want == 0 && !ex.throttled_min_write) {
        // Sub-byte throttle slice: pace one slice, then move one byte —
        // a zero clamp must never starve (or kill) the connection.
        ex.throttled_min_write = true;
        start_defer(c, Conn::State::kDeferredWrite, faults->throttle_slice(),
                    obs::Phase::kWrite);
        return true;
      }
      if (want == 0) want = 1;
      ex.throttled_min_write = false;
    }
    // Gather the remainder: serialized head first, then the body.
    std::string_view segments[2];
    std::size_t count = 0;
    std::size_t budget = want;
    if (ex.written < ex.head.size()) {
      const auto chunk = std::string_view(ex.head).substr(ex.written, budget);
      segments[count++] = chunk;
      budget -= chunk.size();
    }
    if (budget > 0 && ex.body != nullptr) {
      const std::size_t body_off =
          ex.written > ex.head.size() ? ex.written - ex.head.size() : 0;
      const auto chunk = std::string_view(*ex.body).substr(body_off, budget);
      if (!chunk.empty()) segments[count++] = chunk;
    }
    const auto w = c.stream.write_some_v_nb(segments, count);
    ex.write_gate_passed = false;
    if (!w.ok) return write_complete(c, false);
    if (w.would_block) {
      c.can_write = false;
      continue;  // loop top parks on !can_write
    }
    ex.response_started = true;
    if (faults != nullptr) faults->note_write_nb(w.written);
    ex.written += w.written;
  }
}

bool NodeServer::write_complete(Conn& c, bool ok) {
  Conn::Exchange& ex = c.ex;
  lap(c, obs::Phase::kWrite);
  if (tracing()) {
    trace_phase(*config_.tracer, config_.node_id, "send", ex.trace_id,
                ex.t_send_start);
  }
  const double total_s =
      ex.queue_wait_s +
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ex.request_start)
          .count();
  ex.clock.add(obs::Phase::kTotal, total_s);
  if (ex.observe_response_hist) metrics_.response_seconds.observe(total_s);
  if (!ex.suppress_record) record_phases(c);
  if (ok || !ex.count_handled_on_success) ++handled_;
  // Work leaving the system: the completion rate prices drain estimates.
  overload_.record_completion(board_.now_seconds());
  if (ex.inflight_marked) {
    metrics_.inflight.add(-1);
    ex.inflight_marked = false;
  }
  if (!ok || !ex.keep_alive) {
    if (ok) c.stream.shutdown_write();
    destroy_conn(c.id);
    return false;
  }
  // Next request on this keep-alive connection: a fresh exchange, and the
  // header budget restarts.
  c.served += 1;
  c.ex = Conn::Exchange{};
  c.state = Conn::State::kReading;
  c.read_deadline = deadline_after(read_budget());
  return drive_read(c);
}

void NodeServer::record_phases(const Conn& c) {
  const obs::PhaseClock& clock = c.ex.clock;
  for (const obs::Phase phase : obs::all_phases()) {
    const auto i = static_cast<std::size_t>(phase);
    if (clock.touched(phase)) metrics_.phases[i]->observe(clock.seconds(phase));
  }
  if (config_.slow_log == nullptr) return;
  const double budget_s =
      std::chrono::duration<double>(config_.slow_budget).count();
  const double total_s = clock.seconds(obs::Phase::kTotal);
  const bool over_budget = budget_s > 0.0 && total_s > budget_s;
  const bool chaos_faulted = c.stream.faulted();
  // Only outliers pay for forensics: budget breaches, plus every request
  // that rode a chaos-faulted connection (the drill's evidence trail).
  if (!over_budget && !chaos_faulted) return;
  obs::SlowRequestRecord record;
  record.ts_s = board_.now_seconds();
  record.rid = c.ex.trace_id;
  record.node = config_.node_id;
  record.method = c.ex.method;
  record.path = c.ex.path;
  record.status = c.ex.status;
  record.redirected = c.ex.status == 302;
  record.chaos_faulted = chaos_faulted;
  record.total_s = total_s;
  record.budget_s = budget_s;
  for (const obs::Phase phase : obs::all_phases()) {
    const auto i = static_cast<std::size_t>(phase);
    record.phase_s[i] = clock.touched(phase) ? clock.seconds(phase) : -1.0;
  }
  config_.slow_log->record(std::move(record));
}

std::uint64_t NodeServer::next_request_id() {
  // The shared tracer's counter keeps ids cluster-unique (it works even
  // when tracing itself is disabled); a lone node falls back to its own.
  if (config_.tracer != nullptr) return config_.tracer->next_request_id();
  return local_ids_.fetch_add(1, std::memory_order_relaxed);
}

http::Response NodeServer::metrics_response() const {
  if (config_.registry == nullptr) {
    return http::make_error(http::Status::kNotFound,
                            "no metrics registry attached");
  }
  http::Response response =
      http::make_ok(obs::prometheus_text(config_.registry->snapshot()),
                    "text/plain; version=0.0.4; charset=utf-8");
  response.headers.set("Cache-Control", "no-store");
  return response;
}

http::Response NodeServer::status_response() const {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_at_)
          .count();
  const double board_now = board_.now_seconds();
  const std::vector<NodeLoad> loads = board_.snapshot_all();

  obs::JsonWriter w;
  w.begin_object();
  w.key("node").value(config_.node_id);
  w.key("server").value(config_.server_name);
  w.key("uptime_seconds").value(uptime);
  w.key("requests_handled").value(handled_.load());
  w.key("inflight").value(metrics_.inflight.value());
  // The reactor's admission story: connections held right now, and the
  // cap past which arrivals are shed.
  w.key("connections")
      .value(static_cast<std::int64_t>(active_connections()));
  w.key("max_connections")
      .value(static_cast<std::int64_t>(connection_cap()));
  w.key("shed").value(shed_count());
  // Which kind of degradation this node is suffering, not just how much:
  // 400 = malformed input, 404 = misses, 408 = slow clients timed out,
  // 503 = load shed (cap/accept refusals plus brownout class rejections).
  // sweb-top sums these into its ERR column.
  w.key("errors_by_reason").begin_object();
  w.key("400").value(metrics_.err400.value());
  w.key("404").value(metrics_.err404.value());
  w.key("408").value(metrics_.err408.value());
  w.key("503").value(metrics_.err503.value());
  w.end_object();
  // Overload control: the admission governor's state and the signals it
  // runs on. States: "healthy" | "brownout" | "shedding"; sheds by class
  // show *why* a degraded node is refusing work (sweb-top's OVLD column
  // reads "state"; "enabled" false means the PR-9 static-cap behavior).
  w.key("overload").begin_object();
  w.key("enabled").value(overload_.enabled());
  w.key("state").value(std::string(overload_state_name(overload_.state())));
  w.key("queue_delay_estimate_s").value(overload_.queue_delay_estimate_s());
  w.key("completion_rate_rps").value(overload_.completion_rate_rps());
  w.key("estimated_drain_s").value(overload_.estimated_drain_s());
  w.key("retry_after_s")
      .value(static_cast<std::int64_t>(app_.retry_after_now()));
  w.key("transitions").value(overload_.transitions());
  w.key("shed_cgi").value(metrics_.shed_cgi.value());
  w.key("shed_uncached").value(metrics_.shed_uncached.value());
  w.key("shed_accept").value(metrics_.shed_accept.value());
  w.end_object();
  // Chaos: whether this node's link is artificially degraded, and the
  // damage done so far (only present knobs; an inert node reports false/0).
  w.key("chaos").begin_object();
  w.key("enabled").value(chaos_.enabled());
  w.key("connections_faulted").value(chaos_.connections_faulted());
  w.key("resets_injected").value(chaos_.resets_injected());
  w.end_object();
  // Liveness: this node's own availability (as the shared board sees it)
  // and the lease parameters the failure detector runs with.
  w.key("available")
      .value(loads[static_cast<std::size_t>(config_.node_id)].available);
  w.key("heartbeat_period_s")
      .value(std::chrono::duration<double>(config_.heartbeat_period).count());
  w.key("staleness_timeout_s").value(board_.liveness().staleness_timeout_s);
  // Per-phase latency breakdown: the streaming log-bucket histograms
  // compressed to count + p50/p95/p99. All eight phases always appear
  // (count 0 when nothing recorded yet) so scrapers key on a fixed shape.
  w.key("phases").begin_object();
  for (const obs::Phase phase : obs::all_phases()) {
    const auto value = obs::histogram_value(
        *metrics_.phases[static_cast<std::size_t>(phase)]);
    w.key(obs::phase_name(phase)).begin_object();
    w.key("count").value(value.count);
    w.key("p50_s").value(obs::histogram_quantile(value, 0.50));
    w.key("p95_s").value(obs::histogram_quantile(value, 0.95));
    w.key("p99_s").value(obs::histogram_quantile(value, 0.99));
    w.end_object();
  }
  w.end_object();
  // Runtime page cache: this node's residency budget and hit/miss history
  // — the zero-copy hot path's scoreboard (sweb-top's CACHE column reads
  // hits/misses; the broker's discount reads residency live).
  w.key("cache").begin_object();
  const NodeCache* cache =
      config_.caches != nullptr && config_.caches->enabled()
          ? &config_.caches->node(config_.node_id)
          : nullptr;
  w.key("enabled").value(cache != nullptr);
  w.key("capacity_bytes").value(cache != nullptr ? cache->capacity()
                                                 : std::uint64_t{0});
  w.key("used_bytes").value(cache != nullptr ? cache->used()
                                             : std::uint64_t{0});
  w.key("entries").value(cache != nullptr ? cache->entries()
                                          : std::uint64_t{0});
  w.key("hits").value(cache != nullptr ? cache->hits() : std::uint64_t{0});
  w.key("misses").value(cache != nullptr ? cache->misses()
                                         : std::uint64_t{0});
  w.key("hit_rate").value(cache != nullptr ? cache->hit_rate() : 0.0);
  w.end_object();
  // Slow-request forensics: how many outliers the attached slow log has
  // taken cluster-wide, and the budget this node enforces.
  w.key("slow").begin_object();
  w.key("budget_s")
      .value(std::chrono::duration<double>(config_.slow_budget).count());
  if (config_.slow_log != nullptr) {
    w.key("records").value(config_.slow_log->total_recorded());
  } else {
    w.key("records").value(std::uint64_t{0});
  }
  w.end_object();
  w.key("board").begin_array();
  for (std::size_t n = 0; n < loads.size(); ++n) {
    const NodeLoad& l = loads[n];
    w.begin_object();
    w.key("node").value(static_cast<std::int64_t>(n));
    w.key("self").value(static_cast<int>(n) == config_.node_id);
    w.key("active_connections").value(l.active_connections);
    w.key("bytes_in_flight").value(l.bytes_in_flight);
    w.key("served").value(l.served);
    w.key("redirected").value(l.redirected);
    w.key("available").value(l.available);
    w.key("overloaded").value(l.overloaded);
    w.key("redirect_inflation").value(l.redirect_inflation);
    // Age of the last board update for this peer — the runtime analogue of
    // "how stale is this loadd broadcast".
    if (l.last_update_s >= 0.0) {
      w.key("age_seconds").value(board_now - l.last_update_s);
    } else {
      w.key("age_seconds").raw("null");
    }
    // Age of the liveness lease specifically — what sweep_stale compares
    // against the staleness timeout.
    if (l.last_heartbeat_s >= 0.0) {
      w.key("heartbeat_age_seconds").value(board_now - l.last_heartbeat_s);
    } else {
      w.key("heartbeat_age_seconds").raw("null");
    }
    w.end_object();
  }
  w.end_array();
  if (config_.registry != nullptr) {
    w.key("metrics").raw(config_.registry->to_json());
  } else {
    w.key("metrics").raw("null");
  }
  w.end_object();

  http::Response response = http::make_ok(w.str(), "application/json");
  response.headers.set("Cache-Control", "no-store");
  return response;
}

}  // namespace sweb::runtime
