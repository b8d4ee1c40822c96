#include "runtime/request_app.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "http/date.h"
#include "http/mime.h"
#include "http/url.h"

namespace sweb::runtime {

NodeMetrics::NodeMetrics(obs::Registry& registry, int node)
    : NodeMetrics(registry, "node." + std::to_string(node)) {}

NodeMetrics::NodeMetrics(obs::Registry& registry, const std::string& prefix)
    : requests(registry.counter(prefix + ".requests")),
      redirects(registry.counter(prefix + ".redirects")),
      errors(registry.counter(prefix + ".errors")),
      shed(registry.counter(prefix + ".shed")),
      err400(registry.counter(prefix + ".err.400")),
      err404(registry.counter(prefix + ".err.404")),
      err408(registry.counter(prefix + ".err.408")),
      err503(registry.counter(prefix + ".err.503")),
      shed_cgi(registry.counter(prefix + ".overload.shed_cgi")),
      shed_uncached(registry.counter(prefix + ".overload.shed_uncached")),
      shed_accept(registry.counter(prefix + ".overload.shed_accept")),
      inflight(registry.gauge(prefix + ".inflight")),
      overload_state(registry.gauge(prefix + ".overload_state")),
      // One bucket vocabulary covers 10 µs CGI bursts and 60 s stalls.
      response_seconds(registry.histogram("http.response_seconds",
                                          obs::log_latency_bounds())) {
  for (const obs::Phase phase : obs::all_phases()) {
    phases[static_cast<std::size_t>(phase)] = &registry.histogram(
        prefix + ".phase." + obs::phase_name(phase),
        obs::log_latency_bounds());
  }
}

void trace_phase(obs::SpanTracer& tracer, int node, const char* name,
                 std::uint64_t trace_id, double start_s) {
  obs::TraceSpan span;
  span.name = name;
  span.category = "phase";
  span.ts_s = start_s;
  span.dur_s = tracer.now_seconds() - start_s;
  span.pid = node;
  span.tid = static_cast<std::int64_t>(trace_id);
  tracer.add_span(std::move(span));
}

RequestApp::RequestApp(Config config, const DocStore& docs, LoadBoard& board,
                       const OverloadController& overload,
                       NodeMetrics& metrics)
    : config_(std::move(config)),
      docs_(docs),
      board_(board),
      overload_(overload),
      metrics_(metrics) {}

int RequestApp::retry_after_now() const {
  const double hint_s =
      std::chrono::duration<double>(config_.retry_after_hint).count();
  if (overload_.enabled()) {
    // Adaptive: the controller's estimated drain time (in-flight work over
    // the recent completion rate), so a deep backlog asks the herd to stay
    // away longer than a graze past the cap does.
    return overload_.retry_after_seconds(hint_s);
  }
  // Whole seconds on the wire (HTTP/1.0 delta-seconds), rounded up so a
  // sub-second hint never collapses to "retry immediately", and clamped so
  // a wild hint cannot park clients for minutes.
  const double whole = std::ceil(std::max(hint_s, 0.0));
  return static_cast<int>(std::clamp(whole, 1.0, 120.0));
}

RequestApp::Outcome RequestApp::handle(const http::Request& request,
                                       std::uint64_t trace_id,
                                       obs::PhaseClock& clock) {
  const int self = config_.node_id;
  Outcome out;
  const auto finish = [&](http::Response response) {
    response.headers.add("Server", config_.server_name);
    out.response = std::move(response);
    return std::move(out);
  };

  const bool is_post = request.method == http::Method::kPost;
  if (request.method != http::Method::kGet &&
      request.method != http::Method::kHead && !is_post) {
    return finish(http::make_error(http::Status::kNotImplemented));
  }
  const auto canonical = http::canonicalize_target(request.target);
  if (!canonical) {
    return finish(http::make_error(http::Status::kBadRequest, "bad target"));
  }

  const DocStore::Entry* doc = docs_.find(canonical->path);
  if (doc == nullptr) {
    metrics_.err404.inc();
    metrics_.errors.inc();
    return finish(http::make_error(http::Status::kNotFound, canonical->path));
  }
  const CgiHandler* cgi = docs_.cgi_for(canonical->path);
  if (is_post && cgi == nullptr) {
    // POST only makes sense against a dynamic endpoint.
    return finish(http::make_error(http::Status::kNotImplemented,
                                   "POST to static content"));
  }

  // --- Analyze & possibly redirect ---------------------------------------
  // The at-most-once marker must survive a standard browser following the
  // 302, so it travels in the redirect URL's query string (clients that
  // set the X-Sweb-Redirected header are honored too).
  const bool already_redirected =
      request.headers.has("X-Sweb-Redirected") ||
      canonical->query.find("sweb-hop=1") != std::string::npos;
  const bool is_head = request.method == http::Method::kHead;
  // Conditional freshness is decided up front because it changes what
  // this request costs, not just what it answers. RFC 9110 §13.1.3 applies
  // If-Modified-Since to HEAD as much as to GET.
  bool not_modified = false;
  if (cgi == nullptr) {
    if (const auto ims = request.headers.get("If-Modified-Since")) {
      const auto since = http::parse_http_date(*ims);
      not_modified = since.has_value() && doc->last_modified <= *since;
    }
  }
  // --- Brownout admission gate -------------------------------------------
  // Past healthy, the node keeps doing only cheap work: HEAD and 304
  // answers move headers, cache-resident documents go out zero-copy from
  // RAM. CGI — the CPU-bound class — and documents that would need the
  // modelled disk read get 503 + Retry-After; the LoadBoard overload
  // flag published alongside the state makes every peer's broker route
  // new 302 assignments around this node while it degrades.
  if (overload_.state() != OverloadState::kHealthy && !is_head &&
      !not_modified) {
    const char* reject = nullptr;
    if (cgi != nullptr) {
      metrics_.shed_cgi.inc();
      reject = "brownout: dynamic content shed";
    } else if (config_.caches != nullptr && config_.caches->enabled() &&
               !config_.caches->resident(self, canonical->path)) {
      metrics_.shed_uncached.inc();
      reject = "brownout: non-resident document shed";
    }
    if (reject != nullptr) {
      metrics_.err503.inc();
      metrics_.errors.inc();
      // This request never reaches connection_opened, so any Δ-inflation
      // a redirect placed here is consumed now, same as an accept-path
      // shed — a browned-out node must not stay phantom-inflated.
      board_.note_shed(self);
      http::Response busy =
          http::make_error(http::Status::kServiceUnavailable, reject);
      busy.headers.set("Retry-After", std::to_string(retry_after_now()));
      return finish(std::move(busy));
    }
  }

  // Charge the board the body bytes this node will actually write: HEAD
  // and 304 answers move headers only, and a CGI entry's static size is
  // zero (its body is the handler's business). Charging doc->size()
  // unconditionally left phantom bytes_in_flight on every HEAD/304 —
  // skewing each peer's redirect arithmetic and the audit's t_data
  // prediction. The charge closes when it goes out of scope, unless a CGI
  // outcome carries it away.
  const std::uint64_t expected =
      (is_head || not_modified) ? 0 : doc->size();
  BoardCharge charge = open_charge(board_, self, expected);

  if (!already_redirected) {
    const bool tracing_on = tracing();
    const double t_analysis =
        tracing_on ? config_.tracer->now_seconds() : 0.0;
    const auto decide_start = std::chrono::steady_clock::now();
    // One snapshot per decision: the audit grades exactly the board state
    // the broker chose on.
    const bool audit_on = config_.audit != nullptr && trace_id != 0;
    std::vector<NodeLoad> loads;
    if (config_.broker.enable_redirects || audit_on) {
      loads = board_.snapshot_all();
    }
    const int target = choose_node(doc->owner, canonical->path, loads);
    if (audit_on) {
      record_audit_decision(trace_id, target, static_cast<double>(expected),
                            loads);
    }
    clock.add(obs::Phase::kBrokerDecide,
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - decide_start)
                  .count());
    if (tracing_on) {
      trace_phase(*config_.tracer, self, "analysis", trace_id, t_analysis);
    }
    if (target != self &&
        static_cast<std::size_t>(target) < peer_ports_.size()) {
      board_.note_redirected(self, target);
      metrics_.redirects.inc();
      if (tracing_on) {
        config_.tracer->add_instant(
            "redirect to node " + std::to_string(target), "phase",
            config_.tracer->now_seconds(), self,
            static_cast<std::int64_t>(trace_id));
      }
      // The at-most-once marker and the request id both ride the Location
      // query string: they must survive a standard browser that follows
      // the 302 without copying any custom headers.
      std::string query = canonical->query.empty()
                              ? "sweb-hop=1"
                              : canonical->query + "&sweb-hop=1";
      if (trace_id != 0) {
        query += "&sweb-rid=" + std::to_string(trace_id);
      }
      const std::string location =
          "http://127.0.0.1:" +
          std::to_string(peer_ports_[static_cast<std::size_t>(target)]) +
          canonical->path + "?" + query;
      http::Response moved = http::make_redirect(location);
      if (trace_id != 0) {
        moved.headers.set("X-SWEB-Request-Id", std::to_string(trace_id));
      }
      return finish(std::move(moved));
    }
  }

  // --- Fulfill -------------------------------------------------------------
  const bool tracing_on = tracing();
  const double t_data = tracing_on ? config_.tracer->now_seconds() : 0.0;
  // Shared-clock service start: joined with the origin node's decision
  // timestamp, this is the observed t_redirection.
  const double service_start = board_.now_seconds();
  if (cgi != nullptr) {
    // Dynamic content is the CPU-bound stage: hand back what the caller
    // needs to run the handler and finish it later. The board charge stays
    // open across the asynchronous execution.
    out.cgi = cgi;
    out.query = canonical->query;
    out.pending.is_head = is_head;
    out.pending.charge = std::move(charge);
    out.pending.service_start_s = service_start;
    out.pending.t_data_s = t_data;
    return out;
  }
  const auto fulfill_start = std::chrono::steady_clock::now();
  // A static request's content assembly is doc_read (the paper's t_data).
  const auto lap_fulfill = [&] {
    clock.add(obs::Phase::kDocRead,
              std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - fulfill_start)
                  .count());
  };
  // Conditional GET/HEAD: an If-Modified-Since at or after the document's
  // mtime earns a body-less 304 (NCSA httpd supported this in 1994).
  if (not_modified) {
    http::Response fresh;
    fresh.status = http::Status::kNotModified;
    fresh.headers.add("Last-Modified",
                      http::format_http_date(doc->last_modified));
    lap_fulfill();
    complete_served(fresh, trace_id, service_start, clock, charge);
    return finish(std::move(fresh));
  }
  const std::string mime(http::mime_type_for_path(canonical->path));
  NodeCache* cache =
      config_.caches != nullptr && config_.caches->enabled()
          ? &config_.caches->node(self)
          : nullptr;
  // GET and HEAD share one head; only a GET carries a body.
  http::Response ok;  // 200
  ok.headers.add("Content-Type", mime);
  ok.headers.add("Content-Length", std::to_string(doc->size()));
  if (!is_head && cache != nullptr && cache->lookup(canonical->path)) {
    // Resident: the body aliases the DocStore's shared buffer (no copy).
    out.body = doc->content;
  } else if (!is_head) {
    // Cold/evicted: a private copy stands in for the disk read (this is
    // the doc_read cost a cache hit skips), then the document is admitted
    // so the next request hits.
    out.body = std::make_shared<const std::string>(*doc->content);
    if (cache != nullptr) cache->insert(canonical->path, doc->size());
  }
  ok.headers.add("Last-Modified",
                 http::format_http_date(doc->last_modified));
  lap_fulfill();
  if (tracing_on) {
    trace_phase(*config_.tracer, self, "data", trace_id, t_data);
  }
  complete_served(ok, trace_id, service_start, clock, charge);
  return finish(std::move(ok));
}

void RequestApp::finish_cgi(http::Response& response, CgiPending& pending,
                            std::uint64_t trace_id,
                            const obs::PhaseClock& clock) {
  if (pending.is_head) {
    // HEAD gets the headers the GET would have had, body stripped — same
    // contract as the static-document path.
    response.headers.set("Content-Length",
                         std::to_string(response.body.size()));
    response.body.clear();
  }
  if (tracing()) {
    trace_phase(*config_.tracer, config_.node_id, "data", trace_id,
                pending.t_data_s);
  }
  complete_served(response, trace_id, pending.service_start_s, clock,
                  pending.charge);
  response.headers.add("Server", config_.server_name);
}

void RequestApp::complete_served(http::Response& response,
                                 std::uint64_t trace_id,
                                 double service_start_s,
                                 const obs::PhaseClock& clock,
                                 BoardCharge& charge) {
  const int self = config_.node_id;
  response.headers.add("X-Sweb-Node", std::to_string(self));
  // A 304 carries no request id: it answers a revalidation, not a fetch.
  if (trace_id != 0 && response.status != http::Status::kNotModified) {
    response.headers.set("X-SWEB-Request-Id", std::to_string(trace_id));
  }
  board_.note_served(self);
  if (config_.audit != nullptr && trace_id != 0) {
    obs::Observation observation;
    observation.service_start_ts_s = service_start_s;
    observation.completion_ts_s = board_.now_seconds();
    // Join the measured phases: doc_read is the observed t_data, cgi_exec
    // the observed t_cpu. A phase the request never entered reports 0 (the
    // cost genuinely not paid), matching the predictor's cost terms.
    observation.t_data = clock.touched(obs::Phase::kDocRead)
                             ? clock.seconds(obs::Phase::kDocRead)
                             : 0.0;
    observation.t_cpu = clock.touched(obs::Phase::kCgiExec)
                            ? clock.seconds(obs::Phase::kCgiExec)
                            : 0.0;
    config_.audit->record_outcome(trace_id, observation);
  }
  charge.reset();
}

int RequestApp::choose_node(int owner, std::string_view path,
                            const std::vector<NodeLoad>& loads) const {
  const int self = config_.node_id;
  if (!config_.broker.enable_redirects) return self;
  // Cache-aware placement: a candidate holding the document resident
  // serves it from RAM over the zero-copy path, so its apparent load gets
  // a configurable discount (the heterogeneous-balancing literature's
  // "affinity" term). Off unless a directory is attached and the knob set.
  const CacheDirectory* caches =
      config_.broker.cache_hit_discount > 0.0 ? config_.caches : nullptr;
  // Δ-inflation included: redirects already aimed at a node count as load
  // even before their connections arrive (the unsynchronized-herd guard).
  // Bytes in flight weigh in too, scaled to connection units, so a node
  // streaming a few large documents does not masquerade as idle.
  const auto load_of = [&](int n) {
    const NodeLoad& l = loads[static_cast<std::size_t>(n)];
    double load = static_cast<double>(l.effective_connections());
    if (config_.broker.bytes_per_connection > 0.0) {
      load += static_cast<double>(l.bytes_in_flight) /
              config_.broker.bytes_per_connection;
    }
    if (caches != nullptr && caches->resident(n, path)) {
      load -= config_.broker.cache_hit_discount;
    }
    return load;
  };
  // File locality first: the owner serves from its "local disk" unless it
  // is clearly busier than we are — or browned out: a peer that is
  // shedding by class must not be handed fresh work, even its own files.
  if (owner != self && owner >= 0 &&
      owner < static_cast<int>(loads.size()) &&
      loads[static_cast<std::size_t>(owner)].available &&
      !loads[static_cast<std::size_t>(owner)].overloaded &&
      load_of(owner) <=
          load_of(self) + config_.broker.locality_pull_threshold) {
    return owner;
  }
  // Otherwise balance on connection-equivalent load. Overloaded peers are
  // skipped outright (their own admission gate would just 503 the hop);
  // self stays eligible — serving locally, even degraded, beats bouncing
  // the client into a wall.
  int best = self;
  double best_load = load_of(self);
  for (int n = 0; n < static_cast<int>(loads.size()); ++n) {
    if (n == self || !loads[static_cast<std::size_t>(n)].available ||
        loads[static_cast<std::size_t>(n)].overloaded) {
      continue;
    }
    if (load_of(n) + config_.broker.min_connection_advantage <= best_load) {
      best = n;
      best_load = load_of(n);
    }
  }
  return best;
}

obs::CostPrediction RequestApp::predict_cost(
    int candidate, double size_bytes,
    const std::vector<NodeLoad>& loads) const {
  const RuntimeBrokerParams& p = config_.broker;
  const double queue =
      candidate >= 0 && candidate < static_cast<int>(loads.size())
          ? static_cast<double>(
                loads[static_cast<std::size_t>(candidate)]
                    .effective_connections())
          : 0.0;
  obs::CostPrediction cost;
  if (candidate != config_.node_id) cost.t_redirection = p.redirect_rtt_s;
  // Both the data channel and the CPU degrade with the candidate's queue —
  // the runtime analogue of the paper's b/(1+queue) and ops*run_queue
  // scalings.
  cost.t_data = size_bytes / p.disk_bytes_per_sec * (1.0 + queue);
  cost.t_cpu = p.request_cpu_s * (1.0 + queue);
  return cost;
}

void RequestApp::record_audit_decision(
    std::uint64_t request_id, int target, double size_bytes,
    const std::vector<NodeLoad>& loads) const {
  obs::Decision decision;
  decision.request_id = request_id;
  decision.origin = config_.node_id;
  decision.chosen = target;
  decision.decision_ts_s = board_.now_seconds();
  double best_other = std::numeric_limits<double>::infinity();
  for (int n = 0; n < static_cast<int>(loads.size()); ++n) {
    if (n != config_.node_id &&
        !loads[static_cast<std::size_t>(n)].available) {
      continue;
    }
    obs::CandidatePrediction candidate;
    candidate.node = n;
    candidate.cost = predict_cost(n, size_bytes, loads);
    if (n == target) {
      decision.predicted = candidate.cost;
    } else {
      best_other = std::min(best_other, candidate.cost.total());
    }
    decision.candidates.push_back(std::move(candidate));
  }
  // Connection counts decide, the cost model only narrates — so the margin
  // (and a negative one) reports how the model prices the heuristic's pick.
  decision.runner_up_margin = best_other - decision.predicted.total();
  config_.audit->record_decision(std::move(decision));
}

}  // namespace sweb::runtime
