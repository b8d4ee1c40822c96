// The per-request application of one SWEB node, with no sockets.
//
// A parsed request goes in; a decision comes out. RequestApp is the
// paper's per-node httpd module stack without the transport: it
// canonicalises the target, answers 404/501 and conditional freshness,
// applies the overload brownout gate, charges the shared LoadBoard, runs
// the broker (choose_node) and records its audit decision, and either
// builds the 302 to a better node or serves the document — aliasing the
// page cache's resident buffer, or taking the modelled cold copy and
// admitting it. Dynamic content comes back undone: the caller runs the CGI
// handler wherever it likes and finishes it with finish_cgi().
//
// NodeServer drives this from its reactor; a unit test drives it with a
// DocStore, a LoadBoard and a CacheDirectory alone.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "obs/audit.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/doc_store.h"
#include "runtime/load_board.h"
#include "runtime/node_cache.h"
#include "runtime/overload.h"

namespace sweb::runtime {

/// Redirect decision logic shared by all nodes (the runtime broker): prefer
/// the owner node unless it is markedly busier than the best alternative.
struct RuntimeBrokerParams {
  /// A peer must be at least this many connections lighter to redirect to.
  int min_connection_advantage = 2;
  /// Redirect to the owner when our own queue is at least this long.
  int locality_pull_threshold = 0;
  bool enable_redirects = true;
  /// Bytes in flight that weigh as much as one active connection when the
  /// broker compares candidates, so a node streaming a few large documents
  /// stops looking idle next to one serving many small ones. <= 0 disables
  /// the bytes term (connection counts only).
  double bytes_per_connection = 64.0 * 1024.0;
  /// Cache-aware placement: connection units subtracted from a candidate's
  /// apparent load when the requested document is resident in its page
  /// cache — a warm peer serves from RAM (zero-copy), so it may be worth a
  /// redirect even against a modest connection deficit. <= 0 (the default)
  /// keeps placement purely load-based; needs a CacheDirectory attached to
  /// take effect.
  double cache_hit_discount = 0.0;

  // Cost-prediction constants for the decision audit. The runtime broker
  // decides on connection counts; these let it also express that decision
  // in the paper's cost terms (t_redirection + t_data + t_cpu) so the
  // audit can grade the prediction against observed durations. They do NOT
  // influence which node is chosen.
  double redirect_rtt_s = 1e-3;        // loopback 302 + reconnect
  double disk_bytes_per_sec = 20e6;    // per-request data bandwidth
  double request_cpu_s = 2e-4;         // parse + serve CPU per request
};

/// One node's registry instruments (`node.N.*` plus the cluster-wide
/// `http.response_seconds`), bound once; every reference is valid for the
/// registry's lifetime. Each event is counted here and nowhere else.
struct NodeMetrics {
  NodeMetrics(obs::Registry& registry, int node);

  obs::Counter& requests;
  obs::Counter& redirects;
  obs::Counter& errors;
  /// Connections answered 503 at the admission cap or refused at accept.
  obs::Counter& shed;
  // Per-reason client-visible errors: which kind of degradation a node is
  // suffering, not just how much. err503 counts every 503 (cap, accept
  // refusals, brownout class rejections).
  obs::Counter& err400;
  obs::Counter& err404;
  obs::Counter& err408;
  obs::Counter& err503;
  // Overload sheds by class: brownout rejections (CGI, non-resident
  // documents) and accepts refused while shedding.
  obs::Counter& shed_cgi;
  obs::Counter& shed_uncached;
  obs::Counter& shed_accept;
  obs::Gauge& inflight;
  /// 0 = healthy, 1 = brownout, 2 = shedding (OverloadState's values).
  obs::Gauge& overload_state;
  obs::Histogram& response_seconds;
  /// Per-phase streaming histograms (node.N.phase.<name>). The response
  /// histogram and every phase histogram share the log-bucket ladder so
  /// cross-node merges stay legal (identical bounds).
  std::array<obs::Histogram*, obs::kPhaseCount> phases{};

 private:
  NodeMetrics(obs::Registry& registry, const std::string& prefix);
};

/// Records request `trace_id`'s phase span [start_s, now) on `node`'s track.
void trace_phase(obs::SpanTracer& tracer, int node, const char* name,
                 std::uint64_t trace_id, double start_s);

class RequestApp {
 public:
  struct Config {
    int node_id = 0;
    std::string server_name = "SWEB/1.0";
    RuntimeBrokerParams broker;
    /// The Retry-After hint attached to 503s (rounded up to whole seconds
    /// on the wire, clamped to [1, 120]; retry-capable clients honor it).
    /// With the overload controller enabled this is only the fallback —
    /// the hint becomes the controller's estimated drain time.
    std::chrono::milliseconds retry_after_hint{1000};
    /// Cluster-shared residency caches (typically the MiniCluster's; may
    /// be null — every static GET then pays the modelled copy and the
    /// broker applies no cache discount).
    CacheDirectory* caches = nullptr;
    /// Optional span sink (typically the MiniCluster's; may be null).
    obs::SpanTracer* tracer = nullptr;
    /// Shared decision audit: the origin node records the brokered choice,
    /// the serving node joins it with observed durations. The request id
    /// rides the 302 (`sweb-rid` query param / X-SWEB-Request-Id header)
    /// so cross-node joins land; timestamps come from the shared
    /// LoadBoard clock. May be null.
    obs::DecisionAudit* audit = nullptr;
  };

  /// A CGI request between handle() and finish_cgi(): the board charge
  /// stays open across the handler's execution and closes at finish_cgi —
  /// or when whoever holds this drops it.
  struct CgiPending {
    bool is_head = false;
    BoardCharge charge;
    double service_start_s = 0.0;  // board clock at fulfil start
    double t_data_s = 0.0;         // tracer timestamp for the data span
  };

  struct Outcome {
    /// The finished response, unless `cgi` is set. The caller adds only
    /// the Connection header.
    http::Response response;
    /// A document's body, gathered after response.serialize_head(): the
    /// DocStore's shared buffer when resident, a private copy when cold.
    std::shared_ptr<const std::string> body;
    /// Dynamic content: the handler has not run. Run it with `query`, then
    /// pass its response and `pending` to finish_cgi().
    const CgiHandler* cgi = nullptr;
    std::string query;
    CgiPending pending;
  };

  /// `docs`, `board`, `overload` and `metrics` must outlive the app.
  RequestApp(Config config, const DocStore& docs, LoadBoard& board,
             const OverloadController& overload, NodeMetrics& metrics);

  /// The peers' ports, indexed by node id; a 302 is only built toward a
  /// node listed here.
  void set_peer_ports(std::vector<std::uint16_t> ports) {
    peer_ports_ = std::move(ports);
  }

  /// Decides one request. `trace_id` labels its spans and its audit
  /// records (0: untracked). broker_decide and doc_read accumulate into
  /// `clock`.
  [[nodiscard]] Outcome handle(const http::Request& request,
                               std::uint64_t trace_id,
                               obs::PhaseClock& clock);

  /// Completes a CGI request with the handler's `response`: strips a HEAD
  /// body, tags the serving node and request id, joins the audit, and
  /// closes the board charge.
  void finish_cgi(http::Response& response, CgiPending& pending,
                  std::uint64_t trace_id, const obs::PhaseClock& clock);

  /// The Retry-After seconds a 503 carries right now: the controller's
  /// drain estimate when enabled, the configured hint otherwise — either
  /// way rounded up and clamped to [1, 120].
  [[nodiscard]] int retry_after_now() const;

 private:
  /// Chooses the serving node for `path` owned by `owner` from the board
  /// snapshot `loads`; may be self. The path feeds the broker's
  /// cache-residency discount.
  [[nodiscard]] int choose_node(int owner, std::string_view path,
                                const std::vector<NodeLoad>& loads) const;
  /// The runtime cost prediction for serving `size_bytes` on `candidate`
  /// (board loads included) — audit bookkeeping only, never a decision
  /// input.
  [[nodiscard]] obs::CostPrediction predict_cost(
      int candidate, double size_bytes,
      const std::vector<NodeLoad>& loads) const;
  /// Records the brokered choice, graded against the same snapshot the
  /// choice was made on.
  void record_audit_decision(std::uint64_t request_id, int target,
                             double size_bytes,
                             const std::vector<NodeLoad>& loads) const;

  /// The tail every served (200/304/CGI) response shares: node and request
  /// id headers, the served count, the audit outcome, the charge close.
  void complete_served(http::Response& response, std::uint64_t trace_id,
                       double service_start_s, const obs::PhaseClock& clock,
                       BoardCharge& charge);

  [[nodiscard]] bool tracing() const noexcept {
    return config_.tracer != nullptr && config_.tracer->enabled();
  }

  Config config_;
  const DocStore& docs_;
  LoadBoard& board_;
  const OverloadController& overload_;
  NodeMetrics& metrics_;
  std::vector<std::uint16_t> peer_ports_;
};

}  // namespace sweb::runtime
