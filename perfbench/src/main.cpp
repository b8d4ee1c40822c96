// swebbench: drives one named workload against a live 2-node MiniCluster
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output. See perfbench/README.md.
//
//   swebbench --workload small_1k --seed 1 --seconds 40 --trace 0
//
// Every response is checked (status, body bytes, at most one redirect,
// bodiless HEAD); a mismatch is a failed operation.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <latch>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cpu.h"
#include "fs/docbase.h"
#include "http/message.h"
#include "http/parser.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/client.h"
#include "runtime/mini_cluster.h"
#include "runtime/node_cache.h"
#include "stall.h"
#include "stats.h"
#include "workload.h"

namespace {

using namespace sweb;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kNodes = 2;
/// Generator threads of the closed phase. All generator threads run on
/// generator_cpus, so two of four cores are left for the two reactors.
constexpr int kClosedThreads = 2;
/// Generator threads of the open phase: more connections share the offered
/// rate, so a request rarely queues behind its own thread's previous one.
/// Each thread holds at most one connection at a time, so at most 4 are
/// open at once.
constexpr int kOpenThreads = 4;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Share of --seconds spent in the closed phase; the rest is the open one,
/// whose tail needs more samples.
constexpr double kClosedShare = 1.0 / 4.0;
/// The phases alternate in this many rounds (closed, open, closed, ...),
/// so each phase samples the whole run and not one stretch of it.
constexpr int kRounds = 8;
/// A round in which the hypervisor stole more than kMaxSteal of the
/// guest's CPU time is left out of the end-to-end metrics, as long as
/// kMinRounds others remain; otherwise the kMinRounds rounds with the least
/// steal count. In busy host periods every request runs slower, not just
/// those a stall touched: on a 4-vCPU guest, small_1k's p99 doubled in
/// runs with 4-17% steal.
constexpr double kMaxSteal = 0.02;
constexpr int kMinRounds = 4;
/// Longest traced phase, in time and in requests: its spans are held in
/// memory and then read back as one JSON document.
constexpr double kMaxTracedSeconds = 2.0;
constexpr std::size_t kMaxTracedRequests = 10000;
/// The open phase stops sending this long after its schedule ends; what is
/// still unsent then counts as failed.
constexpr double kOpenOverrunSeconds = 5.0;
/// Closed-phase rates are medians over slices of this length.
constexpr double kSliceSeconds = 0.5;
/// Open-phase stall canaries wake every kStallPeriod; one that wakes more
/// than kStallThreshold late marks a host stall (a real-time thread
/// normally wakes within tens of microseconds). A generator thread that
/// sends more than kStallThreshold late has stalled too. The open-phase
/// latency metrics leave out the requests either touched (see StallMonitor
/// and undisturbed_latencies). On a 4-vCPU guest the host stalls vCPUs for
/// 0.25-20 ms several times a second; each stall queues every request
/// behind it and, unfiltered, made the whole-phase p99 of small_1k swing
/// from 0.4 to 31 ms between runs.
constexpr std::chrono::microseconds kStallPeriod{1000};
constexpr std::chrono::microseconds kStallThreshold{250};
/// The first kOpenLeadIn seconds of an open round are treated like a
/// stall: the switch from the closed phase (generator threads started,
/// connections opened and torn down) slowed the requests due then by up to
/// 20 ms.
constexpr double kOpenLeadIn = 0.1;
/// Trace lane (Chrome pid) of the generator's client-side spans.
constexpr std::int64_t kClientPid = 1000;

// Seed stream tags: every phase and thread draws from its own stream.
constexpr std::uint64_t kWarmupStream = 0x100;
constexpr std::uint64_t kClosedStream = 0x200;
constexpr std::uint64_t kOpenStream = 0x300;
constexpr std::uint64_t kArrivalStream = 0x400;
constexpr std::uint64_t kTracedStream = 0x500;
constexpr std::uint64_t kMicroStream = 0x600;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "swebbench: " << why
            << "\nusage: swebbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--commit <id>] [--trace-out <file>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    const auto number = [&](auto& out) {
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), out);
      if (ec != std::errc() || ptr != value.data() + value.size()) {
        usage("bad number for " + flag + ": " + value);
      }
    };
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      number(args.seed);
    } else if (flag == "--seconds") {
      number(args.seconds);
    } else if (flag == "--trace") {
      int t = 0;
      number(t);
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      args.trace = t == 1;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (find_workload(args.workload) == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.seconds < 1) usage("--seconds must be >= 1");
  return args;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- The system under test ---------------------------------------------

/// A started cluster serving one workload's corpus, plus the answers the
/// generator checks every response against.
struct Bench {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  Corpus corpus;
  std::unique_ptr<runtime::MiniCluster> cluster;
  std::vector<std::shared_ptr<const std::string>> doc_body;  // per document
  std::vector<std::string> cgi_body;                         // per query
};

/// What one request did, as seen from the client.
struct Outcome {
  bool ok = false;
  bool redirected = false;
  bool owner_served = false;
  int node = -1;
  int connects = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t request_id = 0;
};

/// One generator thread's connections to the cluster.
class Client {
 public:
  explicit Client(Bench& bench) : bench_(bench) {}

  Outcome execute(const Op& op) {
    const Corpus& corpus = bench_.corpus;
    Outcome out;
    std::optional<runtime::FetchResult> result;
    int owner = 0;
    if (op.method == Method::kGet) {
      const Document& doc = corpus.docs[op.index];
      owner = doc.owner;
      if (!get_) get_.emplace(options(true));
      const int before = get_->connections_opened();
      result = get_->fetch(bench_.cluster->next_base_url() + doc.path);
      out.connects = get_->connections_opened() - before;
    } else {
      // HEAD and POST go out HTTP/1.0 style on a connection of their own;
      // the keep-alive session is closed first, so a thread never holds
      // two connections.
      get_.reset();
      runtime::FetchOptions o = options(false);
      std::string path;
      if (op.method == Method::kHead) {
        o.head = true;
        path = corpus.docs[op.index].path;
        owner = corpus.docs[op.index].owner;
      } else {
        const CgiEndpoint& ep =
            corpus.cgi_endpoints[op.index % corpus.cgi_endpoints.size()];
        o.post_body = corpus.cgi_queries[op.index];
        path = ep.path;
        owner = ep.owner;
      }
      runtime::FetchSession one(std::move(o));
      result = one.fetch(bench_.cluster->next_base_url() + path);
      out.connects = one.connections_opened();
    }
    if (!result || result->redirects_followed > 1 ||
        result->response.status != http::Status::kOk) {
      return out;
    }
    const http::Response& response = result->response;
    const std::string& body = response.body;
    switch (op.method) {
      case Method::kGet:
        if (body != *bench_.doc_body[op.index]) return out;
        break;
      case Method::kHead: {
        const auto length = response.headers.get("Content-Length");
        if (!body.empty() || !length ||
            *length != std::to_string(corpus.docs[op.index].size)) {
          return out;
        }
        break;
      }
      case Method::kPost:
        if (body != bench_.cgi_body[op.index]) return out;
        break;
    }
    const auto node = response.headers.get("X-Sweb-Node");
    if (!node || node->size() != 1 || (*node)[0] < '0' ||
        (*node)[0] >= '0' + kNodes) {
      return out;
    }
    out.node = (*node)[0] - '0';
    if (const auto rid = response.headers.get("X-SWEB-Request-Id")) {
      (void)std::from_chars(rid->data(), rid->data() + rid->size(),
                            out.request_id);
    }
    out.ok = true;
    out.redirected = result->redirects_followed == 1;
    out.owner_served = out.node == owner;
    out.body_bytes = body.size();
    out.wire_bytes = response.serialize_head().size() + body.size();
    return out;
  }

 private:
  static runtime::FetchOptions options(bool keep_alive) {
    runtime::FetchOptions o;
    o.max_redirects = 1;
    o.keep_alive = keep_alive;
    o.timeout = std::chrono::milliseconds(5000);
    o.retry.max_attempts = 1;  // every failure stays visible
    return o;
  }

  Bench& bench_;
  std::optional<runtime::FetchSession> get_;  // keep-alive GETs
};

// --- Phase tallies ---------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t redirected = 0;
  std::uint64_t owner_served = 0;
  std::uint64_t connects = 0;
  std::uint64_t wire_bytes = 0;
  std::array<std::uint64_t, kNodes> served{};
  /// Closed phase: (seconds since start, body bytes) per success.
  std::vector<Event> completions;
  /// Open phase: one entry per success.
  std::vector<OpenRequest> latency;
  std::vector<double> lag_ms;  // open phase

  [[nodiscard]] std::uint64_t failed() const { return attempted - ok; }

  void add(const Outcome& o) {
    ++attempted;
    connects += static_cast<std::uint64_t>(o.connects);
    if (!o.ok) return;
    ++ok;
    redirected += o.redirected ? 1 : 0;
    owner_served += o.owner_served ? 1 : 0;
    wire_bytes += o.wire_bytes;
    ++served[static_cast<std::size_t>(o.node)];
  }

  /// Adds `t`, whose event times are shifted by `t_offset` seconds.
  void merge(const Tally& t, double t_offset = 0.0) {
    attempted += t.attempted;
    ok += t.ok;
    redirected += t.redirected;
    owner_served += t.owner_served;
    connects += t.connects;
    wire_bytes += t.wire_bytes;
    for (int n = 0; n < kNodes; ++n) served[n] += t.served[n];
    for (const Event& e : t.completions) {
      completions.push_back({e.t + t_offset, e.value});
    }
    for (const OpenRequest& r : t.latency) {
      latency.push_back({r.busy_from + t_offset, r.due + t_offset,
                         r.latency_ms, r.generator_late});
    }
    lag_ms.insert(lag_ms.end(), t.lag_ms.begin(), t.lag_ms.end());
  }
};

struct PhaseResult {
  Tally tally;
  Clock::time_point start;
  double wall_s = 0.0;
  CpuSplit cpu;
  /// Open phase: host stalls, in seconds since the phase started.
  std::vector<Interval> stalls;
  bool stall_monitor = false;  // the canaries ran (SCHED_FIFO granted)

  /// Appends a later round whose events start `t_offset` seconds in.
  void merge(const PhaseResult& round, double t_offset) {
    tally.merge(round.tally, t_offset);
    wall_s += round.wall_s;
    cpu.generator_s += round.cpu.generator_s;
    cpu.server_s += round.cpu.server_s;
    cpu.harness_s += round.cpu.harness_s;
    for (const Interval& i : round.stalls) {
      stalls.push_back({i.begin + t_offset, i.end + t_offset});
    }
    stall_monitor = round.stall_monitor;
  }
};

/// The CPUs this process may use.
const cpu_set_t allowed_cpus = [] {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) CPU_ZERO(&allowed);
  return allowed;
}();

/// The CPUs generator threads run on: the first half of the CPUs this
/// process may use, when it may use at least 4, so the server's threads
/// keep the other half to themselves. Empty (no pinning) otherwise.
const cpu_set_t generator_cpus = [] {
  const cpu_set_t& allowed = allowed_cpus;
  cpu_set_t half;
  CPU_ZERO(&half);
  if (CPU_COUNT(&allowed) < 4) return half;
  const int want = CPU_COUNT(&allowed) / 2;
  for (int cpu = 0; cpu < CPU_SETSIZE && CPU_COUNT(&half) < want; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) CPU_SET(cpu, &half);
  }
  return half;
}();

/// The other CPUs, when generator_cpus is not empty: the main thread runs
/// on them, so every server thread it starts does too. Empty otherwise.
const cpu_set_t server_cpus = [] {
  cpu_set_t rest;
  CPU_ZERO(&rest);
  if (CPU_COUNT(&generator_cpus) == 0) return rest;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_cpus) && !CPU_ISSET(cpu, &generator_cpus)) {
      CPU_SET(cpu, &rest);
    }
  }
  return rest;
}();

/// Runs `body(thread_index, start, tally)` on `n_threads` generator threads
/// released together, and accounts their CPU against the server's (every
/// other thread's but the main thread's and the `harness` helpers') over
/// the same window.
template <typename Body>
PhaseResult run_threads(int n_threads, Body body,
                        const std::set<int>& harness = {}) {
  std::vector<int> tids(n_threads, 0);
  std::vector<Tally> tallies(n_threads);
  std::vector<Clock::time_point> finished(n_threads);
  std::vector<std::exception_ptr> errors(n_threads);
  std::latch ready(n_threads);
  std::latch go(1);
  std::latch done(n_threads);
  std::latch release(1);
  Clock::time_point start;
  std::vector<std::jthread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      tids[t] = current_tid();
      if (CPU_COUNT(&generator_cpus) > 0) {
        (void)pthread_setaffinity_np(pthread_self(), sizeof generator_cpus,
                                     &generator_cpus);
      }
      ready.count_down();
      go.wait();
      try {
        body(t, start, tallies[t]);
      } catch (...) {
        errors[t] = std::current_exception();
      }
      finished[t] = Clock::now();
      done.count_down();
      // Stay alive until the CPU snapshot has read this thread's counters.
      release.wait();
    });
  }
  ready.wait();
  const std::set<int> generator(tids.begin(), tids.end());
  std::set<int> ours = generator;
  ours.insert(current_tid());
  const auto cpu_before = task_cpu_seconds();
  start = Clock::now();
  go.count_down();
  done.wait();
  const auto cpu_after = task_cpu_seconds();
  release.count_down();
  threads.clear();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  PhaseResult result;
  result.start = start;
  result.cpu = split_cpu(cpu_before, cpu_after, ours, harness);
  result.wall_s = seconds_between(
      start, *std::max_element(finished.begin(), finished.end()));
  for (const Tally& t : tallies) result.tally.merge(t);
  return result;
}

/// Closed loop: each thread sends its next request when the previous one
/// completes, until `seconds` pass or `requests` are sent (0: no limit).
/// With a tracer, every fetch leaves a client span keyed by its request id.
PhaseResult run_closed(Bench& bench, std::uint64_t stream, double seconds,
                       std::size_t requests, obs::SpanTracer* tracer) {
  const std::size_t per_thread =
      requests == 0 ? 0 : (requests + kClosedThreads - 1) / kClosedThreads;
  return run_threads(kClosedThreads,
                     [&](int t, Clock::time_point start, Tally& tally) {
    Client client(bench);
    RequestStream ops(*bench.spec, bench.seed,
                      stream + static_cast<std::uint64_t>(t));
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    while (Clock::now() < end &&
           (per_thread == 0 || tally.attempted < per_thread)) {
      const Op op = ops.next();
      const double t0 = tracer != nullptr ? tracer->now_seconds() : 0.0;
      const Outcome out = client.execute(op);
      tally.add(out);
      const double done_s = seconds_between(start, Clock::now());
      if (out.ok && done_s < seconds) {
        tally.completions.push_back(
            {done_s, static_cast<double>(out.body_bytes)});
      }
      if (tracer != nullptr && out.request_id != 0) {
        obs::TraceSpan span;
        span.name = "fetch";
        span.category = "client";
        span.ts_s = t0;
        span.dur_s = tracer->now_seconds() - t0;
        span.pid = kClientPid;
        span.tid = static_cast<std::int64_t>(out.request_id);
        tracer->add_span(std::move(span));
      }
    }
  });
}

/// Closed-phase requests and body megabytes per second: medians over
/// kSliceSeconds slices of the phase.
std::pair<double, double> closed_rates(const PhaseResult& closed,
                                       double seconds) {
  const int slices = std::max(1, static_cast<int>(seconds / kSliceSeconds));
  std::vector<Event> done = closed.tally.completions;
  const double megabytes = median_slice_rate(done, seconds, slices) / 1e6;
  for (Event& e : done) e.value = 1.0;
  return {median_slice_rate(done, seconds, slices), megabytes};
}

/// Keeps the generator's CPUs from halting while the open phase waits for
/// its next due times. On a virtual machine a halted vCPU wakes only when
/// the host schedules it again, which delayed sends by 1-3 ms. One
/// SCHED_IDLE spinner per generator CPU runs only when nothing else wants
/// that CPU, and a waking thread preempts it at once. Their thread ids go
/// into `tids`. The spinners stop when the returned threads are destroyed.
std::vector<std::jthread> start_idle_spinners(std::set<int>& tids) {
  std::vector<std::jthread> spinners;
  std::vector<int> ids(static_cast<std::size_t>(CPU_COUNT(&generator_cpus)));
  std::latch started(static_cast<std::ptrdiff_t>(ids.size()));
  std::size_t i = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && i < ids.size(); ++cpu) {
    if (!CPU_ISSET(cpu, &generator_cpus)) continue;
    spinners.emplace_back([cpu, &id = ids[i++], &started](
                              const std::stop_token& stop) {
      id = current_tid();
      started.count_down();
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      const sched_param param{};
      (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop.stop_requested()) {
      }
    });
  }
  started.wait();
  tids.insert(ids.begin(), ids.end());
  return spinners;
}

/// Sleeps until `due` (the open-phase threads set a 1 ns timer slack, so
/// the oversleep is the kernel's wake-up latency; it shows in the lag).
void wait_until(Clock::time_point due) {
  if (Clock::now() < due) std::this_thread::sleep_until(due);
}

/// Open loop: seeded Poisson arrivals at `rate` per second in total. Each
/// request is timed from when it was due, so a stall is charged to every
/// request queued behind it. Lag is how late the generator itself sent
/// (past both the due time and the moment its connection came free). The
/// stall canaries watch every CPU meanwhile.
PhaseResult run_open(Bench& bench, double seconds, double rate, int round) {
  std::set<int> harness;
  const std::vector<std::jthread> spinners = start_idle_spinners(harness);
  StallMonitor monitor(allowed_cpus, kStallPeriod, kStallThreshold);
  harness.insert(monitor.tids().begin(), monitor.tids().end());
  PhaseResult result = run_threads(kOpenThreads,
                     [&](int t, Clock::time_point start, Tally& tally) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Client client(bench);
    const auto stream = static_cast<std::uint64_t>(round * kOpenThreads + t);
    RequestStream ops(*bench.spec, bench.seed, kOpenStream + stream);
    const std::vector<double> arrivals =
        poisson_arrivals(bench.seed, kArrivalStream + stream,
                         rate / kOpenThreads, seconds);
    tally.latency.reserve(arrivals.size());
    tally.lag_ms.reserve(arrivals.size());
    const auto at = [&](double offset) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offset));
    };
    const auto give_up = at(seconds + kOpenOverrunSeconds);
    Clock::time_point free_at = start;
    double busy_from = 0.0;
    bool late = false;  // the current busy stretch met a late send
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const Op op = ops.next();
      const auto due = at(arrivals[i]);
      if (Clock::now() > give_up) {
        tally.attempted += arrivals.size() - i;  // never sent: failed
        break;
      }
      wait_until(due);
      if (free_at <= due) {  // not queued: a new busy stretch
        busy_from = arrivals[i];
        late = false;
      }
      const auto sent = Clock::now();
      const auto lag = sent - std::max(due, free_at);
      tally.lag_ms.push_back(std::chrono::duration<double>(lag).count() *
                             1000.0);
      late = late || lag > kStallThreshold;
      const Outcome out = client.execute(op);
      free_at = Clock::now();
      tally.add(out);
      if (out.ok) {
        tally.latency.push_back(
            {busy_from, arrivals[i], seconds_between(due, free_at) * 1000.0,
             late});
      }
    }
  }, harness);
  result.stalls = monitor.stop(result.start);
  result.stall_monitor = monitor.realtime();
  return result;
}

// --- Set-up -------------------------------------------------------------

/// Builds the docbase, constructs and starts the cluster, waits until every
/// node is available and warms it up. Returns the bench and its set-up
/// time in seconds.
std::pair<std::unique_ptr<Bench>, double> set_up(const WorkloadSpec& spec,
                                                 std::uint64_t seed,
                                                 Tally& warmup) {
  const auto begin = Clock::now();
  auto bench = std::make_unique<Bench>();
  bench->spec = &spec;
  bench->seed = seed;
  bench->corpus = make_corpus(spec, seed, kNodes);
  fs::Docbase docbase;
  for (const Document& d : bench->corpus.docs) {
    docbase.add(fs::Document{d.path, d.size, d.owner, false});
  }
  runtime::MiniClusterOptions options;
  options.cache_bytes_per_node = spec.cache_bytes_per_node;
  bench->cluster =
      std::make_unique<runtime::MiniCluster>(kNodes, docbase, options);
  for (const CgiEndpoint& ep : bench->corpus.cgi_endpoints) {
    bench->cluster->docs_mutable().register_cgi(
        ep.path, ep.owner, [](const http::Request& request, std::string_view) {
          return http::make_ok(cgi_output(request.body), "text/plain");
        });
  }
  bench->cluster->start();
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (;;) {
    const auto loads = bench->cluster->board().snapshot_all();
    if (std::all_of(loads.begin(), loads.end(),
                    [](const runtime::NodeLoad& l) { return l.available; })) {
      break;
    }
    if (Clock::now() > deadline) throw std::runtime_error("nodes unavailable");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const Document& d : bench->corpus.docs) {
    const runtime::DocStore::Entry* entry = bench->cluster->docs().find(d.path);
    if (entry == nullptr || entry->size() != d.size) {
      throw std::runtime_error("document store lost " + d.path);
    }
    bench->doc_body.push_back(entry->content);
  }
  for (const std::string& q : bench->corpus.cgi_queries) {
    bench->cgi_body.push_back(cgi_output(q));
  }
  warmup.merge(
      run_closed(*bench, kWarmupStream, 1e9, spec.warmup_requests, nullptr)
          .tally);
  return {std::move(bench), seconds_between(begin, Clock::now())};
}

// --- Traced-only measurements ----------------------------------------------

/// Mean nanoseconds per call of `op` over `calls` calls.
template <typename Op>
double mean_ns(std::size_t calls, Op op) {
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) op(i);
  return seconds_between(begin, Clock::now()) * 1e9 /
         static_cast<double>(calls);
}

/// The bytes the generator's client puts on the wire for `op`.
std::string request_bytes(const Bench& bench, const Op& op) {
  const Corpus& corpus = bench.corpus;
  http::Request request;
  request.method = op.method == Method::kGet    ? http::Method::kGet
                   : op.method == Method::kHead ? http::Method::kHead
                                                : http::Method::kPost;
  request.target =
      op.method == Method::kPost
          ? corpus.cgi_endpoints[op.index % corpus.cgi_endpoints.size()].path
          : corpus.docs[op.index].path;
  request.headers.add("Host",
                      "127.0.0.1:" + std::to_string(bench.cluster->port(0)));
  request.headers.add("User-Agent", "sweb-client/1.0");
  if (op.method == Method::kGet) {
    request.headers.add("Connection", "Keep-Alive");
  }
  if (op.method == Method::kPost) {
    request.body = corpus.cgi_queries[op.index];
    request.headers.add("Content-Type", "application/x-www-form-urlencoded");
    request.headers.add("Content-Length", std::to_string(request.body.size()));
  }
  return request.serialize();
}

/// The head a node sends for a static 200 of `doc` (body excluded).
http::Response response_head(const Document& doc, std::uint64_t rid) {
  http::Response ok;
  ok.headers.add("Content-Type", "text/html");
  ok.headers.add("Content-Length", std::to_string(doc.size));
  ok.headers.add("Last-Modified", "Mon, 01 Jan 1996 00:00:00 GMT");
  ok.headers.add("X-Sweb-Node", std::to_string(doc.owner));
  ok.headers.add("X-SWEB-Request-Id", std::to_string(rid));
  ok.headers.add("Server", "SWEB/1.0");
  ok.headers.add("Connection", "Keep-Alive");
  return ok;
}

struct Micro {
  double parse_ns = 0.0;
  double serialize_head_ns = 0.0;
  double cache_lookup_ns = 0.0;
  double find_ns = 0.0;
};

/// Times single layers through their public calls on the workload's own
/// inputs: request parsing, head serialisation, a scratch NodeCache of the
/// workload's budget fed the workload's key stream, and DocStore::find.
Micro measure_layers(const Bench& bench) {
  constexpr std::size_t kSample = 4096;
  constexpr std::size_t kCalls = 200000;
  const Corpus& corpus = bench.corpus;
  RequestStream stream(*bench.spec, bench.seed, kMicroStream);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < kSample; ++i) ops.push_back(stream.next());
  std::vector<std::string> wire;
  std::vector<http::Response> heads;
  std::vector<const Document*> docs;
  for (const Op& op : ops) {
    wire.push_back(request_bytes(bench, op));
    if (op.method != Method::kPost) docs.push_back(&corpus.docs[op.index]);
  }
  for (std::size_t i = 0; i < docs.size(); ++i) {
    heads.push_back(response_head(*docs[i], 1000 + i));
  }
  Micro m;
  std::size_t sink = 0;
  m.parse_ns = mean_ns(kCalls, [&](std::size_t i) {
    http::RequestParser parser;
    std::size_t consumed = 0;
    const std::string& bytes = wire[i % wire.size()];
    if (parser.feed(bytes, consumed) != http::ParseResult::kComplete) {
      throw std::runtime_error("request bytes did not parse");
    }
    sink += parser.message().target.size();
  });
  m.serialize_head_ns = mean_ns(kCalls, [&](std::size_t i) {
    sink += heads[i % heads.size()].serialize_head().size();
  });
  runtime::NodeCache cache(bench.spec->cache_bytes_per_node);
  m.cache_lookup_ns = mean_ns(kCalls, [&](std::size_t i) {
    const Document& doc = *docs[i % docs.size()];
    if (!cache.lookup(doc.path)) cache.insert(doc.path, doc.size);
  });
  const runtime::DocStore& store = bench.cluster->docs();
  m.find_ns = mean_ns(kCalls, [&](std::size_t i) {
    sink += store.find(docs[i % docs.size()]->path) != nullptr ? 1 : 0;
  });
  if (sink == 0) throw std::runtime_error("layer timings measured nothing");
  return m;
}

struct Traced {
  PhaseResult phase;
  double snapshot_all_ns = 0.0;
  double net_self_us = 0.0;
  std::size_t stitched = 0;
  std::map<std::string, double> self_us;  // mean self time per server span
};

/// The traced run: tracer on, a closed phase with client spans, the load
/// board sampled while the cluster runs; then per-span self times from the
/// stitched trace, which is written to `trace_out`.
Traced run_traced(Bench& bench, double seconds, const std::string& trace_out) {
  obs::SpanTracer& tracer = bench.cluster->tracer();
  tracer.clear();
  tracer.set_process_name(kClientPid, "generator");
  for (int n = 0; n < kNodes; ++n) {
    tracer.set_process_name(n, "node " + std::to_string(n));
  }
  tracer.set_enabled(true);
  std::vector<double> board_ns;
  std::jthread sampler([&](const std::stop_token& stop) {
    constexpr int kBatch = 32;
    while (!stop.stop_requested()) {
      board_ns.push_back(mean_ns(kBatch, [&](std::size_t) {
        (void)bench.cluster->board().snapshot_all();
      }));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  Traced traced;
  traced.phase = run_closed(bench, kTracedStream, seconds,
                            kMaxTracedRequests, &tracer);
  sampler.request_stop();
  sampler.join();
  tracer.set_enabled(false);
  traced.snapshot_all_ns = median(board_ns);

  std::ostringstream json;
  tracer.write_chrome_json(json);
  const std::string doc = json.str();
  // Complete ("X") spans, in microseconds, grouped by Chrome tid: the
  // request id, shared by a request's client span and its server spans.
  struct Lane {
    std::vector<Interval> client;
    std::vector<std::pair<std::string, Interval>> server;  // name, span
  };
  std::map<std::int64_t, Lane> lanes;
  {
    const auto parsed = obs::json_parse(doc);
    const obs::JsonValue* events =
        parsed ? parsed->find("traceEvents") : nullptr;
    if (events == nullptr || !events->is_array()) {
      throw std::runtime_error("trace did not parse");
    }
    for (const obs::JsonValue& e : events->array) {
      const obs::JsonValue* ph = e.find("ph");
      if (ph == nullptr || ph->string != "X") continue;
      const double ts = e.number_or("ts", 0.0);
      const Interval span{ts, ts + e.number_or("dur", 0.0)};
      Lane& lane = lanes[static_cast<std::int64_t>(e.number_or("tid", 0.0))];
      if (static_cast<std::int64_t>(e.number_or("pid", 0.0)) == kClientPid) {
        lane.client.push_back(span);
      } else {
        const obs::JsonValue* name = e.find("name");
        lane.server.emplace_back(name ? name->string : "", span);
      }
    }
  }
  double net_sum = 0.0;
  std::map<std::string, std::pair<double, std::size_t>> self;
  for (const auto& [tid, lane] : lanes) {
    std::vector<Interval> server;
    for (const auto& [name, span] : lane.server) server.push_back(span);
    for (const auto& [name, outer] : lane.server) {
      std::vector<Interval> inner;
      for (const Interval& s : server) {
        if (s.begin >= outer.begin && s.end <= outer.end &&
            s.length() < outer.length()) {
          inner.push_back(s);
        }
      }
      auto& [sum, count] = self[name];
      sum += self_time(outer, std::move(inner));
      ++count;
    }
    if (lane.client.size() == 1 && !server.empty()) {
      net_sum += self_time(lane.client.front(), server);
      ++traced.stitched;
    }
  }
  if (traced.stitched == 0) throw std::runtime_error("no stitched requests");
  traced.net_self_us = net_sum / static_cast<double>(traced.stitched);
  for (const auto& [name, entry] : self) {
    traced.self_us[name] = entry.first / static_cast<double>(entry.second);
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary);
    out << doc;
    if (!out) throw std::runtime_error("cannot write " + trace_out);
  }
  tracer.clear();
  return traced;
}

// --- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

void write_metrics(obs::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

void write_phase(obs::JsonWriter& w, const char* name, const PhaseResult& p) {
  w.key(name).begin_object();
  w.key("attempted").value(p.tally.attempted);
  w.key("succeeded").value(p.tally.ok);
  w.key("failed").value(p.tally.failed());
  w.key("wall_s").value(p.wall_s);
  w.key("generator_cpu_s").value(p.cpu.generator_s);
  w.key("server_cpu_s").value(p.cpu.server_s);
  w.key("harness_cpu_s").value(p.cpu.harness_s);
  w.end_object();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run(const Args& args) {
  const WorkloadSpec& spec = *find_workload(args.workload);
  const auto wall_begin = Clock::now();
  // Every server thread is started from this thread and inherits its CPUs.
  if (CPU_COUNT(&server_cpus) > 0) {
    (void)pthread_setaffinity_np(pthread_self(), sizeof server_cpus,
                                 &server_cpus);
  }

  // Set up kSetups times; measure on the last cluster.
  Tally warmup;
  std::vector<double> setup_times;
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < kSetups; ++i) {
    bench.reset();
    auto [b, seconds] = set_up(spec, args.seed, warmup);
    bench = std::move(b);
    setup_times.push_back(seconds);
  }

  const double closed_s = args.seconds * kClosedShare;
  const double open_s = args.seconds - closed_s;
  const double closed_round = closed_s / kRounds;
  const double open_round = open_s / kRounds;
  // The registry window spans every round.
  struct Round {
    PhaseResult closed;
    PhaseResult open;
    double steal = 0.0;
    bool counted = false;
  };
  std::vector<Round> rounds(kRounds);
  const obs::RegistrySnapshot before = bench->cluster->registry().snapshot();
  for (int r = 0; r < kRounds; ++r) {
    const HostTicks ticks = host_ticks();
    const auto stream = static_cast<std::uint64_t>(r * kClosedThreads);
    rounds[r].closed = run_closed(*bench, kClosedStream + stream, closed_round,
                                  0, nullptr);
    rounds[r].open = run_open(*bench, open_round, spec.open_rate_rps, r);
    rounds[r].steal = steal_fraction(ticks, host_ticks());
  }
  const WindowDelta window =
      window_delta(before, bench->cluster->registry().snapshot());
  std::vector<Round*> by_steal;
  for (Round& round : rounds) by_steal.push_back(&round);
  std::stable_sort(by_steal.begin(), by_steal.end(),
                   [](const Round* a, const Round* b) {
                     return a->steal < b->steal;
                   });
  for (std::size_t i = 0; i < by_steal.size(); ++i) {
    by_steal[i]->counted =
        by_steal[i]->steal <= kMaxSteal || i < std::size_t{kMinRounds};
  }
  PhaseResult closed;
  PhaseResult open;
  int counted = 0;
  for (const Round& round : rounds) {
    if (!round.counted) continue;
    closed.merge(round.closed, counted * closed_round);
    // Open rounds run past their schedule by up to kOpenOverrunSeconds;
    // spacing them further apart keeps each round's stalls with its own
    // requests.
    open.merge(round.open, counted * (open_round + kOpenOverrunSeconds));
    ++counted;
  }

  // --- End-to-end ---------------------------------------------------------
  std::vector<double> all_latency;
  for (const OpenRequest& r : open.tally.latency) {
    all_latency.push_back(r.latency_ms);
  }
  std::sort(all_latency.begin(), all_latency.end());
  // Each round's lead-in is left out like a stall.
  std::vector<Interval> disturbed = open.stalls;
  for (int r = 0; r < counted; ++r) {
    const double round_start = r * (open_round + kOpenOverrunSeconds);
    disturbed.push_back({round_start, round_start + kOpenLeadIn});
  }
  std::vector<double> latency =
      undisturbed_latencies(open.tally.latency, std::move(disturbed));
  std::sort(latency.begin(), latency.end());
  // sla_ok_frac: requests a stall touched are left out of it as well, but
  // only correct ones; a failure always counts as a miss.
  const auto touched =
      static_cast<double>(all_latency.size() - latency.size());
  const auto within_sla = static_cast<double>(
      std::upper_bound(latency.begin(), latency.end(), spec.sla_ms) -
      latency.begin());
  std::vector<double> lag = open.tally.lag_ms;
  std::sort(lag.begin(), lag.end());
  const auto p50 = tail_quantile(latency, 0.50);
  const auto p99 = tail_quantile(latency, 0.99);
  const auto lag99 = tail_quantile(lag, 0.99);
  if (!p50 || !p99 || !lag99) {
    std::cerr << "swebbench: open phase too small to resolve p99 ("
              << latency.size() << " samples)\n";
    return 1;
  }
  const auto [throughput, goodput] =
      closed_rates(closed, counted * closed_round);
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", median(setup_times)},
      {"throughput_rps", "req/s", throughput},
      {"goodput_MBps", "MB/s", goodput},
      {"latency_p50_ms", "ms", p50->value},
      {"latency_p99_ms", "ms", p99->value},
      {"sla_ok_frac", "ratio",
       ratio(within_sla,
             static_cast<double>(open.tally.attempted) - touched)},
      {"server_cpu_us_per_req", "us",
       ratio(closed.cpu.server_s * 1e6,
             static_cast<double>(closed.tally.attempted))},
  };

  // --- Per layer, from the registry window and the client tallies --------
  Tally both = closed.tally;
  both.merge(open.tally);
  const auto phase_us = [&](const char* phase) {
    return window.sum_histograms("node.", std::string(".phase.") + phase)
               .mean() *
           1e6;
  };
  const double cache_hits =
      static_cast<double>(window.sum_counters("node.", ".cache.hits"));
  const double cache_misses =
      static_cast<double>(window.sum_counters("node.", ".cache.misses"));
  const HistDelta cgi = window.sum_histograms("node.", ".phase.cgi_exec");
  const HistDelta total = window.sum_histograms("node.", ".phase.total");
  const std::uint64_t underflow = window.counter("loadboard.underflow");
  const double ok = static_cast<double>(both.ok);
  std::vector<Metric> per_layer = {
      {"http.parse_us", "us", phase_us("parse")},
      {"reactor.queue_wait_us", "us", phase_us("queue_wait")},
      {"reactor.header_read_us", "us", phase_us("header_read")},
      {"client.connects_per_req", "count",
       ratio(static_cast<double>(both.connects),
             static_cast<double>(both.attempted))},
      {"broker.decide_us", "us", phase_us("broker_decide")},
      {"broker.redirect_frac", "ratio",
       ratio(static_cast<double>(both.redirected), ok)},
      {"broker.owner_served_frac", "ratio",
       ratio(static_cast<double>(both.owner_served), ok)},
      {"broker.max_node_share", "ratio",
       ratio(static_cast<double>(
                 *std::max_element(both.served.begin(), both.served.end())),
             ok)},
      {"loadboard.underflow", "count", static_cast<double>(underflow)},
      {"cache.hit_frac", "ratio", ratio(cache_hits, cache_hits + cache_misses)},
      {"doc.read_us", "us", phase_us("doc_read")},
      {"write.us", "us", phase_us("write")},
      {"write.bytes_per_req", "B",
       ratio(static_cast<double>(both.wire_bytes), ok)},
      {"cgi.count", "count", static_cast<double>(cgi.count)},
      {"cgi.exec_frac", "ratio", ratio(cgi.sum, total.sum)},
      {"overload.shed", "count",
       static_cast<double>(window.sum_counters("node.", ".err.503"))},
      {"server.total_us", "us", total.mean() * 1e6},
      {"generator.cpu_us_per_req", "us",
       ratio(closed.cpu.generator_s * 1e6,
             static_cast<double>(closed.tally.attempted))},
      {"generator.lag_p99_ms", "ms", lag99->value},
      {"host.stalled_frac", "ratio",
       ratio(static_cast<double>(all_latency.size() - latency.size()),
             static_cast<double>(all_latency.size()))},
  };

  // Every request counts here, those of the rounds left out too.
  std::uint64_t attempted = warmup.attempted;
  std::uint64_t failed = warmup.failed();
  for (const Round& round : rounds) {
    attempted += round.closed.tally.attempted + round.open.tally.attempted;
    failed += round.closed.tally.failed() + round.open.tally.failed();
  }
  std::optional<Traced> traced;
  Micro micro;
  if (args.trace) {
    const double traced_s = std::min(closed_s, kMaxTracedSeconds);
    traced = run_traced(*bench, traced_s, args.trace_out);
    micro = measure_layers(*bench);
    attempted += traced->phase.tally.attempted;
    failed += traced->phase.tally.failed();
    const double traced_tput =
        ratio(static_cast<double>(traced->phase.tally.ok),
              traced->phase.wall_s);
    per_layer.insert(
        per_layer.end(),
        {
            {"http.parse_ns", "ns", micro.parse_ns},
            {"http.serialize_head_ns", "ns", micro.serialize_head_ns},
            {"loadboard.snapshot_all_ns", "ns", traced->snapshot_all_ns},
            {"cache.lookup_ns", "ns", micro.cache_lookup_ns},
            {"docstore.find_ns", "ns", micro.find_ns},
            {"trace.overhead_frac", "ratio",
             1.0 - ratio(traced_tput, throughput)},
            {"net.self_us", "us", traced->net_self_us},
        });
  }
  bench->cluster->stop();
  const bool generator_bound = lag99->value > p50->value;
  const bool correct = failed == 0 && underflow == 0;

  // The self-describing report (one line), then the result line.
  obs::JsonWriter report;
  report.begin_object();
  report.key("benchmark").value("swebbench");
  report.key("workload").value(spec.name);
  report.key("seed").value(args.seed);
  report.key("seconds").value(args.seconds);
  report.key("trace").value(args.trace);
  report.key("commit").value(args.commit);
  report.key("build_type").value(PERFBENCH_BUILD_TYPE);
  report.key("compiler").value(PERFBENCH_COMPILER);
  report.key("nproc").value(
      static_cast<int>(std::thread::hardware_concurrency()));
  report.key("nodes").value(kNodes);
  report.key("generator_cpus").begin_array();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &generator_cpus)) report.value(cpu);
  }
  report.end_array();
  report.key("server_cpus").begin_array();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &server_cpus)) report.value(cpu);
  }
  report.end_array();
  report.key("closed_threads").value(kClosedThreads);
  report.key("open_threads").value(kOpenThreads);
  report.key("offered_rps").value(spec.open_rate_rps);
  report.key("sla_ms").value(spec.sla_ms);
  report.key("setup_s_each").begin_array();
  for (const double s : setup_times) report.value(s);
  report.end_array();
  report.key("allocator")
      .value("glibc, mmap_threshold 32 MiB, trim_threshold 256 MiB");
  report.key("rounds").begin_array();
  for (const Round& round : rounds) {
    report.begin_object();
    report.key("steal_frac").value(round.steal);
    report.key("counted").value(round.counted);
    report.end_object();
  }
  report.end_array();
  report.key("phases").begin_object();
  write_phase(report, "closed", closed);
  write_phase(report, "open", open);
  if (traced) write_phase(report, "traced", traced->phase);
  report.key("warmup").begin_object();
  report.key("attempted").value(warmup.attempted);
  report.key("succeeded").value(warmup.ok);
  report.key("failed").value(warmup.failed());
  report.end_object();
  report.end_object();
  report.key("stall_monitor").value(open.stall_monitor);
  report.key("host_stalls")
      .value(static_cast<std::uint64_t>(open.stalls.size()));
  report.key("host_stall_s")
      .value(std::accumulate(open.stalls.begin(), open.stalls.end(), 0.0,
                             [](double sum, const Interval& i) {
                               return sum + i.length();
                             }));
  report.key("latency_samples")
      .value(static_cast<std::uint64_t>(latency.size()));
  report.key("latency_excluded")
      .value(static_cast<std::uint64_t>(all_latency.size() - latency.size()));
  report.key("latency_p99_beyond").value(static_cast<std::uint64_t>(p99->beyond));
  // Quantiles of the requests no stall touched (the metrics), and of all.
  for (const auto& [key, sample] :
       {std::pair{"latency_ms", &latency},
        std::pair{"latency_ms_all", &all_latency}}) {
    report.key(key).begin_object();
    for (const double q : {0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}) {
      if (const auto v = tail_quantile(*sample, q)) {
        report.key("p" + obs::json_number(q * 100)).value(v->value);
      }
    }
    report.end_object();
  }
  report.key("generator_bound").value(generator_bound);
  report.key("end_to_end");
  write_metrics(report, end_to_end);
  report.key("per_layer");
  write_metrics(report, per_layer);
  if (traced) {
    report.key("trace_self_us").begin_object();
    for (const auto& [name, us] : traced->self_us) report.key(name).value(us);
    report.end_object();
    report.key("trace_stitched_requests")
        .value(static_cast<std::uint64_t>(traced->stitched));
    report.key("trace_file").value(args.trace_out);
  }
  report.key("wall_s").value(seconds_between(wall_begin, Clock::now()));
  report.end_object();
  std::cout << report.str() << "\n";
  if (generator_bound) {
    std::cerr << "swebbench: generator lag p99 exceeds latency p50; the "
                 "open-phase latencies describe the generator, not the "
                 "server\n";
  }

  obs::JsonWriter result;
  result.begin_object();
  result.key("correct").value(correct);
  result.key("attempted").value(attempted);
  result.key("failed").value(failed);
  result.key("metrics");
  write_metrics(result, args.trace ? per_layer : end_to_end);
  result.end_object();
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds: glibc's adaptive mmap threshold otherwise
  // settles differently from run to run, and a 1.5 MB cold-path copy then
  // costs either a heap reuse or a fresh mapping with its page faults,
  // which made large-document runs bimodal.
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, 256 << 20);
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "swebbench: " << e.what() << "\n";
    return 1;
  }
}
