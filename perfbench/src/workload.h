// Seeded workload generator for the SWEB benchmark.
//
// Everything the cluster sees is derived here from one workload seed: the
// document corpus (paths, sizes, owners), the CGI query bodies, the
// per-thread request streams and the open-phase arrival schedules. The same
// seed gives the same inputs; the shape of each workload (sizes,
// popularity skew, method mix, offered rate) is fixed in code so that runs
// with different seeds measure the same thing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: derives independent 64-bit seeds for each stream.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Small portable PRNG (xoshiro256**). Unlike the <random> distributions,
/// its outputs are identical on every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  [[nodiscard]] std::uint64_t next();
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform();
  /// Exponential with the given rate (events per unit).
  [[nodiscard]] double exponential(double rate);

 private:
  std::uint64_t s_[4];
};

enum class Method { kGet, kHead, kPost };

/// The fixed shape of one workload. Only the realisation depends on the
/// seed.
struct WorkloadSpec {
  std::string name;
  std::size_t docs = 0;
  /// Sizes are exactly min_size when log_uniform is false, otherwise
  /// log-uniform over [min_size, max_size].
  bool log_uniform = false;
  std::uint64_t min_size = 0;
  std::uint64_t max_size = 0;
  /// Zipf exponent of document popularity; 0 means uniform popularity.
  double zipf_s = 0.0;
  double head_frac = 0.0;
  double post_frac = 0.0;
  /// Distinct POST query bodies (CGI workloads only).
  std::size_t cgi_queries = 0;
  /// Open-phase offered load, requests per second (frozen; about half the
  /// closed-phase capacity measured when the benchmark was defined).
  double open_rate_rps = 0.0;
  /// Latency limit for sla_ok_frac.
  double sla_ms = 0.0;
  std::uint64_t cache_bytes_per_node = 0;
  /// Requests sent during set-up, before any measurement.
  std::size_t warmup_requests = 0;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

struct Document {
  std::string path;
  std::uint64_t size = 0;
  int owner = 0;
};

struct CgiEndpoint {
  std::string path;
  int owner = 0;
};

/// Documents are stored in popularity order (index 0 is the most popular)
/// and owned round-robin in that order, so the hot set is balanced across
/// nodes whatever the seed.
struct Corpus {
  std::vector<Document> docs;
  std::vector<CgiEndpoint> cgi_endpoints;
  std::vector<std::string> cgi_queries;
};

[[nodiscard]] Corpus make_corpus(const WorkloadSpec& spec, std::uint64_t seed,
                                 int nodes);

/// One request: GET/HEAD name a document index; POST names a query index
/// (sent to cgi_endpoints[index % endpoints]).
struct Op {
  Method method = Method::kGet;
  std::uint32_t index = 0;

  friend bool operator==(const Op&, const Op&) = default;
};

/// Deterministic request sequence for one (seed, stream) pair.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::uint64_t seed,
                std::uint64_t stream);
  [[nodiscard]] Op next();

 private:
  const WorkloadSpec& spec_;
  Rng rng_;
  std::vector<double> cdf_;  // popularity CDF; empty = uniform
};

/// Poisson arrival offsets (seconds from phase start) in [0, duration_s)
/// at `rate` per second.
[[nodiscard]] std::vector<double> poisson_arrivals(std::uint64_t seed,
                                                   std::uint64_t stream,
                                                   double rate,
                                                   double duration_s);

/// The body a CGI query must return (the benchmark registers the handler,
/// so it also knows the answer).
[[nodiscard]] std::string cgi_output(std::string_view query);

}  // namespace perfbench
