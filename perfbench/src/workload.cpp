#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// Base-2 van der Corput radical inverse of n (n >= 1): 1/2, 1/4, 3/4,
/// 1/8, ... Consecutive popularity ranks get sizes spread over the whole
/// range, so the byte-weighted mean does not hinge on which size the seed
/// happens to give the hottest document.
double van_der_corput(std::uint64_t n) {
  double value = 0.0;
  double scale = 0.5;
  while (n != 0) {
    if ((n & 1U) != 0) value += scale;
    n >>= 1U;
    scale *= 0.5;
  }
  return value;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* extension_for(std::uint64_t size) {
  if (size < 4 * 1024) return ".html";
  if (size < 64 * 1024) return ".gif";
  if (size < 512 * 1024) return ".jpg";
  return ".tiff";
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31U);
}

Rng::Rng(std::uint64_t seed) {
  for (int i = 0; i < 4; ++i) s_[i] = mix_seed(seed, static_cast<unsigned>(i));
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17U;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11U) * 0x1.0p-53;
}

double Rng::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

// Where the shapes come from. Popularity is Zipf s=1.1, the scene
// popularity of the repository's Alexandria browse model
// (examples/digital_library.cpp). That model sends a CGI query in 15% of
// its sessions of 3.55 requests on average, so 4.2% of requests are CGI.
// It sends no HEADs. The 10% HEAD share is an assumption, the one
// bench/bench_pressure.cpp uses for its mixed traffic; it makes HEADs
// frequent enough to exercise zero-data pricing. The SLA limits are
// assumptions too, about 50-100x each workload's unloaded median latency:
// generous enough that a healthy server meets them for nearly every
// request, tight enough that a stall or a queue shows.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;
    WorkloadSpec small;
    small.name = "small_1k";
    small.docs = 2000;
    small.min_size = small.max_size = 1024;
    small.zipf_s = 1.1;
    small.open_rate_rps = 11000;
    small.sla_ms = 10.0;
    small.cache_bytes_per_node = 8ULL << 20U;
    small.warmup_requests = 6000;
    out.push_back(small);

    WorkloadSpec large;
    large.name = "large_1500k";
    large.docs = 40;
    large.min_size = large.max_size = 1500 * 1000;
    large.zipf_s = 0.0;
    large.open_rate_rps = 500;
    large.sla_ms = 50.0;
    large.cache_bytes_per_node = 8ULL << 20U;
    large.warmup_requests = 200;
    out.push_back(large);

    WorkloadSpec adl;
    adl.name = "adl_mixed";
    adl.docs = 256;
    adl.log_uniform = true;
    adl.min_size = 100;
    adl.max_size = 1500 * 1000;
    adl.zipf_s = 1.1;
    adl.head_frac = 0.10;
    adl.post_frac = 0.042;
    adl.cgi_queries = 32;
    adl.open_rate_rps = 3800;
    adl.sla_ms = 50.0;
    adl.cache_bytes_per_node = 8ULL << 20U;
    adl.warmup_requests = 1500;
    out.push_back(adl);
    return out;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Corpus make_corpus(const WorkloadSpec& spec, std::uint64_t seed, int nodes) {
  Corpus corpus;
  Rng rng(mix_seed(seed, 0xc0de));
  corpus.docs.reserve(spec.docs);
  const double n = static_cast<double>(spec.docs);
  for (std::size_t r = 0; r < spec.docs; ++r) {
    Document doc;
    doc.size = spec.min_size;
    if (spec.log_uniform) {
      const double u = std::clamp(
          van_der_corput(r + 1) + (rng.uniform() - 0.5) / n, 0.0, 1.0);
      doc.size = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(spec.min_size) *
          std::pow(static_cast<double>(spec.max_size) /
                       static_cast<double>(spec.min_size),
                   u)));
    }
    doc.owner = static_cast<int>(r % static_cast<std::size_t>(nodes));
    doc.path = "/" + spec.name + "/" + hex64(rng.next()).substr(0, 8) + "-" +
               std::to_string(r) + extension_for(doc.size);
    corpus.docs.push_back(std::move(doc));
  }
  if (spec.cgi_queries > 0) {
    for (int node = 0; node < nodes; ++node) {
      corpus.cgi_endpoints.push_back(
          {"/cgi-bin/adl-query-" + std::to_string(node) + ".cgi", node});
    }
    for (std::size_t q = 0; q < spec.cgi_queries; ++q) {
      const std::uint64_t a = rng.next();
      corpus.cgi_queries.push_back(
          "lat=" + std::to_string(static_cast<int>(a % 180) - 90) +
          "&lon=" + std::to_string(static_cast<int>((a >> 8U) % 360) - 180) +
          "&theme=" + hex64(rng.next()).substr(0, 6));
    }
  }
  return corpus;
}

RequestStream::RequestStream(const WorkloadSpec& spec, std::uint64_t seed,
                             std::uint64_t stream)
    : spec_(spec), rng_(mix_seed(seed, stream)) {
  if (spec.zipf_s > 0.0) {
    cdf_.reserve(spec.docs);
    double total = 0.0;
    for (std::size_t r = 0; r < spec.docs; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
}

Op RequestStream::next() {
  Op op;
  const double m = rng_.uniform();
  if (m < spec_.post_frac) {
    op.method = Method::kPost;
    op.index = static_cast<std::uint32_t>(rng_.next() % spec_.cgi_queries);
    return op;
  }
  op.method = m < spec_.post_frac + spec_.head_frac ? Method::kHead
                                                     : Method::kGet;
  if (cdf_.empty()) {
    op.index = static_cast<std::uint32_t>(rng_.next() % spec_.docs);
  } else {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng_.uniform());
    op.index = static_cast<std::uint32_t>(
        std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                              spec_.docs - 1));
  }
  return op;
}

std::vector<double> poisson_arrivals(std::uint64_t seed, std::uint64_t stream,
                                     double rate, double duration_s) {
  std::vector<double> out;
  Rng rng(mix_seed(seed, stream));
  for (double t = rng.exponential(rate); t < duration_s;
       t += rng.exponential(rate)) {
    out.push_back(t);
  }
  return out;
}

std::string cgi_output(std::string_view query) {
  // A fixed amount of dependent integer work (~1 ms on a 3 GHz core):
  // the CPU-bound request class of the paper's ADL mix.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : query) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  constexpr int kRounds = 800000;
  for (int i = 0; i < kRounds; ++i) h = rotl(h * 0x9e3779b97f4a7c15ULL, 17) + i;
  return "adl-query " + hex64(h) + " " + std::string(query) + "\n";
}

}  // namespace perfbench
