#include "stats.h"

#include <algorithm>
#include <cmath>


namespace perfbench {

std::optional<Quantile> tail_quantile(const std::vector<double>& sorted,
                                      double q, std::size_t min_beyond) {
  const std::size_t n = sorted.size();
  if (n == 0 || q <= 0.0 || q > 1.0) return std::nullopt;
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
  const std::size_t beyond = n - rank;
  if (beyond < min_beyond) return std::nullopt;
  return Quantile{sorted[rank - 1], rank, beyond};
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double median_slice_rate(const std::vector<Event>& events, double duration,
                         int slices) {
  if (slices < 1 || duration <= 0.0) return 0.0;
  const double width = duration / slices;
  std::vector<double> sums(static_cast<std::size_t>(slices), 0.0);
  for (const Event& e : events) {
    if (e.t < 0.0 || e.t >= duration) continue;
    const auto i =
        std::min(static_cast<std::size_t>(e.t / width), sums.size() - 1);
    sums[i] += e.value;
  }
  for (double& s : sums) s /= width;
  return median(std::move(sums));
}

namespace {

bool matches(std::string_view name, std::string_view prefix,
             std::string_view suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.starts_with(prefix) && name.ends_with(suffix);
}

}  // namespace

std::uint64_t WindowDelta::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t WindowDelta::sum_counters(std::string_view prefix,
                                        std::string_view suffix) const {
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters) {
    if (matches(name, prefix, suffix)) total += value;
  }
  return total;
}

HistDelta WindowDelta::sum_histograms(std::string_view prefix,
                                      std::string_view suffix) const {
  HistDelta total;
  for (const auto& [name, value] : histograms) {
    if (matches(name, prefix, suffix)) {
      total.count += value.count;
      total.sum += value.sum;
    }
  }
  return total;
}

WindowDelta window_delta(const sweb::obs::RegistrySnapshot& before,
                         const sweb::obs::RegistrySnapshot& after) {
  WindowDelta delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    delta.counters[name] = value > base ? value - base : 0;
  }
  for (const auto& [name, value] : after.histograms) {
    HistDelta d{value.count, value.sum};
    if (const auto it = before.histograms.find(name);
        it != before.histograms.end()) {
      d.count = value.count > it->second.count ? value.count - it->second.count
                                               : 0;
      d.sum = d.count == 0 ? 0.0 : value.sum - it->second.sum;
    }
    delta.histograms[name] = d;
  }
  return delta;
}

double covered_length(Interval within, std::vector<Interval> parts) {
  for (Interval& p : parts) {
    p.begin = std::max(p.begin, within.begin);
    p.end = std::min(p.end, within.end);
  }
  std::erase_if(parts, [](const Interval& p) { return p.end <= p.begin; });
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double reach = within.begin;
  for (const Interval& p : parts) {
    const double from = std::max(p.begin, reach);
    if (p.end > from) {
      covered += p.end - from;
      reach = p.end;
    }
  }
  return covered;
}

std::vector<double> undisturbed_latencies(
    const std::vector<OpenRequest>& requests, std::vector<Interval> stalls) {
  // Merge the stalls into disjoint windows sorted by start, so they are
  // sorted by end too.
  std::sort(stalls.begin(), stalls.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  std::vector<Interval> windows;
  for (const Interval& s : stalls) {
    if (!windows.empty() && s.begin <= windows.back().end) {
      windows.back().end = std::max(windows.back().end, s.end);
    } else {
      windows.push_back(s);
    }
  }
  std::vector<double> kept;
  kept.reserve(requests.size());
  for (const OpenRequest& r : requests) {
    if (r.generator_late) continue;
    const double done = r.due + r.latency_ms / 1000.0;
    // Only the first window ending at or after busy_from can overlap
    // first; every later one starts later still.
    const auto it = std::lower_bound(
        windows.begin(), windows.end(), r.busy_from,
        [](const Interval& w, double t) { return w.end < t; });
    if (it == windows.end() || it->begin > done) kept.push_back(r.latency_ms);
  }
  return kept;
}

}  // namespace perfbench
