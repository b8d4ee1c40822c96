// The benchmark's own arithmetic: tail quantiles with enough samples
// behind them, the requests no host stall touched, registry deltas over a
// measured window, and span self time.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

/// A nearest-rank quantile: `value` is sorted[rank - 1] with
/// rank = ceil(q * n), and `beyond` = n - rank samples lie past it.
struct Quantile {
  double value = 0.0;
  std::size_t rank = 0;
  std::size_t beyond = 0;
};

/// The q-quantile of ascending `sorted`, or nullopt when fewer than
/// `min_beyond` samples lie beyond it (too few to resolve that tail).
[[nodiscard]] std::optional<Quantile> tail_quantile(
    const std::vector<double>& sorted, double q, std::size_t min_beyond = 10);

/// Median of `values` (mean of the middle two for even counts); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

/// A timed observation: `t` seconds into a phase, carrying `value`.
struct Event {
  double t = 0.0;
  double value = 0.0;
};

/// Cuts [0, duration) into `slices` equal slices and returns the median over
/// slices of (sum of the values of the events in the slice) / slice length.
/// A short stall of the whole machine then moves one slice, not the result.
[[nodiscard]] double median_slice_rate(const std::vector<Event>& events,
                                       double duration, int slices);

/// One histogram's change over a window.
struct HistDelta {
  std::uint64_t count = 0;
  double sum = 0.0;
  /// sum / count, or 0 for an empty window. Unlike bucket quantiles, a
  /// mean resolves values below the first histogram bucket.
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Counter and histogram changes between two registry snapshots taken
/// around a measured window, so set-up and warm-up traffic never leak in.
struct WindowDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistDelta> histograms;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  /// Sum over every counter named `<prefix><anything><suffix>`, e.g.
  /// sum_counters("node.", ".requests") over all nodes.
  [[nodiscard]] std::uint64_t sum_counters(std::string_view prefix,
                                           std::string_view suffix) const;
  [[nodiscard]] HistDelta sum_histograms(std::string_view prefix,
                                         std::string_view suffix) const;
};

/// after - before. Instruments absent from `before` count from zero; a
/// counter that went backwards (it cannot, unless the registry was
/// replaced) clamps to zero.
[[nodiscard]] WindowDelta window_delta(
    const sweb::obs::RegistrySnapshot& before,
    const sweb::obs::RegistrySnapshot& after);

struct Interval {
  double begin = 0.0;
  double end = 0.0;
  [[nodiscard]] double length() const {
    return end > begin ? end - begin : 0.0;
  }
};

/// Length of the union of `parts`, each clipped to `within`: overlapping
/// parts are counted once and nested parts add nothing.
[[nodiscard]] double covered_length(Interval within,
                                    std::vector<Interval> parts);

/// A span's self time: its duration minus the part of it its descendant
/// spans cover.
[[nodiscard]] inline double self_time(Interval span,
                                      std::vector<Interval> descendants) {
  return span.length() - covered_length(span, std::move(descendants));
}

/// One open-phase request, times in seconds on the phase's clock. Its
/// connection sends requests one at a time, so a request due while the
/// one before it was still out waits for it. `busy_from` is when the
/// connection's current busy stretch began: the due time of the first
/// request it has been working through without a break since (`due` when
/// the connection was free).
struct OpenRequest {
  double busy_from = 0.0;
  double due = 0.0;
  double latency_ms = 0.0;
  /// The generator itself sent this request, or one of its busy stretch
  /// before it, late: its latency partly measures the generator.
  bool generator_late = false;
};

/// The latencies, in request order, of the requests no stall touched. A
/// host stall touched a request when it overlaps [busy_from, due +
/// latency]: the request was in flight during it, or queued behind a
/// request that was. A generator stall touched the generator_late ones.
[[nodiscard]] std::vector<double> undisturbed_latencies(
    const std::vector<OpenRequest>& requests, std::vector<Interval> stalls);

}  // namespace perfbench
