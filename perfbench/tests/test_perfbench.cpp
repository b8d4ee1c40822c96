// Unit tests for the pieces the benchmark owns: the seeded generator, the
// tail-quantile rules, the host-stall filter, the registry window delta,
// span self time and the /proc CPU split.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "cpu.h"
#include "stall.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> ascending(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Schedule, SameSeedSameArrivals) {
  const auto a = poisson_arrivals(7, 3, 1000.0, 2.0);
  const auto b = poisson_arrivals(7, 3, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, poisson_arrivals(8, 3, 1000.0, 2.0));
  EXPECT_NE(a, poisson_arrivals(7, 4, 1000.0, 2.0));
  // Poisson count: mean 2000, sd ~45.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 250.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
}

TEST(Schedule, SameSeedSameRequestStream) {
  for (const WorkloadSpec& spec : workloads()) {
    RequestStream x(spec, 42, 1);
    RequestStream y(spec, 42, 1);
    RequestStream z(spec, 43, 1);
    bool differs = false;
    for (int i = 0; i < 2000; ++i) {
      const Op op = x.next();
      EXPECT_EQ(op, y.next());
      differs = differs || !(op == z.next());
      if (op.method == Method::kPost) {
        EXPECT_LT(op.index, spec.cgi_queries);
      } else {
        EXPECT_LT(op.index, spec.docs);
      }
    }
    EXPECT_TRUE(differs) << spec.name;
  }
}

TEST(Schedule, SameSeedSameCorpus) {
  const WorkloadSpec& adl = *find_workload("adl_mixed");
  const Corpus a = make_corpus(adl, 5, 2);
  const Corpus b = make_corpus(adl, 5, 2);
  const Corpus c = make_corpus(adl, 6, 2);
  ASSERT_EQ(a.docs.size(), adl.docs);
  for (std::size_t i = 0; i < a.docs.size(); ++i) {
    EXPECT_EQ(a.docs[i].path, b.docs[i].path);
    EXPECT_EQ(a.docs[i].size, b.docs[i].size);
    EXPECT_EQ(a.docs[i].owner, static_cast<int>(i % 2));
    EXPECT_GE(a.docs[i].size, adl.min_size);
    EXPECT_LE(a.docs[i].size, adl.max_size);
  }
  EXPECT_NE(a.docs[0].path, c.docs[0].path);
  EXPECT_EQ(a.cgi_queries, b.cgi_queries);
  EXPECT_EQ(a.cgi_queries.size(), adl.cgi_queries);
  EXPECT_EQ(a.cgi_endpoints.size(), 2U);
}

TEST(Schedule, MixMatchesTheSpec) {
  const WorkloadSpec& adl = *find_workload("adl_mixed");
  RequestStream s(adl, 9, 0);
  int post = 0;
  int head = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const Op op = s.next();
    post += op.method == Method::kPost ? 1 : 0;
    head += op.method == Method::kHead ? 1 : 0;
  }
  EXPECT_NEAR(post / static_cast<double>(kN), adl.post_frac, 0.005);
  EXPECT_NEAR(head / static_cast<double>(kN), adl.head_frac, 0.005);
  RequestStream small(*find_workload("small_1k"), 9, 0);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(small.next().method, Method::kGet);
}

TEST(Schedule, CgiOutputIsDeterministic) {
  EXPECT_EQ(cgi_output("q=1"), cgi_output("q=1"));
  EXPECT_NE(cgi_output("q=1"), cgi_output("q=2"));
}

TEST(Quantile, NearestRank) {
  const auto v = ascending(1000);
  const auto p50 = tail_quantile(v, 0.50);
  ASSERT_TRUE(p50);
  EXPECT_EQ(p50->value, 500.0);
  EXPECT_EQ(p50->beyond, 500U);
  const auto p99 = tail_quantile(v, 0.99);
  ASSERT_TRUE(p99);
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->rank, 990U);
  EXPECT_EQ(p99->beyond, 10U);
}

TEST(Quantile, RefusesATailWithFewerThanTenBeyond) {
  // 999 samples: rank ceil(989.01) = 990 leaves only 9 beyond.
  EXPECT_FALSE(tail_quantile(ascending(999), 0.99));
  EXPECT_TRUE(tail_quantile(ascending(999), 0.99, 9));
  EXPECT_TRUE(tail_quantile(ascending(100), 0.50));
  EXPECT_FALSE(tail_quantile(ascending(100), 0.95));
  EXPECT_FALSE(tail_quantile({}, 0.5, 0));
}

TEST(Stalls, LeaveOutRequestsAStallTouched) {
  // One connection; a request due every 10 ms takes 2 ms, so none queues.
  std::vector<OpenRequest> requests;
  for (int i = 0; i < 10; ++i) {
    requests.push_back({i / 100.0, i / 100.0, 2.0});
  }
  EXPECT_EQ(undisturbed_latencies(requests, {}).size(), 10U);
  // A stall over [0.031, 0.035] touches the request in flight at
  // 0.030-0.032 only.
  EXPECT_EQ(undisturbed_latencies(requests, {{0.031, 0.035}}).size(), 9U);
  // A stall that ends just before a request is due leaves it alone; so
  // does one that starts just after it completed.
  EXPECT_EQ(undisturbed_latencies(requests, {{0.0695, 0.0699}}).size(), 10U);
  EXPECT_EQ(undisturbed_latencies(requests, {{0.0721, 0.0730}}).size(), 10U);
  // Overlapping and unsorted stalls merge into [0.045, 0.061]: it touches
  // the requests at 0.05 and 0.06, and the stall inside 0.000-0.002 the
  // first one.
  EXPECT_EQ(undisturbed_latencies(
                requests, {{0.055, 0.061}, {0.045, 0.056}, {0.001, 0.0015}})
                .size(),
            7U);
}

TEST(Stalls, LeaveOutRequestsQueuedBehindAStall) {
  std::vector<OpenRequest> requests;
  for (int i = 0; i < 10; ++i) {
    requests.push_back({i / 100.0, i / 100.0, 2.0});
  }
  // The request due at 0.05 is held until 0.075. The ones due at 0.06 and
  // 0.07 queue behind it (busy since 0.05); the one due at 0.08 finds the
  // connection free.
  requests[5].latency_ms = 25.0;
  requests[6] = {0.05, 0.06, 17.0};
  requests[7] = {0.05, 0.07, 9.0};
  const auto kept = undisturbed_latencies(requests, {{0.052, 0.053}});
  EXPECT_EQ(kept, (std::vector<double>{2, 2, 2, 2, 2, 2, 2}));
  // A late send by the generator takes out its busy stretch.
  auto late = requests;
  late[6].generator_late = late[7].generator_late = true;
  EXPECT_EQ(undisturbed_latencies(late, {}).size(), 8U);
  // The same stall touches nothing when no request was out during it.
  requests[5].latency_ms = 1.0;
  requests[6] = {0.06, 0.06, 2.0};
  requests[7] = {0.07, 0.07, 2.0};
  EXPECT_EQ(undisturbed_latencies(requests, {{0.052, 0.053}}).size(), 10U);
}

TEST(Stalls, MonitorStartsAndStops) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(0, &cpus);
  const auto origin = StallMonitor::Clock::now();
  StallMonitor monitor(cpus, std::chrono::microseconds(1000),
                       std::chrono::microseconds(1000));
  ASSERT_EQ(monitor.tids().size(), 1U);
  EXPECT_GT(monitor.tids()[0], 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (const Interval& stall : monitor.stop(origin)) {
    EXPECT_TRUE(monitor.realtime());  // only real-time canaries record
    EXPECT_GE(stall.begin, 0.0);
    EXPECT_GT(stall.end, stall.begin + 0.001);
  }
}

TEST(Quantile, MedianSliceRate) {
  std::vector<Event> events;
  for (int i = 0; i < 400; ++i) events.push_back({i / 100.0, 1.0});  // 100/s
  EXPECT_DOUBLE_EQ(median_slice_rate(events, 4.0, 4), 100.0);
  // A stalled slice (no completions) and a late event outside the window
  // do not move the median.
  std::erase_if(events,
                [](const Event& e) { return e.t >= 1.0 && e.t < 2.0; });
  events.push_back({4.5, 1000.0});
  EXPECT_DOUBLE_EQ(median_slice_rate(events, 4.0, 4), 100.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(WindowDelta, SubtractsTheSnapshotBeforeTheWindow) {
  sweb::obs::RegistrySnapshot before;
  sweb::obs::RegistrySnapshot after;
  before.counters = {{"node.0.requests", 5}, {"node.1.requests", 1},
                     {"loadboard.underflow", 2}};
  after.counters = {{"node.0.requests", 9}, {"node.1.requests", 1},
                    {"loadboard.underflow", 1}, {"node.0.cache.hits", 3}};
  before.histograms["node.0.phase.parse"].count = 10;
  before.histograms["node.0.phase.parse"].sum = 1.0;
  after.histograms["node.0.phase.parse"].count = 14;
  after.histograms["node.0.phase.parse"].sum = 1.8;
  after.histograms["node.1.phase.parse"].count = 1;
  after.histograms["node.1.phase.parse"].sum = 0.2;
  const WindowDelta d = window_delta(before, after);
  EXPECT_EQ(d.counter("node.0.requests"), 4U);
  EXPECT_EQ(d.counter("node.1.requests"), 0U);
  EXPECT_EQ(d.counter("node.0.cache.hits"), 3U);  // new in the window
  EXPECT_EQ(d.counter("loadboard.underflow"), 0U);  // went backwards
  EXPECT_EQ(d.counter("absent"), 0U);
  EXPECT_EQ(d.sum_counters("node.", ".requests"), 4U);
  const HistDelta parse = d.histograms.at("node.0.phase.parse");
  EXPECT_EQ(parse.count, 4U);
  EXPECT_NEAR(parse.mean(), 0.2, 1e-12);
  const HistDelta all = d.sum_histograms("node.", ".phase.parse");
  EXPECT_EQ(all.count, 5U);
  EXPECT_NEAR(all.sum, 1.0, 1e-12);
  EXPECT_EQ(HistDelta{}.mean(), 0.0);
}

TEST(SelfTime, NestedChildrenCountOnce) {
  // Child [2,5] holds grandchild [3,4]: only 3 units are covered.
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{2, 5}, {3, 4}}), 7.0);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnion) {
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{1, 4}, {3, 6}}), 5.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{3, 6}, {1, 4}, {1, 4}}), 5.0);
}

TEST(SelfTime, ChildrenAreClippedToTheSpan) {
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{8, 12}, {-3, 1}}), 7.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{11, 12}}), 10.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {}), 10.0);
  EXPECT_DOUBLE_EQ(self_time({0, 10}, {{0, 10}, {2, 3}}), 0.0);
}

TEST(Cpu, ParsesUtimeAndStime) {
  // Fields after the name: state(3) ppid pgrp session tty tpgid flags
  // minflt cminflt majflt cmajflt utime(14) stime(15) ...
  EXPECT_EQ(stat_cpu_ticks("42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0"),
            150);
  EXPECT_EQ(stat_cpu_ticks("42 (x) S 1 2"), -1);
  EXPECT_EQ(stat_cpu_ticks("no parenthesis"), -1);
}

TEST(Cpu, ReadsHostSteal) {
  const HostTicks t =
      parse_host_ticks("cpu  100 5 20 800 10 1 4 60 30 0");
  EXPECT_EQ(t.steal, 60);
  EXPECT_EQ(t.total, 1000);  // guest time is inside user already
  EXPECT_EQ(parse_host_ticks("cpu0 1 2 3").total, 0);
  EXPECT_DOUBLE_EQ(steal_fraction({60, 1000}, {90, 1300}), 0.1);
  EXPECT_DOUBLE_EQ(steal_fraction({60, 1000}, {60, 1000}), 0.0);
  EXPECT_GT(host_ticks().total, 0);
}

TEST(Cpu, SplitsGeneratorFromServer) {
  const std::map<int, double> before = {{1, 1.0}, {2, 2.0}, {3, 0.5}};
  const std::map<int, double> after = {{1, 1.5}, {2, 4.0}, {3, 0.5}, {9, 0.25}};
  const CpuSplit split = split_cpu(before, after, {1}, {});
  EXPECT_DOUBLE_EQ(split.generator_s, 0.5);
  EXPECT_DOUBLE_EQ(split.server_s, 2.25);  // thread 9 started in the window
  EXPECT_DOUBLE_EQ(split.harness_s, 0.0);
  // Helper threads (spinners, canaries) count as neither.
  const CpuSplit with_harness = split_cpu(before, after, {1}, {9});
  EXPECT_DOUBLE_EQ(with_harness.server_s, 2.0);
  EXPECT_DOUBLE_EQ(with_harness.harness_s, 0.25);
  EXPECT_FALSE(task_cpu_seconds().empty());
  EXPECT_TRUE(task_cpu_seconds().contains(current_tid()));
}

}  // namespace
}  // namespace perfbench
