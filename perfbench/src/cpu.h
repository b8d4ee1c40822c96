// Per-thread CPU accounting from /proc/self/task, so the benchmark can
// split the process's CPU between its own generator threads and the
// server's threads (reactors, CGI pool, heartbeats).
#pragma once

#include <map>
#include <set>
#include <string_view>

namespace perfbench {

/// The calling thread's kernel thread id.
[[nodiscard]] int current_tid();

/// utime + stime in seconds for every live thread of this process, keyed
/// by thread id.
[[nodiscard]] std::map<int, double> task_cpu_seconds();

/// utime + stime ticks from the text of one /proc/<pid>/task/<tid>/stat
/// file; negative if malformed.
[[nodiscard]] long long stat_cpu_ticks(std::string_view stat);

struct CpuSplit {
  double generator_s = 0.0;
  double server_s = 0.0;
  double harness_s = 0.0;
};

/// CPU spent between two task_cpu_seconds() snapshots, split into the
/// threads named in `generator_tids`, those named in `harness_tids` (the
/// benchmark's helpers that send nothing, such as idle spinners and stall
/// canaries) and all others, the server's. A thread missing from `before`
/// started inside the window and counts from zero.
[[nodiscard]] CpuSplit split_cpu(const std::map<int, double>& before,
                                 const std::map<int, double>& after,
                                 const std::set<int>& generator_tids,
                                 const std::set<int>& harness_tids);

/// Cumulative ticks of all CPUs from the first line of /proc/stat: the
/// ones the hypervisor stole from this guest, and all of them.
struct HostTicks {
  long long steal = 0;
  long long total = 0;
};

[[nodiscard]] HostTicks host_ticks();
/// Parses the aggregate "cpu ..." line of /proc/stat; zeros if malformed.
[[nodiscard]] HostTicks parse_host_ticks(std::string_view cpu_line);
/// Share of all CPU time stolen between two readings (0 if none passed).
[[nodiscard]] double steal_fraction(const HostTicks& before,
                                    const HostTicks& after);

}  // namespace perfbench
