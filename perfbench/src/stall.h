// Host-stall detection for the open phase. The latency metrics leave out
// the requests a stall of the (virtual) CPUs themselves touched, and the
// criterion is measured, not inferred from the latencies.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

/// One SCHED_FIFO canary thread per CPU wakes every `period` and records
/// each wake-up that came more than `threshold` late. The real-time class
/// preempts every ordinary thread, the server's included, so a late canary
/// means the CPU itself did not run: the hypervisor descheduled the vCPU or
/// woke a halted one late. Code under test cannot cause one. When the
/// kernel refuses SCHED_FIFO the canaries do not start, realtime() is
/// false and no stall is recorded, because an ordinary-priority canary
/// would also be late whenever the server kept its CPU busy.
class StallMonitor {
 public:
  using Clock = std::chrono::steady_clock;

  StallMonitor(const cpu_set_t& cpus, std::chrono::microseconds period,
               std::chrono::microseconds threshold);
  ~StallMonitor();
  StallMonitor(const StallMonitor&) = delete;
  StallMonitor& operator=(const StallMonitor&) = delete;

  [[nodiscard]] bool realtime() const { return realtime_; }
  /// The canaries' thread ids, for the CPU split.
  [[nodiscard]] const std::vector<int>& tids() const { return tids_; }
  /// Stops the canaries and returns each stall as the interval from the
  /// canary's previous wake-up to its late one, in seconds since `origin`.
  [[nodiscard]] std::vector<Interval> stop(Clock::time_point origin);

 private:
  enum State : int { kPending, kRunning, kQuit };

  bool realtime_ = false;
  std::vector<int> tids_;
  std::vector<char> fifo_;  // per canary: SCHED_FIFO was granted
  std::latch ready_;
  std::atomic<int> state_{kPending};
  std::vector<std::jthread> threads_;
  std::mutex mu_;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> stalls_;
};

}  // namespace perfbench
