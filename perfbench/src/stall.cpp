#include "stall.h"

#include <pthread.h>
#include <sys/prctl.h>

#include <algorithm>

#include "cpu.h"

namespace perfbench {

StallMonitor::StallMonitor(const cpu_set_t& cpus,
                           std::chrono::microseconds period,
                           std::chrono::microseconds threshold)
    : tids_(static_cast<std::size_t>(CPU_COUNT(&cpus)), 0),
      fifo_(tids_.size(), 0),
      ready_(static_cast<std::ptrdiff_t>(tids_.size())) {
  std::size_t i = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && i < tids_.size(); ++cpu) {
    if (!CPU_ISSET(cpu, &cpus)) continue;
    threads_.emplace_back([=, this](const std::stop_token& stop) {
      tids_[i] = current_tid();
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_param param{};
      param.sched_priority = 1;
      fifo_[i] =
          pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0 &&
          pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
      // 1 ns of timer slack: lateness is then the wake-up's, not the timer's.
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      ready_.count_down();
      state_.wait(kPending);
      if (state_ != kRunning) return;
      Clock::time_point woke = Clock::now();
      while (!stop.stop_requested()) {
        const Clock::time_point due = woke + period;
        std::this_thread::sleep_until(due);
        const Clock::time_point now = Clock::now();
        if (now - due > threshold) {
          const std::lock_guard lock(mu_);
          stalls_.emplace_back(woke, now);
        }
        woke = now;
      }
    });
    ++i;
  }
  ready_.wait();
  realtime_ = !fifo_.empty() &&
              std::all_of(fifo_.begin(), fifo_.end(), [](char f) { return f; });
  state_ = realtime_ ? kRunning : kQuit;
  state_.notify_all();
}

StallMonitor::~StallMonitor() { (void)stop(Clock::now()); }

std::vector<Interval> StallMonitor::stop(Clock::time_point origin) {
  threads_.clear();  // requests stop and joins
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - origin).count();
  };
  std::vector<Interval> out;
  for (const auto& [from, to] : stalls_) out.push_back({since(from), since(to)});
  return out;
}

}  // namespace perfbench
