#include "cpu.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

long long stat_cpu_ticks(std::string_view stat) {
  // The command name (field 2) is parenthesised and may hold spaces, so
  // count fields from the last ')'. utime and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string_view::npos) return -1;
  std::istringstream rest{std::string(stat.substr(close + 1))};
  std::string field;
  long long ticks = 0;
  for (int n = 3; n <= 15 && rest >> field; ++n) {
    if (n >= 14) {
      char* end = nullptr;
      const long long v = std::strtoll(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0' || v < 0) return -1;
      ticks += v;
      if (n == 15) return ticks;
    }
  }
  return -1;
}

std::map<int, double> task_cpu_seconds() {
  static const double tick_s =
      1.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::map<int, double> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream in(entry.path() / "stat");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const long long ticks = stat_cpu_ticks(text);
    if (ticks >= 0) {
      out[std::atoi(entry.path().filename().c_str())] =
          static_cast<double>(ticks) * tick_s;
    }
  }
  return out;
}

CpuSplit split_cpu(const std::map<int, double>& before,
                   const std::map<int, double>& after,
                   const std::set<int>& generator_tids,
                   const std::set<int>& harness_tids) {
  CpuSplit split;
  for (const auto& [tid, seconds] : after) {
    const auto it = before.find(tid);
    const double used = seconds - (it == before.end() ? 0.0 : it->second);
    if (used <= 0.0) continue;
    if (generator_tids.contains(tid)) {
      split.generator_s += used;
    } else if (harness_tids.contains(tid)) {
      split.harness_s += used;
    } else {
      split.server_s += used;
    }
  }
  return split;
}

HostTicks parse_host_ticks(std::string_view cpu_line) {
  // cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user, so the total stops at steal.
  std::istringstream in{std::string(cpu_line)};
  std::string label;
  HostTicks ticks;
  if (!(in >> label) || label != "cpu") return {};
  for (int field = 1; field <= 8; ++field) {
    long long v = 0;
    if (!(in >> v)) return {};
    ticks.total += v;
    if (field == 8) ticks.steal = v;
  }
  return ticks;
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return parse_host_ticks(line);
}

double steal_fraction(const HostTicks& before, const HostTicks& after) {
  const long long total = after.total - before.total;
  if (total <= 0) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

}  // namespace perfbench
