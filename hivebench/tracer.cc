#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench.h"

namespace hivebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* Tracer::NameOf(int name) {
  static const char* const kNames[kNumNames] = {
      "sim.run",
      "bench.callback",
      "net.start_flow",
      "net.cancel_flow",
      "net.fleet_build",
      "core.build_world",
      "scenario.compile",
      "faults.arm",
      "core.complete_experiment",
      "core.run_sweep",
      "telemetry.analyze",
      "telemetry.attach_metrics",
  };
  return name >= 0 && name < kNumNames ? kNames[name] : "?";
}

void Tracer::Open(int name) {
  Record record;
  record.name = name;
  record.parent = stack_.empty() ? -1 : stack_.back().record;
  records_.push_back(record);
  stack_.push_back({static_cast<int>(records_.size() - 1), 0});
  // Read the clock last so the bookkeeping above is not charged to the
  // span.
  records_.back().start_ns = NowNs();
}

void Tracer::Close() {
  const int64_t end = NowNs();
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  Record& record = records_[static_cast<size_t>(open.record)];
  record.end_ns = end;
  const int64_t duration = end - record.start_ns;
  record.self_ns = duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

Tracer::Stats Tracer::StatsOf(int name) const {
  Stats stats;
  std::vector<double> self;
  for (const Record& record : records_) {
    if (record.name != name) continue;
    ++stats.calls;
    stats.self_ns += record.self_ns;
    self.push_back(static_cast<double>(record.self_ns));
  }
  if (!self.empty()) {
    stats.self_p50_ns = Quantile(self, 0.50);
    stats.self_p99_ns = Quantile(std::move(self), 0.99);
  }
  return stats;
}

int64_t Tracer::TotalSelfNs() const {
  int64_t total = 0;
  for (const Record& record : records_) total += record.self_ns;
  return total;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "index\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
  const int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(out, "%zu\t%d\t%s\t%lld\t%lld\t%lld\n", i, r.parent,
                 NameOf(r.name), static_cast<long long>(r.start_ns - origin),
                 static_cast<long long>(r.end_ns - origin),
                 static_cast<long long>(r.self_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace hivebench
