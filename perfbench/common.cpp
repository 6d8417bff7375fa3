#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

namespace {
const auto kProcessStart = std::chrono::steady_clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() <= 10) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  // Nearest rank: sample i (0-based) has n-1-i samples beyond it.
  const std::size_t i = v.size() - 11;
  t.value = v[i];
  t.percentile = 100.0 * double(i + 1) / double(v.size());
  return t;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

int Trace::add(std::string name, double t0, double t1, long cycle,
               int parent) {
  spans_.push_back({std::move(name), t0, t1, cycle, parent, {}});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::count(int id, std::string key, double value) {
  if (id < 0 || static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].counts.emplace_back(std::move(key),
                                                            value);
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (s.name == name) out.push_back(s.t1 - s.t0);
  return out;
}

std::vector<double> Trace::self_times() const {
  // Children may overlap one another (concurrent stages), so subtract the
  // union of their intervals, clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const auto& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur0 = 0, cur1 = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, p.t0);
      b = std::min(b, p.t1);
      if (b <= a) continue;
      if (open && a <= cur1) {
        cur1 = std::max(cur1, b);
      } else {
        if (open) covered += cur1 - cur0;
        cur0 = a;
        cur1 = b;
        open = true;
      }
    }
    if (open) covered += cur1 - cur0;
    self[i] = (p.t1 - p.t0) - covered;
  }
  return self;
}

std::map<std::string, double> Trace::self_time_by_name() const {
  const auto self = self_times();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

bool Trace::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const auto self = self_times();
  os.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"cycle\":" << s.cycle << ",\"parent\":" << s.parent
       << ",\"start_s\":" << s.t0 << ",\"end_s\":" << s.t1
       << ",\"self_s\":" << self[i] << ",\"counts\":{";
    for (std::size_t k = 0; k < s.counts.size(); ++k) {
      os << (k ? "," : "") << '"' << s.counts[k].first
         << "\":" << s.counts[k].second;
    }
    os << "}}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
