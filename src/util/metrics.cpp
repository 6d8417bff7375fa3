#include "util/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include <omp.h>

#if defined(__unix__) || defined(__APPLE__)
#include <ctime>
#define BDA_HAVE_THREAD_CPUTIME 1
#endif

#include "util/stats.hpp"

namespace bda::util {

double thread_cpu_seconds() {
#ifdef BDA_HAVE_THREAD_CPUTIME
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
#endif
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

double team_cpu_seconds() {
  std::vector<double> cpu(static_cast<std::size_t>(omp_get_max_threads()),
                          0.0);
#pragma omp parallel
  cpu[static_cast<std::size_t>(omp_get_thread_num())] = thread_cpu_seconds();
  double sum = 0;
  for (const double c : cpu) sum += c;
  return sum;
}

void Metrics::count(const std::string& name, std::uint64_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  counters_[name] += n;
}

void Metrics::observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  series_[name].push_back(value);
}

std::uint64_t Metrics::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0u : it->second;
}

std::size_t Metrics::samples(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = series_.find(name);
  return it == series_.end() ? 0u : it->second.size();
}

double Metrics::total(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = series_.find(name);
  if (it == series_.end()) return 0.0;
  double sum = 0.0;
  for (double v : it->second) sum += v;
  return sum;
}

double Metrics::percentile(const std::string& name, double p) const {
  std::vector<double> copy;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = series_.find(name);
    if (it == series_.end() || it->second.empty()) return 0.0;
    copy = it->second;
  }
  return bda::percentile(std::move(copy), p);
}

namespace {
TimerStats stats_of(const std::vector<double>& v) {
  TimerStats s;
  s.count = v.size();
  if (v.empty()) return s;
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (double x : sorted) s.total_s += x;
  s.mean_s = s.total_s / double(sorted.size());
  s.min_s = sorted.front();
  s.max_s = sorted.back();
  s.p50_s = bda::percentile(sorted, 50.0);
  s.p97_s = bda::percentile(sorted, 97.0);
  s.p99_s = bda::percentile(sorted, 99.0);
  return s;
}
}  // namespace

TimerStats Metrics::timer_stats(const std::string& name) const {
  std::vector<double> copy;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = series_.find(name);
    if (it != series_.end()) copy = it->second;
  }
  return stats_of(copy);
}

std::vector<std::string> Metrics::counter_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [k, v] : counters_) names.push_back(k);
  return names;
}

std::vector<std::string> Metrics::timer_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [k, v] : series_) names.push_back(k);
  return names;
}

namespace {
void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

// Metric names are caller-chosen strings (bench labels interpolate tile
// keys, file paths, ...), so export must escape them: a bare `"` or `\`
// in a key used to render the whole BENCH_*.json unparseable.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

std::string Metrics::to_json() const {
  // Snapshot under the lock, format outside it.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<double>> series;
  {
    std::lock_guard<std::mutex> lk(mu_);
    counters = counters_;
    series = series_;
  }

  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"timers\": {";
  first = true;
  for (const auto& [name, v] : series) {
    const TimerStats s = stats_of(v);
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {\"count\": " +
           std::to_string(s.count);
    const std::pair<const char*, double> fields[] = {
        {"total_s", s.total_s}, {"mean_s", s.mean_s}, {"min_s", s.min_s},
        {"max_s", s.max_s},     {"p50_s", s.p50_s},   {"p97_s", s.p97_s},
        {"p99_s", s.p99_s}};
    for (const auto& [key, val] : fields) {
      out += ", \"";
      out += key;
      out += "\": ";
      append_number(out, val);
    }
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void Metrics::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.clear();
  series_.clear();
}

}  // namespace bda::util
