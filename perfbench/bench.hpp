// Shared pieces of the repo benchmark (perfbench/README.md): command-line
// arguments, the result record printed as the final JSON line, the tail
// statistic, and the in-memory span trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic seconds since process start; every timestamp of a run is on
/// this one clock.
double now_s();

/// Process CPU time (user + system, all threads) in seconds.
double process_cpu_s();

/// Peak resident set of this process in MB.
double peak_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its span file
};

/// Everything a run reports: the metrics of its mode, plus the operations
/// attempted and failed.  An operation is one cycle, one product forecast,
/// one client tile hit, or one run-level check; it fails if any of its
/// output checks fails.
struct Result {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failed checks, for the log

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Count one checked operation; `what` describes a failure.
  void check(bool ok, const std::string& what);
};

/// The highest percentile of a series that still has at least ten samples
/// beyond it (nearest rank).  Series of ten or fewer samples report their
/// maximum at percentile 100.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t n = 0;
};
Tail tail_of(std::vector<double> v);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/// In-memory span trace.  One span per public call the benchmark makes
/// into the program: name, start, end, parent span and cycle id, plus the
/// counts the program returned at that boundary.  Spans are kept in memory
/// during the run and written out at the end; self time is a span's
/// duration minus the part of it covered by its children.
class Trace {
 public:
  /// Record a finished span; returns its id (the parent id of children).
  int add(std::string name, double t0, double t1, long cycle,
          int parent = -1);
  /// Attach a count to span `id`.
  void count(int id, std::string key, double value);

  /// Durations of every span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;
  /// Total self time per span name.
  std::map<std::string, double> self_time_by_name() const;
  std::size_t size() const { return spans_.size(); }

  /// Write one JSON object per span (with its self time) to `path`.  Span
  /// and count names are the benchmark's own and need no escaping.
  /// Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double t0 = 0, t1 = 0;
    long cycle = -1;
    int parent = -1;
    std::vector<std::pair<std::string, double>> counts;
  };
  std::vector<double> self_times() const;
  std::vector<Span> spans_;
};

/// The three workloads (workloads.cpp).  Each fills `r` with the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
void run_rapid_refresh(const Args& args, Result& r);
void run_sharded_30s(const Args& args, Result& r);
void run_products(const Args& args, Result& r);

}  // namespace perfbench
