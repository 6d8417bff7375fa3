// Time-to-solution instrumentation for the 30-second cycle path.
//
// The paper's headline claim is operational, not meteorological: the wall
// clock from "radar scan complete" to "product file written" stayed under
// 3 minutes for ~97% of 75,248 forecasts (Fig 4 defines the clock, Fig 5
// reports the month-long record).  This layer is how the reproduction
// measures the same thing: monotonic per-stage timers, counters and
// sample series with percentile queries, shared by the serial cycle, the
// pipelined driver, and the `bench_pipeline_tts` bench, and exportable as
// JSON so the perf trajectory accumulates across runs (BENCH_*.json).
//
// Thread model: one Metrics instance is written from the cycle thread, the
// regrid/transfer overlap task and every product-forecast worker at once,
// so all state is guarded by `mu_` (BDA_GUARDED_BY, TSan-clean).  Recording
// is cheap (a map insert + push_back); percentile queries sort a copy and
// are meant for end-of-run reporting, not the hot path.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/annotations.hpp"

namespace bda::util {

/// CPU time consumed by the *calling thread* in seconds
/// (CLOCK_THREAD_CPUTIME_ID where available, steady_clock otherwise).
/// This is what the per-rank shard timers use: on an oversubscribed host
/// (threads-as-ranks on fewer cores) wall clock charges every rank for
/// its neighbours' work, while thread CPU time measures only its own —
/// so max-over-ranks CPU time is the node-exclusive time-to-solution
/// projection.  See docs/SHARDING.md.
double thread_cpu_seconds();

/// thread_cpu_seconds() summed over the calling thread's OpenMP team (the
/// calling thread plus the workers its parallel regions run on).  A rank
/// whose kernels run a team of N threads spends N threads' CPU; only this
/// sum charges all of it to the rank.  Differences of two calls from the
/// same thread at the same team size are the team's CPU in between.
double team_cpu_seconds();

/// Summary of one named timer series (all durations in seconds).
struct TimerStats {
  std::size_t count = 0;
  double total_s = 0;
  double mean_s = 0;
  double min_s = 0;
  double max_s = 0;
  double p50_s = 0;
  double p97_s = 0;  ///< the paper's "~97% under 3 minutes" quantile
  double p99_s = 0;
};

class Metrics {
 public:
  /// Increment counter `name` by `n`.
  void count(const std::string& name, std::uint64_t n = 1);

  /// Record one sample (typically a stage duration in seconds) under
  /// `name`.
  void observe(const std::string& name, double value);

  /// RAII stage timer on the monotonic clock.  A null `Metrics*` makes the
  /// timer a no-op, so instrumented code paths need no branching:
  ///
  ///   util::Metrics::ScopedTimer t(metrics_, "cycle.letkf");  // ok if null
  class ScopedTimer {
   public:
    ScopedTimer(Metrics* m, std::string name)
        : m_(m), name_(std::move(name)),
          t0_(std::chrono::steady_clock::now()) {}
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;
    ScopedTimer(ScopedTimer&& o) noexcept
        : m_(o.m_), name_(std::move(o.name_)), t0_(o.t0_) {
      o.m_ = nullptr;
    }
    ScopedTimer& operator=(ScopedTimer&&) = delete;
    ~ScopedTimer() { stop(); }

    /// Stop early and record; returns the elapsed seconds (0 if already
    /// stopped or detached).
    double stop() {
      if (!m_) return 0.0;
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0_;
      m_->observe(name_, dt.count());
      m_ = nullptr;
      return dt.count();
    }

   private:
    Metrics* m_;
    std::string name_;
    std::chrono::steady_clock::time_point t0_;
  };

  ScopedTimer time(std::string name) {
    return ScopedTimer(this, std::move(name));
  }

  /// Current counter value (0 if never incremented).
  std::uint64_t counter(const std::string& name) const;

  /// Number of samples observed under `name`.
  std::size_t samples(const std::string& name) const;

  /// Sum of all samples under `name`.
  double total(const std::string& name) const;

  /// Percentile (linear interpolation, p in [0,100]) of the samples under
  /// `name`; 0 if the series is empty.
  double percentile(const std::string& name, double p) const;

  /// Full summary of one timer series.
  TimerStats timer_stats(const std::string& name) const;

  std::vector<std::string> counter_names() const;
  std::vector<std::string> timer_names() const;

  /// JSON export: {"counters": {...}, "timers": {name: {count, total_s,
  /// mean_s, min_s, max_s, p50_s, p97_s, p99_s}, ...}}.  Keys are sorted,
  /// so the output is deterministic for a deterministic run, and escaped
  /// (quotes, backslashes, control characters), so any caller-chosen
  /// metric name yields valid JSON.
  std::string to_json() const;

  /// Drop all counters and samples.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_ BDA_GUARDED_BY(mu_);
  std::map<std::string, std::vector<double>> series_ BDA_GUARDED_BY(mu_);
};

}  // namespace bda::util
