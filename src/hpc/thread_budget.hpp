// One thread budget per process.
//
// The paper's cycle runs on a fixed partition: every component gets its own
// share of the machine.  Here the cores are the partition.  A thread's
// budget is its own OpenMP nthreads setting (omp_get_max_threads()), so
// OMP_NUM_THREADS sets the process total.  Wherever the code starts threads
// that run OpenMP kernels — hpc::CommWorld rank threads, PipelinedDriver
// forecast workers — the spawner splits its budget among them and each
// child sets its share on entry with omp_set_num_threads.  Nested layers
// then share the cores instead of each starting a host-sized team; the
// kernel pragmas never name a team size.  docs/SHARDING.md "Thread budget".
#pragma once

#include <omp.h>

#include <algorithm>

namespace bda::hpc {

/// Share of child `i` when `total` threads are split over `n` children:
/// total/n each, the first total%n children one more.  Every share is >= 1;
/// the shares sum to `total` whenever total >= n (below that each child
/// still runs one thread).
inline int thread_share(int total, int n, int i) {
  if (total <= n) return 1;
  return total / n + (i < total % n ? 1 : 0);
}

/// Split between a spawning thread that keeps working and `n` helpers it
/// starts: each helper gets total/(n+1), the spawner keeps the rest.  Both
/// are >= 1.
struct SpawnerSplit {
  int keep = 1;  ///< the spawning thread's share
  int each = 1;  ///< every helper's share
};
inline SpawnerSplit split_with_spawner(int total, int n) {
  SpawnerSplit s;
  s.each = std::max(1, total / (n + 1));
  s.keep = std::max(1, total - n * s.each);
  return s;
}

/// Sets the calling thread's OpenMP team size for the guard's lifetime and
/// restores the previous setting when it goes out of scope (also when an
/// exception unwinds through it).
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ScopedThreadBudget() { omp_set_num_threads(saved_); }
  ScopedThreadBudget(const ScopedThreadBudget&) = delete;
  ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;

 private:
  int saved_;
};

}  // namespace bda::hpc
