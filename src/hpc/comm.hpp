// Message-passing substrate (MPI-style, thread-backed).
//
// The operational SCALE-LETKF is one MPI executable over 426,624 cores; the
// paper's I/O innovation replaced SCALE<->LETKF file exchange with "MPI data
// transfer with RAM copy and node-to-node network communications".  This
// module provides the same programming model at laptop scale: a CommWorld
// spawns N ranks as threads, each holding a Comm endpoint with tagged
// point-to-point send/recv and the collectives the workflow uses.  Message
// delivery is by value (buffers copied), matching MPI semantics.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "util/annotations.hpp"

namespace bda::hpc {

using Buffer = std::vector<std::uint8_t>;

class CommWorld;

/// Per-rank endpoint.  Valid only inside CommWorld::run.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Tagged send (copies the buffer into the destination mailbox).
  ///
  /// Capacity contract: mailboxes are UNBOUNDED, so send() enqueues and
  /// returns without ever blocking on the receiver — MPI_Bsend semantics
  /// with an infinite buffer, not a rendezvous.  Callers are allowed to
  /// post all their sends before any recv (exchange_halo and the sharded
  /// shuffle do exactly that); with bounded mailboxes that pattern would
  /// deadlock.  Anything that adds backpressure here must first convert
  /// those call sites to posted/nonblocking receives.  The cost of the
  /// contract is memory: CommWorld::peak_mailbox_depth() exposes the
  /// high-water mark so tests and benches can see how deep the queues
  /// actually get.
  void send(int dest, int tag, const Buffer& data);
  /// Blocking tagged receive from a specific source.
  Buffer recv(int source, int tag);

  /// Collectives over all ranks.
  void barrier();
  double allreduce_sum(double value);
  /// Gather per-rank buffers at root; non-roots get an empty vector.
  std::vector<Buffer> gather(int root, const Buffer& mine);

 private:
  friend class CommWorld;
  Comm(CommWorld* world, int rank) : world_(world), rank_(rank) {}
  CommWorld* world_;
  int rank_;
};

/// Owns the mailboxes and runs a function on every rank.
class CommWorld {
 public:
  explicit CommWorld(int n_ranks);

  int size() const { return n_ranks_; }

  /// Run `fn(comm)` on every rank concurrently; returns when all finish.
  /// Exceptions thrown by any rank are rethrown (first one wins).  The
  /// ranks split the calling thread's OpenMP budget: rank r runs with
  /// omp_get_max_threads() == thread_share(caller's budget, size(), r)
  /// (hpc/thread_budget.hpp).
  void run(const std::function<void(Comm&)>& fn);

  /// High-water mark of messages queued in any single mailbox since
  /// construction (the observable side of the unbounded-capacity contract
  /// on Comm::send).  Takes each mailbox lock briefly; meant for tests and
  /// end-of-run reporting, not the hot path.
  std::size_t peak_mailbox_depth();

 private:
  friend class Comm;
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv BDA_CV_OF(mu);  ///< queue-nonempty predicate
    // Keyed by (source, tag); FIFO per key.
    std::map<std::pair<int, int>, std::vector<Buffer>> queues
        BDA_GUARDED_BY(mu);
    std::size_t depth BDA_GUARDED_BY(mu) = 0;       ///< messages queued now
    std::size_t peak_depth BDA_GUARDED_BY(mu) = 0;  ///< high-water mark
  };
  void deliver(int dest, int source, int tag, const Buffer& data);
  Buffer take(int self, int source, int tag);

  int n_ranks_;
  std::vector<Mailbox> boxes_;

  // Barrier / reduction state: generation-counted so back-to-back
  // collectives cannot confuse late wakers (all guarded by coll_mu_).
  std::mutex coll_mu_;
  std::condition_variable coll_cv_ BDA_CV_OF(coll_mu_);
  int coll_count_ BDA_GUARDED_BY(coll_mu_) = 0;
  std::uint64_t coll_generation_ BDA_GUARDED_BY(coll_mu_) = 0;
  double reduce_acc_ BDA_GUARDED_BY(coll_mu_) = 0.0;
  double reduce_result_ BDA_GUARDED_BY(coll_mu_) = 0.0;
};

}  // namespace bda::hpc
