// The serving tier as every workload runs it: a ProductCache, the
// serve::Publisher that fills it, a TileServer, and one open-loop client
// thread asking for Zipf-hot tiles of the latest cycle at a fixed rate.
//
// The publisher's hook stamps the moment each cycle's tiles are encoded and
// about to be committed, which is when the product becomes servable.  The
// client checks every hit: it decodes the tile against its delta base
// (walking the base chain inside the epoch the response pinned), and it
// counts a hit as stale when more than kRetention cycles had been stamped
// after the served one before the request was sent.  The slack of one
// cycle covers the commit that follows each stamp; a server that answers
// from an old snapshot trips it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "scale/grid.hpp"
#include "scale/state.hpp"
#include "serve/publisher.hpp"
#include "serve/tile_server.hpp"
#include "util/annotations.hpp"
#include "util/metrics.hpp"

namespace perfbench {

class Serving {
 public:
  static constexpr std::size_t kRetention = 4;  ///< cache window (cycles)
  static constexpr double kRequestHz = 200.0;   ///< open-loop client rate

  /// Starts the publisher and the client thread.  `metrics` may be null.
  Serving(const bda::scale::Grid& grid, std::uint64_t seed,
          bda::util::Metrics* metrics);
  ~Serving();
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  bda::serve::Publisher& publisher() { return publisher_; }

  /// Hand cycle `cycle`'s analysis mean to the publisher, exactly as
  /// PipelinedDriver does after each analysis.
  void submit(std::uint64_t cycle, const bda::scale::Grid& grid,
              bda::scale::State mean);

  /// Wait for the publisher to drain and for the client to hit the newest
  /// committed cycle (bounded), then stop and join the client.  Returns
  /// false if the publisher did not drain.
  bool finish();

  // Results; read after finish().
  std::map<std::uint64_t, double> commit_times() const;
  std::map<std::uint64_t, double> first_hit_times() const;
  /// Cycles with at least one hit that failed to decode or was stale.
  const std::set<std::uint64_t>& bad_cycles() const { return bad_cycles_; }
  const std::vector<double>& get_us() const { return get_us_; }
  const std::vector<double>& late_s() const { return late_s_; }
  std::uint64_t requests() const { return requests_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t bad_hits() const { return bad_hits_; }
  std::uint64_t stale_hits() const { return stale_hits_; }
  std::uint64_t decode_failures() const { return decode_failures_; }

 private:
  void client_loop(std::uint64_t seed);
  bool decodes(const bda::serve::TileResponse& resp) const;

  std::vector<bda::serve::TileKey> keys_;
  std::vector<double> zipf_cdf_;

  mutable std::mutex mu_;
  std::map<std::uint64_t, double> commit_ BDA_GUARDED_BY(mu_);
  std::map<std::uint64_t, double> first_hit_ BDA_GUARDED_BY(mu_);

  // Client-thread state; read by others only after the thread is joined.
  std::set<std::uint64_t> bad_cycles_;
  std::vector<double> get_us_, late_s_;
  std::uint64_t requests_ = 0, hits_ = 0, bad_hits_ = 0, stale_hits_ = 0,
                decode_failures_ = 0;

  bda::serve::ProductCache cache_;
  bda::serve::Publisher publisher_;  ///< its hook writes commit_
  bda::serve::TileServer server_;
  std::atomic<bool> stop_{false};
  std::thread client_;  ///< started in the ctor, joined by finish()/dtor
};

}  // namespace perfbench
