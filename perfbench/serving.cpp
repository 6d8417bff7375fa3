#include "serving.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "workflow/products.hpp"

namespace perfbench {

using namespace bda;

namespace {
serve::PublisherConfig publisher_config(
    std::function<void(std::uint64_t)> hook) {
  serve::PublisherConfig cfg;
  cfg.publish_hook = std::move(hook);
  return cfg;
}
}  // namespace

Serving::Serving(const scale::Grid& grid, std::uint64_t seed,
                 util::Metrics* metrics)
    : cache_(kRetention),
      publisher_(&cache_,
                 publisher_config([this](std::uint64_t cycle) {
                   const double t = now_s();
                   std::lock_guard<std::mutex> lock(mu_);
                   commit_.emplace(cycle, t);
                 }),
                 metrics),
      server_(&cache_, metrics, /*sample_every=*/1) {
  // Every tile key of both products, ranked for a Zipf(1.1) popularity:
  // a few tiles take most of the traffic.
  const serve::TileGridConfig tiles;
  const idx tx_n = serve::tile_count(grid.nx(), tiles.tile_nx);
  const idx ty_n = serve::tile_count(grid.ny(), tiles.tile_ny);
  for (const auto kind :
       {serve::ProductKind::kMapView, serve::ProductKind::kVolume3D})
    for (idx tx = 0; tx < tx_n; ++tx)
      for (idx ty = 0; ty < ty_n; ++ty) keys_.push_back({kind, tx, ty});
  double sum = 0;
  for (std::size_t r = 0; r < keys_.size(); ++r) {
    sum += 1.0 / std::pow(double(r + 1), 1.1);
    zipf_cdf_.push_back(sum);
  }
  for (double& c : zipf_cdf_) c /= sum;
  client_ = std::thread([this, seed] { client_loop(seed); });
}

Serving::~Serving() {
  stop_.store(true, std::memory_order_release);
  if (client_.joinable()) client_.join();
}

void Serving::submit(std::uint64_t cycle, const scale::Grid& grid,
                     scale::State mean) {
  publisher_.submit(cycle, [grid, snap = std::move(mean)] {
    return workflow::product_frame(grid, snap);
  });
}

bool Serving::finish() {
  const bool drained = publisher_.drain(30.0);
  // Let the client reach the newest committed cycle, so the last cycle's
  // served time is measured too; bounded in case it never does.
  const double deadline = now_s() + 2.0;
  while (now_s() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (commit_.empty() || first_hit_.count(commit_.rbegin()->first)) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_.store(true, std::memory_order_release);
  if (client_.joinable()) client_.join();
  return drained;
}

std::map<std::uint64_t, double> Serving::commit_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_;
}

std::map<std::uint64_t, double> Serving::first_hit_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_hit_;
}

bool Serving::decodes(const serve::TileResponse& resp) const {
  // Walk the delta chain back to its keyframe inside the pinned epoch,
  // then decode forward; every step checks base cycle and CRC.
  std::vector<const serve::EncodedTile*> chain{resp.tile};
  while (!chain.back()->is_keyframe()) {
    const auto* base_cycle = resp.pin->find_cycle(
        static_cast<std::uint64_t>(chain.back()->base_cycle));
    if (base_cycle == nullptr) return false;
    const auto* base = base_cycle->find(resp.tile->key);
    if (base == nullptr) return false;
    chain.push_back(base);
  }
  try {
    std::vector<float> samples;
    std::int64_t samples_cycle = serve::kNoBaseCycle;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      samples = serve::decode_tile(**it, (*it)->is_keyframe() ? nullptr
                                                              : &samples,
                                   samples_cycle);
      samples_cycle = static_cast<std::int64_t>((*it)->cycle);
    }
    return samples.size() == resp.tile->sample_count();
  } catch (const std::exception&) {
    return false;
  }
}

void Serving::client_loop(std::uint64_t seed) {
  // Open loop: request i is due at start + i / rate whatever the server
  // did with request i-1; lateness is how far the sender fell behind.
  std::mt19937_64 rng(seed ^ 0x5eed5eed5eedull);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const double period = 1.0 / kRequestHz;
  double due = now_s();
  while (!stop_.load(std::memory_order_acquire)) {
    const double wait = due - now_s();
    if (wait > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    bool stamped = false;
    std::uint64_t newest = 0;  // newest cycle stamped servable so far
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!commit_.empty()) {
        stamped = true;
        newest = commit_.rbegin()->first;
      }
    }
    const auto pick = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                                       u01(rng));
    const auto& key = keys_[std::min<std::size_t>(
        static_cast<std::size_t>(pick - zipf_cdf_.begin()), keys_.size() - 1)];
    const double sent = now_s();
    const auto resp = server_.get({key, serve::kLatestCycle});
    const double done = now_s();
    late_s_.push_back(sent - due);
    get_us_.push_back((done - sent) * 1e6);
    ++requests_;
    if (resp.hit()) {
      ++hits_;
      const bool fresh = !stamped || resp.served_cycle + kRetention >= newest;
      const bool ok = decodes(resp);
      if (!fresh) ++stale_hits_;
      if (!ok) ++decode_failures_;
      if (!fresh || !ok) {
        ++bad_hits_;
        bad_cycles_.insert(resp.served_cycle);
      }
      std::lock_guard<std::mutex> lock(mu_);
      first_hit_.emplace(resp.served_cycle, done);
    }
    due += period;
  }
}

}  // namespace perfbench
