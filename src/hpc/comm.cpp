#include "hpc/comm.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "hpc/thread_budget.hpp"

namespace bda::hpc {

CommWorld::CommWorld(int n_ranks)
    : n_ranks_(n_ranks), boxes_(static_cast<std::size_t>(n_ranks)) {
  if (n_ranks <= 0) throw std::invalid_argument("CommWorld: n_ranks <= 0");
}

void CommWorld::run(const std::function<void(Comm&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n_ranks_));
  std::mutex err_mu;
  std::exception_ptr first_error;
  // Ranks split the caller's thread budget (thread_budget.hpp): each rank's
  // OpenMP team is its share, not a host-sized team per rank.
  const int budget = omp_get_max_threads();

  for (int r = 0; r < n_ranks_; ++r) {
    threads.emplace_back([&, r] {
      omp_set_num_threads(thread_share(budget, n_ranks_, r));
      Comm comm(this, r);
      try {
        fn(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void CommWorld::deliver(int dest, int source, int tag, const Buffer& data) {
  auto& box = boxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queues[{source, tag}].push_back(data);
    ++box.depth;
    box.peak_depth = std::max(box.peak_depth, box.depth);
  }
  box.cv.notify_all();
}

std::size_t CommWorld::peak_mailbox_depth() {
  std::size_t peak = 0;
  for (auto& box : boxes_) {
    std::lock_guard<std::mutex> lock(box.mu);
    peak = std::max(peak, box.peak_depth);
  }
  return peak;
}

Buffer CommWorld::take(int self, int source, int tag) {
  auto& box = boxes_[static_cast<std::size_t>(self)];
  std::unique_lock<std::mutex> lock(box.mu);
  const auto key = std::make_pair(source, tag);
  box.cv.wait(lock, [&] {
    const auto it = box.queues.find(key);
    return it != box.queues.end() && !it->second.empty();
  });
  auto& q = box.queues[key];
  Buffer out = std::move(q.front());
  q.erase(q.begin());
  --box.depth;
  return out;
}

int Comm::size() const { return world_->size(); }

void Comm::send(int dest, int tag, const Buffer& data) {
  if (dest < 0 || dest >= world_->size())
    throw std::out_of_range("Comm::send: bad destination rank");
  world_->deliver(dest, rank_, tag, data);
}

Buffer Comm::recv(int source, int tag) {
  if (source < 0 || source >= world_->size())
    throw std::out_of_range("Comm::recv: bad source rank");
  return world_->take(rank_, source, tag);
}

void Comm::barrier() {
  std::unique_lock<std::mutex> lock(world_->coll_mu_);
  const std::uint64_t gen = world_->coll_generation_;
  if (++world_->coll_count_ == world_->size()) {
    world_->coll_count_ = 0;
    ++world_->coll_generation_;
    world_->coll_cv_.notify_all();
  } else {
    world_->coll_cv_.wait(lock,
                          [&] { return world_->coll_generation_ != gen; });
  }
}

double Comm::allreduce_sum(double value) {
  std::unique_lock<std::mutex> lock(world_->coll_mu_);
  const std::uint64_t gen = world_->coll_generation_;
  world_->reduce_acc_ += value;
  if (++world_->coll_count_ == world_->size()) {
    world_->reduce_result_ = world_->reduce_acc_;
    world_->reduce_acc_ = 0.0;
    world_->coll_count_ = 0;
    ++world_->coll_generation_;
    world_->coll_cv_.notify_all();
  } else {
    world_->coll_cv_.wait(lock,
                          [&] { return world_->coll_generation_ != gen; });
  }
  return world_->reduce_result_;
}

std::vector<Buffer> Comm::gather(int root, const Buffer& mine) {
  constexpr int kGatherTag = -4242;
  if (rank_ == root) {
    std::vector<Buffer> out(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(rank_)] = mine;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = recv(r, kGatherTag);
    }
    return out;
  }
  send(root, kGatherTag, mine);
  return {};
}

}  // namespace bda::hpc
