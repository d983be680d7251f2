// Persistent worker pool for the parallel sweeps.
//
// A WorkerPool owns `threads - 1` helper threads (none when threads
// <= 1); run(shards, fn) executes fn(s) for every shard index in
// [0, shards), with the calling thread participating, and returns once
// every shard has completed. Shards are claimed dynamically (any worker
// may execute any shard), which balances skewed shard costs without
// affecting results: parallel phases write their output into per-shard
// slots keyed by the shard *index*, so scheduling order is invisible to
// the deterministic shard-order concatenation that follows.
//
// All coordination state is guarded by one mutex (claim granularity is
// a whole shard, so contention is negligible), giving the
// happens-before edges ThreadSanitizer and the shard-order merge both
// need: everything a shard wrote is visible to the caller when run()
// returns. The first exception thrown by any shard is captured and
// rethrown from run() after the phase drains.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace p2pex::parallel {

class WorkerPool {
 public:
  /// A pool targeting `threads` concurrent workers: the caller plus
  /// `threads - 1` helper threads. `threads <= 1` spawns nothing and
  /// run() executes inline.
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Executes fn(s) for s in [0, shards); blocks until all shards are
  /// done. The calling thread participates. Not reentrant. The callable
  /// is borrowed by raw pointer for the duration of the call (no
  /// std::function, no per-phase allocation).
  template <class Fn>
  void run(std::size_t shards, Fn&& fn) {
    run_impl(
        shards,
        [](void* ctx, std::size_t s) {
          (*static_cast<std::remove_reference_t<Fn>*>(ctx))(s);
        },
        const_cast<void*>(
            static_cast<const void*>(std::addressof(fn))));
  }

  /// Concurrency target (caller + helpers).
  [[nodiscard]] std::size_t threads() const { return helpers_.size() + 1; }

 private:
  using ShardFn = void (*)(void* ctx, std::size_t shard);

  void run_impl(std::size_t shards, ShardFn fn, void* ctx);
  void helper_loop();
  /// Claims and runs shards until the current job is exhausted.
  void work();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< helpers wait for a new job
  std::condition_variable done_cv_;  ///< run_impl() waits for completion
  ShardFn job_fn_ = nullptr;         ///< null = no job
  void* job_ctx_ = nullptr;
  std::size_t job_shards_ = 0;
  std::size_t next_shard_ = 0;
  std::size_t pending_ = 0;  ///< shards claimed-or-unclaimed but unfinished
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> helpers_;
};

}  // namespace p2pex::parallel
