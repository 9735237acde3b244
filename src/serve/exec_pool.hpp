// Engine execution worker pool (DESIGN.md §16).
//
// ForecastServer has one flush path. With ServeConfig::num_workers == 0, and
// for the final drain flush, the loop thread executes it; otherwise the
// event loop is admission-only: a flush SPLITS the admitted batch into
// per-worker chunks and posts each to a dedicated ExecPool worker, which
// runs predict_batch against its own private InferenceEngine::Workspace over
// the shared immutable compiled plan, then posts the completed chunk back to
// the loop. The split is a fixed function of (batch size, worker count) —
// chunk w runs on worker w mod K, every chunk is dispatched in admission
// order into a per-worker FIFO — so execution is deterministic and, because
// every engine op is row- or block-local, the per-window outputs are
// bitwise identical to the loop-thread flush for ANY worker count.
//
// ExecPool is deliberately not ThreadPool: the tensor ThreadPool is a
// synchronous fork-join primitive (parallel_for blocks the caller), while
// flush dispatch must RETURN so the loop can keep admitting batch t+1 while
// batch t executes (the pipelined flush). Each worker owns its own queue —
// no work stealing — because chunk-to-worker assignment is part of the
// determinism contract, and each worker's Workspace must only ever be
// touched by that worker's thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rihgcn::serve {

class ExecPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `workers` threads (must be >= 1; throws std::invalid_argument
  /// on 0 — callers executing on their own thread simply don't build a
  /// pool).
  explicit ExecPool(std::size_t workers);
  /// Joins every worker. Tasks already submitted run to completion first —
  /// the serving drain sequence guarantees the pool is idle by the time the
  /// server destroys it, but the pool itself never drops a task.
  ~ExecPool();
  ExecPool(const ExecPool&) = delete;
  ExecPool& operator=(const ExecPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue `task` on worker `worker % size()`. Per-worker FIFO: tasks
  /// submitted to the same worker run in submission order, one at a time.
  void submit(std::size_t worker, Task task);

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> queue;
    bool stop = false;
    std::thread thread;
  };
  static void worker_loop(Worker& w);

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace rihgcn::serve
