#include "serve/exec_pool.hpp"

#include <stdexcept>
#include <utility>

namespace rihgcn::serve {

ExecPool::ExecPool(std::size_t workers) {
  if (workers == 0) {
    throw std::invalid_argument("ExecPool: worker count must be >= 1");
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Queues exist before any thread starts: a submit racing construction of a
  // later worker still lands in a fully-formed queue.
  for (auto& w : workers_) {
    w->thread = std::thread([worker = w.get()] { worker_loop(*worker); });
  }
}

ExecPool::~ExecPool() {
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->stop = true;
    }
    w->cv.notify_one();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ExecPool::submit(std::size_t worker, Task task) {
  Worker& w = *workers_[worker % workers_.size()];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.queue.push_back(std::move(task));
  }
  w.cv.notify_one();
}

void ExecPool::worker_loop(Worker& w) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(w.mu);
      w.cv.wait(lock, [&w] { return w.stop || !w.queue.empty(); });
      // Drain the queue even when stopping: a submitted task is a promise
      // of execution (the server's flush completions must never vanish).
      if (w.queue.empty()) return;
      task = std::move(w.queue.front());
      w.queue.pop_front();
    }
    task();
  }
}

}  // namespace rihgcn::serve
