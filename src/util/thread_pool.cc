#include "util/thread_pool.h"

#include <memory>
#include <utility>

#include "util/check.h"

namespace dmasim {

int ThreadPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  const int count = threads > 0 ? threads : HardwareThreads();
  queues_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back(
        [this, i]() { WorkerLoop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(Task task) {
  DMASIM_EXPECTS(task != nullptr);
  // The push and the notify both happen under state_mutex_: an idle
  // worker re-checks the queues under the same lock before waiting, so
  // it either sees this task or is already inside wait() when the
  // notification fires. (Lock order is always state -> queue.)
  std::lock_guard<std::mutex> lock(state_mutex_);
  DMASIM_CHECK_MSG(!shutdown_, "Submit after shutdown");
  const std::size_t target = next_queue_;
  next_queue_ = (next_queue_ + 1) % queues_.size();
  ++unfinished_;
  {
    std::lock_guard<std::mutex> queue_lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  all_done_.wait(lock, [this]() { return unfinished_ == 0; });
}

ThreadPool::Task ThreadPool::FindWork(std::size_t self) {
  // Own queue first, LIFO.
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      Task task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return task;
    }
  }
  // Steal the oldest task from the first non-empty sibling.
  for (std::size_t i = 1; i < queues_.size(); ++i) {
    WorkerQueue& victim = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      Task task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(std::size_t self) {
  for (;;) {
    Task task = FindWork(self);
    if (task == nullptr) {
      std::unique_lock<std::mutex> lock(state_mutex_);
      if (shutdown_) return;
      // Re-check under the lock: a task may have been submitted between
      // the failed scan and acquiring the lock. unfinished_ > 0 with no
      // queued work just means siblings are still executing.
      bool queued = false;
      for (const auto& queue : queues_) {
        std::lock_guard<std::mutex> queue_lock(queue->mutex);
        if (!queue->tasks.empty()) {
          queued = true;
          break;
        }
      }
      if (!queued) {
        work_available_.wait(lock);
      }
      continue;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      DMASIM_CHECK_GT(unfinished_, 0u);
      --unfinished_;
      if (unfinished_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace dmasim
