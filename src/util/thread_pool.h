// Work-stealing thread pool: the experiment engine runs its sweeps on it,
// and the fleet driver generates its domains' traces on it.
//
// Each worker owns a deque of tasks: it pushes and pops at the back
// (LIFO, cache-friendly for the submitting worker) and, when empty,
// steals from the front of a sibling's deque (FIFO, taking the oldest —
// and for sweeps typically largest-remaining — task). External `Submit`
// calls distribute round-robin across workers so a sweep starts spread
// out even before stealing kicks in.
//
// The pool carries no result channel: tasks are `void()` closures that
// write to caller-owned slots. The sweep runner gives every run a
// distinct slot, so workers never contend on results and the output is
// independent of execution interleaving.
#ifndef DMASIM_UTIL_THREAD_POOL_H_
#define DMASIM_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dmasim {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  // `threads` <= 0 selects the hardware concurrency.
  explicit ThreadPool(int threads = 0);

  // Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `task`. Thread-safe.
  void Submit(Task task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // std::thread::hardware_concurrency with a floor of 1.
  static int HardwareThreads();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void WorkerLoop(std::size_t self);
  // Pops from own queue (back) or steals (front); empty when none found.
  Task FindWork(std::size_t self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex state_mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t unfinished_ = 0;  // Submitted but not yet completed.
  std::size_t next_queue_ = 0;  // Round-robin submission cursor.
  bool shutdown_ = false;
};

}  // namespace dmasim

#endif  // DMASIM_UTIL_THREAD_POOL_H_
