// FIFO on a power-of-two ring that doubles when full and keeps its
// capacity, so once warmed up it never allocates (a std::deque allocates
// a node per few hundred bytes pushed). Only the live slots hold objects,
// so growing moves the queued elements and nothing else. The chip's CPU
// and DMA request queues and each I/O bus's ready queue use it: they
// stay a few elements deep and turn over on every chunk.
#ifndef DMASIM_UTIL_RING_H_
#define DMASIM_UTIL_RING_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "util/check.h"

namespace dmasim {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    while (size_ > 0) pop_front();
    Release();
  }

  bool empty() const { return size_ == 0; }

  void push_back(T&& value) {
    if (size_ == capacity_) Grow();
    std::construct_at(slots_ + ((head_ + size_) & (capacity_ - 1)),
                      std::move(value));
    ++size_;
  }

  T pop_front() {
    DMASIM_CHECK_GT(size_, 0u);
    T* front = slots_ + head_;
    T value = std::move(*front);
    std::destroy_at(front);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    return value;
  }

 private:
  void Grow() {
    const std::size_t capacity = capacity_ == 0 ? 8 : 2 * capacity_;
    T* grown = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = slots_ + ((head_ + i) & (capacity_ - 1));
      std::construct_at(grown + i, std::move(*from));
      std::destroy_at(from);
    }
    Release();
    slots_ = grown;
    capacity_ = capacity;
    head_ = 0;
  }

  void Release() {
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dmasim

#endif  // DMASIM_UTIL_RING_H_
