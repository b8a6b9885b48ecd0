// Hardware FIFOs.
//
// Ring is a FIFO over a power-of-two circular buffer that doubles when a
// push finds it full and never shrinks, so a queue's steady state costs no
// allocation and an idle queue holds none.  It is never pre-sized to a
// queue's nominal depth: a 1024-deep response queue that holds a handful of
// packets owns a handful of slots, and a unit keeps several simulations
// live at once (DESIGN.md §8).
//
// BoundedQueue is the single-threaded queue used for all hardware queues in
// the simulator: hardware queues have finite depth; back-pressure from a
// full queue is part of the interference behaviour being modelled, so
// overflow must be an explicit, checkable condition rather than silent
// growth.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sim_error.hpp"
#include "common/simstate.hpp"

namespace gpusim {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(T item) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(item);
    ++size_;
  }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }

  void pop_front() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      slots_[head_] = T{};  // release what a moved-from slot may still own
    }
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  /// Element `i` counted from the front, i < size().
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void clear() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      while (!empty()) pop_front();
    }
    head_ = 0;
    size_ = 0;
  }

  class const_iterator {
   public:
    const_iterator(const Ring* ring, std::size_t i) : ring_(ring), i_(i) {}
    const T& operator*() const { return (*ring_)[i_]; }
    const T* operator->() const { return &(*ring_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const Ring* ring_;
    std::size_t i_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 4 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    SIM_CHECK(capacity_ > 0,
              SimError(SimErrorKind::kConfig, "common.bounded_queue",
                       "queue capacity must be positive"));
  }

  bool full() const { return items_.size() >= capacity_; }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Attempts to enqueue; returns false (and leaves the item unmoved-from
  /// semantics aside) when the queue is full.
  bool try_push(T item) {
    if (full()) return false;
    items_.push_back(std::move(item));
    return true;
  }

  T& front() {
    SIM_INVARIANT(!empty(), "common.bounded_queue", "front() on empty queue");
    return items_.front();
  }
  const T& front() const {
    SIM_INVARIANT(!empty(), "common.bounded_queue", "front() on empty queue");
    return items_.front();
  }

  T pop() {
    SIM_INVARIANT(!empty(), "common.bounded_queue", "pop() on empty queue");
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  void clear() { items_.clear(); }

  // SimState: capacity is construction-time configuration, so only the
  // occupancy is serialized.  Elements round-trip through ADL free functions
  // write_item(Sink&, const T&) / read_item(StateReader&, T&).
  template <typename Sink>
  void write_state(Sink& s) const {
    s.put_u64(items_.size());
    for (const T& item : items_) write_item(s, item);
  }
  void save(StateWriter& w) const { write_state(w); }
  void hash(Hasher& h) const { write_state(h); }
  void load(StateReader& r) {
    items_.clear();
    const u64 n = r.get_count(capacity_, "bounded_queue items");
    for (u64 i = 0; i < n; ++i) {
      T item{};
      read_item(r, item);
      items_.push_back(std::move(item));
    }
  }

 private:
  std::size_t capacity_;
  Ring<T> items_;
};

}  // namespace gpusim
