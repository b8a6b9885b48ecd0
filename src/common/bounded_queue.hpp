// Fixed-capacity FIFO.
//
// BoundedQueue is the single-threaded queue used for all hardware queues in
// the simulator: hardware queues have finite depth; back-pressure from a
// full queue is part of the interference behaviour being modelled, so
// overflow must be an explicit, checkable condition rather than silent
// growth.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "common/sim_error.hpp"
#include "common/simstate.hpp"

namespace gpusim {

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

  // Iteration support (needed by FR-FCFS scans over bank queues).
  auto begin() { return items_.begin(); }
  auto end() { return items_.end(); }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  /// Removes and returns the element at iterator position (FR-FCFS picks
  /// row-buffer hits from the middle of the queue).
  T extract(typename std::deque<T>::iterator it) {
    T item = std::move(*it);
    items_.erase(it);
    return item;
  }

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
  std::deque<T> items_;
};

}  // namespace gpusim
