#pragma once

// Fixed-size pooled allocation for per-shard stream state. Every shard owns
// one PoolArena<StreamState>: stream creation takes a slot from the shard's
// free list instead of a global malloc (the per-event allocation cost the
// resident engine exists to cut), and the blocks are released wholesale
// when the shard dies. Slots never move,
// so StreamState pointers handed out by the table stay stable for the
// arena's lifetime — the same stability guarantee the previous
// unique_ptr-per-stream layout gave, without its allocation traffic.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace mpipred::engine {

/// Pool of fixed-size slots for objects of type T. Allocation and
/// deallocation are O(1) off a free list; memory grows in blocks of
/// kBlockObjects and is only returned to the system on destruction.
/// Single-owner, single-thread use (one arena per shard, and a shard is
/// only ever touched by one thread at a time).
template <typename T>
class PoolArena {
 public:
  /// Slots added per growth step.
  static constexpr std::size_t kBlockObjects = 256;

  PoolArena() = default;
  PoolArena(PoolArena&&) noexcept = default;
  PoolArena& operator=(PoolArena&&) noexcept = default;
  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;

  /// Destroying the arena frees the blocks but runs no destructors: every
  /// live object must have been destroy()ed by its owner first (the stream
  /// table walks its entries on destruction).
  ~PoolArena() = default;

  /// Constructs a T in a free slot; the pointer stays valid until
  /// destroy() or arena destruction, across any number of later creates.
  template <typename... Args>
  [[nodiscard]] T* create(Args&&... args) {
    if (free_.empty()) {
      grow();
    }
    T* slot = free_.back();
    free_.pop_back();
    try {
      return ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    } catch (...) {
      free_.push_back(slot);  // reserved in grow(): cannot throw
      throw;
    }
  }

  /// Runs the destructor and recycles the slot.
  void destroy(T* object) noexcept {
    object->~T();
    free_.push_back(object);  // reserved in grow(): cannot throw
  }

  [[nodiscard]] std::size_t live_objects() const noexcept {
    return blocks_.size() * kBlockObjects - free_.size();
  }

  /// Bytes held by the arena's blocks (allocated, whether or not in use).
  [[nodiscard]] std::size_t reserved_bytes() const noexcept {
    return blocks_.size() * kBlockObjects * sizeof(Slot);
  }

 private:
  struct alignas(T) Slot {
    std::byte bytes[sizeof(T)];
  };

  void grow() {
    blocks_.push_back(std::make_unique<Slot[]>(kBlockObjects));
    // Reserve the full capacity up front so destroy()'s push_back can
    // never allocate (and therefore never throw) later.
    free_.reserve(blocks_.size() * kBlockObjects);
    Slot* block = blocks_.back().get();
    for (std::size_t i = kBlockObjects; i-- > 0;) {
      free_.push_back(reinterpret_cast<T*>(&block[i]));
    }
  }

  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::vector<T*> free_;
};

}  // namespace mpipred::engine
