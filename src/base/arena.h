// Bump-pointer arena for the chase/closure hot paths.
//
// A Tableau (and the delta chase engine that drives it) makes many small,
// same-lifetime allocations: row cells, symbol records, merge-log entries,
// bucket-index storage. Individually heap-allocating them scatters the chase
// working set across the heap and puts malloc on the per-rule-application
// path. The arena replaces that with pointer arithmetic: allocations bump a
// cursor inside a block, blocks double in size as the arena grows, and
// everything is released at once when the owner dies.
//
// Rules of ownership (see ARCHITECTURE.md "Memory substrate"):
//   * An arena is owned by exactly one object (a Tableau, a ChaseEngine) and
//     dies with it. Nothing allocated from an arena is individually freed.
//   * Only trivially-copyable, trivially-destructible payloads go in
//     (enforced by ArenaVector's static_asserts) — no destructors ever run
//     for arena memory.
//   * base/ sits below obs/ in the layering, so the arena cannot emit
//     counters itself; owners flush bytes_in_use()/highwater_bytes() into
//     the arena.* counters at operation end.

#ifndef IRD_BASE_ARENA_H_
#define IRD_BASE_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "base/check.h"

namespace ird {

class Arena {
 public:
  // First block size; subsequent blocks double up to kMaxBlockBytes.
  static constexpr size_t kInitialBlockBytes = 4096;
  static constexpr size_t kMaxBlockBytes = size_t{1} << 20;

  Arena() = default;
  ~Arena() { FreeBlocks(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept { StealFrom(other); }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      FreeBlocks();
      StealFrom(other);
    }
    return *this;
  }

  // Returns `bytes` of storage aligned for any scalar type. Never null;
  // zero-byte requests return a distinct valid pointer.
  void* Allocate(size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    if (bump_ + bytes > limit_) NewBlock(bytes);
    char* out = bump_;
    bump_ += bytes;
    bytes_in_use_ += bytes;
    if (bytes_in_use_ > highwater_bytes_) highwater_bytes_ = bytes_in_use_;
    return out;
  }

  // Typed array allocation (uninitialized storage).
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory never runs destructors");
    static_assert(alignof(T) <= kAlign, "over-aligned type in arena");
    return static_cast<T*>(Allocate(n * sizeof(T)));
  }

  // Typed zero-initialized array allocation.
  template <typename T>
  T* AllocateZeroedArray(size_t n) {
    T* out = AllocateArray<T>(n);
    std::memset(static_cast<void*>(out), 0, n * sizeof(T));
    return out;
  }

  // Bytes handed out to callers (aligned) since construction.
  size_t bytes_in_use() const { return bytes_in_use_; }
  // Bytes obtained from the system, including block slack.
  size_t bytes_reserved() const { return bytes_reserved_; }
  // Peak of bytes_in_use(); for the arena.highwater counter.
  size_t highwater_bytes() const { return highwater_bytes_; }

 private:
  static constexpr size_t kAlign = alignof(std::max_align_t);

  struct BlockHeader {
    BlockHeader* prev;
    size_t size;  // total bytes including the header
  };

  void NewBlock(size_t min_bytes);  // slow path, in arena.cc
  void FreeBlocks();

  void StealFrom(Arena& other) {
    head_ = other.head_;
    bump_ = other.bump_;
    limit_ = other.limit_;
    next_block_bytes_ = other.next_block_bytes_;
    bytes_in_use_ = other.bytes_in_use_;
    bytes_reserved_ = other.bytes_reserved_;
    highwater_bytes_ = other.highwater_bytes_;
    other.head_ = nullptr;
    other.bump_ = other.limit_ = nullptr;
    other.next_block_bytes_ = kInitialBlockBytes;
    other.bytes_in_use_ = other.bytes_reserved_ = other.highwater_bytes_ = 0;
  }

  BlockHeader* head_ = nullptr;
  char* bump_ = nullptr;
  char* limit_ = nullptr;
  size_t next_block_bytes_ = kInitialBlockBytes;
  size_t bytes_in_use_ = 0;
  size_t bytes_reserved_ = 0;
  size_t highwater_bytes_ = 0;
};

// A vector whose backing store lives in an Arena. Grow operations take the
// arena explicitly — the vector does not retain a pointer to it, so moving
// the owning object (which owns both) stays trivially correct. Old buffers
// are abandoned in place (arena memory is never reclaimed early), so callers
// on hot paths reserve() up front and never regrow.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector relocates with memcpy");
  static_assert(std::is_trivially_destructible_v<T>,
                "arena memory never runs destructors");

 public:
  ArenaVector() = default;
  ArenaVector(const ArenaVector&) = delete;
  ArenaVector& operator=(const ArenaVector&) = delete;
  ArenaVector(ArenaVector&& other) noexcept
      : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
  }
  ArenaVector& operator=(ArenaVector&& other) noexcept {
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = nullptr;
    other.size_ = other.capacity_ = 0;
    return *this;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  void reserve(Arena& arena, size_t cap) {
    if (cap > capacity_) Regrow(arena, cap);
  }

  void push_back(Arena& arena, const T& value) {
    if (size_ == capacity_) {
      Regrow(arena, capacity_ == 0 ? 8 : capacity_ * 2);
    }
    data_[size_++] = value;
  }

  // Appends n default-initialized slots and returns a pointer to the first.
  T* extend(Arena& arena, size_t n) {
    if (size_ + n > capacity_) {
      size_t cap = capacity_ == 0 ? 8 : capacity_ * 2;
      if (cap < size_ + n) cap = size_ + n;
      Regrow(arena, cap);
    }
    T* out = data_ + size_;
    size_ += n;
    return out;
  }

  void resize(Arena& arena, size_t n, const T& fill = T{}) {
    if (n > size_) {
      T* slot = extend(arena, n - size_);
      for (size_t i = 0; slot + i != data_ + size_; ++i) slot[i] = fill;
    } else {
      size_ = n;
    }
  }

  // Drops elements from the end; keeps the storage.
  void truncate(size_t n) {
    IRD_DCHECK(n <= size_);
    size_ = n;
  }
  void clear() { size_ = 0; }

  void assign(Arena& arena, const T* src, size_t n) {
    reserve(arena, n);
    // memcpy from a null `src` is undefined even for n == 0.
    if (n > 0) std::memcpy(static_cast<void*>(data_), src, n * sizeof(T));
    size_ = n;
  }

 private:
  void Regrow(Arena& arena, size_t cap) {
    T* buf = arena.AllocateArray<T>(cap);
    if (size_ > 0) {
      std::memcpy(static_cast<void*>(buf), data_, size_ * sizeof(T));
    }
    data_ = buf;
    capacity_ = cap;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace ird

#endif  // IRD_BASE_ARENA_H_
