// AttributeSet: a set of attributes of the universe U, stored as a dynamic
// bitset. This is the workhorse value type of the whole library — schemes,
// FD sides, closures and keys are all AttributeSets.
//
// Sets self-size: operations between sets of different logical capacity are
// well-defined (missing high words are treated as zero), so callers never
// plumb the universe size around. Trailing zero words are normalized away,
// which makes equality and hashing structural.
//
// Storage is a small-buffer bitset: up to kInlineWords (2) words — 128
// attributes, which covers every corpus anchor and paper example — live
// inline with no heap allocation; larger universes spill to a heap buffer.
// Equality, ordering and hashing read only the normalized word prefix, so
// an inline set and a spilled-then-shrunk set with equal contents compare
// and hash identically regardless of where their words live.

#ifndef IRD_BASE_ATTRIBUTE_SET_H_
#define IRD_BASE_ATTRIBUTE_SET_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "base/check.h"

namespace ird {

// Index of an attribute within a Universe.
using AttributeId = uint32_t;

class AttributeSet {
 public:
  // Words stored inline before spilling to the heap. Two words = 128
  // attributes, enough for everything the corpus and the paper exercise.
  static constexpr uint32_t kInlineWords = 2;

  // The empty set.
  AttributeSet() = default;
  // The set {ids...}.
  AttributeSet(std::initializer_list<AttributeId> ids) {
    for (AttributeId id : ids) Add(id);
  }

  AttributeSet(const AttributeSet& other) { CopyFrom(other); }
  AttributeSet& operator=(const AttributeSet& other) {
    if (this != &other) {
      ReleaseHeap();
      CopyFrom(other);
    }
    return *this;
  }
  AttributeSet(AttributeSet&& other) noexcept { StealFrom(other); }
  AttributeSet& operator=(AttributeSet&& other) noexcept {
    if (this != &other) {
      ReleaseHeap();
      StealFrom(other);
    }
    return *this;
  }
  ~AttributeSet() { ReleaseHeap(); }

  // The set {0, 1, ..., n-1}; with a Universe this is "all of U".
  static AttributeSet AllUpTo(AttributeId n);

  // Element operations.
  void Add(AttributeId id) {
    const uint32_t w = id / 64;
    if (w >= size_) ExtendTo(w + 1);
    MutableWords()[w] |= uint64_t{1} << (id % 64);
  }
  void Remove(AttributeId id) {
    const uint32_t w = id / 64;
    // size_ <= capacity_ always; the second test only hands GCC's
    // -Warray-bounds the bound of the inline words at -O3.
    if (w >= size_ || w >= capacity_) return;
    MutableWords()[w] &= ~(uint64_t{1} << (id % 64));
    Normalize();
  }
  bool Contains(AttributeId id) const {
    const uint32_t w = id / 64;
    return w < size_ && ((words()[w] >> (id % 64)) & 1) != 0;
  }

  // Set algebra (in place). Return *this to allow chaining.
  AttributeSet& UnionWith(const AttributeSet& other) {
    if (other.size_ > size_) ExtendTo(other.size_);
    uint64_t* w = MutableWords();
    const uint64_t* o = other.words();
    for (uint32_t i = 0; i < other.size_; ++i) w[i] |= o[i];
    return *this;
  }
  AttributeSet& IntersectWith(const AttributeSet& other) {
    uint64_t* w = MutableWords();
    const uint64_t* o = other.words();
    if (other.size_ < size_) size_ = other.size_;
    for (uint32_t i = 0; i < size_; ++i) w[i] &= o[i];
    Normalize();
    return *this;
  }
  AttributeSet& SubtractAll(const AttributeSet& other) {
    uint64_t* w = MutableWords();
    const uint64_t* o = other.words();
    const uint32_t n = size_ < other.size_ ? size_ : other.size_;
    for (uint32_t i = 0; i < n; ++i) w[i] &= ~o[i];
    Normalize();
    return *this;
  }

  // Set algebra (value-returning).
  AttributeSet Union(const AttributeSet& other) const {
    AttributeSet out = *this;
    out.UnionWith(other);
    return out;
  }
  AttributeSet Intersect(const AttributeSet& other) const {
    AttributeSet out = *this;
    out.IntersectWith(other);
    return out;
  }
  AttributeSet Minus(const AttributeSet& other) const {
    AttributeSet out = *this;
    out.SubtractAll(other);
    return out;
  }

  // Predicates.
  bool Empty() const { return size_ == 0; }
  bool IsSubsetOf(const AttributeSet& other) const {
    if (size_ > other.size_) return false;
    const uint64_t* w = words();
    const uint64_t* o = other.words();
    for (uint32_t i = 0; i < size_; ++i) {
      if ((w[i] & ~o[i]) != 0) return false;
    }
    return true;
  }
  bool IsProperSubsetOf(const AttributeSet& other) const {
    return IsSubsetOf(other) && *this != other;
  }
  bool IsSupersetOf(const AttributeSet& other) const {
    return other.IsSubsetOf(*this);
  }
  bool Intersects(const AttributeSet& other) const {
    const uint32_t n = size_ < other.size_ ? size_ : other.size_;
    const uint64_t* w = words();
    const uint64_t* o = other.words();
    for (uint32_t i = 0; i < n; ++i) {
      if ((w[i] & o[i]) != 0) return true;
    }
    return false;
  }
  // Neither a subset nor a superset of `other` (the paper's "incomparable").
  bool IsIncomparableWith(const AttributeSet& other) const {
    return !IsSubsetOf(other) && !other.IsSubsetOf(*this);
  }

  // Number of attributes in the set.
  size_t Count() const;

  // Smallest element; the set must be nonempty.
  AttributeId First() const;

  // Number of elements strictly smaller than id (the position id would have
  // in ToVector()). id need not be a member.
  size_t Rank(AttributeId id) const;

  // All elements in increasing order.
  std::vector<AttributeId> ToVector() const;

  // Calls `fn(AttributeId)` for each element in increasing order. Together
  // with the iterator below, this is the allocation-free replacement for
  // ToVector() on hot paths.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const uint64_t* w = words();
    for (uint32_t i = 0; i < size_; ++i) {
      uint64_t word = w[i];
      while (word != 0) {
        int bit = __builtin_ctzll(word);
        fn(static_cast<AttributeId>(i * 64 + bit));
        word &= word - 1;
      }
    }
  }

  // Forward iterator over the elements in increasing order, for range-for
  // without materializing a vector. The iterator reads the set's word
  // buffer; mutating or destroying the set invalidates it (leaving the
  // loop with `break` immediately after a mutation is fine).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = AttributeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const AttributeId*;
    using reference = AttributeId;

    const_iterator() = default;

    AttributeId operator*() const {
      return static_cast<AttributeId>(word_ * 64 + __builtin_ctzll(bits_));
    }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;
      SkipEmptyWords();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator out = *this;
      ++*this;
      return out;
    }
    bool operator==(const const_iterator& other) const {
      return word_ == other.word_ && bits_ == other.bits_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class AttributeSet;
    const_iterator(const uint64_t* w, uint32_t n, uint32_t word)
        : words_(w), nwords_(n), word_(word),
          bits_(word < n ? w[word] : 0) {
      SkipEmptyWords();
    }
    void SkipEmptyWords() {
      while (bits_ == 0 && word_ + 1 < nwords_) {
        bits_ = words_[++word_];
      }
      if (bits_ == 0) word_ = nwords_;
    }

    const uint64_t* words_ = nullptr;
    uint32_t nwords_ = 0;
    uint32_t word_ = 0;
    uint64_t bits_ = 0;
  };

  const_iterator begin() const { return const_iterator(words(), size_, 0); }
  const_iterator end() const { return const_iterator(words(), size_, size_); }

  bool operator==(const AttributeSet& other) const {
    if (size_ != other.size_) return false;
    const uint64_t* w = words();
    const uint64_t* o = other.words();
    for (uint32_t i = 0; i < size_; ++i) {
      if (w[i] != o[i]) return false;
    }
    return true;
  }
  bool operator!=(const AttributeSet& other) const {
    return !(*this == other);
  }
  // Lexicographic-by-word total order, usable for std::map / sorting.
  bool operator<(const AttributeSet& other) const;

  // FNV-1a style hash for unordered containers.
  size_t Hash() const;

  // Debug form "{0,3,7}".
  std::string DebugString() const;

 private:
  // Representation: `size_` normalized words (trailing zero words dropped)
  // living inline when capacity_ == kInlineWords, else in rep_.heap (with
  // capacity_ > kInlineWords allocated words). A spilled set keeps its heap
  // buffer even if normalization shrinks it back under the inline limit —
  // the logical prefix is all that equality/hash/order ever read.
  const uint64_t* words() const {
    return capacity_ == kInlineWords ? rep_.inline_words : rep_.heap;
  }
  uint64_t* MutableWords() {
    return capacity_ == kInlineWords ? rep_.inline_words : rep_.heap;
  }

  // Grows the logical size to `nwords`, zero-filling the new words
  // (spilling to the heap if they exceed capacity).
  void ExtendTo(uint32_t nwords) {
    if (nwords <= capacity_) {
      uint64_t* w = MutableWords();
      for (uint32_t i = size_; i < nwords; ++i) w[i] = 0;
      size_ = nwords;
    } else {
      SpillTo(nwords);
    }
  }
  void SpillTo(uint32_t nwords);  // slow path: (re)allocate the heap buffer

  void Normalize() {
    const uint64_t* w = words();
    while (size_ > 0 && w[size_ - 1] == 0) --size_;
  }

  void ReleaseHeap() {
    if (capacity_ > kInlineWords) delete[] rep_.heap;
  }
  void CopyFrom(const AttributeSet& other);  // assumes *this owns no heap
  void StealFrom(AttributeSet& other) {      // assumes *this owns no heap
    size_ = other.size_;
    capacity_ = other.capacity_;
    rep_ = other.rep_;
    other.size_ = 0;
    other.capacity_ = kInlineWords;
  }

  uint32_t size_ = 0;               // normalized word count
  uint32_t capacity_ = kInlineWords;  // == kInlineWords iff stored inline
  union Rep {
    uint64_t inline_words[kInlineWords];
    uint64_t* heap;
  } rep_;
};

// std::hash adapter.
struct AttributeSetHash {
  size_t operator()(const AttributeSet& s) const { return s.Hash(); }
};

}  // namespace ird

#endif  // IRD_BASE_ATTRIBUTE_SET_H_
