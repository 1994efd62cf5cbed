// Copyright (c) the semis authors.
// Open-addressing hash set of 64-bit keys: one flat slot array, linear
// probing, and backward-shift deletion instead of tombstones, so a set
// whose keys come and go probes as short as a freshly built one and its
// memory is exactly its slot array.
#ifndef SEMIS_UTIL_FLAT_KEY_SET_H_
#define SEMIS_UTIL_FLAT_KEY_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace semis {

/// Hash set of u64 keys. Every key but kEmptyKey may be stored. Not
/// iterable, on purpose: hash order must never reach an output.
class FlatKeySet {
 public:
  /// The slot marker; the one key the set cannot hold.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  /// Adds `key` (!= kEmptyKey). Returns false when it was already there.
  bool Insert(uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = Home(key);
    while (slots_[i] != kEmptyKey) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    size_++;
    return true;
  }

  /// Removes `key`. Returns false when it was not there.
  bool Erase(uint64_t key) {
    size_t hole = 0;
    if (!Find(key, &hole)) return false;
    // Backward shift: walk the cluster after the hole and move back every
    // key whose home does not lie strictly between the hole and its slot,
    // so no probe sequence ever crosses an empty slot it used to pass.
    for (size_t j = (hole + 1) & mask_; slots_[j] != kEmptyKey;
         j = (j + 1) & mask_) {
      if (((j - Home(slots_[j])) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmptyKey;
    size_--;
    return true;
  }

  /// True when `key` is in the set.
  bool Contains(uint64_t key) const {
    size_t slot = 0;
    return Find(key, &slot);
  }

  /// Number of keys.
  size_t size() const { return size_; }

  /// Removes every key and keeps the slot array.
  void Clear() {
    slots_.assign(slots_.size(), kEmptyKey);
    size_ = 0;
  }

  /// Sizes the slot array for `n` keys without a rehash on the way.
  void Reserve(size_t n) {
    while (2 * n > slots_.size()) Grow();
  }

  /// Heap bytes held: the slot array, exactly.
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(uint64_t); }

 private:
  static constexpr size_t kMinSlots = 16;

  // murmur3's 64-bit finalizer: edge keys pack two ids into the halves of
  // a word, and every input bit must reach the low bits the mask keeps.
  size_t Home(uint64_t key) const {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ULL;
    key ^= key >> 33;
    return static_cast<size_t>(key) & mask_;
  }

  bool Find(uint64_t key, size_t* slot) const {
    if (size_ == 0) return false;
    for (size_t i = Home(key); slots_[i] != kEmptyKey; i = (i + 1) & mask_) {
      if (slots_[i] == key) {
        *slot = i;
        return true;
      }
    }
    return false;
  }

  // Doubles the slot array (at most half full after) and reinserts.
  void Grow() {
    std::vector<uint64_t> old;
    old.swap(slots_);
    slots_.assign(old.empty() ? kMinSlots : 2 * old.size(), kEmptyKey);
    mask_ = slots_.size() - 1;
    for (uint64_t key : old) {
      if (key == kEmptyKey) continue;
      size_t i = Home(key);
      while (slots_[i] != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<uint64_t> slots_;  // a power of two in size, or empty
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace semis

#endif  // SEMIS_UTIL_FLAT_KEY_SET_H_
