// Copyright (c) the semis authors.
// Open-addressing hash tables of 64-bit keys: one flat slot array, linear
// probing, and no per-key allocation, so a table's memory is exactly its
// arrays. FlatKeySet deletes by backward shift instead of tombstones, so a
// set whose keys come and go probes as short as a freshly built one.
// FlatKeyMap keeps a u32 value per slot in a parallel array and is
// insert-only. Both share one slot array type, hash and probe loop.
#ifndef SEMIS_UTIL_FLAT_KEY_SET_H_
#define SEMIS_UTIL_FLAT_KEY_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace semis {

/// The slot array, hash and probe loop of FlatKeySet and FlatKeyMap.
class FlatKeySlots {
 public:
  /// The slot marker; the one key a table cannot hold.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  /// Number of keys.
  size_t size() const { return size_; }

 protected:
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

  // The slot holding `key`, or the empty slot that ends its probe. The
  // slot array must not be empty.
  size_t Probe(uint64_t key) const {
    size_t i = Home(key);
    while (slots_[i] != kEmptyKey && slots_[i] != key) i = (i + 1) & mask_;
    return i;
  }

  bool Find(uint64_t key, size_t* slot) const {
    if (size_ == 0) return false;
    const size_t i = Probe(key);
    if (slots_[i] == kEmptyKey) return false;
    *slot = i;
    return true;
  }

  // True when one more key would fill more than half of the slots.
  bool FullFor(size_t n) const { return 2 * n > slots_.size(); }

  // Slot count after the next Grow.
  size_t GrownSlotCount() const {
    return slots_.empty() ? kMinSlots : 2 * slots_.size();
  }

  // Doubles the slot array (at most half full after) and reinserts every
  // key, calling `moved(old_slot, new_slot)` for each.
  template <typename Moved>
  void Grow(Moved&& moved) {
    std::vector<uint64_t> old(GrownSlotCount(), kEmptyKey);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (size_t j = 0; j < old.size(); ++j) {
      if (old[j] == kEmptyKey) continue;
      size_t i = Home(old[j]);
      while (slots_[i] != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = old[j];
      moved(j, i);
    }
  }

  std::vector<uint64_t> slots_;  // a power of two in size, or empty
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Hash set of u64 keys. Every key but kEmptyKey may be stored. Not
/// iterable, on purpose: hash order must never reach an output.
class FlatKeySet : public FlatKeySlots {
 public:
  /// Adds `key` (!= kEmptyKey). Returns false when it was already there.
  bool Insert(uint64_t key) {
    if (FullFor(size_ + 1)) Grow(NoValues{});
    const size_t i = Probe(key);
    if (slots_[i] == key) return false;
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

  /// Removes every key and keeps the slot array.
  void Clear() {
    slots_.assign(slots_.size(), kEmptyKey);
    size_ = 0;
  }

  /// Sizes the slot array for `n` keys without a rehash on the way.
  void Reserve(size_t n) {
    while (FullFor(n)) Grow(NoValues{});
  }

  /// Heap bytes held: the slot array, exactly.
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(uint64_t); }

 private:
  struct NoValues {
    void operator()(size_t, size_t) const {}
  };
};

/// Hash map from u64 keys (every key but kEmptyKey) to u32 values.
/// Insert-only: a key keeps the value it entered with. Not iterable, on
/// purpose: hash order must never reach an output.
class FlatKeyMap : public FlatKeySlots {
 public:
  /// Returns `key`'s value. When `key` is absent it is first added with
  /// `value`, and `*inserted` is set to true (else to false).
  uint32_t FindOrInsert(uint64_t key, uint32_t value, bool* inserted) {
    if (FullFor(size_ + 1)) GrowValues();
    const size_t i = Probe(key);
    *inserted = slots_[i] != key;
    if (*inserted) {
      slots_[i] = key;
      values_[i] = value;
      size_++;
    }
    return values_[i];
  }

  /// True when `key` is in the map; then `*value` is its value.
  bool Find(uint64_t key, uint32_t* value) const {
    size_t slot = 0;
    if (!FlatKeySlots::Find(key, &slot)) return false;
    *value = values_[slot];
    return true;
  }

  /// Heap bytes held: the slot and value arrays, exactly.
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(uint64_t) +
           values_.capacity() * sizeof(uint32_t);
  }

 private:
  void GrowValues() {
    std::vector<uint32_t> old;
    old.swap(values_);
    values_.resize(GrownSlotCount());
    Grow([&](size_t from, size_t to) { values_[to] = old[from]; });
  }

  std::vector<uint32_t> values_;  // values_[i] belongs to slots_[i]
};

}  // namespace semis

#endif  // SEMIS_UTIL_FLAT_KEY_SET_H_
