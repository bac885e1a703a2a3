#ifndef STETHO_COMMON_STRING_INDEX_H_
#define STETHO_COMMON_STRING_INDEX_H_

#include <cstddef>
#include <functional>
#include <string_view>
#include <utility>
#include <vector>

namespace stetho {

/// A hash index from string keys to the elements of a caller-owned array
/// that hold them. A slot is one int, the element's position, so the index
/// copies no key and, once sized, an insertion allocates nothing. Open
/// addressing with linear probing over a power-of-two table kept at most
/// half full.
///
/// Every call takes `key_of`, where `key_of(i)` returns (a view of) the key
/// of element i; an indexed element's key must not change.
class StringIndex {
 public:
  /// Sizes the table for `keys` keys, so that inserting that many
  /// rehashes nothing.
  template <typename KeyOf>
  void Reserve(size_t keys, const KeyOf& key_of) {
    const size_t slots = SlotsFor(keys);
    if (slots > slots_.size()) Rehash(slots, key_of);
  }

  /// The element whose key is `key`, or -1.
  template <typename KeyOf>
  int Find(std::string_view key, const KeyOf& key_of) const {
    return slots_.empty() ? -1 : slots_[SlotOf(key, key_of)];
  }

  /// The element whose key is `key`. When there is none, indexes `element`
  /// under `key` and returns -1; the caller then stores an element with
  /// that key at position `element` before the next call.
  template <typename KeyOf>
  int FindOrInsert(std::string_view key, int element, const KeyOf& key_of) {
    const size_t slots = SlotsFor(size_ + 1);
    if (slots > slots_.size()) Rehash(slots, key_of);
    int& slot = slots_[SlotOf(key, key_of)];
    if (slot >= 0) return slot;
    slot = element;
    ++size_;
    return -1;
  }

 private:
  static size_t SlotsFor(size_t keys) {
    size_t slots = 16;
    while (slots < 2 * keys) slots *= 2;
    return slots;
  }

  /// The slot holding `key`, or the empty slot where it would go.
  template <typename KeyOf>
  size_t SlotOf(std::string_view key, const KeyOf& key_of) const {
    const size_t mask = slots_.size() - 1;
    size_t i = std::hash<std::string_view>{}(key) & mask;
    while (slots_[i] >= 0 && std::string_view(key_of(slots_[i])) != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  template <typename KeyOf>
  void Rehash(size_t slots, const KeyOf& key_of) {
    std::vector<int> old = std::move(slots_);
    slots_.assign(slots, -1);
    for (int element : old) {
      if (element >= 0) slots_[SlotOf(key_of(element), key_of)] = element;
    }
  }

  std::vector<int> slots_;
  size_t size_ = 0;
};

}  // namespace stetho

#endif  // STETHO_COMMON_STRING_INDEX_H_
