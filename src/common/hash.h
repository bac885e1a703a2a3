#ifndef STETHO_COMMON_HASH_H_
#define STETHO_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace stetho {

/// In-memory content keys, mixed in 8-byte words. A key built from these
/// lives only in memory, so its values may change between builds; hashes
/// that are stored (plan shapes, profile journals) use mal::ShapeHasher.

/// Mixes one word into `hash`: xors it in, multiplies by an odd constant
/// (murmur3's finalizer constant) and folds the high half down, so high
/// input bits reach the low key bits too. A round is a bijection of the
/// state, so two word sequences that differ in a single word never collide.
inline uint64_t MixWord(uint64_t hash, uint64_t word) {
  hash = (hash ^ word) * 0xff51afd7ed558ccdull;
  return hash ^ (hash >> 32);
}

/// Mixes `text` eight bytes at a time, its length first, so "ab","c" and
/// "a","bc" differ.
inline uint64_t MixText(uint64_t hash, std::string_view text) {
  hash = MixWord(hash, text.size());
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= text.size(); i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, text.data() + i, sizeof(word));
    hash = MixWord(hash, word);
  }
  if (i < text.size()) {
    uint64_t tail = 0;
    std::memcpy(&tail, text.data() + i, text.size() - i);
    hash = MixWord(hash, tail);
  }
  return hash;
}

}  // namespace stetho

#endif  // STETHO_COMMON_HASH_H_
