// FNV-1a 64: the one hash behind the fleet fingerprint, the engine's
// window digests, the shard harness fingerprint, the model checker's
// visited set and the pinned sweep checksum.
//
// A u64 is mixed byte by byte, least significant byte first, so a digest
// depends only on the values mixed, never on the host's byte order.
#ifndef DMASIM_UTIL_FNV_H_
#define DMASIM_UTIL_FNV_H_

#include <cstdint>
#include <string_view>

namespace dmasim {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  void MixU64(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      MixByte(static_cast<std::uint8_t>(value >> (8 * byte)));
    }
  }

  void MixBytes(std::string_view bytes) {
    for (const char c : bytes) MixByte(static_cast<std::uint8_t>(c));
  }

  std::uint64_t hash() const { return hash_; }

 private:
  void MixByte(std::uint8_t byte) {
    hash_ ^= byte;
    hash_ *= kPrime;
  }

  std::uint64_t hash_ = kOffsetBasis;
};

}  // namespace dmasim

#endif  // DMASIM_UTIL_FNV_H_
