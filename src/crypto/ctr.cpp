#include "crypto/ctr.h"

#include <algorithm>

#include "crypto/reference.h"
#include "crypto/wordio.h"

namespace tempriv::crypto {

const char* keystream_isa() noexcept {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(_M_X64)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

std::uint64_t CtrCipher::keystream_word(std::uint64_t nonce,
                                        std::uint64_t counter) const noexcept {
  return reference::keystream_word(cipher_, nonce, counter);
}

template <int Lanes>
void CtrCipher::keystream_wave(std::uint64_t nonce, std::uint64_t counter,
                               std::uint64_t* out) const noexcept {
  std::uint32_t x[Lanes];
  std::uint32_t y[Lanes];
  for (int l = 0; l < Lanes; ++l) {
    const std::uint64_t v = nonce ^ (counter + static_cast<std::uint64_t>(l));
    y[l] = static_cast<std::uint32_t>(v);
    x[l] = static_cast<std::uint32_t>(v >> 32);
  }
  cipher_.encrypt_words_lanes<Lanes>(x, y);
  for (int l = 0; l < Lanes; ++l) {
    out[l] = static_cast<std::uint64_t>(y[l]) |
             (static_cast<std::uint64_t>(x[l]) << 32);
  }
}

void CtrCipher::keystream_wave8(const std::uint64_t nonces[8],
                                std::uint64_t counter,
                                std::uint64_t out[8]) const noexcept {
  std::uint32_t x[8];
  std::uint32_t y[8];
  for (int l = 0; l < 8; ++l) {
    const std::uint64_t v = nonces[l] ^ counter;
    y[l] = static_cast<std::uint32_t>(v);
    x[l] = static_cast<std::uint32_t>(v >> 32);
  }
  cipher_.encrypt_words_lanes<8>(x, y);
  for (int l = 0; l < 8; ++l) {
    out[l] = static_cast<std::uint64_t>(y[l]) |
             (static_cast<std::uint64_t>(x[l]) << 32);
  }
}

void CtrCipher::crypt(std::uint64_t nonce,
                      std::span<std::uint8_t> data) const noexcept {
  xor_keystream(nonce, data, data);
}

void CtrCipher::xor_keystream(std::uint64_t nonce,
                              std::span<const std::uint8_t> in,
                              std::span<std::uint8_t> out) const noexcept {
  constexpr std::size_t kBlock = Speck64_128::kBlockBytes;
  const std::size_t nbytes = in.size();
  const std::size_t nblocks = (nbytes + kBlock - 1) / kBlock;
  std::uint64_t words[kWideLanes];
  std::uint64_t counter = 0;
  std::size_t offset = 0;
  // Wide waves while at least 8 blocks remain, a narrow wave for 2–7, the
  // scalar word for a lone block. The last block of each flush may be a
  // tail; the min() makes the same store path cover both cases.
  while (nblocks - counter >= static_cast<std::uint64_t>(kWideLanes)) {
    keystream_wave<kWideLanes>(nonce, counter, words);
    for (int l = 0; l < kWideLanes; ++l) {
      const std::size_t chunk = std::min(kBlock, nbytes - offset);
      store_le(out.data() + offset,
               load_le(in.data() + offset, chunk) ^ words[l], chunk);
      offset += chunk;
    }
    counter += kWideLanes;
  }
  while (nblocks - counter >= 2) {
    const int live = static_cast<int>(
        std::min<std::uint64_t>(nblocks - counter, kNarrowLanes));
    keystream_wave<kNarrowLanes>(nonce, counter, words);
    for (int l = 0; l < live; ++l) {
      const std::size_t chunk = std::min(kBlock, nbytes - offset);
      store_le(out.data() + offset,
               load_le(in.data() + offset, chunk) ^ words[l], chunk);
      offset += chunk;
    }
    counter += static_cast<std::uint64_t>(live);
  }
  if (nblocks - counter == 1) {
    const std::size_t chunk = nbytes - offset;
    store_le(out.data() + offset,
             load_le(in.data() + offset, chunk) ^ keystream_word(nonce, counter),
             chunk);
  }
}

void CtrCipher::keystream(std::uint64_t nonce,
                          std::span<std::uint8_t> out) const noexcept {
  constexpr std::size_t kBlock = Speck64_128::kBlockBytes;
  const std::size_t nbytes = out.size();
  const std::size_t nblocks = (nbytes + kBlock - 1) / kBlock;
  std::uint64_t words[kWideLanes];
  std::uint64_t counter = 0;
  std::size_t offset = 0;
  while (nblocks - counter >= static_cast<std::uint64_t>(kWideLanes)) {
    keystream_wave<kWideLanes>(nonce, counter, words);
    for (int l = 0; l < kWideLanes; ++l) {
      const std::size_t chunk = std::min(kBlock, nbytes - offset);
      store_le(out.data() + offset, words[l], chunk);
      offset += chunk;
    }
    counter += kWideLanes;
  }
  while (nblocks - counter >= 2) {
    const int live = static_cast<int>(
        std::min<std::uint64_t>(nblocks - counter, kNarrowLanes));
    keystream_wave<kNarrowLanes>(nonce, counter, words);
    for (int l = 0; l < live; ++l) {
      const std::size_t chunk = std::min(kBlock, nbytes - offset);
      store_le(out.data() + offset, words[l], chunk);
      offset += chunk;
    }
    counter += static_cast<std::uint64_t>(live);
  }
  if (nblocks - counter == 1) {
    store_le(out.data() + offset, keystream_word(nonce, counter),
             nbytes - offset);
  }
}

std::vector<std::uint8_t> CtrCipher::crypt_copy(
    std::uint64_t nonce, std::span<const std::uint8_t> data) const {
  std::vector<std::uint8_t> out(data.size());
  xor_keystream(nonce, data, out);
  return out;
}

std::uint64_t CbcMac::tag(std::span<const std::uint8_t> data) const noexcept {
  return reference::cbc_mac_tag(cipher_, data);
}

void CbcMac::tag8(const std::uint8_t* const msgs[8], std::size_t len,
                  std::uint64_t tags[8]) const noexcept {
  constexpr std::size_t kBlock = Speck64_128::kBlockBytes;
  // Lane l holds message l's chaining state; every lane performs exactly
  // the block sequence tag() does (length block, then zero-padded chain).
  std::uint32_t x[8];
  std::uint32_t y[8];
  const std::uint64_t len_word = static_cast<std::uint64_t>(len);
  for (int l = 0; l < 8; ++l) {
    y[l] = static_cast<std::uint32_t>(len_word);
    x[l] = static_cast<std::uint32_t>(len_word >> 32);
  }
  cipher_.encrypt_words_lanes<8>(x, y);
  std::size_t offset = 0;
  while (offset < len) {
    const std::size_t chunk = std::min(kBlock, len - offset);
    for (int l = 0; l < 8; ++l) {
      const std::uint64_t word = load_le(msgs[l] + offset, chunk);
      y[l] ^= static_cast<std::uint32_t>(word);
      x[l] ^= static_cast<std::uint32_t>(word >> 32);
    }
    cipher_.encrypt_words_lanes<8>(x, y);
    offset += chunk;
  }
  for (int l = 0; l < 8; ++l) {
    tags[l] = static_cast<std::uint64_t>(y[l]) |
              (static_cast<std::uint64_t>(x[l]) << 32);
  }
}

}  // namespace tempriv::crypto
