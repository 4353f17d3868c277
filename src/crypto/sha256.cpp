#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace repchain::crypto {

namespace {
constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// The SHA extensions' rounds when this CPU has them, chosen once.
Sha256::Compress fastest_compress() {
#if defined(__x86_64__)
  static const Sha256::Compress kChosen = sha256_has_sha_extensions()
                                              ? &sha256_compress_sha_extensions
                                              : &sha256_compress_portable;
  return kChosen;
#else
  return &sha256_compress_portable;
#endif
}
}  // namespace

Sha256::Sha256() : Sha256(fastest_compress()) {}

Sha256::Sha256(Compress compress) : compress_(compress) {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

Sha256& Sha256::update(BytesView data) {
  if (data.empty()) return *this;  // an empty view's data() may be null: no memcpy
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off += take;
    if (buffer_len_ == kBlockSize) {
      compress_(state_, buffer_);
      buffer_len_ = 0;
    }
  }
  while (data.size() - off >= kBlockSize) {
    compress_(state_, data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buffer_, data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
  return *this;
}

Sha256::Digest Sha256::finish() {
  // Pad in place: 0x80, zeros up to the last 8 bytes of a block (spilling
  // into one more block when fewer than 9 bytes are left), then the
  // big-endian bit length.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    compress_(state_, buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(state_, buffer_);

  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256::Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
bool sha256_has_sha_extensions() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// Register contents are listed from lane 0 up. The rounds instruction takes
// the state as the lanes (f, e, b, a) and (h, g, d, c), and four message
// words plus their round constants, of which it uses two per call.
__attribute__((target("sha,sse4.1"))) void sha256_compress_sha_extensions(
    std::uint32_t* state, const std::uint8_t* block) {
  const __m128i big_endian = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i badc =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i feba = _mm_alignr_epi8(badc, hgfe, 8);
  __m128i hgdc = _mm_blend_epi16(hgfe, badc, 0xF0);
  const __m128i feba_in = feba;
  const __m128i hgdc_in = hgdc;

  // w[g % 4] holds the schedule words 4g..4g+3 of group g, overwriting
  // those of group g - 4, the oldest it needs.
  __m128i w[4];
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    if (g < 4) {
      w[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)), big_endian);
    } else {
      // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]) for t = 4g..4g+3.
      const __m128i last = w[(g + 3) % 4];  // W[t-4..t-1]
      const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]),
                                            _mm_alignr_epi8(last, w[(g + 2) % 4], 4));
      w[g % 4] = _mm_sha256msg2_epu32(partial, last);
    }
    const __m128i wk =
        _mm_add_epi32(w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
    // Two rounds each; the state after the first two is the (h, g, d, c)
    // of the next two.
    hgdc = _mm_sha256rnds2_epu32(hgdc, feba, wk);
    feba = _mm_sha256rnds2_epu32(feba, hgdc, _mm_shuffle_epi32(wk, 0x0E));
  }

  const __m128i abef = _mm_shuffle_epi32(_mm_add_epi32(feba, feba_in), 0x1B);
  const __m128i ghcd = _mm_shuffle_epi32(_mm_add_epi32(hgdc, hgdc_in), 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(abef, ghcd, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(ghcd, abef, 8));
}
#endif

Hash256 sha256_concat(std::initializer_list<BytesView> parts) {
  Sha256 h;
  for (const auto& p : parts) h.update(p);
  return h.finish();
}

}  // namespace repchain::crypto
