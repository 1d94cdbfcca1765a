#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernel.h"
#include "util/hex.h"

#if PRESTIGE_SHA256_SHANI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace prestige {
namespace crypto {

namespace {

constexpr uint32_t kInitialState[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t BigSigma0(uint32_t x) {
  return Rotr(x, 2) ^ Rotr(x, 13) ^ Rotr(x, 22);
}
inline uint32_t BigSigma1(uint32_t x) {
  return Rotr(x, 6) ^ Rotr(x, 11) ^ Rotr(x, 25);
}
inline uint32_t SmallSigma0(uint32_t x) {
  return Rotr(x, 7) ^ Rotr(x, 18) ^ (x >> 3);
}
inline uint32_t SmallSigma1(uint32_t x) {
  return Rotr(x, 17) ^ Rotr(x, 19) ^ (x >> 10);
}
inline uint32_t Ch(uint32_t e, uint32_t f, uint32_t g) {
  return (e & f) ^ (~e & g);
}
inline uint32_t Maj(uint32_t a, uint32_t b, uint32_t c) {
  return (a & b) ^ (a & c) ^ (b & c);
}

/// Big-endian 32-bit load; a single bswap instruction on little-endian
/// targets instead of four shift-or byte loads.
inline uint32_t LoadBe32(const uint8_t* p) {
#if defined(__GNUC__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  uint32_t v;
  std::memcpy(&v, p, 4);
  return __builtin_bswap32(v);
#else
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
#endif
}

// Hash accounting. Thread-local on purpose: parallel seed sweeps run one
// Simulator per worker thread, and per-run attribution must not race or
// bleed across runs. t_active is the innermost installed CryptoMeter (or
// null); t_total_finished is the thread's cumulative count backing
// Sha256::TotalFinished().
thread_local uint64_t t_total_finished = 0;
thread_local CryptoMeter* t_active_meter = nullptr;

/// The kernel choice, probed once per process on first use. A function-local
/// static, so a hash taken during static initialisation probes too and
/// never reads an unset flag.
bool UseShaNi() {
  static const bool use = internal::ShaNiSupported();
  return use;
}

}  // namespace

ScopedCryptoMeter::ScopedCryptoMeter(CryptoMeter* meter)
    : prev_(t_active_meter) {
  t_active_meter = meter;
}

ScopedCryptoMeter::~ScopedCryptoMeter() { t_active_meter = prev_; }

void Sha256::Reset() {
  std::memcpy(state_, kInitialState, sizeof(state_));
  bit_count_ = 0;
  buffer_len_ = 0;
}

namespace internal {

void Sha256CompressPortable(uint32_t state[8], const uint8_t* data,
                            size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBe32(data + i * 4);
    }
    for (int i = 16; i < 64; ++i) {
      w[i] = w[i - 16] + SmallSigma0(w[i - 15]) + w[i - 7] +
             SmallSigma1(w[i - 2]);
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

// One compression round with the working variables already permuted, so the
// eight-way unrolled loop below needs no register rotation at the end of
// each round (the rotation is encoded in the argument order instead).
#define PRESTIGE_SHA256_ROUND(a, b, c, d, e, f, g, h, i)                  \
  do {                                                                    \
    const uint32_t t1 = h + BigSigma1(e) + Ch(e, f, g) +                  \
                        kRoundConstants[i] + w[i];                        \
    const uint32_t t2 = BigSigma0(a) + Maj(a, b, c);                      \
    d += t1;                                                              \
    h = t1 + t2;                                                          \
  } while (0)

    for (int i = 0; i < 64; i += 8) {
      PRESTIGE_SHA256_ROUND(a, b, c, d, e, f, g, h, i + 0);
      PRESTIGE_SHA256_ROUND(h, a, b, c, d, e, f, g, i + 1);
      PRESTIGE_SHA256_ROUND(g, h, a, b, c, d, e, f, i + 2);
      PRESTIGE_SHA256_ROUND(f, g, h, a, b, c, d, e, i + 3);
      PRESTIGE_SHA256_ROUND(e, f, g, h, a, b, c, d, i + 4);
      PRESTIGE_SHA256_ROUND(d, e, f, g, h, a, b, c, i + 5);
      PRESTIGE_SHA256_ROUND(c, d, e, f, g, h, a, b, i + 6);
      PRESTIGE_SHA256_ROUND(b, c, d, e, f, g, h, a, i + 7);
    }

#undef PRESTIGE_SHA256_ROUND

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if PRESTIGE_SHA256_SHANI

#define PRESTIGE_SHANI_TARGET __attribute__((target("sha,sse4.1")))

// The SHA extensions keep the working variables as two vectors, ABEF and
// CDGH, and message words four to a vector (W[4q..4q+3] for quad-round q).

/// Four rounds: two sha256rnds2, each taking two words of `w` + K.
PRESTIGE_SHANI_TARGET inline void QuadRound(__m128i& abef, __m128i& cdgh,
                                            __m128i w, int q) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(&kRoundConstants[4 * q])));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/// W[4q..4q+3] from the four previous quads: w16 = W[4q-16..], w12 =
/// W[4q-12..], w8 = W[4q-8..], w4 = W[4q-4..]. msg1 adds sigma0, the
/// alignr supplies W[t-7], msg2 adds sigma1.
PRESTIGE_SHANI_TARGET inline __m128i NextQuad(__m128i w16, __m128i w12,
                                              __m128i w8, __m128i w4) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12),
                                        _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(partial, w4);
}

PRESTIGE_SHANI_TARGET void Sha256CompressShaNi(uint32_t state[8],
                                               const uint8_t* data,
                                               size_t blocks) {
  // Byte order within each 32-bit word: the message is big-endian.
  const __m128i kBswap32 =
      _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);

  // state[0..7] = A..H  ->  abef = {F, E, B, A}, cdgh = {H, G, D, C}
  // (lane 0 first), the layout sha256rnds2 expects.
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(data);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), kBswap32);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), kBswap32);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), kBswap32);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), kBswap32);
    QuadRound(abef, cdgh, w0, 0);
    QuadRound(abef, cdgh, w1, 1);
    QuadRound(abef, cdgh, w2, 2);
    QuadRound(abef, cdgh, w3, 3);
    for (int q = 4; q < 16; q += 4) {
      w0 = NextQuad(w0, w1, w2, w3);
      QuadRound(abef, cdgh, w0, q);
      w1 = NextQuad(w1, w2, w3, w0);
      QuadRound(abef, cdgh, w1, q + 1);
      w2 = NextQuad(w2, w3, w0, w1);
      QuadRound(abef, cdgh, w2, q + 2);
      w3 = NextQuad(w3, w0, w1, w2);
      QuadRound(abef, cdgh, w3, q + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef PRESTIGE_SHANI_TARGET

#endif  // PRESTIGE_SHA256_SHANI

bool ShaNiSupported() {
#if PRESTIGE_SHA256_SHANI
  constexpr unsigned int kSsse3 = 1u << 9;   // CPUID.1:ECX
  constexpr unsigned int kSse41 = 1u << 19;  // CPUID.1:ECX
  constexpr unsigned int kSha = 1u << 29;    // CPUID.(7,0):EBX
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & (kSsse3 | kSse41)) != (kSsse3 | kSse41)) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & kSha) != 0;
#else
  return false;
#endif
}

}  // namespace internal

const char* Sha256::KernelName() {
  return UseShaNi() ? "sha-ni" : "portable";
}

void Sha256::Compress(const uint8_t* data, size_t blocks) {
#if PRESTIGE_SHA256_SHANI
  if (UseShaNi()) {
    internal::Sha256CompressShaNi(state_, data, blocks);
    return;
  }
#endif
  internal::Sha256CompressPortable(state_, data, blocks);
}

void Sha256::Update(const uint8_t* data, size_t len) {
  // Zero-length updates may legitimately carry data == nullptr (e.g. an
  // empty command payload streamed through HashingEncoder); return before
  // any pointer arithmetic or memcpy sees the null.
  if (len == 0) return;
  bit_count_ += static_cast<uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    if (buffer_len_ < 64) return;
    Compress(buffer_, 1);
    buffer_len_ = 0;
    data += take;
    len -= take;
  }
  // Whole blocks go straight from the input, as one run, so a kernel can
  // keep its state in registers across them.
  const size_t blocks = len / 64;
  if (blocks > 0) {
    Compress(data, blocks);
    data += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

uint64_t Sha256::TotalFinished() { return t_total_finished; }

Sha256Digest Sha256::Finish() {
  ++t_total_finished;
  if (t_active_meter != nullptr) ++t_active_meter->finished;

  // Pad directly in the block buffer (one memset + at most two compression
  // calls) instead of the old byte-at-a-time Update loop: append 0x80, zero
  // to 56 mod 64, then the 64-bit big-endian message length.
  const uint64_t total_bits = bit_count_;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    Compress(buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(total_bits >> (56 - i * 8));
  }
  Compress(buffer_, 1);
  buffer_len_ = 0;

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}

std::string DigestToHex(const Sha256Digest& digest) {
  return util::HexEncode(digest.data(), digest.size());
}

int CountLeadingZeroBits(const Sha256Digest& digest) {
  int bits = 0;
  for (uint8_t byte : digest) {
    if (byte == 0) {
      bits += 8;
      continue;
    }
    for (int b = 7; b >= 0; --b) {
      if ((byte >> b) & 1) return bits;
      ++bits;
    }
  }
  return bits;
}

}  // namespace crypto
}  // namespace prestige
