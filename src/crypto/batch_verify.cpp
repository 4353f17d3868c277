#include "crypto/batch_verify.hpp"

#include "crypto/sha512.hpp"

namespace repchain::crypto {

namespace {

/// Random 128-bit scalar (top 16 bytes zero): small enough to keep the
/// combination cheap, large enough that adversarial cancellation has
/// probability ~2^-128.
Scalar random_z(Rng& rng) {
  ByteArray<32> b{};
  const Bytes raw = rng.bytes(16);
  std::copy(raw.begin(), raw.end(), b.begin());
  Scalar z = sc_from_bytes(b);
  if (sc_is_zero(z)) {
    b[0] = 1;  // degenerate draw: force non-zero
    z = sc_from_bytes(b);
  }
  return z;
}

struct DecodedItem {
  Scalar s;
  Point r;
  Point a;
  Scalar k;
};

/// Shared per-item parsing for batch verification. Returns false on any
/// malformed item (non-canonical S, off-curve R or A).
bool decode_item(const BatchItem& item, DecodedItem& out) {
  ByteArray<32> r_enc{}, s_enc{};
  std::copy(item.sig.bytes.begin(), item.sig.bytes.begin() + 32, r_enc.begin());
  std::copy(item.sig.bytes.begin() + 32, item.sig.bytes.end(), s_enc.begin());

  if (!sc_is_canonical(s_enc)) return false;
  out.s = sc_from_bytes(s_enc);

  const auto r = point_decompress(r_enc);
  if (!r) return false;
  out.r = *r;
  const Point* a = item.pub.point();
  if (a == nullptr) return false;
  out.a = *a;

  const Hash512 kh =
      sha512_concat({view(r_enc), view(item.pub.public_key().bytes), item.message});
  ByteArray<64> kh_arr{};
  std::copy(kh.begin(), kh.end(), kh_arr.begin());
  out.k = sc_from_bytes_wide(kh_arr);
  return true;
}

}  // namespace

bool verify_batch(std::span<const BatchItem> items, Rng& rng) {
  if (items.empty()) return true;

  Scalar b_coeff = sc_zero();
  std::vector<std::pair<Scalar, Point>> terms;
  terms.reserve(items.size() * 2);

  for (const BatchItem& item : items) {
    DecodedItem d;
    if (!decode_item(item, d)) return false;

    const Scalar z = random_z(rng);
    // Accumulate: (sum z_i S_i) B - sum z_i R_i - sum z_i k_i A_i == 0.
    b_coeff = sc_muladd(z, d.s, b_coeff);
    terms.emplace_back(z, point_neg(d.r));
    terms.emplace_back(sc_muladd(z, d.k, sc_zero()), point_neg(d.a));
  }
  return point_is_identity(point_multi_scalar_mul(terms, b_coeff));
}

std::vector<bool> verify_batch_detailed(std::span<const BatchItem> items, Rng& rng) {
  std::vector<bool> result(items.size(), true);
  if (verify_batch(items, rng)) return result;
  for (std::size_t i = 0; i < items.size(); ++i) {
    result[i] = verify(items[i].pub, items[i].message, items[i].sig);
  }
  return result;
}

}  // namespace repchain::crypto
