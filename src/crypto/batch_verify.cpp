#include "crypto/batch_verify.hpp"

#include <algorithm>

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
  Scalar k;
};

/// Shared per-item parsing for batch verification. Returns false on any
/// malformed item (non-canonical S, off-curve R or A).
bool decode_item(const BatchItem& item, DecodedItem& out) {
  if (item.pub.point() == nullptr) return false;
  ByteArray<32> r_enc{}, s_enc{};
  std::copy(item.sig.bytes.begin(), item.sig.bytes.begin() + 32, r_enc.begin());
  std::copy(item.sig.bytes.begin() + 32, item.sig.bytes.end(), s_enc.begin());

  if (!sc_is_canonical(s_enc)) return false;
  out.s = sc_from_bytes(s_enc);

  const auto r = point_decompress(r_enc);
  if (!r) return false;
  out.r = *r;

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

  // [8]((sum z_i S_i) B - sum z_i R_i - sum_keys (sum z_i k_i) A) == 0: the
  // items under one key share one scalar, and so one term.
  Scalar b_coeff = sc_zero();
  std::vector<std::pair<Scalar, Point>> r_terms;
  std::vector<KeyTerm> key_terms;
  r_terms.reserve(items.size());
  key_terms.reserve(items.size());

  for (const BatchItem& item : items) {
    DecodedItem d;
    if (!decode_item(item, d)) return false;

    const Scalar z = random_z(rng);
    b_coeff = sc_muladd(z, d.s, b_coeff);
    r_terms.emplace_back(z, point_neg(d.r));
    const auto same_key = std::find_if(key_terms.begin(), key_terms.end(), [&](const KeyTerm& t) {
      return t.key->public_key() == item.pub.public_key();
    });
    if (same_key == key_terms.end()) {
      key_terms.push_back(KeyTerm{sc_muladd(z, d.k, sc_zero()), &item.pub});
    } else {
      same_key->s = sc_muladd(z, d.k, same_key->s);
    }
  }
  return point_is_small_order(point_multi_scalar_mul(r_terms, key_terms, b_coeff));
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
