#pragma once

#include <optional>
#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/sc25519.hpp"

namespace repchain::crypto {

/// Point on edwards25519 in extended twisted Edwards coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.
struct Point {
  Fe X, Y, Z, T;
};

[[nodiscard]] Point point_identity();
/// The standard base point B (y = 4/5, even x).
[[nodiscard]] const Point& point_base();

/// Unified addition (add-2008-hwcd-3), also valid for doubling.
[[nodiscard]] Point point_add(const Point& p, const Point& q);
/// Dedicated doubling (dbl-2008-hwcd: 4 squarings, 4 multiplications).
[[nodiscard]] Point point_double(const Point& p);
[[nodiscard]] Point point_neg(const Point& p);

/// [s]B by a fixed-base comb: signed radix-16 digits of s against a table of
/// (j+1) * 256^i * B (i < 32, j < 8), 64 mixed additions and 4 doublings.
/// Constant-time in s: the digit recoding is branch-free and every table
/// lookup scans a whole row with masks. Serves signing, key generation and
/// VRF proofs.
[[nodiscard]] Point point_base_mul(const Scalar& s);

/// sum_i [s_i]P_i + [b]B with one shared doubling chain and width-5 signed
/// sliding windows: per term a table of the odd multiples P, 3P, ..., 15P
/// (the B term uses a static one), so a 253-bit scalar costs about 42
/// additions. Variable-time: for public scalars and points only (batch
/// verification).
[[nodiscard]] Point point_multi_scalar_mul(std::span<const std::pair<Scalar, Point>> terms,
                                           const Scalar& b = sc_zero());

/// [a]P + [b]B, the verification equation's multiplication ([k](-A) + [S]B);
/// point_multi_scalar_mul with one term. Variable-time.
[[nodiscard]] Point point_double_scalar_mul(const Scalar& a, const Point& p,
                                            const Scalar& b);

/// Projective equality (x1 == x2 and y1 == y2 as affine points).
[[nodiscard]] bool point_equal(const Point& p, const Point& q);
[[nodiscard]] bool point_is_identity(const Point& p);

/// RFC 8032 point compression: 255-bit y plus the sign bit of x.
[[nodiscard]] ByteArray<32> point_compress(const Point& p);
/// Decompression; nullopt for encodings that are not on the curve.
[[nodiscard]] std::optional<Point> point_decompress(const ByteArray<32>& in);

/// 32-byte Ed25519 seed (the RFC 8032 private key).
struct PrivateSeed {
  ByteArray<32> bytes{};
};

/// Compressed public key.
struct PublicKey {
  ByteArray<32> bytes{};
  auto operator<=>(const PublicKey&) const = default;
};

/// 64-byte signature: R (32) || S (32).
struct Signature {
  ByteArray<64> bytes{};
  auto operator<=>(const Signature&) const = default;
};

/// A public key decoded once: its compressed bytes and the curve point they
/// encode. The Identity Manager builds one per member at enrollment, so its
/// checks skip point decompression. Bytes that are not a curve point give a
/// key in a "not a point" state, under which no signature verifies.
///
/// Converts implicitly from PublicKey, so a PublicKey can be passed wherever
/// a VerifyingKey is expected; it is then decoded on every such call.
class VerifyingKey {
 public:
  VerifyingKey() : VerifyingKey(PublicKey{}) {}
  VerifyingKey(const PublicKey& pub)  // implicit on purpose, see above
      : public_(pub), point_(point_decompress(pub.bytes)) {}

  [[nodiscard]] const PublicKey& public_key() const { return public_; }
  /// The decoded point A, or nullptr when the bytes are not a curve point.
  [[nodiscard]] const Point* point() const { return point_ ? &*point_ : nullptr; }

 private:
  PublicKey public_;
  std::optional<Point> point_;
};

/// Signing key with the expanded secret cached; deterministic signatures per
/// RFC 8032 (no signing-time randomness — also what makes the VRF well
/// defined, see vrf.hpp). Signing is constant-time in the secret scalar and
/// the nonce: point_base_mul and the scalar reductions are.
class SigningKey {
 public:
  explicit SigningKey(const PrivateSeed& seed);

  [[nodiscard]] const PublicKey& public_key() const { return public_; }
  [[nodiscard]] Signature sign(BytesView message) const;

 private:
  Scalar secret_scalar_;
  ByteArray<32> prefix_{};
  PublicKey public_;
};

/// Verify an Ed25519 signature: [S]B == R + [k]A. Returns false (never
/// throws) on any malformed input: non-canonical S, off-curve R or A.
[[nodiscard]] bool verify(const VerifyingKey& key, BytesView message, const Signature& sig);

}  // namespace repchain::crypto
