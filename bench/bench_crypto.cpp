// Crypto substrate microbenchmarks (plumbing cost context for every other
// experiment): SHA-256 on each compression path and SHA-512 throughput, the
// field, scalar and group operations under Ed25519, Ed25519
// keygen/sign/verify, batch verification, VRF evaluate/verify, Merkle tree
// construction, and each set of signatures a governor checks at once
// against the one verification per signature it replaces (an intake wave's
// per-item verdicts, a 10-ticket VRF announcement). Verification rows come
// in two kinds: one-off keys (a PublicKey converted per call, the
// full-length path) and enrolled keys (VerifyingKey::enrolled, stride
// tables), as the Identity Manager's members verify.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <span>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/keygen.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/vrf.hpp"

namespace {

using namespace repchain;
using namespace repchain::crypto;

/// The compression function of a SHA-256 path: 0 portable, 1 the SHA
/// extensions; nullptr when this CPU cannot run it.
Sha256::Compress sha256_path(std::int64_t path) {
  if (path == 0) return &sha256_compress_portable;
#if defined(__x86_64__)
  if (sha256_has_sha_extensions()) return &sha256_compress_sha_extensions;
#endif
  return nullptr;
}

// 64 bytes: a Merkle node; 111: about a transaction's id preimage.
void bm_sha256(benchmark::State& state) {
  Rng rng(1);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  const Sha256::Compress compress = sha256_path(state.range(1));
  if (compress == nullptr) {
    state.SkipWithError("no SHA extensions on this CPU");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256(compress).update(data).finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_sha256)
    ->ArgsProduct({{64, 111, 4096}, {0, 1}})
    ->ArgNames({"bytes", "sha_ext"})
    ->Name("sha256");

void bm_sha512(benchmark::State& state) {
  Rng rng(2);
  const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_sha512)->Arg(64)->Arg(1024)->Arg(65536)->Name("sha512/bytes");

void bm_keygen(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    const SigningKey key(random_seed(rng));
    benchmark::DoNotOptimize(key.public_key());
  }
}
BENCHMARK(bm_keygen)->Name("ed25519_keygen");

void bm_sign(benchmark::State& state) {
  Rng rng(4);
  const SigningKey key(random_seed(rng));
  const Bytes msg = rng.bytes(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_sign)->Name("ed25519_sign");

void bm_verify(benchmark::State& state) {
  Rng rng(5);
  const SigningKey key(random_seed(rng));
  const Bytes msg = rng.bytes(128);
  const Signature sig = key.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify(key.public_key(), msg, sig));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_verify)->Name("ed25519_verify");

void bm_verify_enrolled(benchmark::State& state) {
  Rng rng(5);
  const SigningKey key(random_seed(rng));
  const VerifyingKey enrolled = VerifyingKey::enrolled(key.public_key());
  const Bytes msg = rng.bytes(128);
  const Signature sig = key.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify(enrolled, msg, sig));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(bm_verify_enrolled)->Name("ed25519_verify(enrolled)");

Scalar random_scalar(Rng& rng) {
  ByteArray<64> wide{};
  const Bytes raw = rng.bytes(64);
  std::copy(raw.begin(), raw.end(), wide.begin());
  return sc_from_bytes_wide(wide);
}

Fe random_fe(Rng& rng) {
  ByteArray<32> b{};
  const Bytes raw = rng.bytes(32);
  std::copy(raw.begin(), raw.end(), b.begin());
  return fe_from_bytes(b);
}

void bm_fe_mul(benchmark::State& state) {
  Rng rng(12);
  Fe a = random_fe(rng);
  const Fe b = random_fe(rng);
  for (auto _ : state) {
    a = fe_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(bm_fe_mul)->Name("fe_mul");

void bm_fe_sq(benchmark::State& state) {
  Rng rng(13);
  Fe a = random_fe(rng);
  for (auto _ : state) {
    a = fe_sq(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(bm_fe_sq)->Name("fe_sq");

void bm_fe_invert(benchmark::State& state) {
  Rng rng(14);
  const Fe a = random_fe(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fe_invert(a));
  }
}
BENCHMARK(bm_fe_invert)->Name("fe_invert");

void bm_sc_muladd(benchmark::State& state) {
  Rng rng(15);
  const Scalar a = random_scalar(rng), b = random_scalar(rng);
  Scalar c = random_scalar(rng);
  for (auto _ : state) {
    c = sc_muladd(a, b, c);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(bm_sc_muladd)->Name("sc_muladd");

void bm_point_decompress(benchmark::State& state) {
  Rng rng(16);
  const SigningKey key(random_seed(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(point_decompress(key.public_key().bytes));
  }
}
BENCHMARK(bm_point_decompress)->Name("point_decompress");

void bm_point_base_mul(benchmark::State& state) {
  Rng rng(17);
  const Scalar s = random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(point_base_mul(s));
  }
}
BENCHMARK(bm_point_base_mul)->Name("point_base_mul(comb)");

void bm_double_scalar(benchmark::State& state) {
  Rng rng(9);
  const SigningKey key(random_seed(rng));
  const Scalar a = random_scalar(rng);
  const Scalar b = random_scalar(rng);
  const auto p = point_decompress(key.public_key().bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(point_double_scalar_mul(a, *p, b));
  }
}
BENCHMARK(bm_double_scalar)->Name("point_double_scalar_mul(sliding_window)");

void bm_vrf_evaluate(benchmark::State& state) {
  Rng rng(6);
  const SigningKey key(random_seed(rng));
  const Bytes alpha = rng.bytes(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf_evaluate(key, alpha));
  }
}
BENCHMARK(bm_vrf_evaluate)->Name("vrf_evaluate");

void bm_vrf_verify(benchmark::State& state) {
  Rng rng(7);
  const SigningKey key(random_seed(rng));
  const Bytes alpha = rng.bytes(32);
  const VrfResult r = vrf_evaluate(key, alpha);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf_verify(key.public_key(), alpha, r.proof));
  }
}
BENCHMARK(bm_vrf_verify)->Name("vrf_verify");

void bm_batch_verify(benchmark::State& state) {
  Rng rng(11);
  std::vector<BatchItem> items;
  for (int i = 0; i < state.range(0); ++i) {
    const SigningKey key(random_seed(rng));
    BatchItem item;
    item.pub = key.public_key();
    item.message = rng.bytes(64);
    item.sig = key.sign(item.message);
    items.push_back(std::move(item));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_batch(items, rng));
  }
  // items/sec = amortized per-signature verification throughput.
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// 3 and 5: perfbench's mean upload wave and the mean VerifiedBatch flush.
BENCHMARK(bm_batch_verify)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Arg(16)
    ->Arg(64)
    ->Name("batch_verify/sigs");

/// Shapes of the enrolled-key batch rows: {items, distinct keys}. A
/// governor's upload flush holds about 5 items over about 3 keys.
constexpr std::pair<std::size_t, std::size_t> kEnrolledShapes[] = {
    {3, 1}, {3, 3}, {5, 1}, {5, 3}, {5, 5}, {16, 1}, {16, 3}, {16, 16}};

/// n signed items over `keys` distinct enrolled keys, dealt round-robin.
std::vector<BatchItem> enrolled_batch(Rng& rng, std::size_t n, std::size_t keys) {
  std::vector<SigningKey> signers;
  std::vector<VerifyingKey> enrolled;
  for (std::size_t k = 0; k < keys; ++k) {
    signers.emplace_back(random_seed(rng));
    enrolled.push_back(VerifyingKey::enrolled(signers.back().public_key()));
  }
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    BatchItem item;
    item.pub = enrolled[i % keys];
    item.message = rng.bytes(64);
    item.sig = signers[i % keys].sign(item.message);
    items.push_back(std::move(item));
  }
  return items;
}

void bm_batch_verify_enrolled(benchmark::State& state) {
  Rng rng(11);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<BatchItem> items =
      enrolled_batch(rng, n, static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_batch(items, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_batch_verify_enrolled)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const auto& [n, keys] : kEnrolledShapes) {
        b->Args({static_cast<std::int64_t>(n), static_cast<std::int64_t>(keys)});
      }
    })
    ->ArgNames({"sigs", "keys"})
    ->Name("batch_verify(enrolled)");

/// A governor's 10-ticket VRF announcement: proofs over ten alphas under
/// one enrolled key.
struct Announcement {
  VerifyingKey key;
  std::vector<Bytes> alphas;
  std::vector<Signature> proofs;
};

Announcement ten_ticket_announcement(Rng& rng) {
  const SigningKey signer(random_seed(rng));
  Announcement a{VerifyingKey::enrolled(signer.public_key()), {}, {}};
  for (int unit = 0; unit < 10; ++unit) {
    a.alphas.push_back(rng.bytes(20));
    a.proofs.push_back(vrf_evaluate(signer, a.alphas.back()).proof);
  }
  return a;
}

/// Shapes of the per-item rows: {items, distinct keys}. A governor's intake
/// wave is most often 2 items under 2 keys, about 5 over 3.5 on average.
constexpr std::pair<std::size_t, std::size_t> kPerItemShapes[] = {
    {1, 1}, {2, 2}, {5, 3}, {5, 5}, {16, 1}, {16, 3}, {16, 5}};

// Per-item verdicts of an enrolled set (verify_batch_detailed: the set's
// points share one inversion) against one verify per item (batched:0).
void bm_per_item_set(benchmark::State& state) {
  Rng rng(12);
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<BatchItem> items =
      enrolled_batch(rng, n, static_cast<std::size_t>(state.range(1)));
  const bool batched = state.range(2) != 0;
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(verify_batch_detailed(items));
    } else {
      for (const BatchItem& it : items) {
        benchmark::DoNotOptimize(verify(it.pub, it.message, it.sig));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_per_item_set)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const auto& [n, keys] : kPerItemShapes) {
        for (const std::int64_t batched : {0, 1}) {
          b->Args({static_cast<std::int64_t>(n), static_cast<std::int64_t>(keys), batched});
        }
      }
    })
    ->ArgNames({"sigs", "keys", "batched"})
    ->Name("per_item_set(enrolled)");

// Ten signatures under one enrolled key, as a VRF announcement's tickets:
// verify_batch's combined equation (combined:1) against per-item verdicts.
void bm_tickets_under_one_key(benchmark::State& state) {
  Rng rng(14);
  const std::vector<BatchItem> items = enrolled_batch(rng, 10, 1);
  const bool combined = state.range(0) != 0;
  for (auto _ : state) {
    if (combined) {
      benchmark::DoNotOptimize(verify_batch(items, rng));
    } else {
      benchmark::DoNotOptimize(verify_batch_detailed(items));
    }
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(bm_tickets_under_one_key)->Arg(0)->Arg(1)->ArgName("combined")->Name("ten_under_one_key");

// A 10-ticket announcement: one vrf_verify per ticket, or vrf_verify_all.
void bm_vrf_announcement(benchmark::State& state) {
  Rng rng(13);
  const Announcement a = ten_ticket_announcement(rng);
  const bool batched = state.range(0) != 0;
  for (auto _ : state) {
    if (batched) {
      benchmark::DoNotOptimize(vrf_verify_all(a.key, a.alphas, a.proofs, rng));
    } else {
      for (std::size_t i = 0; i < a.proofs.size(); ++i) {
        benchmark::DoNotOptimize(vrf_verify(a.key, a.alphas[i], a.proofs[i]));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(bm_vrf_announcement)->Arg(0)->Arg(1)->ArgName("batched")->Name("vrf_announcement");

void bm_merkle_build(benchmark::State& state) {
  Rng rng(8);
  std::vector<Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(rng.bytes(64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree(leaves).root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_merkle_build)->Arg(16)->Arg(256)->Arg(4096)->Name("merkle_build/leaves");

// Hand-timed headline numbers for BENCH_crypto.json: coarse single-shot
// throughput per primitive, enough for trend lines. The google-benchmark
// pass below remains the statistically careful view on stdout.
void write_json_summary() {
  using clock = std::chrono::steady_clock;
  const auto ops_per_sec = [](int iters, auto&& fn) {
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    return s > 0.0 ? static_cast<double>(iters) / s : 0.0;
  };

  Rng rng(99);
  const SigningKey key(random_seed(rng));
  const Bytes msg = rng.bytes(128);
  const Signature sig = key.sign(msg);
  const Bytes big = rng.bytes(65536);
  const Bytes alpha = rng.bytes(32);
  const VrfResult vrf = vrf_evaluate(key, alpha);

  repchain::bench::JsonReport json("crypto");
  const auto add = [&](const char* op, int iters, auto&& fn) {
    json.row("primitives", {{"op", repchain::bench::js(op)},
                            {"ops_per_second",
                             repchain::bench::jf(ops_per_sec(iters, fn), 1)}});
  };
  add("sha256_64KiB", 200,
      [&] { benchmark::DoNotOptimize(Sha256::hash(big)); });
  const Bytes tx_sized = rng.bytes(111);
  add("sha256_portable_111B", 20000, [&] {
    benchmark::DoNotOptimize(Sha256(&sha256_compress_portable).update(tx_sized).finish());
  });
  add("sha256_111B", 20000, [&] { benchmark::DoNotOptimize(Sha256::hash(tx_sized)); });
  add("ed25519_sign", 500, [&] { benchmark::DoNotOptimize(key.sign(msg)); });
  add("ed25519_verify", 500,
      [&] { benchmark::DoNotOptimize(verify(key.public_key(), msg, sig)); });
  const VerifyingKey enrolled = VerifyingKey::enrolled(key.public_key());
  add("ed25519_verify_enrolled", 500,
      [&] { benchmark::DoNotOptimize(verify(enrolled, msg, sig)); });
  add("vrf_evaluate", 200,
      [&] { benchmark::DoNotOptimize(vrf_evaluate(key, alpha)); });
  add("vrf_verify", 200, [&] {
    benchmark::DoNotOptimize(vrf_verify(key.public_key(), alpha, vrf.proof));
  });

  // Batch-vs-single verification: the hot-path intake trades N single
  // verifies for one randomized batch equation, so the headline here is
  // amortized signatures/second and the speedup factor over the
  // one-at-a-time path with the same kind of key. One-off rows use a
  // distinct converted PublicKey per item; enrolled rows deal the items
  // over 1, 3 or n enrolled keys.
  const auto batch_row = [&](const char* kind, std::size_t n, std::size_t keys,
                             double items_per_sec, double single_per_sec) {
    json.row("batch_verification",
             {{"keys", repchain::bench::js(kind)},
              {"batch_size", repchain::bench::ju(n)},
              {"distinct_keys", repchain::bench::ju(keys)},
              {"items_per_second", repchain::bench::jf(items_per_sec, 1)},
              {"single_items_per_second", repchain::bench::jf(single_per_sec, 1)},
              {"speedup_vs_single",
               repchain::bench::jf(
                   single_per_sec > 0.0 ? items_per_sec / single_per_sec : 0.0, 3)}});
  };
  std::vector<BatchItem> items;
  Rng batch_rng(101);
  for (int i = 0; i < 64; ++i) {
    const SigningKey k(random_seed(batch_rng));
    BatchItem item;
    item.pub = k.public_key();
    item.message = batch_rng.bytes(64);
    item.sig = k.sign(item.message);
    items.push_back(std::move(item));
  }
  const double single_per_sec = ops_per_sec(256, [&] {
    const auto& it = items[0];
    benchmark::DoNotOptimize(verify(it.pub, it.message, it.sig));
  });
  for (const std::size_t n : {std::size_t{3}, std::size_t{4}, std::size_t{5}, std::size_t{16},
                              std::size_t{64}}) {
    const std::span<const BatchItem> chunk(items.data(), n);
    const int reps = static_cast<int>(256 / n) + 1;
    const double batches_per_sec = ops_per_sec(reps, [&] {
      benchmark::DoNotOptimize(verify_batch(chunk, batch_rng));
    });
    batch_row("one-off", n, n, batches_per_sec * static_cast<double>(n), single_per_sec);
  }
  for (const auto& [n, keys] : kEnrolledShapes) {
    const std::vector<BatchItem> chunk = enrolled_batch(batch_rng, n, keys);
    const auto& first = chunk.front();
    (void)verify(first.pub, first.message, first.sig);  // build the tables untimed
    const double enrolled_single_per_sec = ops_per_sec(256, [&] {
      benchmark::DoNotOptimize(verify(first.pub, first.message, first.sig));
    });
    const int reps = static_cast<int>(256 / n) + 1;
    const double batches_per_sec = ops_per_sec(reps, [&] {
      benchmark::DoNotOptimize(verify_batch(chunk, batch_rng));
    });
    batch_row("enrolled", n, keys, batches_per_sec * static_cast<double>(n),
              enrolled_single_per_sec);
  }

  // Each batched check against the one verification per signature it
  // replaces, in microseconds per set. The two are timed in alternating
  // blocks of 10 sets and each keeps its fastest block, so a slow spell of
  // the machine hits both sides and sets neither number.
  const auto block_us = [](auto&& fn) {
    constexpr int kSets = 10;
    const auto t0 = clock::now();
    for (int i = 0; i < kSets; ++i) fn();
    return std::chrono::duration<double, std::micro>(clock::now() - t0).count() / kSets;
  };
  const auto mechanism_row = [&](const char* check, std::size_t items, std::size_t keys,
                                 auto&& one_by_one, auto&& batched) {
    double single_us = block_us(one_by_one);  // also builds the key tables
    double batched_us = block_us(batched);
    for (int block = 0; block < 30; ++block) {
      single_us = std::min(single_us, block_us(one_by_one));
      batched_us = std::min(batched_us, block_us(batched));
    }
    json.row("batched_checks",
             {{"check", repchain::bench::js(check)},
              {"items", repchain::bench::ju(items)},
              {"distinct_keys", repchain::bench::ju(keys)},
              {"one_verify_per_item_us", repchain::bench::jf(single_us, 1)},
              {"batched_us", repchain::bench::jf(batched_us, 1)},
              {"speedup", repchain::bench::jf(single_us / batched_us, 3)}});
  };
  for (const auto& [n, keys] : kPerItemShapes) {
    const std::vector<BatchItem> wave = enrolled_batch(batch_rng, n, keys);
    mechanism_row(
        "per_item_set", n, keys,
        [&] {
          for (const BatchItem& it : wave) {
            benchmark::DoNotOptimize(verify(it.pub, it.message, it.sig));
          }
        },
        [&] { benchmark::DoNotOptimize(verify_batch_detailed(wave)); });
  }
  const Announcement a = ten_ticket_announcement(batch_rng);
  mechanism_row(
      "vrf_announcement", a.proofs.size(), 1,
      [&] {
        for (std::size_t i = 0; i < a.proofs.size(); ++i) {
          benchmark::DoNotOptimize(vrf_verify(a.key, a.alphas[i], a.proofs[i]));
        }
      },
      [&] { benchmark::DoNotOptimize(vrf_verify_all(a.key, a.alphas, a.proofs, batch_rng)); });
  json.write();
}

}  // namespace

int main(int argc, char** argv) {
  write_json_summary();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
