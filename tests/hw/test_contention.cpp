#include "hw/contention.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "hw/server.h"

namespace cocg::hw {
namespace {

SessionDraw draw(std::uint64_t sid, ResourceVector demand,
                 ResourceVector alloc) {
  return SessionDraw{SessionId{sid}, demand, alloc};
}

// --- one shared capacity view: a 1-GPU server, every draw on device 0 ---

/// The default SKU with a single GPU: capacity {100, 100, 8192, 8192}.
ServerSpec one_gpu() {
  ServerSpec spec;
  spec.num_gpus = 1;
  return spec;
}
const ResourceVector kCap = one_gpu().per_gpu_capacity();

std::vector<SessionSupply> resolve_one_gpu(
    const std::vector<SessionDraw>& draws) {
  std::vector<PinnedDraw> pinned;
  for (const auto& d : draws) pinned.push_back({d, 0});
  return resolve_server(one_gpu(), pinned);
}

TEST(Contention, UnsaturatedFullySupplied) {
  const auto out = resolve_one_gpu(
      {draw(1, {30, 40, 1000, 1000}, {50, 50, 2000, 2000}),
       draw(2, {20, 30, 1000, 1000}, {50, 50, 2000, 2000})});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].supplied, (ResourceVector{30, 40, 1000, 1000}));
  EXPECT_DOUBLE_EQ(out[0].satisfaction, 1.0);
  EXPECT_DOUBLE_EQ(out[1].satisfaction, 1.0);
}

TEST(Contention, AllocationCapsDemand) {
  const auto out =
      resolve_one_gpu({draw(1, {80, 80, 100, 100}, {40, 40, 100, 100})});
  EXPECT_EQ(out[0].supplied, (ResourceVector{40, 40, 100, 100}));
  EXPECT_DOUBLE_EQ(out[0].satisfaction, 0.5);
}

TEST(Contention, SaturatedPoolSplitsProportionally) {
  // Two sessions each want 80 GPU with generous allocations → pool (100)
  // splits 50/50.
  const auto out =
      resolve_one_gpu({draw(1, {10, 80, 100, 100}, {100, 100, 8192, 8192}),
                       draw(2, {10, 80, 100, 100}, {100, 100, 8192, 8192})});
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 50.0);
  EXPECT_DOUBLE_EQ(out[1].supplied.gpu(), 50.0);
  EXPECT_NEAR(out[0].satisfaction, 50.0 / 80.0, 1e-12);
}

TEST(Contention, ProportionalNotEqual) {
  const auto out =
      resolve_one_gpu({draw(1, {10, 90, 100, 100}, {100, 100, 8192, 8192}),
                       draw(2, {10, 30, 100, 100}, {100, 100, 8192, 8192})});
  // 120 desired into 100: scale 5/6.
  EXPECT_NEAR(out[0].supplied.gpu(), 75.0, 1e-9);
  EXPECT_NEAR(out[1].supplied.gpu(), 25.0, 1e-9);
}

TEST(Contention, PerDimensionIndependence) {
  // GPU saturated, CPU not: only GPU scales.
  const auto out = resolve_one_gpu(
      {draw(1, {20, 80, 100, 100}, kCap), draw(2, {20, 80, 100, 100}, kCap)});
  EXPECT_DOUBLE_EQ(out[0].supplied.cpu(), 20.0);
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 50.0);
}

TEST(Contention, EmptyDrawsOk) {
  const auto out = resolve_one_gpu({});
  EXPECT_TRUE(out.empty());
}

TEST(Contention, OutputOrderMatchesInput) {
  const auto out = resolve_one_gpu(
      {draw(7, {1, 1, 1, 1}, kCap), draw(3, {1, 1, 1, 1}, kCap)});
  EXPECT_EQ(out[0].sid.value, 7u);
  EXPECT_EQ(out[1].sid.value, 3u);
}

// --- resolve_server: CPU/RAM pooled, GPU per device ---

TEST(ResolveServer, GpuIsolatedPerDevice) {
  ServerSpec spec;  // 2 GPUs
  std::vector<PinnedDraw> draws;
  draws.push_back({draw(1, {10, 80, 100, 100}, spec.per_gpu_capacity()), 0});
  draws.push_back({draw(2, {10, 80, 100, 100}, spec.per_gpu_capacity()), 1});
  const auto out = resolve_server(spec, draws);
  // Different devices: both fully supplied on GPU.
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 80.0);
  EXPECT_DOUBLE_EQ(out[1].supplied.gpu(), 80.0);
}

TEST(ResolveServer, GpuContendsWithinDevice) {
  ServerSpec spec;
  std::vector<PinnedDraw> draws;
  draws.push_back({draw(1, {10, 80, 100, 100}, spec.per_gpu_capacity()), 0});
  draws.push_back({draw(2, {10, 80, 100, 100}, spec.per_gpu_capacity()), 0});
  const auto out = resolve_server(spec, draws);
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 50.0);
  EXPECT_DOUBLE_EQ(out[1].supplied.gpu(), 50.0);
}

TEST(ResolveServer, CpuPooledAcrossDevices) {
  ServerSpec spec;
  std::vector<PinnedDraw> draws;
  draws.push_back({draw(1, {80, 10, 100, 100}, spec.per_gpu_capacity()), 0});
  draws.push_back({draw(2, {80, 10, 100, 100}, spec.per_gpu_capacity()), 1});
  const auto out = resolve_server(spec, draws);
  // 160 CPU desired into 100 → 50 each despite different GPUs.
  EXPECT_DOUBLE_EQ(out[0].supplied.cpu(), 50.0);
  EXPECT_DOUBLE_EQ(out[1].supplied.cpu(), 50.0);
  EXPECT_DOUBLE_EQ(out[0].supplied.gpu(), 10.0);
}

TEST(ResolveServer, ValidatesGpuIndex) {
  ServerSpec spec;
  std::vector<PinnedDraw> draws;
  draws.push_back({draw(1, {1, 1, 1, 1}, spec.per_gpu_capacity()), 5});
  EXPECT_THROW(resolve_server(spec, draws), ContractError);
}

TEST(ResolveServer, EmptyDrawListResolvesEmpty) {
  ServerSpec spec;
  ServerResolveScratch scratch;
  EXPECT_TRUE(resolve_server(spec, {}, scratch).empty());
}

// --- golden digest: the resolve's exact output bytes, pinned ---

std::uint64_t fnv1a(std::uint64_t h, const void* bytes, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Up to 40 draws spread over the spec's GPUs: a mix of saturating and
/// idle load, ~20% zero-demand dimensions, and CPU/RAM pools that are
/// usually oversubscribed.
std::vector<PinnedDraw> random_draws(Rng& rng, const ServerSpec& spec) {
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 40.0));
  std::vector<PinnedDraw> draws;
  draws.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    PinnedDraw d;
    d.draw.sid = SessionId{s};
    for (std::size_t k = 0; k < kNumDims; ++k) {
      d.draw.demand.at(k) =
          rng.uniform(0.0, 1.0) < 0.2 ? 0.0 : rng.uniform(0.0, 90.0);
      d.draw.allocation.at(k) = rng.uniform(0.0, 90.0);
    }
    d.gpu_index = static_cast<int>(rng.uniform(0.0, spec.num_gpus));
    if (d.gpu_index >= spec.num_gpus) d.gpu_index = spec.num_gpus - 1;
    draws.push_back(d);
  }
  return draws;
}

/// FNV-1a over the bytes of every output's sid, four supplied dims and
/// satisfaction, across 50 seeded draw lists resolved through one reused
/// scratch.
std::uint64_t resolve_digest(int num_gpus) {
  Rng rng(99);
  ServerSpec spec;
  spec.num_gpus = num_gpus;
  ServerResolveScratch scratch;
  std::uint64_t h = 14695981039346656037ull;
  for (int iter = 0; iter < 50; ++iter) {
    const auto draws = random_draws(rng, spec);
    for (const auto& sup : resolve_server(spec, draws, scratch)) {
      h = fnv1a(h, &sup.sid.value, sizeof(sup.sid.value));
      for (std::size_t k = 0; k < kNumDims; ++k) {
        const double v = sup.supplied.at(k);
        h = fnv1a(h, &v, sizeof v);
      }
      h = fnv1a(h, &sup.satisfaction, sizeof(double));
    }
  }
  return h;
}

TEST(ResolveServer, GoldenDigestPinned) {
  // Pinned while the SoA lane path and this fused loop both existed; the
  // two gave these digests bit-for-bit.
  EXPECT_EQ(resolve_digest(1), 0x8d5e693bd33c4de2ull);
  EXPECT_EQ(resolve_digest(2), 0x8537226192fb8eb1ull);
  EXPECT_EQ(resolve_digest(3), 0xcb999ae4a6d6a7daull);
}

// Property: total supplied never exceeds capacity on any pool.
class ResolveServerProp : public ::testing::TestWithParam<int> {};

TEST_P(ResolveServerProp, NeverExceedsCapacity) {
  const int n = GetParam();
  ServerSpec spec;
  std::vector<PinnedDraw> draws;
  for (int i = 0; i < n; ++i) {
    const double cpu = 20.0 + 13.0 * (i % 5);
    const double gpu = 30.0 + 17.0 * (i % 4);
    draws.push_back({draw(static_cast<std::uint64_t>(i),
                          {cpu, gpu, 1500, 1500}, spec.per_gpu_capacity()),
                     i % spec.num_gpus});
  }
  const auto out = resolve_server(spec, draws);
  double cpu_total = 0, ram_total = 0;
  std::vector<double> gpu_total(static_cast<std::size_t>(spec.num_gpus), 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    cpu_total += out[i].supplied.cpu();
    ram_total += out[i].supplied.ram();
    gpu_total[static_cast<std::size_t>(draws[i].gpu_index)] +=
        out[i].supplied.gpu();
    EXPECT_GE(out[i].satisfaction, 0.0);
    EXPECT_LE(out[i].satisfaction, 1.0);
  }
  EXPECT_LE(cpu_total, spec.cpu_capacity_pct + 1e-9);
  EXPECT_LE(ram_total, spec.ram_mb + 1e-9);
  for (double g : gpu_total) EXPECT_LE(g, spec.gpu_capacity_pct + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, ResolveServerProp,
                         ::testing::Values(1, 2, 3, 4, 6, 10));

}  // namespace
}  // namespace cocg::hw
