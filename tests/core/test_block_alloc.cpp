// test_block_alloc.cpp — proves the steady-state frame loop allocates nothing.
// The block-execution contract (DESIGN.md §9) promises that once the per-node
// scratch is sized, tick_frame()/process_frame() run allocation-free; this TU
// replaces the global operator new/delete with counting forwarders and asserts
// a zero delta across settled frames. Byte totals bound the heap a fleet
// sensor takes at construction and the heap one network solve takes, a MAF
// die takes no heap at all, and a commissioned sensor's supply DAC holds only
// a few pages of its table. The
// override is process-wide, but it only counts — behaviour of every other
// test in this binary is unchanged.
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/cta.hpp"
#include "core/rig.hpp"
#include "fleet/sensor_node.hpp"
#include "hydro/replicated_district.hpp"
#include "isif/channel.hpp"
#include "isif/platform.hpp"
#include "maf/die.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AQUA_SANITIZED 1
#endif
#if !defined(AQUA_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AQUA_SANITIZED 1
#endif
#endif

namespace {
std::atomic<long> g_allocations{0};
std::atomic<long> g_allocated_bytes{0};

// The deletes free through this out-of-line call. Inlined, their free()
// meets the pointer of an operator new call GCC chose not to inline, and
// -Wmismatched-new-delete flags the pair.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<long>(size),
                              std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<long>(size),
                              std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t n = ((size ? size : 1) + a - 1) / a * a;  // aligned_alloc
  if (void* p = std::aligned_alloc(a, n)) return p;            // needs n % a == 0
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace aqua::cta {
namespace {

using util::Rng;
using util::Seconds;

maf::Environment flowing_water() {
  maf::Environment env;
  env.speed = util::metres_per_second(0.8);
  env.fluid_temperature = util::celsius(15.0);
  env.pressure = util::bar(2.0);
  return env;
}

TEST(BlockAllocation, ChannelProcessFrameIsAllocationFree) {
#ifdef AQUA_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes allocate behind the allocator hooks";
#else
  isif::ChannelConfig cfg{};
  isif::InputChannel ch{cfg, Rng{61}};
  std::vector<double> frame(static_cast<std::size_t>(cfg.decimation), 1e-3);
  (void)ch.process_frame(frame);  // warm-up: anything lazily sized, sizes now
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int f = 0; f < 20; ++f) (void)ch.process_frame(frame);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0);
#endif
}

TEST(BlockAllocation, AnemometerTickFrameIsAllocationFree) {
#ifdef AQUA_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes allocate behind the allocator hooks";
#else
  Rng rng{62};
  CtaAnemometer anemo{maf::MafSpec{}, fast_isif_config(), CtaConfig{}, rng};
  const auto env = flowing_water();
  anemo.run(Seconds{0.05}, env);  // settle + size every scratch buffer
  ASSERT_EQ(anemo.tick_phase(), 0);
  const long before = g_allocations.load(std::memory_order_relaxed);
  for (int f = 0; f < 20; ++f) anemo.tick_frame(env);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0);
#endif
}

TEST(BlockAllocation, MafDieBuildStepAndSettleAreAllocationFree) {
#ifdef AQUA_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes allocate behind the allocator hooks";
#else
  // The die's thermal network is a fixed set of members: building a
  // toleranced die, stepping it in fouling water, settling and resetting it
  // take no heap at all.
  const maf::MafSpec spec;
  const auto env = flowing_water();
  const long before = g_allocations.load(std::memory_order_relaxed);
  {
    Rng rng{63};
    maf::MafDie die{spec, rng};
    die.set_heater_powers(util::milliwatts(4.0), util::milliwatts(4.0),
                          util::milliwatts(0.1));
    for (int i = 0; i < 100; ++i) die.step(Seconds{1.0 / 16000.0}, env);
    die.settle(env);
    die.reset();
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0);
#endif
}

TEST(BlockAllocation, SensorNodeConstructionDrawsNoDacTable) {
#ifdef AQUA_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes allocate behind the allocator hooks";
#else
  // The six DAC mismatch tables are drawn on first use, so building a fleet
  // sensor takes less heap than even one 12-bit table's 4097 prefix sums.
  constexpr long kTwelveBitTableBytes = 4097 * sizeof(double);
  fleet::SensorNodeConfig cfg;
  cfg.isif = coarse_isif_config();
  const long before = g_allocated_bytes.load(std::memory_order_relaxed);
  const fleet::SensorNode node{0, fleet::SensorPlacement{}, cfg,
                               util::Metres{0.1}, Rng::stream(42, 0)};
  const long bytes = g_allocated_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(bytes, kTwelveBitTableBytes);
#endif
}

TEST(BlockAllocation, CommissionedSensorHoldsFewSupplyDacPages) {
  // The closed loop reads only its operating band of the supply DAC's
  // transfer, so a commissioned sensor's driven DAC (dac 0) holds at most 4
  // of its 8 pages of prefix sums, also after a stretch at night flow. The
  // five idle DACs are never read, so they hold none and map no table.
  fleet::SensorNodeConfig cfg;
  cfg.isif = coarse_isif_config();
  fleet::SensorNode node{0, fleet::SensorPlacement{}, cfg, util::Metres{0.1},
                         Rng::stream(3, 0)};
  fleet::PipeState pipe;
  node.commission(pipe, Seconds{0.03});
  isif::Isif& isif = node.anemometer().platform();
  const analog::ThermometerDac& supply = isif.dac(0).dac();
  EXPECT_EQ(supply.page_count(), 8);
  EXPECT_GE(supply.filled_pages(), 1);
  EXPECT_LE(supply.filled_pages(), 4);

  pipe.mean_velocity_mps = 0.2;
  pipe.point_velocity_mps = 0.2;
  node.advance(pipe, Seconds{0.5});
  EXPECT_LE(supply.filled_pages(), 4);
  for (int i = 1; i < isif::Isif::kDacCount; ++i)
    EXPECT_EQ(isif.dac(i).dac().filled_pages(), 0) << "dac " << i;
}

TEST(BlockAllocation, DistrictSolveTakesLessThanOneDenseMatrix) {
#ifdef AQUA_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes allocate behind the allocator hooks";
#else
  // The 1024-unknown district's nodal matrix would be 8 MiB as an n×n
  // array. A whole cold solve, every sweep included, allocates less.
  constexpr long kDenseMatrixBytes = 1024L * 1024L * sizeof(double);
  hydro::WaterNetwork net = hydro::replicated_district(32);
  const long before = g_allocated_bytes.load(std::memory_order_relaxed);
  ASSERT_TRUE(net.solve());
  const long bytes = g_allocated_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(bytes, kDenseMatrixBytes);
#endif
}

}  // namespace
}  // namespace aqua::cta
