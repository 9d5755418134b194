#include "anb/hwsim/device.hpp"

#include <gtest/gtest.h>

#include "anb/searchspace/space.hpp"
#include "anb/searchspace/zoo.hpp"
#include "anb/util/error.hpp"
#include "anb/util/metrics.hpp"
#include "anb/util/rng.hpp"
#include "arch_test_util.hpp"

namespace anb {
namespace {

TEST(DeviceTest, CatalogHasSixPlatforms) {
  const auto devices = device_catalog();
  ASSERT_EQ(devices.size(), 6u);
  EXPECT_EQ(devices[0].name(), "tpuv2");
  EXPECT_EQ(devices[5].name(), "vck190");
}

TEST(DeviceTest, KindNameRoundTrip) {
  for (const auto& device : device_catalog()) {
    EXPECT_EQ(device_kind_from_name(device.name()), device.kind());
  }
  EXPECT_THROW(device_kind_from_name("h100"), Error);
}

TEST(DeviceTest, ExtendedCatalogAppendsTheTwoExtensionPlatforms) {
  const auto devices = extended_device_catalog();
  ASSERT_EQ(devices.size(), 8u);
  // The paper's six stay in the paper's order (dataset layout stability),
  // the extension platforms are strictly appended.
  const auto paper = device_catalog();
  for (std::size_t i = 0; i < paper.size(); ++i)
    EXPECT_EQ(devices[i].kind(), paper[i].kind());
  EXPECT_EQ(devices[6].kind(), DeviceKind::kMobileNpu);
  EXPECT_EQ(devices[6].name(), "npu-mobile");
  EXPECT_EQ(devices[7].kind(), DeviceKind::kServerCpu);
  EXPECT_EQ(devices[7].name(), "cpu-server");
  // Extension platforms are throughput-only, like the other non-FPGAs.
  EXPECT_FALSE(device_supports_latency(DeviceKind::kMobileNpu));
  EXPECT_FALSE(device_supports_latency(DeviceKind::kServerCpu));
}

TEST(DeviceTest, ExtensionPlatformNamesAreExactMatch) {
  EXPECT_EQ(device_kind_from_name("npu-mobile"), DeviceKind::kMobileNpu);
  EXPECT_EQ(device_kind_from_name("cpu-server"), DeviceKind::kServerCpu);
  // No fuzzy matching: case, truncation, and word-order variants all
  // throw, so a typo can never silently resolve to a different fleet.
  for (const char* bad : {"NPU-Mobile", "npu", "mobile-npu", "npu-mobile ",
                          "Cpu-Server", "cpu", "server-cpu", "cpuserver"}) {
    EXPECT_THROW(device_kind_from_name(bad), Error) << bad;
  }
}

TEST(DeviceTest, OnlyFpgasReportLatency) {
  EXPECT_TRUE(device_supports_latency(DeviceKind::kZcu102));
  EXPECT_TRUE(device_supports_latency(DeviceKind::kVck190));
  EXPECT_FALSE(device_supports_latency(DeviceKind::kA100));
  EXPECT_FALSE(device_supports_latency(DeviceKind::kTpuV3));

  const ModelIR ir = lower_mnas(effnet_b0_like().arch);
  EXPECT_THROW(make_device(DeviceKind::kA100).measure_latency(ir, 1), Error);
  EXPECT_NO_THROW(make_device(DeviceKind::kZcu102).measure_latency(ir, 1));
}

TEST(DeviceTest, ThroughputMagnitudesRealistic) {
  const ModelIR b0 = lower_mnas(effnet_b0_like().arch);
  struct Expect {
    DeviceKind kind;
    double lo, hi;
  };
  // Broad plausibility bands for an EfficientNet-B0-class model.
  const Expect bands[] = {
      {DeviceKind::kA100, 2000, 15000},  {DeviceKind::kRtx3090, 1000, 8000},
      {DeviceKind::kTpuV3, 800, 6000},   {DeviceKind::kTpuV2, 300, 2500},
      {DeviceKind::kZcu102, 100, 1200},  {DeviceKind::kVck190, 600, 5000},
  };
  for (const auto& band : bands) {
    const double thr = make_device(band.kind).throughput_fps(b0);
    EXPECT_GT(thr, band.lo) << device_kind_name(band.kind);
    EXPECT_LT(thr, band.hi) << device_kind_name(band.kind);
  }
}

TEST(DeviceTest, FpgaLatencyMilliseconds) {
  const ModelIR b0 = lower_mnas(effnet_b0_like().arch);
  const double zcu = make_device(DeviceKind::kZcu102).latency_ms(b0);
  const double vck = make_device(DeviceKind::kVck190).latency_ms(b0);
  EXPECT_GT(zcu, 1.0);
  EXPECT_LT(zcu, 30.0);
  EXPECT_GT(vck, 0.3);
  EXPECT_LT(vck, 10.0);
  EXPECT_LT(vck, zcu);  // Versal is the faster part
}

TEST(DeviceTest, BiggerModelIsSlower) {
  const ModelIR small = lower_mnas(uniform_mnas(1, 3, 1, false));
  const ModelIR big = lower_mnas(uniform_mnas(6, 5, 3, true));
  for (const auto& device : device_catalog()) {
    EXPECT_GT(device.throughput_fps(small), device.throughput_fps(big))
        << device.name();
  }
}

TEST(DeviceTest, SeHurtsDpuMoreThanGpu) {
  // The EdgeTPU/DPU story: SE's global-pool side path stalls the systolic
  // pipeline, so adding SE costs FPGAs a larger throughput fraction.
  const ModelIR no_se = lower_mnas(uniform_mnas(6, 3, 2, false));
  const ModelIR with_se = lower_mnas(uniform_mnas(6, 3, 2, true));
  const Device zcu = make_device(DeviceKind::kZcu102);
  const Device a100 = make_device(DeviceKind::kA100);
  const double dpu_ratio =
      zcu.throughput_fps(with_se) / zcu.throughput_fps(no_se);
  const double gpu_ratio =
      a100.throughput_fps(with_se) / a100.throughput_fps(no_se);
  EXPECT_LT(dpu_ratio, gpu_ratio);
  EXPECT_LT(dpu_ratio, 0.8);
}

TEST(DeviceTest, DeviceRankingsDiverge) {
  // FLOPs-agnostic behaviour: device rankings must not be identical,
  // otherwise a hardware-aware benchmark would be pointless (paper §1).
  Rng rng(11);
  std::vector<double> zcu_thr, tpu_thr, inv_flops;
  const Device zcu = make_device(DeviceKind::kZcu102);
  const Device tpu = make_device(DeviceKind::kTpuV3);
  for (int i = 0; i < 150; ++i) {
    const ModelIR ir = lower_mnas(MnasSpace::instance().sample(rng));
    zcu_thr.push_back(zcu.throughput_fps(ir));
    tpu_thr.push_back(tpu.throughput_fps(ir));
    inv_flops.push_back(1.0 / ir.gflops());
  }
  EXPECT_LT(kendall_tau(zcu_thr, tpu_thr), 0.95);
  EXPECT_LT(kendall_tau(zcu_thr, inv_flops), 0.75);
  EXPECT_GT(kendall_tau(zcu_thr, tpu_thr), 0.2);  // still same-task devices
}

TEST(DeviceTest, MeasurementNoiseSmallAndUnbiased) {
  const ModelIR ir = lower_mnas(effnet_b0_like().arch);
  for (const auto& device : device_catalog()) {
    const double expected = device.throughput_fps(ir);
    double acc = 0.0;
    const int n = 64;
    for (int s = 0; s < n; ++s)
      acc += device.measure_throughput(ir, static_cast<std::uint64_t>(s));
    EXPECT_NEAR(acc / n / expected, 1.0, 0.02) << device.name();
  }
}

TEST(DeviceTest, MeasurementDeterministicPerSeed) {
  const ModelIR ir = lower_mnas(effnet_b0_like().arch);
  const Device dev = make_device(DeviceKind::kRtx3090);
  EXPECT_DOUBLE_EQ(dev.measure_throughput(ir, 5),
                   dev.measure_throughput(ir, 5));
  EXPECT_NE(dev.measure_throughput(ir, 5), dev.measure_throughput(ir, 6));
}

TEST(DeviceTest, ThroughputConsistentWithBatchTime) {
  const ModelIR ir = lower_mnas(effnet_b0_like().arch);
  for (const auto& device : device_catalog()) {
    const double t = device.batch_time_s(ir, device.spec().measure_batch);
    const double expected =
        device.spec().compute_cores * device.spec().measure_batch / t;
    EXPECT_NEAR(device.throughput_fps(ir), expected, 1e-9) << device.name();
  }
}

TEST(DeviceTest, BatchingAmortizesOverheads) {
  // Per-image time at batch N is below batch-1 time on batched devices.
  const ModelIR ir = lower_mnas(effnet_b0_like().arch);
  const Device a100 = make_device(DeviceKind::kA100);
  const double t1 = a100.batch_time_s(ir, 1);
  const double t128 = a100.batch_time_s(ir, 128) / 128.0;
  EXPECT_LT(t128, t1);
}

TEST(DeviceTest, InvalidArgumentsThrow) {
  const ModelIR ir = lower_mnas(effnet_b0_like().arch);
  const Device dev = make_device(DeviceKind::kA100);
  EXPECT_THROW(dev.batch_time_s(ir, 0), Error);
  ModelIR empty;
  EXPECT_THROW(dev.batch_time_s(empty, 1), Error);
  DeviceSpec bad = dev.spec();
  bad.peak_flops = 0;
  EXPECT_THROW(Device{bad}, Error);
}

// Property: positivity and finiteness across random models and devices.
class DeviceProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeviceProperty, AllMeasurementsPositiveFinite) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1200);
  const ModelIR ir = lower_mnas(MnasSpace::instance().sample(rng));
  for (const auto& device : device_catalog()) {
    const double thr = device.measure_throughput(ir, 99);
    EXPECT_TRUE(std::isfinite(thr));
    EXPECT_GT(thr, 0.0);
    if (device.supports_latency()) {
      const double lat = device.measure_latency(ir, 99);
      EXPECT_TRUE(std::isfinite(lat));
      EXPECT_GT(lat, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomArchs, DeviceProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace anb
