#include <gtest/gtest.h>

#include "anb/hwsim/device.hpp"
#include "anb/searchspace/zoo.hpp"
#include "arch_test_util.hpp"

namespace anb {
namespace {

/// Parameterized sweep: every catalog device must satisfy the same physical
/// and protocol invariants. Catching a bad spec edit here is much cheaper
/// than chasing a skewed Table 2 later.
class DeviceSpecInvariants : public ::testing::TestWithParam<int> {
 protected:
  Device device() const {
    return device_catalog()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(DeviceSpecInvariants, PhysicalQuantitiesPositive) {
  // device() returns by value; keep the Device alive while spec refers
  // into it.
  const Device dev = device();
  const DeviceSpec& spec = dev.spec();
  EXPECT_GT(spec.peak_flops, 0.0);
  EXPECT_GT(spec.mem_bandwidth, 0.0);
  EXPECT_GT(spec.bytes_per_elem, 0.0);
  EXPECT_GT(spec.channel_align, 0.0);
  EXPECT_GE(spec.layer_overhead_s, 0.0);
  EXPECT_GE(spec.base_overhead_s, 0.0);
  EXPECT_GE(spec.fallback_overhead_s, 0.0);
  EXPECT_GT(spec.idle_power_w, 0.0);
  EXPECT_GT(spec.energy_per_flop_j, 0.0);
  EXPECT_GT(spec.energy_per_byte_j, 0.0);
}

TEST_P(DeviceSpecInvariants, EfficienciesAreFractions) {
  const Device dev = device();
  const DeviceSpec& spec = dev.spec();
  for (double eff : {spec.conv_eff, spec.dwconv_eff, spec.fc_eff,
                     spec.elementwise_eff}) {
    EXPECT_GT(eff, 0.0);
    EXPECT_LE(eff, 1.0);
  }
  // Matrix engines are always worse at depthwise than dense conv.
  EXPECT_LT(spec.dwconv_eff, spec.conv_eff);
}

TEST_P(DeviceSpecInvariants, MeasurementProtocolSane) {
  const Device dev = device();
  const DeviceSpec& spec = dev.spec();
  EXPECT_GE(spec.timed_runs, 1);
  EXPECT_LE(spec.timed_runs, 16);
  EXPECT_GT(spec.measurement_noise, 0.0);
  EXPECT_LT(spec.measurement_noise, 0.1);
  EXPECT_GE(spec.measure_batch, 1);
  EXPECT_GE(spec.compute_cores, 1);
}

TEST_P(DeviceSpecInvariants, Int8OnlyOnDpus) {
  const Device dev = device();
  const DeviceSpec& spec = dev.spec();
  if (device_supports_latency(spec.kind)) {
    EXPECT_DOUBLE_EQ(spec.bytes_per_elem, 1.0);  // quantized deployment
    EXPECT_GT(spec.fallback_overhead_s, 0.0);    // SE pipeline stalls
  } else {
    EXPECT_DOUBLE_EQ(spec.bytes_per_elem, 2.0);  // fp16/bf16
    EXPECT_DOUBLE_EQ(spec.fallback_overhead_s, 0.0);
  }
}

TEST_P(DeviceSpecInvariants, LatencyThroughputConsistency) {
  // Throughput can exceed 1/latency only via batching or multiple cores.
  const Device dev = device();
  const ModelIR ir = lower_mnas(effnet_b0_like().arch);
  const double thr = dev.throughput_fps(ir);
  const double single_stream = 1e3 / dev.latency_ms(ir);
  const double parallelism =
      static_cast<double>(dev.spec().measure_batch) * dev.spec().compute_cores;
  EXPECT_LE(thr, single_stream * parallelism * 1.0001);
  EXPECT_GT(thr, single_stream * 0.9);  // batching never hurts here
}

TEST_P(DeviceSpecInvariants, EnergyBudgetConsistent) {
  // Implied *board* power = energy/image x total throughput: at least the
  // configured idle power (it is amortized into every image) and within a
  // plausible multiple of it (no perpetua mobilia in either direction).
  const Device dev = device();
  const ModelIR ir = lower_mnas(effnet_b0_like().arch);
  const double watts =
      dev.energy_mj_per_image(ir) * 1e-3 * dev.throughput_fps(ir);
  EXPECT_GT(watts, dev.spec().idle_power_w * 0.9);
  EXPECT_LT(watts, dev.spec().idle_power_w * 20.0);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DeviceSpecInvariants,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& param) {
                           return std::string(device_kind_name(
                               device_catalog()[static_cast<std::size_t>(
                                                    param.param)]
                                   .kind()));
                         });

}  // namespace
}  // namespace anb
