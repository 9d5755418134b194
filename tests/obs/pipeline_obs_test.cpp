// End-to-end observability contract over a seeded mini-pipeline:
//
//  1. Every registry counter and histogram is bit-identical whatever the
//     thread count, and identical whether or not tracing is enabled — the
//     acceptance contract of the obs subsystem. Span durations are
//     explicitly exempt (they measure wall-clock).
//  2. The include_timing=false plain-text report over the 1-thread run is
//     compared against a committed golden: any accidental nondeterminism
//     or unintended instrumentation change flips the text and fails here.
//     If a legitimate instrumentation change lands, regenerate by pasting
//     the "actual" report from the failure output.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anb/anb/pipeline.hpp"
#include "anb/obs/obs.hpp"
#include "anb/surrogate/flat_forest.hpp"
#include "anb/util/parallel.hpp"

namespace anb {
namespace {

/// Whether the SIMD descent engages (and thus whether anb.query.simd.*
/// metrics exist) depends on the host CPU. Pinning the interleaved path
/// keeps both the golden report and the cross-thread snapshots
/// hardware-independent; the SIMD counters get their own coverage in
/// tests/surrogate/simd_descent_test.cpp.
class PinInterleavedEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    set_descent_path_override(DescentPath::kInterleaved);
  }
  void TearDown() override {
    set_descent_path_override(DescentPath::kAuto);
  }
};

const ::testing::Environment* const kPinned =
    ::testing::AddGlobalTestEnvironment(new PinInterleavedEnv);

/// Collect + fit + scalar/batched queries, small enough for test time but
/// crossing every instrumented layer (collection, fitting, queries, cache).
void run_mini_pipeline() {
  PipelineOptions options;
  options.n_archs = 250;
  const PipelineResult result = construct_benchmark(options);

  Rng rng(7);
  std::vector<Arch> archs;
  for (int i = 0; i < 32; ++i) archs.push_back(MnasSpace::instance().sample(rng));
  result.bench.query_accuracy_batch(archs);
  for (const Arch& a : archs) result.bench.query_accuracy(a);
  result.bench.query_perf_batch(
      archs, MetricKey{DeviceKind::kA100, PerfMetric::kThroughput});
}

/// Registry snapshot of one pipeline run, gauges removed (they are
/// last-write-wins and excluded from the determinism contract).
std::vector<obs::MetricValue> snapshot_run(unsigned threads, bool trace) {
  set_default_num_threads(threads);
  obs::set_trace_enabled(trace);
  obs::clear_trace_events();
  obs::reset_metrics();
  run_mini_pipeline();
  std::vector<obs::MetricValue> snapshot = obs::snapshot_metrics();
  std::erase_if(snapshot, [](const obs::MetricValue& m) {
    return m.kind == obs::MetricKind::kGauge;
  });
  set_default_num_threads(0);
  obs::set_trace_enabled(false);
  return snapshot;
}

void expect_identical(const std::vector<obs::MetricValue>& a,
                      const std::vector<obs::MetricValue>& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << label;
    EXPECT_EQ(a[i].value, b[i].value) << label << ": " << a[i].name;
    EXPECT_EQ(a[i].sum, b[i].sum) << label << ": " << a[i].name;
    EXPECT_EQ(a[i].buckets, b[i].buckets) << label << ": " << a[i].name;
  }
}

TEST(PipelineObsTest, CountersInvariantAcrossThreadsAndTracing) {
  const auto one = snapshot_run(1, /*trace=*/false);
  const auto two = snapshot_run(2, /*trace=*/false);
  const auto hw = snapshot_run(0, /*trace=*/false);
  const auto traced = snapshot_run(2, /*trace=*/true);
  expect_identical(one, two, "1 vs 2 threads");
  expect_identical(one, hw, "1 vs hw threads");
  expect_identical(one, traced, "untraced vs traced");
}

TEST(PipelineObsTest, GoldenReportAtOneThread) {
  set_default_num_threads(1);
  obs::set_trace_enabled(true);
  obs::clear_trace_events();
  obs::reset_metrics();
  run_mini_pipeline();
  const std::string actual =
      obs::report_text(obs::ReportOptions{/*include_timing=*/false});
  obs::clear_trace_events();
  obs::set_trace_enabled(false);
  set_default_num_threads(0);

  const std::string expected =
      R"GOLD(== spans ==
anb.pipeline.construct  count=1
  anb.pipeline.collect  count=1
    anb.collect  count=1
      anb.collect.accuracy  count=1
        anb.parallel.worker  count=1
      anb.collect.ir_build  count=1
        anb.parallel.worker  count=1
      anb.collect.measure.ANB-A100-Thr  count=1
        anb.parallel.worker  count=1
      anb.collect.measure.ANB-RTX-Thr  count=1
        anb.parallel.worker  count=1
      anb.collect.measure.ANB-TPUv2-Thr  count=1
        anb.parallel.worker  count=1
      anb.collect.measure.ANB-TPUv3-Thr  count=1
        anb.parallel.worker  count=1
      anb.collect.measure.ANB-VCK-Lat  count=1
        anb.parallel.worker  count=1
      anb.collect.measure.ANB-VCK-Thr  count=1
        anb.parallel.worker  count=1
      anb.collect.measure.ANB-ZCU-Lat  count=1
        anb.parallel.worker  count=1
      anb.collect.measure.ANB-ZCU-Thr  count=1
        anb.parallel.worker  count=1
  anb.pipeline.fit  count=1
    anb.parallel.worker  count=1
      anb.fit.gbdt  count=9
      anb.parallel.worker  count=9
anb.query.batch  count=2
== metrics ==
anb.collect.archs = 250
anb.collect.attempts = 4000
anb.collect.failed_datasets = 0
anb.collect.outlier_resolves = 0
anb.collect.quarantined = 0
anb.collect.rejected_outliers = 0
anb.collect.retries = 0
anb.collect.timeouts = 0
anb.collect.transient_errors = 0
anb.fit.columns.constant = 0
anb.fit.columns.general = 0
anb.fit.columns.two_valued = 567
anb.fit.gbdt.count = 9
anb.parallel.calls = 20
anb.parallel.items = 3076
anb.query.batch.count = 2
anb.query.batch.rows = 64
anb.query.batch.size: count=2 sum=64 buckets=[6:2]
anb.query.cache.hits = 32
anb.query.cache.misses = 64
anb.query.count = 32
)GOLD";
  EXPECT_EQ(actual, expected) << "actual report:\n" << actual;
}

}  // namespace
}  // namespace anb
