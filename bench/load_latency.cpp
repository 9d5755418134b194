// Cold-start microbenchmark for the .anbb binary artifact (DESIGN.md
// "Binary artifact format").
//
// Measures how long it takes to get a queryable AccelNASBench from disk
// through the two load modes — heap read and zero-copy mmap — and
// verifies the differential contract: both loaded benchmarks must produce
// predictions bit-identical to the in-memory benchmark that was saved,
// for every installed surrogate, scalar and batched. The binary exits
// non-zero on any divergence, and (at full size) when the mmap open is
// slower than the heap read.
//
// Usage: load_latency [n_probes]   (default 200; ANB_FAST=1 -> 50)
// Output: results/load_latency.csv

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/util/io.hpp"
#include "common.hpp"

namespace anb::bench {
namespace {

double seconds_of(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Seconds per call over enough repetitions to accumulate a measurable
/// interval, after one untimed warmup (page cache, allocator).
double time_per_call(const std::function<void()>& body) {
  body();
  int reps = 1;
  while (true) {
    const double secs = seconds_of([&] {
      for (int r = 0; r < reps; ++r) body();
    });
    if (secs > 0.05 || reps >= 1024) return secs / reps;
    reps *= 4;
  }
}

std::string scratch_path(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

/// A benchmark with every surrogate family installed; the tree counts are
/// what make the artifact realistically heavy (node arrays dominate).
AccelNASBench make_benchmark() {
  Rng drng(hash_combine(kWorldSeed, 1));
  const std::size_t num_features =
      MnasSpace::instance().features(MnasSpace::instance().sample(drng)).size();
  const int n_train = fast_mode() ? 300 : 1500;
  Dataset train(num_features);
  for (int i = 0; i < n_train; ++i) {
    const auto x = MnasSpace::instance().features(MnasSpace::instance().sample(drng));
    double y = 0.0;
    for (std::size_t k = 0; k < x.size(); ++k)
      y += x[k] * (k % 3 == 0 ? 0.5 : -0.25);
    train.add(x, y + drng.uniform() * 0.01);
  }
  const auto fitted = [&](std::unique_ptr<Surrogate> model) {
    Rng fit_rng(hash_combine(kWorldSeed, 2));
    model->fit(train, fit_rng);
    return model;
  };
  GbdtParams gp;
  gp.n_estimators = fast_mode() ? 40 : 400;
  HistGbdtParams hp;
  hp.n_estimators = fast_mode() ? 40 : 400;
  RandomForestParams fp;
  fp.n_trees = fast_mode() ? 20 : 150;
  SvrParams sp;
  sp.gamma = 0.25;

  AccelNASBench bench;
  bench.set_accuracy_surrogate(fitted(std::make_unique<EnsembleSurrogate>(
      [gp] { return std::make_unique<Gbdt>(gp); }, /*size=*/3)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kA100, PerfMetric::kThroughput},
      fitted(std::make_unique<Gbdt>(gp)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kZcu102, PerfMetric::kThroughput},
      fitted(std::make_unique<HistGbdt>(hp)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kZcu102, PerfMetric::kLatency},
      fitted(std::make_unique<RandomForest>(fp)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kVck190, PerfMetric::kThroughput},
      fitted(std::make_unique<Svr>(sp)));
  return bench;
}

/// Bit-compares predictions of `a` and `b` on `archs` over every query
/// path the benchmark offers.
bool identical_predictions(const AccelNASBench& a, const AccelNASBench& b,
                           std::span<const Arch> archs) {
  const auto batch_a = a.query_accuracy_batch(archs);
  const auto batch_b = b.query_accuracy_batch(archs);
  if (std::memcmp(batch_a.data(), batch_b.data(),
                  batch_a.size() * sizeof(double)) != 0) {
    return false;
  }
  for (const Arch& arch : archs) {
    if (a.query_accuracy(arch) != b.query_accuracy(arch)) return false;
    for (const MetricKey key : a.perf_targets())
      if (a.query_perf(arch, key) != b.query_perf(arch, key)) return false;
  }
  for (const MetricKey key : a.perf_targets()) {
    const auto pa = a.query_perf_batch(archs, key);
    const auto pb = b.query_perf_batch(archs, key);
    if (std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

struct Mode {
  std::string name;
  double seconds = 0.0;
  bool identical = false;
};

int run(int argc, char** argv) {
  parse_obs_flags(argc, argv);
  const bool has_arg = argc > 1 && std::strcmp(argv[1], "--trace") != 0;
  const int n_probes = has_arg ? std::atoi(argv[1]) : (fast_mode() ? 50 : 200);
  ANB_CHECK(n_probes >= 1, "load_latency: n_probes must be >= 1");
  print_header("benchmark load latency: heap read vs mmap",
               "zero-copy .anbb artifact (this repo's extension)");

  const AccelNASBench bench = make_benchmark();
  const std::string anbb_path = scratch_path("anb_load_latency.anbb");
  bench.save_binary(anbb_path);
  std::printf("artifact size: %zu bytes\n",
              io::Buffer::read_file(anbb_path)->size());

  // Timed loads. Each call constructs a complete benchmark object; the
  // mmap path defers payload reads to first query, which is exactly the
  // cold-start cost a NAS run pays before its first query.
  Mode heap{"binary_read", 0.0, false};
  Mode mapped{"binary_mmap", 0.0, false};
  heap.seconds = time_per_call(
      [&] { (void)AccelNASBench::open(anbb_path, io::MapMode::kCopy); });
  mapped.seconds = time_per_call(
      [&] { (void)AccelNASBench::open(anbb_path, io::MapMode::kMap); });

  // Differential check of freshly loaded instances against the saved one.
  Rng prng(hash_combine(kWorldSeed, 3));
  std::vector<Arch> probes;
  probes.reserve(static_cast<std::size_t>(n_probes));
  for (int i = 0; i < n_probes; ++i)
    probes.push_back(MnasSpace::instance().sample(prng));
  heap.identical = identical_predictions(
      bench, AccelNASBench::open(anbb_path, io::MapMode::kCopy), probes);
  mapped.identical = identical_predictions(
      bench, AccelNASBench::open(anbb_path, io::MapMode::kMap), probes);

  std::string csv = "mode,load_seconds,speedup_vs_read,identical\n";
  for (const Mode& m : {heap, mapped}) {
    std::printf("%-12s %12.6f s/load  %8.1fx vs read  identical=%s\n",
                m.name.c_str(), m.seconds, heap.seconds / m.seconds,
                m.identical ? "yes" : "NO");
    char line[160];
    std::snprintf(line, sizeof(line), "%s,%.9f,%.3f,%s\n", m.name.c_str(),
                  m.seconds, heap.seconds / m.seconds,
                  m.identical ? "yes" : "no");
    csv += line;
  }
  const std::string path = results_path("load_latency.csv");
  write_text_file(path, csv);
  std::printf("wrote %s\n", path.c_str());

  obs::gauge("anb.load.binary_seconds").set(heap.seconds);
  obs::gauge("anb.load.mmap_seconds").set(mapped.seconds);
  export_obs("load_latency");

  if (!heap.identical || !mapped.identical) {
    std::printf("FAILED: loaded predictions diverged from the saved "
                "benchmark\n");
    return 1;
  }
  if (!fast_mode() && mapped.seconds > heap.seconds) {
    // The zero-copy promise: at realistic artifact sizes, mapping the
    // sections in place must not lose to copying them onto the heap.
    // Smoke runs (tiny models, timer noise) only check the differential
    // contract.
    std::printf("FAILED: mmap open (%.6f s) slower than heap read "
                "(%.6f s)\n",
                mapped.seconds, heap.seconds);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace anb::bench

int main(int argc, char** argv) { return anb::bench::run(argc, argv); }
