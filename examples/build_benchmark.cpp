// Full benchmark construction, serialization, and reload.
//
// Walks the paper's Fig. 2 pipeline end to end:
//   1. grid-search a training proxy p* under a GPU-hour budget (Eq. 1),
//   2. collect ANB-Acc and all ANB-{device}-{metric} datasets with p*,
//   3. fit XGB surrogates per dataset and report held-out test metrics,
//   4. save the finished benchmark to accel_nasbench.anbb and reload it.
//
// Pass --fast to shrink the proxy grid and the collection for a quick demo.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "anb/anb/pipeline.hpp"
#include "anb/obs/obs.hpp"

int main(int argc, char** argv) {
  using namespace anb;
  const bool fast =
      argc > 1 && std::strcmp(argv[1], "--fast") == 0;

  PipelineOptions options;
  options.n_archs = fast ? 600 : 2600;
  options.run_proxy_search = true;
  options.proxy.n_models = fast ? 8 : 20;
  options.proxy.t_spec_hours = 3.0;
  options.tune = true;  // SMAC-tune each surrogate before the final fit
  if (fast) {
    options.proxy.domains.batch_size = {512};
    options.proxy.domains.total_epochs = {15, 30, 50};
    options.proxy.domains.res_start = {160, 192};
    options.tuning.n_trials = 4;
    options.tuning.tuning_subsample = 300;
  }

  std::printf("[1/4] searching for the training proxy p*...\n");
  const PipelineResult result = construct_benchmark(options);
  std::printf("  p* = %s\n", result.p_star.to_string().c_str());
  std::printf("  tau = %.3f, %.1fx cheaper than the reference scheme\n",
              result.proxy.best_tau, result.proxy.speedup);

  std::printf("[2/4] collected %zu architectures (%.0f simulated "
              "GPU-hours)\n",
              result.data.archs.size(), result.data.total_gpu_hours);

  std::printf("[3/4] surrogate test metrics:\n");
  for (const auto& [name, metrics] : result.test_metrics) {
    std::printf("  %-14s R2 %.3f  tau %.3f  MAE %.3g\n", name.c_str(),
                metrics.r2, metrics.kendall_tau, metrics.mae);
  }

  const std::string path = "accel_nasbench.anbb";
  result.bench.save_binary(path);
  const AccelNASBench reloaded = AccelNASBench::open(path);
  Rng rng(1);
  std::vector<Arch> probes;
  for (int i = 0; i < 16; ++i) probes.push_back(MnasSpace::instance().sample(rng));
  std::printf("[4/4] saved + reloaded %s; probe queries match: %s\n",
              path.c_str(),
              reloaded.query_accuracy_batch(probes) ==
                      result.bench.query_accuracy_batch(probes)
                  ? "yes"
                  : "NO");

  // Observability artifacts: the registry counters always land in
  // results/, and ANB_TRACE=<path> additionally dumps the span tree as
  // chrome://tracing JSON covering the proxy-search, collection, fitting,
  // and query phases above.
  std::filesystem::create_directories("results");
  obs::write_metrics_csv("results/build_benchmark_metrics.csv");
  if (obs::write_requested_trace())
    std::printf("trace written to %s (open in chrome://tracing)\n",
                obs::requested_trace_path()->c_str());
  return 0;
}
