// E15 — cross-space generalizability of the whole benchmark stack.
//
// The api_redesign claim: every stage (collection, surrogate fit, query,
// NAS search) is generic over the registered search spaces. This harness
// measures it, per {space} x {device, metric}:
//
//  1. Surrogate quality — held-out R^2 and Kendall tau for every dataset
//     the pipeline fits, on MnasNet AND FBNet, over a fleet that includes
//     the two extension platforms (npu-mobile, cpu-server) and the
//     peak-memory extension metric.
//  2. NAS-trajectory fidelity — run Regularized Evolution against each
//     surrogate, then re-evaluate the visited architectures with the true
//     simulator/device model: Kendall tau between surrogate and true
//     values over the trajectory ("does zero-cost search explore the same
//     landscape real measurement would show it?").
//
// Results are committed to results/e15_cross_space.csv.

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "anb/anb/harness.hpp"
#include "anb/anb/space_sim.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/nas/evolution.hpp"
#include "anb/util/csv.hpp"
#include "anb/util/metrics.hpp"
#include "anb/util/table.hpp"
#include "common.hpp"

namespace {

using namespace anb;

/// True value of one dataset's metric for one architecture: expected
/// (noise-free) accuracy at p*, or the device model's deterministic
/// expected reading at the collection resolution.
double true_value(const SpaceSim& sim, const TrainingScheme& p_star,
                  const std::string& dataset, const MetricKey* key,
                  const Arch& arch) {
  if (key == nullptr) return sim.expected_accuracy(arch, p_star);
  const ModelIR ir = sim.lower(arch, 224);
  const Device device = make_device(key->device);
  switch (key->metric) {
    case PerfMetric::kThroughput: return device.throughput_fps(ir);
    case PerfMetric::kLatency: return device.latency_ms(ir);
    case PerfMetric::kEnergy: return device.energy_mj_per_image(ir);
    case PerfMetric::kPeakMemory: return device.peak_memory_mb(ir);
  }
  throw Error("e15_cross_space: unknown metric for " + dataset);
}

struct Row {
  std::string space;
  std::string dataset;
  double r2 = 0.0;
  double tau = 0.0;
  double traj_tau = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  anb::bench::parse_obs_flags(argc, argv);
  using namespace anb;
  bench::print_header("E15: cross-space surrogate + trajectory fidelity",
                      "DESIGN.md Search-space interface");
  register_builtin_spaces();

  const int n_evals = bench::fast_mode() ? 80 : 200;
  std::vector<Row> rows;

  for (const SpaceId space : {SpaceId::kMnasNet, SpaceId::kFbnet}) {
    const SearchSpace& sp = anb::space(space);
    std::printf("=== space: %s ===\n", sp.name());

    PipelineOptions options;
    options.world_seed = bench::kWorldSeed;
    options.space = space;
    options.n_archs = bench::collection_size();
    // The paper's A100 + ZCU102 plus both extension platforms; peak
    // memory on the whole fleet (PerfMetric::kPeakMemory extension).
    options.devices = {DeviceKind::kA100, DeviceKind::kZcu102,
                       DeviceKind::kMobileNpu, DeviceKind::kServerCpu};
    options.collect_peak_memory = true;
    const PipelineResult pipe = construct_benchmark(options);

    const std::unique_ptr<SpaceSim> sim =
        make_space_sim(space, bench::kWorldSeed);

    // One fidelity run per dataset: RE maximizes the surrogate (negated
    // for the lower-is-better metrics), the trajectory is re-scored with
    // the true model, and tau(surrogate, true) over the visited archs is
    // the fidelity number.
    for (const auto& [dataset, metrics] : pipe.test_metrics) {
      const bool is_accuracy = dataset == "ANB-Acc";
      MetricKey key{};
      if (!is_accuracy) key = MetricKey::parse(dataset);
      const bool lower_better =
          !is_accuracy && (key.metric == PerfMetric::kLatency ||
                           key.metric == PerfMetric::kEnergy ||
                           key.metric == PerfMetric::kPeakMemory);

      EvalOracle oracle = [&](const Arch& arch) {
        const double v = is_accuracy ? pipe.bench.query_accuracy(arch)
                                     : pipe.bench.query_perf(arch, key);
        return lower_better ? -v : v;
      };
      RegularizedEvolution re({}, sp);
      Rng rng(hash_combine(bench::kWorldSeed,
                           hash_combine(static_cast<std::uint64_t>(space),
                                        std::hash<std::string>{}(dataset))));
      const SearchTrajectory traj = re.run(oracle, n_evals, rng);

      std::vector<double> predicted, actual;
      predicted.reserve(traj.size());
      actual.reserve(traj.size());
      for (std::size_t i = 0; i < traj.size(); ++i) {
        predicted.push_back(lower_better ? -traj.values[i] : traj.values[i]);
        actual.push_back(true_value(*sim, pipe.p_star, dataset,
                                    is_accuracy ? nullptr : &key,
                                    traj.archs[i]));
      }
      Row row;
      row.space = std::string(sp.name());
      row.dataset = dataset;
      row.r2 = metrics.r2;
      row.tau = metrics.kendall_tau;
      row.traj_tau = kendall_tau(predicted, actual);
      rows.push_back(row);
    }
  }

  TextTable table({"space", "dataset", "test R^2", "test tau", "traj tau"});
  bool all_faithful = true;
  for (const Row& row : rows) {
    table.add_row({row.space, row.dataset, TextTable::num(row.r2, 3),
                   TextTable::num(row.tau, 3),
                   TextTable::num(row.traj_tau, 3)});
    all_faithful = all_faithful && row.traj_tau > 0.5;
  }
  table.print(std::cout);
  std::printf("\nall trajectories faithful (tau > 0.5): %s\n",
              all_faithful ? "yes" : "NO");
  std::printf("(same stack, two spaces, eight datasets each — the "
              "space-generic redesign at work)\n");

  CsvWriter csv({"space", "dataset", "test_r2", "test_kendall_tau",
                 "trajectory_kendall_tau"});
  for (const Row& row : rows) {
    csv.add_row({row.space, row.dataset, std::to_string(row.r2),
                 std::to_string(row.tau), std::to_string(row.traj_tau)});
  }
  csv.save(bench::results_path("e15_cross_space.csv"));
  std::printf("\nWritten to results/e15_cross_space.csv\n");
  anb::bench::export_obs("e15_cross_space");
  return 0;
}
