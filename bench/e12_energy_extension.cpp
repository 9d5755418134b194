// E12 — extension: energy as a third objective.
//
// Accel-NASBench ships throughput/latency; HW-NAS-Bench additionally offers
// energy. This extension adds per-device energy datasets and surrogates on
// top of the paper's pipeline and runs an accuracy-energy bi-objective
// search on the ZCU102 edge FPGA — the deployment regime where joules per
// image, not img/s, is the binding constraint.

#include <cstdio>
#include <iostream>

#include "anb/anb/harness.hpp"
#include "anb/searchspace/zoo.hpp"
#include "anb/util/csv.hpp"
#include "anb/util/table.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  anb::bench::parse_obs_flags(argc, argv);
  using namespace anb;
  bench::print_header("E12: energy extension", "DESIGN.md E12 (beyond paper)");

  // --- per-device energy of the reference models -------------------------
  std::printf("\nEnergy per image (mJ) of the baseline zoo:\n");
  TextTable zoo_table({"model", "tpuv2", "tpuv3", "a100", "rtx3090", "zcu102",
                       "vck190"});
  const auto sim = make_space_sim(SpaceId::kMnasNet, bench::kWorldSeed);
  for (const auto& model : reference_zoo()) {
    std::vector<std::string> row{model.name};
    const ModelIR ir = sim->lower(model.arch, 224);
    for (const auto& device : device_catalog())
      row.push_back(TextTable::num(device.energy_mj_per_image(ir), 1));
    zoo_table.add_row(std::move(row));
  }
  zoo_table.print(std::cout);

  // --- build a benchmark that includes energy surrogates ------------------
  PipelineOptions options;
  options.world_seed = bench::kWorldSeed;
  options.n_archs = bench::fast_mode() ? 800 : 2600;
  options.collect_energy = true;
  const PipelineResult pipe = construct_benchmark(options);
  std::printf("\nEnergy surrogate test metrics:\n");
  for (const auto& [name, metrics] : pipe.test_metrics) {
    if (name.find("-Enr") == std::string::npos) continue;
    std::printf("  %-14s R2 %.3f  tau %.3f  MAE %.3g mJ\n", name.c_str(),
                metrics.r2, metrics.kendall_tau, metrics.mae);
  }

  // --- accuracy-energy search on the edge FPGA ---------------------------
  ParetoSearchConfig config;
  config.key = {DeviceKind::kZcu102, PerfMetric::kEnergy};  // lower is better
  config.n_targets = bench::fast_mode() ? 3 : 6;
  config.n_evals_per_target = bench::fast_mode() ? 100 : 250;
  config.seed = 12;
  const ParetoOutcome outcome = pareto_search(pipe.bench, config);

  std::printf("\nZCU102 accuracy-energy Pareto front (%zu points from %d "
              "evals):\n",
              outcome.front.size(),
              config.n_targets * config.n_evals_per_target);
  TextTable front_table({"acc (pred)", "energy (pred, mJ)", "architecture"});
  CsvWriter csv({"acc_pred", "energy_mj_pred", "arch"});
  for (std::size_t k = 0; k < outcome.front.size(); ++k) {
    const std::size_t idx = outcome.front[k];
    if (outcome.front.size() > 10 && k % 2 == 1) continue;
    front_table.add_row({TextTable::num(outcome.accuracy[idx], 4),
                         TextTable::num(outcome.perf[idx], 1),
                         outcome.archs[idx].to_string()});
  }
  for (std::size_t idx : outcome.front) {
    csv.add_row({std::to_string(outcome.accuracy[idx]),
                 std::to_string(outcome.perf[idx]),
                 outcome.archs[idx].to_string()});
  }
  front_table.print(std::cout);

  csv.save(bench::results_path("e12_energy_front.csv"));
  std::printf("\nFront written to results/e12_energy_front.csv\n");
  anb::bench::export_obs("e12_energy_extension");
  return 0;
}
