// The repo benchmark: one workload per invocation, every phase of the
// product run from the public entry points of anb, surrogate, nas and
// serve.
//
//   perfbench --workload nas|serve --seed N --seconds S --trace 0|1
//             --workdir DIR [--rev REV] [--record FILE]
//
// Every workload runs the whole user path — build an artifact, cold-start
// it, search it, serve it — so every end-to-end metric exists on every
// workload; the named workload runs about --seconds of its own phase on
// top. With --trace 1 the pass is run twice: untraced (the reference) and
// traced, and the run prints the per-layer metrics plus the tracing
// overhead between the two. The last stdout line is the JSON result.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "anb/obs/obs.hpp"
#include "anb/util/error.hpp"
#include "anb/util/json.hpp"
#include "anb/util/parallel.hpp"
#include "anb/util/simd.hpp"
#include "common.hpp"
#include "summary.hpp"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

/// A pass runs the phases round-robin, so a slow spell of a shared host
/// lands in one round's samples instead of in one whole phase.
constexpr int kRounds = 4;

/// Repetitions of each phase in one pass. Both workloads run every phase,
/// because the result line carries every end-to-end metric on every
/// workload. Each workload gives its own phase the `--seconds` window as
/// a fixed count, so the same work is measured on every host and revision.
struct Plan {
  int builds = 4;  ///< one build varies by ±10% on a shared host
  int setups = 40;
  int nas_reps = 4;
  int ladder_passes = 2;
};

Plan make_plan(const RunConfig& config) {
  // Nominal seconds of one nas repetition and one ladder pass on a 4-core
  // x86 host (see README.md).
  constexpr double kNasRepS = 1.3;
  constexpr double kLadderPassS = 3.0;
  const auto window = [&](double unit_s) {
    return std::max(3, static_cast<int>(std::lround(config.seconds / unit_s)));
  };
  Plan plan;
  if (config.workload == "nas") plan.nas_reps = window(kNasRepS);
  if (config.workload == "serve") plan.ladder_passes = window(kLadderPassS);
  return plan;
}

/// Repetitions of a phase of `total` that fall in round `round`.
int share(int total, int round) {
  return total * (round + 1) / kRounds - total * round / kRounds;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto start = line.find_first_not_of(' ', line.find(':') + 1);
    if (line.find(':') != std::string::npos && start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

/// Fingerprint of the machine and build a result came from. Results with
/// different fingerprints (the revision aside) are not comparable.
anb::Json host_fingerprint(const std::string& rev) {
  anb::Json host = anb::Json::object();
  host["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
  host["cpu_model"] = cpu_model();
  host["simd_target"] = anb::simd::target_name(anb::simd::active_target());
  host["compiler"] = PERFBENCH_COMPILER;
  host["build_type"] = PERFBENCH_BUILD_TYPE;
  host["threads"] = static_cast<int>(anb::default_num_threads());
  host["rev"] = rev;
  return host;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload nas|serve --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--rev REV] [--record FILE]\n",
               message);
  std::exit(2);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Jiffies the hypervisor ran other guests while this host's CPUs wanted
/// to run (the `steal` column of /proc/stat), and all jiffies; zeros when
/// the kernel does not report it.
std::pair<double, double> steal_and_total_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0, total = 0.0, steal = 0.0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;  // user nice system idle iowait irq softirq steal
  }
  return {steal, total};
}

/// Milliseconds of a fixed single-threaded integer loop: the speed of the
/// host while the pass ran, so a drift of a shared host can be told apart
/// from a change of the program.
double spin_ms() {
  const double start = perfbench::now_s();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  const double elapsed = perfbench::now_s() - start;
  if (x == 0) std::printf("\n");  // keeps the loop
  return 1e3 * elapsed;
}

/// One pass over every phase, as planned for the workload.
Report run_pass(const RunConfig& config) {
  const Plan plan = make_plan(config);
  Report report;
  double phase_s[4] = {0.0, 0.0, 0.0, 0.0};  // build, setup, nas, serve
  const auto [steal_before, total_before] = steal_and_total_jiffies();
  perfbench::BuildPhase build(config);
  double start = perfbench::now_s();
  build.run_once(report);  // the artifact the other phases open
  phase_s[0] += perfbench::now_s() - start;
  perfbench::SetupPhase setup(config, build.artifact());
  perfbench::NasPhase nas(config, build.artifact());
  perfbench::ServePhase serve(config, build.artifact());
  // A reference-rate burst follows every block of repetitions, so the
  // serve latency samples spread over the whole pass and a slow spell of
  // a shared host spoils a minority of them.
  const auto block = [&](int phase, int reps, const auto& work) {
    start = perfbench::now_s();
    for (int rep = 0; rep < reps; ++rep) work();
    const double burst = perfbench::now_s();
    serve.run_reference(report);
    phase_s[phase] += burst - start;
    phase_s[3] += perfbench::now_s() - burst;
  };
  std::vector<double> spin;
  for (int round = 0; round < kRounds; ++round) {
    spin.push_back(spin_ms());
    block(0, share(plan.builds - 1, round), [&] { build.run_once(report); });
    block(1, share(plan.setups, round), [&] { setup.run_once(report); });
    block(2, share(plan.nas_reps, round), [&] { nas.run_once(report); });
    block(3, share(plan.ladder_passes, round), [&] { serve.run_ladder(report); });
  }
  std::printf("pass: build %.1f s, setup %.2f s, nas %.1f s, serve %.1f s; host spin %.1f ms\n",
              phase_s[0], phase_s[1], phase_s[2], phase_s[3], perfbench::median(spin));
  report.per_layer.set("host.spin_ms", spin, "ms");
  const auto [steal_after, total_after] = steal_and_total_jiffies();
  const double jiffies = std::max(1.0, total_after - total_before);
  report.per_layer.set("host.steal_pct", 100.0 * (steal_after - steal_before) / jiffies, "%");
  build.finish(report);
  setup.finish(report);
  nas.finish(report);
  serve.finish(report);
  return report;
}

/// Relative cost of tracing on the workload's own phase, in percent.
double tracing_overhead_pct(const std::string& workload, const Report& untraced,
                            const Report& traced) {
  const auto slower = [&](const char* name, bool higher_is_better) {
    const double a = untraced.end_to_end.value(name);
    const double b = traced.end_to_end.value(name);
    return 100.0 * (higher_is_better ? a / b - 1.0 : b / a - 1.0);
  };
  if (workload == "nas") return slower("re_evals_per_s", true);
  return slower("serve_p50_us", false);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string rev = "unknown";
  std::string record;
  bool have_seed = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--rev") {
      rev = value;
    } else if (flag == "--record") {
      record = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload != "nas" && config.workload != "serve") {
    usage("--workload must be nas or serve");
  }
  if (!have_seed || trace < 0 || config.workdir.empty() || !(config.seconds > 0)) {
    usage("--seed, --seconds, --trace and --workdir are required");
  }
  config.trace = false;
  std::filesystem::create_directories(config.workdir);

  const anb::Json host = host_fingerprint(rev);
  std::printf("host: %s\n", host.dump().c_str());
  try {
    Report report = run_pass(config);
    const double rss_mb = peak_rss_mb();
    report.end_to_end.set("peak_rss_mb", rss_mb, "MB");
    anb::Json metrics = report.end_to_end.to_json();
    if (trace == 1) {
      RunConfig traced_config = config;
      traced_config.trace = true;
      anb::obs::set_trace_enabled(true);
      anb::obs::clear_trace_events();
      Report traced = run_pass(traced_config);
      anb::obs::set_trace_enabled(false);
      traced.end_to_end.set("peak_rss_mb", rss_mb, "MB");
      traced.per_layer.set("trace.overhead_pct",
                           tracing_overhead_pct(config.workload, report, traced), "%");
      std::printf("tracing overhead on the %s phase: %+.2f%%\n", config.workload.c_str(),
                  traced.per_layer.value("trace.overhead_pct"));
      report.per_layer = traced.per_layer;
      report.mismatches.insert(report.mismatches.end(), traced.mismatches.begin(),
                               traced.mismatches.end());
      report.phases.insert(report.phases.end(), traced.phases.begin(), traced.phases.end());
      metrics = report.per_layer.to_json();
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const perfbench::PhaseCount& phase : report.phases) {
      std::printf("phase %-12s sent %8llu ok %8llu failed %llu\n", phase.name.c_str(),
                  static_cast<unsigned long long>(phase.sent),
                  static_cast<unsigned long long>(phase.ok),
                  static_cast<unsigned long long>(phase.failed));
      attempted += phase.sent;
      failed += phase.failed;
    }
    for (const std::string& mismatch : report.mismatches) {
      std::printf("MISMATCH %s\n", mismatch.c_str());
    }
    const bool correct = report.mismatches.empty();

    anb::Json result = anb::Json::object();
    result["correct"] = correct;
    result["attempted"] = static_cast<std::size_t>(attempted);
    result["failed"] = static_cast<std::size_t>(failed);
    result["metrics"] = metrics;
    if (!record.empty()) {
      anb::Json full = result;
      full["host"] = host;
      full["workload"] = config.workload;
      full["seed"] = static_cast<std::size_t>(config.seed);
      full["trace"] = trace;
      full["end_to_end"] = report.end_to_end.to_record();
      if (trace == 1) full["per_layer"] = report.per_layer.to_record();
      anb::write_text_file(record, full.dump(2) + "\n");
    }
    std::printf("%s\n", result.dump().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
