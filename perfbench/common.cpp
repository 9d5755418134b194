#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "anb/nas/reinforce.hpp"
#include "anb/obs/trace.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/util/error.hpp"
#include "anb/util/rng.hpp"
#include "summary.hpp"

namespace perfbench {

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  ANB_CHECK(std::isfinite(value), "metric " + name + " is not finite");
  anb::Json entry = anb::Json::object();
  entry["value"] = value;
  entry["unit"] = unit;
  values_[name] = std::move(entry);
}

void Metrics::set(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit) {
  set(name, median(samples), unit);
  if (samples.size() < 2) return;
  const Quartiles q = quartiles(samples);
  anb::Json spread = anb::Json::object();
  spread["samples"] = samples.size();
  spread["q1"] = q.q1;
  spread["q3"] = q.q3;
  spreads_[name] = std::move(spread);
}

anb::Json Metrics::to_record() const {
  anb::Json record = to_json();
  for (const auto& [name, spread] : spreads_) {
    for (const auto& [key, value] : spread.as_object()) record[name][key] = value;
  }
  return record;
}

double Metrics::value(const std::string& name) const {
  return values_.at(name).at("value").as_number();
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) mismatches.push_back(what);
}

std::map<std::string, double> take_span_seconds() {
  const anb::Json trace = anb::Json::parse(anb::obs::trace_json_string());
  anb::obs::clear_trace_events();
  std::map<std::string, double> seconds;
  for (const anb::Json& event : trace.at("traceEvents").as_array()) {
    seconds[event.at("name").as_string()] += event.at("dur").as_number() * 1e-6;  // dur is in us
  }
  return seconds;
}

std::string scratch_path(const RunConfig& config, const std::string& tag) {
  return config.workdir + "/p" + std::to_string(::getpid()) + "-" + tag;
}

double Objective::reward(double accuracy, double perf) const {
  return anb::mnasnet_reward(accuracy, std::max(perf, 1e-9), target, weight);
}

Objective make_objective(const anb::AccelNASBench& bench, std::uint64_t seed) {
  Objective objective;
  anb::Rng rng(anb::hash_combine(seed, 0x7A56E7));
  std::vector<anb::Arch> probes;
  for (int i = 0; i < 256; ++i) probes.push_back(anb::MnasSpace::instance().sample(rng));
  std::vector<double> perf = bench.query_perf_batch(probes, objective.key);
  std::nth_element(perf.begin(), perf.begin() + 128, perf.end());
  objective.target = perf[128];
  return objective;
}

}  // namespace perfbench
