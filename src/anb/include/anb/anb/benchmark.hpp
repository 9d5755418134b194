#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "anb/hwsim/device.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/surrogate/surrogate.hpp"
#include "anb/util/io.hpp"

namespace anb {

/// Hit/miss counters of the benchmark's architecture-keyed query cache.
/// A miss is a query that ran a surrogate prediction; a hit was served
/// from the cache (including repeats within one batched query).
///
/// Since the obs redesign these are a shim over the process-wide registry
/// counters `anb.query.cache.hits` / `anb.query.cache.misses`: each
/// AccelNASBench remembers the registry values at construction (and at
/// clear_cache()) and reports the difference, so single-instance callers
/// see exactly the old per-instance semantics.
struct QueryCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// On-device performance metrics offered by the benchmark (§3.3.2):
/// throughput on every platform, latency on the FPGA DPUs. Energy and
/// peak memory are extensions beyond the paper's dataset matrix
/// (HW-NAS-Bench offers them; Accel-NASBench does not) — see DESIGN.md
/// E12 and the peak-memory model in anb/hwsim/device.hpp.
enum class PerfMetric { kThroughput, kLatency, kEnergy, kPeakMemory };

// "Thr" / "Lat" / "Enr" / "Mem"
const char* perf_metric_name(PerfMetric metric);
PerfMetric perf_metric_from_name(const std::string& name);

/// Paper-style short device tag used in dataset names (ANB-ZCU-Thr, ...).
std::string device_short_name(DeviceKind kind);
DeviceKind device_from_short_name(const std::string& name);

/// Typed address of one performance dataset: a (device, metric) pair.
/// Hashable and totally ordered, with to_string()/parse() round-tripping
/// through the paper-style dataset name ("ANB-ZCU-Thr"). This is the one
/// currency for naming perf targets across the benchmark, collection,
/// pipeline, and bench helpers. (The loose two-argument
/// (DeviceKind, PerfMetric) shims served their one-release grace period
/// and are gone.)
struct MetricKey {
  DeviceKind device = DeviceKind::kZcu102;
  PerfMetric metric = PerfMetric::kThroughput;

  friend bool operator==(const MetricKey&, const MetricKey&) = default;
  friend auto operator<=>(const MetricKey&, const MetricKey&) = default;

  /// Paper-style dataset id, e.g. "ANB-ZCU-Thr".
  std::string to_string() const;
  /// Inverse of to_string(); throws anb::Error on malformed input.
  static MetricKey parse(const std::string& name);
};

/// Paper-style dataset id, e.g. "ANB-Acc", "ANB-ZCU-Thr".
std::string dataset_name(MetricKey key);

/// Fault-injection sites in AccelNASBench::save_binary/open
/// (anb/util/fault.hpp). When the save site fires, only a prefix of the
/// .anbb container reaches disk (length driven by the fire draw) and
/// save_binary throws anb::Error — simulating a short write / full disk.
/// When the load site fires, only a prefix of the file is read, so open
/// fails with anb::Error — simulating a short read / truncated download.
inline constexpr const char* kBenchmarkSaveFaultSite =
    "anb.benchmark.save.short_write";
inline constexpr const char* kBenchmarkLoadFaultSite =
    "anb.benchmark.load.short_read";

/// The Accel-NASBench product: zero-cost queries for accuracy and on-device
/// performance of any architecture in one search space, backed by fitted
/// surrogates. Query cost is microseconds instead of GPU-hours — this is
/// the object a NAS researcher downloads and runs optimizers against
/// (Fig. 1).
///
/// Each instance serves exactly one space (default: MnasNet, the paper's).
/// Genotypes are space-tagged Arch values; every query validates the tag
/// against space() and the cache keys on (space, to_index) — the stable
/// architecture address shared with the .anbb artifact and the serve
/// protocol. A genotype in its space's native string form goes through
/// space().arch_from_string first.
class AccelNASBench {
 public:
  AccelNASBench();
  ~AccelNASBench();
  AccelNASBench(AccelNASBench&&) noexcept;
  AccelNASBench& operator=(AccelNASBench&&) noexcept;
  AccelNASBench(const AccelNASBench&) = delete;
  AccelNASBench& operator=(const AccelNASBench&) = delete;

  /// The search space this benchmark answers queries for.
  SpaceId space() const { return space_; }
  /// Retarget the benchmark to another registered space. Only allowed
  /// before any surrogate is installed (surrogates are fitted to one
  /// space's feature encoding); throws anb::Error afterwards.
  void set_space(SpaceId space);

  /// Install the accuracy surrogate (predicts proxified top-1 under p*).
  void set_accuracy_surrogate(std::unique_ptr<Surrogate> surrogate);

  /// Install a performance surrogate for one metric key.
  void set_perf_surrogate(MetricKey key, std::unique_ptr<Surrogate> surrogate);

  bool has_accuracy() const { return accuracy_ != nullptr; }
  bool has_perf(MetricKey key) const;

  /// Predicted top-1 accuracy in [0, 1] (under the proxy training scheme,
  /// as in the paper — rankings, not absolute values, are the contract).
  /// Throws anb::Error when arch's space tag differs from space().
  double query_accuracy(const Arch& arch) const;

  /// Whether the accuracy surrogate is an ensemble (supports noisy queries).
  bool has_noisy_accuracy() const;

  /// NB301-style noisy query: a draw from the ensemble's predictive
  /// distribution, emulating the seed-to-seed variance of a real training
  /// run. Requires an EnsembleSurrogate accuracy model (see
  /// PipelineOptions::ensemble_accuracy); throws otherwise.
  double query_accuracy_noisy(const Arch& arch, Rng& rng) const;

  /// Ensemble mean + std of the accuracy prediction (ensemble only).
  std::pair<double, double> query_accuracy_dist(const Arch& arch) const;

  /// Predicted throughput (img/s), latency (ms), energy (mJ/image) or
  /// peak memory (MB) on a device.
  double query_perf(const Arch& arch, MetricKey key) const;

  /// Batched accuracy query for a whole population: encodes the cache
  /// misses into one feature matrix, predicts them with the surrogate's
  /// parallel batch path, and serves repeats from the cache. Element i
  /// corresponds to archs[i] and equals query_accuracy(archs[i]) exactly
  /// (batched prediction is bit-identical to scalar prediction).
  std::vector<double> query_accuracy_batch(std::span<const Arch> archs) const;

  /// Batched performance query; element i equals
  /// query_perf(archs[i], key) exactly.
  std::vector<double> query_perf_batch(std::span<const Arch> archs,
                                       MetricKey key) const;

  /// Query-cache control. The cache keys on (space(), to_index(arch)) —
  /// to_index is a bijection within a space and the instance serves one
  /// space, so two distinct architectures can never alias. Enabled by
  /// default: the deterministic surrogates make cached values exactly
  /// equal to recomputation. Noisy ensemble queries
  /// (query_accuracy_noisy) always bypass it.
  void set_cache_enabled(bool enabled);
  bool cache_enabled() const;
  void clear_cache() const;
  /// Counters since construction / the last clear_cache() — a shim over
  /// the registry counters anb.query.cache.{hits,misses}, see
  /// QueryCacheStats.
  QueryCacheStats cache_stats() const;

  /// All metric keys with an installed surrogate, ascending.
  std::vector<MetricKey> perf_targets() const;

  /// Save the whole benchmark (all surrogates) as one .anbb artifact: a
  /// versioned, checksummed container holding every surrogate's arrays
  /// (forest nodes, support vectors) in their in-memory layout — see
  /// DESIGN.md "Binary artifact format". The reloaded benchmark's
  /// predictions are bit-identical to this one's for every installed
  /// surrogate, and save_binary→open→save_binary reproduces the file byte
  /// for byte.
  void save_binary(const std::string& path) const;

  /// Load a save_binary() artifact. MapMode::kMap (default) memory-maps
  /// the file and uses the array sections in place without copying —
  /// microsecond cold starts; kCopy reads it into heap memory. On
  /// platforms without mmap, kMap silently degrades to a heap read. Any
  /// corruption (truncation, bit-flips, table tampering) throws anb::Error
  /// naming `path`; nothing is ever read past the end of the file.
  static AccelNASBench open(const std::string& path,
                            io::MapMode mode = io::MapMode::kMap);

 private:
  /// Perf-map key in the meta section ("device/metric"); distinct from
  /// MetricKey::to_string so the format predates — and survives — the key
  /// redesign.
  static std::string perf_json_key(MetricKey key);
  static MetricKey perf_json_key_parse(const std::string& key);

  struct CacheState;  // mutex-guarded maps + counter baselines (benchmark.cpp)

  /// The registered SearchSpace for space(); validates `arch` against it.
  const SearchSpace& space_obj() const;
  void check_space(const Arch& arch) const;

  /// `key == nullptr` addresses the accuracy cache map.
  double cached_query(const Surrogate& surrogate, const MetricKey* key,
                      const Arch& arch) const;
  std::vector<double> cached_query_batch(const Surrogate& surrogate,
                                         const MetricKey* key,
                                         std::span<const Arch> archs) const;

  SpaceId space_ = SpaceId::kMnasNet;
  std::unique_ptr<Surrogate> accuracy_;
  std::map<MetricKey, std::unique_ptr<Surrogate>> perf_;
  std::unique_ptr<CacheState> cache_;
};

}  // namespace anb

template <>
struct std::hash<anb::MetricKey> {
  std::size_t operator()(const anb::MetricKey& key) const noexcept {
    return (static_cast<std::size_t>(key.device) << 8) ^
           static_cast<std::size_t>(key.metric);
  }
};
