#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "anb/ir/model_ir.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/trainsim/curve.hpp"
#include "anb/trainsim/scheme.hpp"

namespace anb {

/// Result of one simulated training run.
struct TrainResult {
  double top1 = 0.0;       ///< ImageNet top-1 validation accuracy in [0, 1]
  double gpu_hours = 0.0;  ///< simulated single-GPU wall-clock training cost
};

/// Analytic substitute for training a search space's models on
/// ImageNet2012, plus IR lowering: the one interface the collection /
/// proxy-search / harness layers program against, so the full
/// benchmark-construction pipeline runs unmodified over any registered
/// search space.
///
/// The real paper trains each architecture on a GPU cluster; that is the
/// unobtainable input here, so the simulator reproduces the *statistical
/// structure* the paper's pipeline depends on:
///
///  1. Each architecture has a deterministic latent quality: a
///     space-specific structural term, sparse motif conjunctions over the
///     genotype's decisions (specific option combinations shift quality —
///     what gives tree ensembles their edge over kernel methods, Table 1),
///     and a hash-seeded idiosyncratic component that no simple closed form
///     can recover (the reason surrogates are imperfect).
///  2. Accuracy under a scheme follows the shared saturating learning curve
///     (anb/trainsim/curve.hpp): cheap schemes cost accuracy with
///     architecture-dependent sensitivity and so *perturb rankings*, which
///     is the trade-off the proxy search (Eq. 1) navigates.
///  3. Per-seed evaluation noise shrinks with training length.
///  4. Training time follows an images × FLOPs / effective-throughput
///     model, so proxy speedups (the paper's 5.6×) are measurable as
///     simulated GPU-hours.
///
/// Only the latent model differs between spaces (SpaceSim::Model, one per
/// space in space_sim.cpp). Every stochastic component derives from
/// (world seed, seed_hash(arch), scheme, run seed), so any run is
/// reproducible and independent of call order. Thread-safe;
/// every method throws anb::Error for a genotype that is not a member of
/// space() (foreign space tag or out-of-range decision).
class SpaceSim {
 public:
  /// A space's latent model: its constants, structural quality term,
  /// depth/width norms, int8 drop, lowering and seed hash.
  struct Model;

  /// Use make_space_sim; `model` must outlive the simulator.
  SpaceSim(const Model& model, std::uint64_t world_seed);

  /// The search space this simulator scores.
  const SearchSpace& space() const;

  /// Simulate one training run under `scheme` with a given seed.
  TrainResult train(const Arch& arch, const TrainingScheme& scheme,
                    std::uint64_t run_seed = 0) const;

  /// Noise-free accuracy under the reference scheme `r` — the "true"
  /// quantity the paper's rankings are judged against.
  double reference_accuracy(const Arch& arch) const;

  /// Noise-free accuracy under an arbitrary scheme (mean over seeds).
  double expected_accuracy(const Arch& arch,
                           const TrainingScheme& scheme) const;

  /// Simulated GPU-hours of one run (deterministic, no noise).
  double training_cost_hours(const Arch& arch,
                             const TrainingScheme& scheme) const;

  /// Top-1 drop from 8-bit post-training quantization — the paper
  /// quantizes all models for DPU deployment (§3.3.2); typical drops are a
  /// fraction of a percent.
  double int8_accuracy_drop(const Arch& arch) const;

  /// Lower to the device-facing layer IR at the given input resolution
  /// (in [32, 1024]) — what the hwsim roofline model measures. The one
  /// lowering entry point: each space's macro-skeleton lives in its Model.
  ModelIR lower(const Arch& arch, int resolution) const;

  /// The space's 64-bit FNV-1a hash of the genotype's option values, from
  /// which every noise stream of this simulator seeds (MnasNet: e, k, L and
  /// se as 2/1 per block; FBNet: op + 1 per layer). Distinct from
  /// Arch::hash(), which hashes the raw decision bytes.
  std::uint64_t seed_hash(const Arch& arch) const;

  /// Deterministic latent quality score (unbounded, higher is better).
  double latent_quality(const Arch& arch) const;

  /// The space-agnostic scheme-response traits the shared learning-curve
  /// model consumes.
  ArchTraits traits(const Arch& arch) const;

 private:
  /// A sparse conjunction effect: IF decisions take specific options THEN
  /// quality shifts by `weight`.
  struct Motif {
    std::array<int, 3> decision{};
    std::array<int, 3> option{};
    int arity = 2;
    double weight = 0.0;
  };

  /// Unchecked latent_quality; `seed_hash` is seed_hash(arch).
  double quality(const Arch& arch, std::uint64_t seed_hash) const;

  const Model* model_;
  std::uint64_t world_seed_;
  std::vector<Motif> motifs_;
};

/// The one way to get a space's simulator. Also registers every in-tree
/// space (register_builtin_spaces), so the returned sim's space is
/// resolvable through the registry. Throws anb::Error for unknown ids.
std::unique_ptr<SpaceSim> make_space_sim(SpaceId id,
                                         std::uint64_t world_seed = 42);

}  // namespace anb
