#include "anb/anb/space_sim.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "anb/fbnet/fbnet_space.hpp"
#include "anb/util/error.hpp"
#include "anb/util/rng.hpp"

namespace anb {

/// Everything that differs between two spaces' simulators. The core below
/// owns the rest: motif table and scan, noise streams, the traits assembly
/// and the scheme-response calls.
struct SpaceSim::Model {
  const SearchSpace& space;
  // Motif table: `num_motifs` conjunctions drawn from
  // hash_combine(world_seed, motif_salt), weights ~ N(0, motif_sigma).
  std::uint64_t motif_salt;
  int num_motifs;
  double motif_sigma;
  // Reference accuracy = acc_floor + acc_range * (1 - exp(-q / 9)).
  double acc_floor;
  double acc_range;
  // log-MAC normalization bounds of the space at 224 (size_factor).
  double log_macs_min;
  double log_macs_max;
  /// Every quality term before the motifs (structure, then the global or
  /// skip penalties), summed in the space's own order.
  double (*structure)(const Arch& arch);
  /// Sets traits.depth_norm and traits.expand_norm.
  void (*shape_norms)(const Arch& arch, ArchTraits& traits);
  double (*int8_accuracy_drop)(const Arch& arch, std::uint64_t world_seed);
  ModelIR (*lower)(const Arch& arch, int resolution);
  /// The space's typed genotype hash; every noise stream seeds from it.
  std::uint64_t (*typed_hash)(const Arch& arch);
};

namespace {

constexpr double kQualityScale = 9.0;
constexpr double kLatentWiggleSigma = 0.07;  // idiosyncratic, in q units

/// Noise streams: 1 latent wiggle, 2 resolution and 3 epoch response
/// wiggles, 4 int8 drop wiggle.
double noise_unit(std::uint64_t world_seed, std::uint64_t typed_hash,
                  std::uint64_t stream) {
  Rng rng(hash_combine(hash_combine(world_seed, typed_hash), stream));
  return rng.normal();
}

double size_factor(double macs, double log_macs_min, double log_macs_max) {
  return std::clamp(
      (std::log(macs) - log_macs_min) / (log_macs_max - log_macs_min), 0.0,
      1.0);
}

// ---- MnasNet latent model ------------------------------------------------

// Stage importance: later stages carry more semantic capacity.
constexpr std::array<double, kNumBlocks> kStageWeight{0.35, 0.50, 0.70, 1.00,
                                                      1.10, 1.30, 0.90};
// SE usefulness grows towards late stages (EfficientNet ablations).
constexpr std::array<double, kNumBlocks> kSeStageWeight{0.30, 0.50, 0.80, 1.00,
                                                        1.20, 1.20, 1.00};
// Kernel-5 benefit by stage: helps most at mid-network receptive-field
// growth, slightly hurts in the earliest high-resolution stages.
constexpr std::array<double, kNumBlocks> kKernel5Gain{-0.02, 0.02, 0.10, 0.10,
                                                      0.08,  0.04, 0.02};
// log-MAC bounds at 224: ~5.2e7 (all-minimal) to ~8.8e8 (all-maximal).
constexpr double kMnasLogMacsMin = 17.76;
constexpr double kMnasLogMacsMax = 20.59;

double expansion_gain(int e) {
  switch (e) {
    case 1: return 0.0;
    case 4: return 0.55;
    case 6: return 0.75;
    default: ANB_CHECK(false, "expansion_gain: invalid expansion"); return 0;
  }
}

double depth_gain(int layers) {
  switch (layers) {
    case 1: return 0.0;
    case 2: return 0.30;
    case 3: return 0.45;
    default: ANB_CHECK(false, "depth_gain: invalid layers"); return 0;
  }
}

double mnas_structure(const Arch& arch) {
  const Architecture blocks = MnasSpace::to_blocks(arch);
  double q = 0.0;
  for (int s = 0; s < kNumBlocks; ++s) {
    const auto& blk = blocks.blocks[static_cast<std::size_t>(s)];
    const double fe = expansion_gain(blk.expansion);
    const double fl = depth_gain(blk.layers);
    double contrib = fe + fl;
    // Depth and width reinforce each other; depth with e=1 is mostly wasted.
    contrib += 0.12 * (fl / 0.45) * (fe / 0.75);
    if (blk.kernel == 5) contrib += kKernel5Gain[static_cast<std::size_t>(s)];
    if (blk.se) {
      // SE helps more on wide blocks (it gates more channels usefully).
      contrib += 0.14 * kSeStageWeight[static_cast<std::size_t>(s)] *
                 (0.7 + 0.3 * fe / 0.75);
    }
    q += kStageWeight[static_cast<std::size_t>(s)] * contrib;
  }

  // Global shape terms: very shallow networks underfit ImageNet...
  int total_depth = 0;
  for (const auto& blk : blocks.blocks) total_depth += blk.layers;
  if (total_depth < 9) q -= 0.05 * (9 - total_depth);
  // ...and some mid-network 5x5 coverage is needed for receptive field.
  int mid_k5 = 0;
  for (int s = 2; s <= 5; ++s)
    if (blocks.blocks[static_cast<std::size_t>(s)].kernel == 5) ++mid_k5;
  if (mid_k5 >= 2) q += 0.08;
  return q;
}

void mnas_shape_norms(const Arch& arch, ArchTraits& traits) {
  int total_depth = 0;
  double mean_expansion = 0.0;
  for (const auto& blk : MnasSpace::to_blocks(arch).blocks) {
    total_depth += blk.layers;
    mean_expansion += blk.expansion;
  }
  mean_expansion /= kNumBlocks;
  traits.depth_norm =
      (total_depth - kNumBlocks) / static_cast<double>(2 * kNumBlocks);
  traits.expand_norm = (mean_expansion - 1.0) / 5.0;
}

/// Small models and SE-heavy models (sigmoid gates with wide activation
/// ranges) lose more.
double mnas_int8_drop(const Arch& arch, std::uint64_t world_seed) {
  const Architecture blocks = MnasSpace::to_blocks(arch);
  const double size = size_factor(
      static_cast<double>(build_ir(blocks, 224).total_macs()), kMnasLogMacsMin,
      kMnasLogMacsMax);
  double se_fraction = 0.0;
  for (const auto& blk : blocks.blocks) se_fraction += blk.se ? 1.0 : 0.0;
  se_fraction /= kNumBlocks;
  // Base ~0.2%, up to ~0.9% for small SE-heavy models; small seeded wiggle.
  const double drop =
      0.002 + 0.003 * se_fraction + 0.003 * (1.0 - size) +
      0.0005 * std::abs(noise_unit(world_seed, blocks.hash(), 4));
  return std::clamp(drop, 0.0, 0.02);
}

const SpaceSim::Model& mnas_model() {
  static const SpaceSim::Model model{
      .space = MnasSpace::instance(),
      .motif_salt = 0x307F1F5ULL,
      .num_motifs = 40,
      .motif_sigma = 0.16,
      .acc_floor = 0.50,
      .acc_range = 0.50,
      .log_macs_min = kMnasLogMacsMin,
      .log_macs_max = kMnasLogMacsMax,
      .structure = mnas_structure,
      .shape_norms = mnas_shape_norms,
      .int8_accuracy_drop = mnas_int8_drop,
      .lower = [](const Arch& arch, int resolution) {
        return build_ir(MnasSpace::to_blocks(arch), resolution);
      },
      .typed_hash = [](const Arch& arch) {
        return MnasSpace::to_blocks(arch).hash();
      },
  };
  return model;
}

// ---- FBNet latent model --------------------------------------------------

// Position importance: the 22 slots grouped by stage, later stages heavier
// (same shape rationale as the MnasNet stage weights).
double layer_weight(int layer) {
  static const std::array<double, 7> stage_weight{0.40, 0.55, 0.70, 1.00,
                                                  1.10, 1.25, 0.90};
  static const std::array<int, 7> stage_layers{1, 4, 4, 4, 4, 4, 1};
  int remaining = layer;
  for (int s = 0; s < 7; ++s) {
    if (remaining < stage_layers[static_cast<std::size_t>(s)])
      return stage_weight[static_cast<std::size_t>(s)] /
             stage_layers[static_cast<std::size_t>(s)];
    remaining -= stage_layers[static_cast<std::size_t>(s)];
  }
  throw Error("layer_weight: layer out of range");
}

double op_gain(FbnetOp op, int layer) {
  if (op == FbnetOp::kSkip) return 0.0;
  double gain = 0.0;
  switch (fbnet_op_expansion(op)) {
    case 1: gain = 0.0; break;
    case 3: gain = 1.6; break;
    case 6: gain = 2.3; break;
    default: break;
  }
  // 5x5 kernels pay off in the mid-network receptive-field growth region.
  if (fbnet_op_kernel(op) == 5) {
    gain += (layer >= 5 && layer <= 16) ? 0.35 : 0.10;
  }
  return gain;
}

double fbnet_structure(const Arch& arch) {
  const FbnetArchitecture fb = FbnetSpace::to_ops(arch);
  double q = 0.0;
  int non_skip = 0;
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const FbnetOp op = fb.ops[static_cast<std::size_t>(i)];
    q += layer_weight(i) * op_gain(op, i);
    non_skip += op != FbnetOp::kSkip;
  }
  // Too many skipped layers starve the network of depth.
  if (non_skip < 14) q -= 0.22 * (14 - non_skip);
  return q;
}

void fbnet_shape_norms(const Arch& arch, ArchTraits& traits) {
  int non_skip = 0;
  double mean_expansion = 0.0;
  for (const FbnetOp op : FbnetSpace::to_ops(arch).ops) {
    if (op == FbnetOp::kSkip) continue;
    ++non_skip;
    mean_expansion += fbnet_op_expansion(op);
  }
  mean_expansion /= std::max(1, non_skip);
  traits.depth_norm = std::clamp((non_skip - 6) / 16.0, 0.0, 1.0);
  traits.expand_norm = std::clamp((mean_expansion - 1.0) / 5.0, 0.0, 1.0);
}

/// The MnasNet drop's qualitative structure: a small base drop that grows
/// with expansion-6 layers (wider activation ranges quantize worse) and
/// shrinks with skip connections (fewer quantized layers).
double fbnet_int8_drop(const Arch& arch, std::uint64_t /*world_seed*/) {
  int wide = 0;
  int skips = 0;
  for (const FbnetOp op : FbnetSpace::to_ops(arch).ops) {
    if (op == FbnetOp::kE6K3 || op == FbnetOp::kE6K5) ++wide;
    if (op == FbnetOp::kSkip) ++skips;
  }
  return 0.002 + 0.0003 * wide - 0.0001 * skips;
}

const SpaceSim::Model& fbnet_model() {
  static const SpaceSim::Model model{
      .space = FbnetSpace::instance(),
      .motif_salt = 0xFB307F1FULL,
      .num_motifs = 48,
      .motif_sigma = 0.14,
      .acc_floor = 0.48,
      .acc_range = 0.46,
      // All-skip-eligible minimal vs all-e6k5 maximal (fbnet tests).
      .log_macs_min = 17.5,
      .log_macs_max = 20.5,
      .structure = fbnet_structure,
      .shape_norms = fbnet_shape_norms,
      .int8_accuracy_drop = fbnet_int8_drop,
      .lower = [](const Arch& arch, int resolution) {
        return build_fbnet_ir(FbnetSpace::to_ops(arch), resolution);
      },
      .typed_hash = [](const Arch& arch) {
        return FbnetSpace::to_ops(arch).hash();
      },
  };
  return model;
}

}  // namespace

// ---- The shared core -----------------------------------------------------

SpaceSim::SpaceSim(const Model& model, std::uint64_t world_seed)
    : model_(&model), world_seed_(world_seed) {
  // Deterministic motif table: sparse conjunctions over the decisions.
  Rng rng(hash_combine(world_seed_, model.motif_salt));
  const auto& sizes = model.space.decision_sizes();
  motifs_.reserve(static_cast<std::size_t>(model.num_motifs));
  for (int m = 0; m < model.num_motifs; ++m) {
    Motif motif;
    motif.arity = rng.bernoulli(1.0 / 3.0) ? 3 : 2;
    const auto picks =
        rng.sample_indices(sizes.size(), static_cast<std::size_t>(motif.arity));
    for (std::size_t a = 0; a < static_cast<std::size_t>(motif.arity); ++a) {
      motif.decision[a] = static_cast<int>(picks[a]);
      motif.option[a] = static_cast<int>(
          rng.uniform_index(static_cast<std::uint64_t>(sizes[picks[a]])));
    }
    motif.weight = rng.normal(0.0, model.motif_sigma);
    motifs_.push_back(motif);
  }
}

const SearchSpace& SpaceSim::space() const { return model_->space; }

double SpaceSim::quality(const Arch& arch, std::uint64_t typed_hash) const {
  double q = model_->structure(arch);
  // Motif effects: sparse conjunctions of specific option choices. These
  // carry real (learnable) signal with discrete interaction structure.
  for (const auto& motif : motifs_) {
    bool active = true;
    for (std::size_t a = 0; a < static_cast<std::size_t>(motif.arity) && active;
         ++a) {
      active = arch.d[static_cast<std::size_t>(motif.decision[a])] ==
               motif.option[a];
    }
    if (active) q += motif.weight;
  }
  // Idiosyncratic component: the part of model quality no simple analytic
  // form captures; this is what bounds surrogate fidelity below 1.0.
  q += kLatentWiggleSigma * noise_unit(world_seed_, typed_hash, 1);
  return q;
}

double SpaceSim::latent_quality(const Arch& arch) const {
  space().validate(arch);
  return quality(arch, model_->typed_hash(arch));
}

ArchTraits SpaceSim::traits(const Arch& arch) const {
  space().validate(arch);
  const std::uint64_t typed_hash = model_->typed_hash(arch);
  ArchTraits traits;
  traits.reference_accuracy =
      model_->acc_floor +
      model_->acc_range *
          (1.0 - std::exp(-quality(arch, typed_hash) / kQualityScale));
  traits.macs_224 =
      static_cast<double>(model_->lower(arch, 224).total_macs());
  traits.size_factor = size_factor(traits.macs_224, model_->log_macs_min,
                                   model_->log_macs_max);
  model_->shape_norms(arch, traits);
  traits.res_wiggle = noise_unit(world_seed_, typed_hash, 2);
  traits.epoch_wiggle = noise_unit(world_seed_, typed_hash, 3);
  return traits;
}

double SpaceSim::reference_accuracy(const Arch& arch) const {
  return expected_accuracy(arch, reference_scheme());
}

double SpaceSim::expected_accuracy(const Arch& arch,
                                   const TrainingScheme& scheme) const {
  return scheme_expected_accuracy(traits(arch), scheme);
}

double SpaceSim::training_cost_hours(const Arch& arch,
                                     const TrainingScheme& scheme) const {
  return scheme_training_cost_hours(traits(arch), scheme);
}

TrainResult SpaceSim::train(const Arch& arch, const TrainingScheme& scheme,
                            std::uint64_t run_seed) const {
  const ArchTraits arch_traits = traits(arch);
  TrainResult result;
  const double mean_acc = scheme_expected_accuracy(arch_traits, scheme);
  const double sigma = scheme_seed_noise_sigma(scheme);
  Rng rng(hash_combine(hash_combine(hash_combine(world_seed_,
                                                 model_->typed_hash(arch)),
                                    scheme.hash()),
                       run_seed));
  result.top1 = std::clamp(mean_acc + sigma * rng.normal(), 0.001, 0.999);
  result.gpu_hours = scheme_training_cost_hours(arch_traits, scheme);
  return result;
}

double SpaceSim::int8_accuracy_drop(const Arch& arch) const {
  space().validate(arch);
  return model_->int8_accuracy_drop(arch, world_seed_);
}

ModelIR SpaceSim::lower(const Arch& arch, int resolution) const {
  space().validate(arch);
  return model_->lower(arch, resolution);
}

std::unique_ptr<SpaceSim> make_space_sim(SpaceId id,
                                         std::uint64_t world_seed) {
  register_builtin_spaces();
  ANB_CHECK(space_registered(id),
            "make_space_sim: unknown space id " +
                std::to_string(static_cast<int>(id)));
  switch (id) {
    case SpaceId::kMnasNet:
      return std::make_unique<SpaceSim>(mnas_model(), world_seed);
    case SpaceId::kFbnet:
      return std::make_unique<SpaceSim>(fbnet_model(), world_seed);
  }
  throw Error("make_space_sim: unknown space id " +
              std::to_string(static_cast<int>(id)));
}

}  // namespace anb
