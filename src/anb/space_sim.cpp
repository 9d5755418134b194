#include "anb/anb/space_sim.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "anb/fbnet/fbnet_space.hpp"
#include "anb/ir/builder.hpp"
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
  /// Lowering onto the space's fixed macro-skeleton.
  ModelIR (*lower)(const Arch& arch, int resolution);
  /// The space's seed hash; every noise stream seeds from it.
  std::uint64_t (*seed_hash)(const Arch& arch);
};

namespace {

constexpr double kQualityScale = 9.0;
constexpr double kLatentWiggleSigma = 0.07;  // idiosyncratic, in q units

/// Noise streams: 1 latent wiggle, 2 resolution and 3 epoch response
/// wiggles, 4 int8 drop wiggle.
double noise_unit(std::uint64_t world_seed, std::uint64_t seed_hash,
                  std::uint64_t stream) {
  Rng rng(hash_combine(hash_combine(world_seed, seed_hash), stream));
  return rng.normal();
}

/// 64-bit FNV-1a over whole values: the seed hashes of both spaces.
class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001B3ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// A lowering's builder, at the stem: `resolution` must be in [32, 1024].
IrBuilder start_ir(int resolution, int stem_channels) {
  ANB_CHECK(resolution >= 32 && resolution <= 1024,
            "SpaceSim::lower: resolution must be in [32, 1024]");
  IrBuilder b(resolution);
  b.conv("stem.conv", stem_channels, 3, 2);
  return b;
}

/// Appends the head both skeletons share (1x1 conv, global pool, a
/// 1000-class classifier) and returns the finished model.
ModelIR finish_ir(IrBuilder& b, int resolution, int head_channels) {
  b.conv("head.conv", head_channels, 1, 1);
  b.global_avg_pool("head.pool");
  b.fully_connected("head.fc", 1000);
  ModelIR ir;
  ir.resolution = resolution;
  ir.layers = b.take();
  return ir;
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

// Fixed macro-skeleton (not searchable, as in the paper): stem 32ch s2,
// one stage per block, head 1280ch.
constexpr int kMnasStemChannels = 32;
constexpr int kMnasHeadChannels = 1280;
constexpr std::array<int, kNumBlocks> kMnasStageChannels{16,  24,  40, 80,
                                                         112, 192, 320};
constexpr std::array<int, kNumBlocks> kMnasStageStrides{1, 2, 2, 2, 1, 2, 1};

ModelIR mnas_lower(const Arch& arch, int resolution) {
  const auto blocks = MnasSpace::blocks(arch);
  IrBuilder b = start_ir(resolution, kMnasStemChannels);
  for (int s = 0; s < kNumBlocks; ++s) {
    const auto& blk = blocks[static_cast<std::size_t>(s)];
    for (int layer = 0; layer < blk.layers; ++layer) {
      const std::string prefix =
          "b" + std::to_string(s + 1) + ".l" + std::to_string(layer + 1);
      const int stride =
          layer == 0 ? kMnasStageStrides[static_cast<std::size_t>(s)] : 1;
      b.mbconv(prefix, kMnasStageChannels[static_cast<std::size_t>(s)],
               blk.expansion, blk.kernel, stride, blk.se);
    }
  }
  return finish_ir(b, resolution, kMnasHeadChannels);
}

/// FNV-1a over each block's option values: e, k, L, then se as 2/1.
std::uint64_t mnas_seed_hash(const Arch& arch) {
  Fnv1a h;
  for (const BlockConfig& blk : MnasSpace::blocks(arch)) {
    h.mix(static_cast<std::uint64_t>(blk.expansion));
    h.mix(static_cast<std::uint64_t>(blk.kernel));
    h.mix(static_cast<std::uint64_t>(blk.layers));
    h.mix(blk.se ? 2u : 1u);
  }
  return h.value();
}

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
  const auto blocks = MnasSpace::blocks(arch);
  double q = 0.0;
  for (int s = 0; s < kNumBlocks; ++s) {
    const auto& blk = blocks[static_cast<std::size_t>(s)];
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
  for (const auto& blk : blocks) total_depth += blk.layers;
  if (total_depth < 9) q -= 0.05 * (9 - total_depth);
  // ...and some mid-network 5x5 coverage is needed for receptive field.
  int mid_k5 = 0;
  for (int s = 2; s <= 5; ++s)
    if (blocks[static_cast<std::size_t>(s)].kernel == 5) ++mid_k5;
  if (mid_k5 >= 2) q += 0.08;
  return q;
}

void mnas_shape_norms(const Arch& arch, ArchTraits& traits) {
  int total_depth = 0;
  double mean_expansion = 0.0;
  for (const auto& blk : MnasSpace::blocks(arch)) {
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
  const double size = size_factor(
      static_cast<double>(mnas_lower(arch, 224).total_macs()), kMnasLogMacsMin,
      kMnasLogMacsMax);
  double se_fraction = 0.0;
  for (const auto& blk : MnasSpace::blocks(arch))
    se_fraction += blk.se ? 1.0 : 0.0;
  se_fraction /= kNumBlocks;
  // Base ~0.2%, up to ~0.9% for small SE-heavy models; small seeded wiggle.
  const double drop =
      0.002 + 0.003 * se_fraction + 0.003 * (1.0 - size) +
      0.0005 * std::abs(noise_unit(world_seed, mnas_seed_hash(arch), 4));
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
      .lower = mnas_lower,
      .seed_hash = mnas_seed_hash,
  };
  return model;
}

// ---- FBNet latent model --------------------------------------------------

FbnetOp fbnet_op(const Arch& arch, int layer) {
  return static_cast<FbnetOp>(arch.d[static_cast<std::size_t>(layer)]);
}

/// Skip ops contribute no layers.
ModelIR fbnet_lower(const Arch& arch, int resolution) {
  IrBuilder b = start_ir(resolution, FbnetSpace::kStemChannels);
  const auto& slots = FbnetSpace::slots();
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const FbnetOp op = fbnet_op(arch, i);
    if (op == FbnetOp::kSkip) continue;  // identity
    const auto& slot = slots[static_cast<std::size_t>(i)];
    b.mbconv("l" + std::to_string(i + 1), slot.out_c, fbnet_op_expansion(op),
             fbnet_op_kernel(op), slot.stride, /*se=*/false);
  }
  return finish_ir(b, resolution, FbnetSpace::kHeadChannels);
}

/// FNV-1a over op + 1 per layer.
std::uint64_t fbnet_seed_hash(const Arch& arch) {
  Fnv1a h;
  for (int i = 0; i < kFbnetNumLayers; ++i)
    h.mix(static_cast<std::uint64_t>(fbnet_op(arch, i)) + 1);
  return h.value();
}

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
  double q = 0.0;
  int non_skip = 0;
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const FbnetOp op = fbnet_op(arch, i);
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
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const FbnetOp op = fbnet_op(arch, i);
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
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const FbnetOp op = fbnet_op(arch, i);
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
      .lower = fbnet_lower,
      .seed_hash = fbnet_seed_hash,
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

double SpaceSim::quality(const Arch& arch, std::uint64_t seed_hash) const {
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
  q += kLatentWiggleSigma * noise_unit(world_seed_, seed_hash, 1);
  return q;
}

double SpaceSim::latent_quality(const Arch& arch) const {
  return quality(arch, seed_hash(arch));
}

std::uint64_t SpaceSim::seed_hash(const Arch& arch) const {
  space().validate(arch);
  return model_->seed_hash(arch);
}

ArchTraits SpaceSim::traits(const Arch& arch) const {
  const std::uint64_t hash = seed_hash(arch);
  ArchTraits traits;
  traits.reference_accuracy =
      model_->acc_floor +
      model_->acc_range *
          (1.0 - std::exp(-quality(arch, hash) / kQualityScale));
  traits.macs_224 =
      static_cast<double>(model_->lower(arch, 224).total_macs());
  traits.size_factor = size_factor(traits.macs_224, model_->log_macs_min,
                                   model_->log_macs_max);
  model_->shape_norms(arch, traits);
  traits.res_wiggle = noise_unit(world_seed_, hash, 2);
  traits.epoch_wiggle = noise_unit(world_seed_, hash, 3);
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
  Rng rng(hash_combine(
      hash_combine(hash_combine(world_seed_, model_->seed_hash(arch)),
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
