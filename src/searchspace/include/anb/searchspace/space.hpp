#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "anb/searchspace/genotype.hpp"
#include "anb/util/rng.hpp"

namespace anb {

/// Number of sequentially connected searchable blocks/stages in the MnasNet
/// search space (paper §3.1).
inline constexpr int kNumBlocks = 7;

/// The decoded options of one MnasNet block (MnasSpace::blocks): the block
/// hosts `layers` mobile inverted bottleneck (MBConv) layers with a shared
/// expansion factor, depthwise kernel size, and an optional
/// squeeze-and-excitation (SE) module. Allowed values (paper §3.1):
///   expansion ∈ {1, 4, 6}, kernel ∈ {3, 5}, layers ∈ {1, 2, 3}, se ∈ {0, 1}.
struct BlockConfig {
  int expansion = 1;
  int kernel = 3;
  int layers = 1;
  bool se = false;

  bool operator==(const BlockConfig&) const = default;
};

/// A searchable architecture space: the polymorphic interface every
/// space-generic layer programs against (NAS optimizers, proxy search,
/// collection, surrogate feature encoding, benchmark query/cache, serve).
///
/// Implementations are stateless singletons registered under a stable
/// SpaceId (see register_space / space()). All operations are const and
/// thread-safe; genotypes are space-tagged `Arch` values and every method
/// taking one validates that the tag matches this space.
///
/// The base class supplies the canonical mixed-radix index bijection,
/// neighbor enumeration, and the mutate operator generically from
/// `decision_sizes()`; spaces override behavior only where their native
/// semantics differ (sampling draw order, feature encodings, string forms).
class SearchSpace {
 public:
  virtual ~SearchSpace() = default;

  /// Stable registry identity (persisted in artifacts and on the wire).
  virtual SpaceId id() const = 0;

  /// Canonical name, equal to space_name(id()).
  const char* name() const { return space_name(id()); }

  /// Number of flat categorical decisions in a genotype.
  virtual int num_decisions() const = 0;

  /// Option count per decision, length num_decisions(). This is the
  /// genotype the REINFORCE policy samples.
  virtual const std::vector<int>& decision_sizes() const = 0;

  /// Total number of unique architectures (must fit std::uint64_t).
  std::uint64_t cardinality() const;

  /// Dimensionality of the feature encoding consumed by the surrogates.
  virtual int feature_dim() const = 0;

  /// Throws anb::Error if the genotype is not a member of this space
  /// (wrong space tag, wrong length, option index out of range, or
  /// nonzero padding past n).
  void validate(const Arch& arch) const;
  bool is_valid(const Arch& arch) const;

  /// Uniform random architecture.
  virtual Arch sample(Rng& rng) const = 0;

  /// Mutate exactly one decision to a different allowed value (the RE
  /// mutation operator). The result always differs from the input.
  virtual Arch mutate(const Arch& arch, Rng& rng) const;

  /// All architectures at Hamming distance 1 (one decision changed).
  virtual std::vector<Arch> neighbors(const Arch& arch) const;

  /// Canonical bijection with [0, cardinality()). Mixed-radix in decision
  /// order. Together with the space id this is the stable address of an
  /// architecture: caches key on (SpaceId, to_index) and the serve
  /// protocol ships exactly that pair.
  virtual std::uint64_t to_index(const Arch& arch) const;
  virtual Arch from_index(std::uint64_t index) const;

  /// Build a (validated) genotype from a flat decision vector — the
  /// constructor policy-gradient searchers use.
  Arch from_decisions(const std::vector<int>& decisions) const;

  /// Half-open decision ranges forming semantically coherent crossover
  /// units (MnasNet: one per block; default: one per decision). NSGA-II's
  /// uniform crossover swaps whole groups between parents.
  virtual std::vector<std::pair<int, int>> crossover_groups() const;

  /// Feature vector for surrogate input: pure architectural properties,
  /// no FLOPs/params leakage (paper §2.1).
  virtual std::vector<double> features(const Arch& arch) const = 0;

  /// Native human-readable form and its exact inverse.
  virtual std::string arch_to_string(const Arch& arch) const = 0;
  virtual Arch arch_from_string(const std::string& s) const = 0;

 protected:
  /// Genotype skeleton tagged for this space (n set, decisions zero).
  Arch make_arch() const;
};

/// The MnasNet hierarchical block-based search space (paper §3.1).
///
/// Seven sequential blocks, each with four categorical decisions:
/// expansion ∈ {1,4,6}, kernel ∈ {3,5}, layers ∈ {1,2,3}, se ∈ {no,yes}.
/// Cardinality (3·2·3·2)^7 = 36^7 ≈ 7.8×10^10 ≈ 10^11 unique models,
/// matching the paper's figure. Decision order is block-major
/// (block0: e,k,L,se, block1: e,k,L,se, ...), which keeps to_index
/// bit-compatible with the pre-interface static encoding.
class MnasSpace final : public SearchSpace {
 public:
  /// The process-wide instance (stateless; auto-registered on first
  /// registry lookup).
  static const MnasSpace& instance();

  /// Allowed option values, in canonical order.
  static const std::vector<int>& expansion_options();
  static const std::vector<int>& kernel_options();
  static const std::vector<int>& layer_options();
  // SE options are {false, true}.

  /// Number of flat categorical decisions (7 blocks × 4 = 28).
  static constexpr int kNumDecisions = kNumBlocks * 4;

  /// The option values of each block: the one decoder of the block-major
  /// layout. Throws anb::Error on a genotype that is not in this space.
  static std::array<BlockConfig, kNumBlocks> blocks(const Arch& arch);

  SpaceId id() const override { return SpaceId::kMnasNet; }
  int num_decisions() const override { return kNumDecisions; }
  const std::vector<int>& decision_sizes() const override;
  /// One crossover group per block (4 decisions each).
  std::vector<std::pair<int, int>> crossover_groups() const override;
  int feature_dim() const override;  ///< 7 × (3+2+3+1) = 63 one-hot dims
  Arch sample(Rng& rng) const override;
  std::vector<double> features(const Arch& arch) const override;
  /// Compact form, one `e<e>k<k>L<L>s<0|1>` group per block joined by '-'
  /// (e.g. "e6k5L3s1-..."). arch_from_string throws anb::Error on a
  /// malformed group, a block count other than 7, or an option value
  /// outside the space.
  std::string arch_to_string(const Arch& arch) const override;
  Arch arch_from_string(const std::string& s) const override;
};

/// Register a space implementation under its id(). Idempotent for the
/// same instance; throws anb::Error if a different instance already owns
/// the id. `space` must have static storage duration.
void register_space(const SearchSpace& space);

/// Resolve a registered space. MnasSpace is always available (registered
/// lazily); other spaces must have been registered — linking a library
/// is not enough, call its registration hook (anb::register_builtin_spaces
/// covers every in-tree space). Throws anb::Error naming the id when the
/// space is unknown.
const SearchSpace& space(SpaceId id);

/// space() by canonical name; exact-match contract, throws anb::Error.
const SearchSpace& space_from_name(const std::string& name);

/// True when `id` resolves without throwing.
bool space_registered(SpaceId id);

/// Ids of all currently registered spaces, ascending.
std::vector<SpaceId> registered_spaces();

}  // namespace anb
