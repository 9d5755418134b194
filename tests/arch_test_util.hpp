#pragma once

// Shared genotype helpers for tests: MnasNet genotypes with the same
// options in every block, FBNet genotypes with one op everywhere, and
// MnasNet lowering through the simulator.

#include <memory>
#include <string>
#include <vector>

#include "anb/anb/space_sim.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/searchspace/space.hpp"

namespace anb {

/// The MnasNet genotype whose seven blocks all take (e, k, L, se).
inline Arch uniform_mnas(int e, int k, int L, bool se) {
  const std::string block = "e" + std::to_string(e) + "k" + std::to_string(k) +
                            "L" + std::to_string(L) + "s" + (se ? "1" : "0");
  std::string compact = block;
  for (int b = 1; b < kNumBlocks; ++b) compact += "-" + block;
  return MnasSpace::instance().arch_from_string(compact);
}

/// SpaceSim::lower for a MnasNet genotype.
inline ModelIR lower_mnas(const Arch& arch, int resolution = 224) {
  static const std::unique_ptr<SpaceSim> sim =
      make_space_sim(SpaceId::kMnasNet);
  return sim->lower(arch, resolution);
}

/// The FBNet genotype with `op` on every layer; throws for kSkip, which is
/// illegal on the shape-changing layers.
inline Arch uniform_fbnet(FbnetOp op) {
  return FbnetSpace::instance().from_decisions(
      std::vector<int>(kFbnetNumLayers, static_cast<int>(op)));
}

/// The smallest FBNet genotype: skip where legal, e1k3 elsewhere.
inline Arch smallest_fbnet() {
  std::vector<int> ops;
  for (const auto& slot : FbnetSpace::slots())
    ops.push_back(static_cast<int>(slot.skip_allowed ? FbnetOp::kSkip
                                                     : FbnetOp::kE1K3));
  return FbnetSpace::instance().from_decisions(ops);
}

}  // namespace anb
