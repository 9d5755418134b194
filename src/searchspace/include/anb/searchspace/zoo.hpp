#pragma once

#include <string>
#include <vector>

#include "anb/searchspace/genotype.hpp"

namespace anb {

/// A named reference model used as a comparison baseline in the paper's
/// Fig. 6 (EfficientNet-B0, MobileNetV3-Large, EfficientNet-EdgeTPU-S,
/// MnasNet-A1). Each is expressed as the closest point inside the searchable
/// MnasNet space (layer counts clipped to the space's {1,2,3} range), which
/// is how the paper is able to compare searched models directly against them.
struct ReferenceModel {
  std::string name;
  Arch arch;  ///< a MnasNet genotype
};

/// EfficientNet-B0-like: e=(1,6,…,6), mixed 3/5 kernels, SE everywhere.
ReferenceModel effnet_b0_like();

/// MobileNetV3-Large-like: lighter expansions, SE on middle/late stages.
ReferenceModel mobilenet_v3_like();

/// EfficientNet-EdgeTPU-S-like: no SE (EdgeTPU DPUs penalize SE), 3×3-heavy.
ReferenceModel effnet_edgetpu_s_like();

/// MnasNet-A1-like: the original MnasNet search result.
ReferenceModel mnasnet_a1_like();

/// All baselines above, in a stable order.
std::vector<ReferenceModel> reference_zoo();

}  // namespace anb
