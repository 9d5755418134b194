#pragma once

// Internal header (not installed): the templated masked leaf-set descent
// kernel for FlatForest, instantiated once per ISA translation unit.
// flat_forest.cpp instantiates ScalarIsa (and NeonIsa on ARM);
// flat_forest_avx2.cpp — the only TU compiled with -mavx2 — instantiates
// Avx2Isa. The Isa types are disjoint across TUs (Avx2Isa is not even
// defined without -mavx2), so no linker merging can ever route baseline
// callers into AVX2 code.
//
// Exactness contract (same as FlatForest::accumulate): every row reaches
// the leaf the scalar `x[feature] < split` walk reaches (the byte compare
// on threshold codes is proven equivalent — see quantize_value in
// flat_forest.cpp), and each row's accumulation `out += scale * leaf`
// happens in tree order with mul and add unfused.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "anb/util/simd.hpp"

namespace anb::detail {

/// Masked leaf-set evaluation tables (the QuickScorer scheme of Lucchese
/// et al., SIGIR'15, specialized to <= 8 leaves per tree). Leaves are
/// numbered left to right; each internal node carries an 8-bit mask with
/// zeros exactly at the leaves of its *left* subtree. Evaluating a tree
/// on a row ANDs the masks of every node whose condition `code < qsplit`
/// is false; the lowest set bit of the result is the exit leaf:
///  - the exit leaf survives: a false node with the exit leaf in its left
///    subtree would be a path ancestor whose condition sent the row left;
///  - any leaf left of the exit is killed by the path node where the
///    descent turned right (its left subtree holds that leaf).
/// Nodes are therefore processed in arbitrary order with no per-node
/// dependence — a straight-line AND-reduction over 32-row byte vectors,
/// no gathers and no settle loop, cost proportional to node count rather
/// than depth.
struct MaskedView {
  const std::uint32_t* feature = nullptr;   ///< per internal node
  const std::uint8_t* qsplit_x = nullptr;   ///< threshold code ^ 0x80
  const std::uint8_t* mask = nullptr;       ///< ~(left-subtree leaf bits)
  const std::uint32_t* node_off = nullptr;  ///< per-tree [t, t+1) node range
  const double* leaf = nullptr;             ///< leaf values, trees back to back
  const std::uint32_t* leaf_off = nullptr;  ///< per-tree start into `leaf`
};

using MaskedFn = void (*)(const MaskedView& m, std::size_t num_trees,
                          const std::uint8_t* codes_t, double scale,
                          double* out, std::size_t n);

/// Per-ISA kernel entry points, dispatched at run time by
/// FlatForest::accumulate.
struct DescentKernels {
  MaskedFn masked = nullptr;
};

/// The AVX2 instantiation, or nullptr when the toolchain/architecture
/// cannot build it. Defined in flat_forest_avx2.cpp.
const DescentKernels* avx2_descent_kernels();

namespace kernels {

/// Masked leaf-set evaluation (see MaskedView). `codes_t` is the batch's
/// quantized feature matrix transposed to feature-major (stride n) with
/// every code XOR 0x80, so one unaligned 32-byte load covers 32 rows of
/// one feature and the signed byte compare reproduces the unsigned
/// `code < qsplit` decision. Full 64-row blocks run two 32-row vector
/// accumulators; the tail block falls back to a per-row scalar loop. The
/// exit-leaf lookup `countr_zero` never sees 0: the exit leaf's bit
/// survives every mask by construction.
template <class Isa>
void run_masked(const MaskedView& m, std::size_t num_trees,
                const std::uint8_t* codes_t, double scale, double* out,
                std::size_t n) {
  using VU8 = typename Isa::VU8;
  constexpr std::size_t kRowBlock = 64;
  alignas(64) std::uint8_t accb[kRowBlock];

  for (std::size_t begin = 0; begin < n; begin += kRowBlock) {
    const std::size_t nb = std::min(n - begin, kRowBlock);
    if (nb == kRowBlock) {
      for (std::size_t t = 0; t < num_trees; ++t) {
        VU8 acc0 = Isa::b_ones();
        VU8 acc1 = Isa::b_ones();
        const std::uint32_t k1 = m.node_off[t + 1];
        for (std::uint32_t k = m.node_off[t]; k < k1; ++k) {
          const std::uint8_t* const c =
              codes_t + static_cast<std::size_t>(m.feature[k]) * n + begin;
          const VU8 split = Isa::b_splat(m.qsplit_x[k]);
          const VU8 msk = Isa::b_splat(m.mask[k]);
          // Condition true (code < qsplit): compare lanes are 0xFF, the
          // OR saturates and the node constrains nothing. Condition
          // false: the node's leaf mask is ANDed in.
          acc0 = Isa::b_and(
              acc0, Isa::b_or(Isa::b_cmplt_s8(Isa::b_load(c), split), msk));
          acc1 = Isa::b_and(
              acc1,
              Isa::b_or(Isa::b_cmplt_s8(Isa::b_load(c + 32), split), msk));
        }
        Isa::b_store(accb, acc0);
        Isa::b_store(accb + 32, acc1);
        const double* const lv = m.leaf + m.leaf_off[t];
        double* const o = out + begin;
        // Tree t's contribution lands before tree t+1's for every row —
        // the scalar accumulation order, mul and add unfused.
        for (std::size_t i = 0; i < kRowBlock; ++i)
          o[i] += scale * lv[std::countr_zero(accb[i])];
      }
    } else {
      for (std::size_t t = 0; t < num_trees; ++t) {
        const std::uint32_t k0 = m.node_off[t];
        const std::uint32_t k1 = m.node_off[t + 1];
        const double* const lv = m.leaf + m.leaf_off[t];
        for (std::size_t i = 0; i < nb; ++i) {
          std::uint8_t acc = 0xFF;
          for (std::uint32_t k = k0; k < k1; ++k) {
            const std::uint8_t cx =
                codes_t[static_cast<std::size_t>(m.feature[k]) * n + begin +
                        i];
            if (static_cast<std::int8_t>(cx) >=
                static_cast<std::int8_t>(m.qsplit_x[k]))
              acc &= m.mask[k];
          }
          out[begin + i] += scale * lv[std::countr_zero(acc)];
        }
      }
    }
  }
}

template <class Isa>
DescentKernels make_kernels() {
  return DescentKernels{&run_masked<Isa>};
}

}  // namespace kernels
}  // namespace anb::detail
