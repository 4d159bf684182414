// Mapper oracles: the seed implementations of the two searches the mapper
// optimizes.
//
//  * price_candidate_scalar / seed_best — price one temporal mapping at a
//    time into a full LayerCost and keep the strict-`<` EDP minimum.  The
//    production evaluate_candidates (SoA batch passes, AVX2 or scalar
//    kernels, vectorized argmin) must pick the same winner bit for bit.
//  * exhaustive_search_spatial — price EVERY spatial unrolling with
//    evaluate_conv and reduce with a strict `<` in enumeration order.  The
//    production search_spatial skips unrollings whose admissible lower
//    bound cannot win; its winner and cost must match this one exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/spatial_search.hpp"
#include "uld3d/mapper/temporal_mapping.hpp"

namespace uld3d::oracle {

/// The seed per-candidate pricing (the original arithmetic, one candidate
/// at a time).
[[nodiscard]] mapper::LayerCost price_candidate_scalar(
    const nn::ConvSpec& conv, const mapper::TemporalMapping& m,
    const mapper::Architecture& arch, const mapper::SystemCosts& sys,
    std::int64_t n_cs);

/// The seed argmin loop: the first candidate whose EDP is strictly below
/// every earlier one, or a default LayerCost when none beats +inf.
[[nodiscard]] mapper::LayerCost seed_best(
    const nn::ConvSpec& conv,
    const std::vector<mapper::TemporalMapping>& candidates,
    const mapper::Architecture& arch, const mapper::SystemCosts& sys,
    std::int64_t n_cs);

/// Spatial search without pruning: every power-of-two unrolling priced.
[[nodiscard]] mapper::SpatialSearchResult exhaustive_search_spatial(
    const nn::ConvSpec& conv, const mapper::Architecture& arch,
    const mapper::SystemCosts& sys, std::int64_t n_cs);

}  // namespace uld3d::oracle
