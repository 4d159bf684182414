// Reference placer: the seed implementation of phys::Placer::place.
//
// Constructive pass in the plain order the production placer must match:
// every (aspect, y, x) lattice position of every block, legality by a full
// sibling loop plus the byte-grid floorplan, and a strict `<` so the first
// of equal-cost candidates wins.  Then the same step/2 second chance,
// bottom-left shelf fallback and annealing refinement, consuming the RNG
// in the same order.  No occupancy index, spatial bucket, row bound or
// run skip is involved, so the production best-first scan can be checked
// against it bit for bit.
#pragma once

#include <vector>

#include "floorplan_oracle.hpp"
#include "uld3d/phys/placer.hpp"
#include "uld3d/util/rng.hpp"

namespace uld3d::oracle {

/// Place `blocks` into `fp` (which already holds the fixed macros) exactly
/// as phys::Placer(options).place would, and commit the placed regions.
phys::PlacementResult reference_place(
    GridFloorplan& fp, const std::vector<phys::SoftBlock>& blocks,
    const phys::PlacerOptions& options, Rng& rng);

}  // namespace uld3d::oracle
