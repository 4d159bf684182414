#include "floorplan_oracle.hpp"

#include <algorithm>
#include <cmath>

#include "uld3d/util/check.hpp"

namespace uld3d::oracle {

namespace {

/// Bin index of a right/top edge: the smallest bin boundary at or past
/// `v` bins, forgiving 1e-12 of rounding noise.
std::int64_t ceil_bins(double v) {
  return static_cast<std::int64_t>(std::ceil(v - 1e-12));
}

}  // namespace

GridFloorplan::GridFloorplan(double width_um, double height_um,
                             const tech::TierStack& stack, double bin_um)
    : width_um_(width_um), height_um_(height_um), bin_um_(bin_um) {
  expects(width_um > 0.0 && height_um > 0.0 && bin_um > 0.0,
          "oracle floorplan needs a positive die and bin");
  nx_ = ceil_bins(width_um / bin_um);
  ny_ = ceil_bins(height_um / bin_um);
  for (const auto& tier : stack.tiers()) {
    if (tier.kind == tech::TierKind::kBeolMetal) continue;
    grids_.push_back(
        {tier.kind, std::vector<std::uint8_t>(
                        static_cast<std::size_t>(nx_ * ny_), 0)});
  }
}

GridFloorplan::Window GridFloorplan::window(const phys::Rect& rect) const {
  return {std::clamp<std::int64_t>(
              static_cast<std::int64_t>(std::floor(rect.x0 / bin_um_)), 0,
              nx_),
          std::clamp<std::int64_t>(
              static_cast<std::int64_t>(std::floor(rect.y0 / bin_um_)), 0,
              ny_),
          std::clamp<std::int64_t>(ceil_bins(rect.x1 / bin_um_), 0, nx_),
          std::clamp<std::int64_t>(ceil_bins(rect.y1 / bin_um_), 0, ny_)};
}

std::size_t GridFloorplan::grid_index(tech::TierKind tier) const {
  for (std::size_t i = 0; i < grids_.size(); ++i) {
    if (grids_[i].kind == tier) return i;
  }
  expects(false, "oracle floorplan: tier has no placement grid");
  return 0;  // unreachable
}

bool GridFloorplan::clear(const Grid& g, const phys::Rect& rect) const {
  const Window w = window(rect);
  for (std::int64_t y = w.y0; y < w.y1; ++y) {
    for (std::int64_t x = w.x0; x < w.x1; ++x) {
      if (g.occupied[static_cast<std::size_t>(y * nx_ + x)] != 0) return false;
    }
  }
  return true;
}

void GridFloorplan::mark(Grid& g, const phys::Rect& rect) {
  const Window w = window(rect);
  for (std::int64_t y = w.y0; y < w.y1; ++y) {
    for (std::int64_t x = w.x0; x < w.x1; ++x) {
      g.occupied[static_cast<std::size_t>(y * nx_ + x)] = 1;
    }
  }
}

std::int64_t GridFloorplan::count_occupied(const Grid& g) const {
  std::int64_t used = 0;
  for (const std::uint8_t occ : g.occupied) {
    if (occ != 0) ++used;
  }
  return used;
}

bool GridFloorplan::place_macro(const phys::Macro& macro, double x, double y) {
  const phys::Rect rect = phys::Rect::at(x, y, macro.width_um, macro.height_um);
  if (rect.x1 > width_um_ + 1e-6 || rect.y1 > height_um_ + 1e-6 ||
      rect.x0 < -1e-6 || rect.y0 < -1e-6) {
    return false;
  }
  for (const Grid& g : grids_) {
    if (macro.blocks(g.kind) && !clear(g, rect)) return false;
  }
  for (Grid& g : grids_) {
    if (macro.blocks(g.kind)) mark(g, rect);
  }
  macros_.push_back({macro, rect});
  return true;
}

std::optional<phys::Rect> GridFloorplan::place_macro_anywhere(
    const phys::Macro& macro) {
  for (std::int64_t by = 0; by < ny_; ++by) {
    for (std::int64_t bx = 0; bx < nx_; ++bx) {
      const double x = static_cast<double>(bx) * bin_um_;
      const double y = static_cast<double>(by) * bin_um_;
      if (place_macro(macro, x, y)) {
        return phys::Rect::at(x, y, macro.width_um, macro.height_um);
      }
    }
  }
  return std::nullopt;
}

bool GridFloorplan::allocate_region(tech::TierKind tier,
                                    const phys::Rect& rect) {
  Grid& g = grids_[grid_index(tier)];
  if (!clear(g, rect)) return false;
  mark(g, rect);
  return true;
}

bool GridFloorplan::region_free(tech::TierKind tier,
                                const phys::Rect& rect) const {
  return clear(grids_[grid_index(tier)], rect);
}

std::optional<phys::Rect> GridFloorplan::find_free_region(tech::TierKind tier,
                                                          double w_um,
                                                          double h_um) const {
  const Grid& g = grids_[grid_index(tier)];
  const std::int64_t bw = ceil_bins(w_um / bin_um_);
  const std::int64_t bh = ceil_bins(h_um / bin_um_);
  for (std::int64_t by = 0; by + bh <= ny_; ++by) {
    for (std::int64_t bx = 0; bx + bw <= nx_; ++bx) {
      const phys::Rect rect = phys::Rect::at(
          static_cast<double>(bx) * bin_um_, static_cast<double>(by) * bin_um_,
          static_cast<double>(bw) * bin_um_, static_cast<double>(bh) * bin_um_);
      if (clear(g, rect)) return rect;
    }
  }
  return std::nullopt;
}

double GridFloorplan::free_area_um2(tech::TierKind tier) const {
  const std::int64_t free_bins =
      nx_ * ny_ - count_occupied(grids_[grid_index(tier)]);
  return static_cast<double>(free_bins) * bin_um_ * bin_um_;
}

double GridFloorplan::utilization(tech::TierKind tier) const {
  return static_cast<double>(count_occupied(grids_[grid_index(tier)])) /
         static_cast<double>(nx_ * ny_);
}

std::int64_t GridFloorplan::rightmost_occupied_col(
    tech::TierKind tier, const phys::Rect& rect) const {
  const Grid& g = grids_[grid_index(tier)];
  const Window w = window(rect);
  std::int64_t rightmost = -1;
  for (std::int64_t y = w.y0; y < w.y1; ++y) {
    for (std::int64_t x = w.x0; x < w.x1; ++x) {
      if (g.occupied[static_cast<std::size_t>(y * nx_ + x)] != 0) {
        rightmost = std::max(rightmost, x);
      }
    }
  }
  return rightmost;
}

}  // namespace uld3d::oracle
