// Byte-grid floorplan oracle: the seed implementation of phys::Floorplan's
// occupancy queries.  Every query walks the occupancy bytes directly (no
// summed-area table, no run skipping), so it is slow and obviously right.
// The randomized differentials drive it and a phys::Floorplan through the
// same operation sequences and require bit-identical answers.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "uld3d/phys/macro.hpp"
#include "uld3d/tech/tier_stack.hpp"

namespace uld3d::oracle {

class GridFloorplan {
 public:
  /// Same die, stack and bin size semantics as phys::Floorplan: one byte
  /// grid per placement tier (BEOL metal tiers carry no grid).
  GridFloorplan(double width_um, double height_um,
                const tech::TierStack& stack, double bin_um = 100.0);

  [[nodiscard]] double width_um() const { return width_um_; }
  [[nodiscard]] double height_um() const { return height_um_; }
  [[nodiscard]] double bin_um() const { return bin_um_; }
  [[nodiscard]] const std::vector<phys::PlacedMacro>& macros() const {
    return macros_;
  }

  bool place_macro(const phys::Macro& macro, double x, double y);
  /// First legal bin position in row-major order, trying every one.
  std::optional<phys::Rect> place_macro_anywhere(const phys::Macro& macro);
  bool allocate_region(tech::TierKind tier, const phys::Rect& rect);
  [[nodiscard]] bool region_free(tech::TierKind tier,
                                 const phys::Rect& rect) const;
  [[nodiscard]] std::optional<phys::Rect> find_free_region(
      tech::TierKind tier, double w_um, double h_um) const;
  [[nodiscard]] double free_area_um2(tech::TierKind tier) const;
  [[nodiscard]] double utilization(tech::TierKind tier) const;
  [[nodiscard]] std::int64_t rightmost_occupied_col(
      tech::TierKind tier, const phys::Rect& rect) const;

 private:
  struct Window {
    std::int64_t x0, y0, x1, y1;
  };
  struct Grid {
    tech::TierKind kind;
    std::vector<std::uint8_t> occupied;
  };

  [[nodiscard]] Window window(const phys::Rect& rect) const;
  [[nodiscard]] std::size_t grid_index(tech::TierKind tier) const;
  [[nodiscard]] bool clear(const Grid& grid, const phys::Rect& rect) const;
  void mark(Grid& grid, const phys::Rect& rect);
  [[nodiscard]] std::int64_t count_occupied(const Grid& grid) const;

  double width_um_;
  double height_um_;
  double bin_um_;
  std::int64_t nx_ = 0;
  std::int64_t ny_ = 0;
  std::vector<Grid> grids_;
  std::vector<phys::PlacedMacro> macros_;
};

}  // namespace uld3d::oracle
