#include "uld3d/phys/occupancy_index.hpp"

#include <algorithm>
#include <cmath>

#include "uld3d/util/batch.hpp"
#include "uld3d/util/check.hpp"
#include "uld3d/util/simd.hpp"

namespace uld3d::phys {

void OccupancyIndex::refresh(const std::uint8_t* occupied, std::int64_t nx,
                             std::int64_t ny) {
  if (!dirty_ && nx == nx_ && ny == ny_) return;
  expects(nx >= 0 && ny >= 0, "grid dimensions must be non-negative");
  nx_ = nx;
  ny_ = ny;
  sat_.assign(static_cast<std::size_t>((nx + 1) * (ny + 1)), 0);
  prev_occ_.assign(static_cast<std::size_t>(nx * ny), -1);
  const std::int64_t stride = nx + 1;
  // SAT build as batch kernels (exact integer ops, so SIMD and scalar paths
  // are identical): per row, the running occupancy count is an inclusive
  // prefix sum of the 0/1 bins and the last-occupied column is an inclusive
  // prefix max of (occupied ? x : -1) — both served by the shared AVX2
  // scans in util/simd (scalar under ULD3D_NO_SIMD / non-AVX2 CPUs).
  thread_local util::AlignedVector<std::uint32_t> ones;
  thread_local util::AlignedVector<std::uint32_t> row_sums;
  thread_local util::AlignedVector<std::int32_t> occ_cols;
  ones.resize(static_cast<std::size_t>(nx));
  row_sums.resize(static_cast<std::size_t>(nx));
  occ_cols.resize(static_cast<std::size_t>(nx));
  for (std::int64_t y = 0; y < ny; ++y) {
    const std::uint8_t* row = occupied + y * nx;
    const std::uint32_t* sat_above =
        sat_.data() + static_cast<std::size_t>(y * stride);
    std::uint32_t* sat_row =
        sat_.data() + static_cast<std::size_t>((y + 1) * stride);
    std::int32_t* prev_row = prev_occ_.data() + static_cast<std::size_t>(y * nx);
    for (std::int64_t x = 0; x < nx; ++x) {
      const bool occ = row[x] != 0;
      ones[static_cast<std::size_t>(x)] = occ ? 1u : 0u;
      occ_cols[static_cast<std::size_t>(x)] =
          occ ? static_cast<std::int32_t>(x) : -1;
    }
    simd::prefix_sum_u32(ones.data(), row_sums.data(),
                         static_cast<std::size_t>(nx));
    simd::prefix_max_i32(occ_cols.data(), prev_row,
                         static_cast<std::size_t>(nx));
    for (std::int64_t x = 0; x < nx; ++x) {
      sat_row[x + 1] = sat_above[x + 1] + row_sums[static_cast<std::size_t>(x)];
    }
  }
  dirty_ = false;
}

std::int64_t OccupancyIndex::count(std::int64_t bx0, std::int64_t by0,
                                   std::int64_t bx1, std::int64_t by1) const {
  ensures(!dirty_, "occupancy index queried while stale");
  bx0 = std::clamp<std::int64_t>(bx0, 0, nx_);
  bx1 = std::clamp<std::int64_t>(bx1, 0, nx_);
  by0 = std::clamp<std::int64_t>(by0, 0, ny_);
  by1 = std::clamp<std::int64_t>(by1, 0, ny_);
  if (bx0 >= bx1 || by0 >= by1) return 0;
  const std::int64_t stride = nx_ + 1;
  const auto at = [&](std::int64_t y, std::int64_t x) -> std::int64_t {
    return sat_[static_cast<std::size_t>(y * stride + x)];
  };
  return at(by1, bx1) - at(by0, bx1) - at(by1, bx0) + at(by0, bx0);
}

std::int64_t OccupancyIndex::rightmost_occupied(std::int64_t bx0,
                                                std::int64_t by0,
                                                std::int64_t bx1,
                                                std::int64_t by1) const {
  ensures(!dirty_, "occupancy index queried while stale");
  bx0 = std::clamp<std::int64_t>(bx0, 0, nx_);
  bx1 = std::clamp<std::int64_t>(bx1, 0, nx_);
  by0 = std::clamp<std::int64_t>(by0, 0, ny_);
  by1 = std::clamp<std::int64_t>(by1, 0, ny_);
  if (bx0 >= bx1 || by0 >= by1) return -1;
  std::int64_t rightmost = -1;
  for (std::int64_t y = by0; y < by1; ++y) {
    const std::int32_t p = prev_occ_[static_cast<std::size_t>(y * nx_ + bx1 - 1)];
    if (p >= bx0 && p > rightmost) rightmost = p;
  }
  return rightmost;
}

std::int64_t OccupancyIndex::occupied_bins() const {
  ensures(!dirty_, "occupancy index queried while stale");
  if (nx_ == 0 || ny_ == 0) return 0;
  return sat_[static_cast<std::size_t>((nx_ + 1) * (ny_ + 1) - 1)];
}

RectBuckets::RectBuckets(double width_um, double height_um,
                         std::size_t expected) {
  expects(width_um > 0.0 && height_um > 0.0,
          "bucket extent must be positive");
  const auto side = static_cast<std::int64_t>(
      std::ceil(std::sqrt(static_cast<double>(std::max<std::size_t>(
          expected, 1)))));
  cols_ = std::clamp<std::int64_t>(side, 1, 64);
  rows_ = cols_;
  cell_w_ = width_um / static_cast<double>(cols_);
  cell_h_ = height_um / static_cast<double>(rows_);
  cells_.resize(static_cast<std::size_t>(cols_ * rows_));
}

void RectBuckets::bucket_span(const Rect& rect, std::int64_t& cx0,
                              std::int64_t& cy0, std::int64_t& cx1,
                              std::int64_t& cy1) const {
  // Conservative (clamped) cover of the rect; a rect touching a cell
  // boundary may be filed under one extra cell, which only costs a spurious
  // candidate test, never a missed one.
  cx0 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.x0 / cell_w_)), 0, cols_ - 1);
  cy0 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.y0 / cell_h_)), 0, rows_ - 1);
  cx1 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.x1 / cell_w_)), 0, cols_ - 1);
  cy1 = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(std::floor(rect.y1 / cell_h_)), 0, rows_ - 1);
}

void RectBuckets::clear() {
  for (auto& cell : cells_) cell.clear();
}

void RectBuckets::insert(std::size_t id, const Rect& rect) {
  std::int64_t cx0 = 0, cy0 = 0, cx1 = 0, cy1 = 0;
  bucket_span(rect, cx0, cy0, cx1, cy1);
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      cells_[static_cast<std::size_t>(cy * cols_ + cx)].push_back({id, rect});
    }
  }
}

void RectBuckets::remove(std::size_t id, const Rect& rect) {
  std::int64_t cx0 = 0, cy0 = 0, cx1 = 0, cy1 = 0;
  bucket_span(rect, cx0, cy0, cx1, cy1);
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      auto& cell = cells_[static_cast<std::size_t>(cy * cols_ + cx)];
      for (std::size_t i = 0; i < cell.size(); ++i) {
        if (cell[i].id == id) {
          cell[i] = cell.back();
          cell.pop_back();
          break;
        }
      }
    }
  }
}

std::optional<Rect> RectBuckets::overlaps_any(const Rect& q,
                                              std::size_t self) const {
  std::int64_t cx0 = 0, cy0 = 0, cx1 = 0, cy1 = 0;
  bucket_span(q, cx0, cy0, cx1, cy1);
  for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
      for (const Entry& e : cells_[static_cast<std::size_t>(cy * cols_ + cx)]) {
        if (e.id != self && e.rect.overlaps(q)) return e.rect;
      }
    }
  }
  return std::nullopt;
}

}  // namespace uld3d::phys
