#include "placer_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "uld3d/util/check.hpp"

namespace uld3d::oracle {

namespace {

using phys::Rect;
using phys::SoftBlock;

double block_cost(const SoftBlock& block, const Rect& rect,
                  const std::vector<phys::PlacedMacro>& fixed) {
  double cost = 0.0;
  for (const auto& [index, weight] : block.affinities) {
    cost += weight * phys::center_distance(rect, fixed[index].rect);
  }
  return cost;
}

/// The footprint a rectangle occupies once committed at bin granularity.
Rect bin_expand(const Rect& rect, double bin) {
  return {std::floor(rect.x0 / bin) * bin, std::floor(rect.y0 / bin) * bin,
          std::ceil(rect.x1 / bin - 1e-9) * bin,
          std::ceil(rect.y1 / bin - 1e-9) * bin};
}

/// Inside the die, free of fixed blockages, disjoint from every placed
/// sibling other than `self`.
bool legal(const GridFloorplan& fp, const SoftBlock& block, const Rect& rect,
           const std::vector<Rect>& placed, std::size_t self) {
  const Rect q = bin_expand(rect, fp.bin_um());
  if (q.x0 < 0.0 || q.y0 < 0.0 || q.x1 > fp.width_um() + 1e-6 ||
      q.y1 > fp.height_um() + 1e-6) {
    return false;
  }
  if (!fp.region_free(block.tier, q)) return false;
  for (std::size_t i = 0; i < placed.size(); ++i) {
    if (i == self || !placed[i].valid()) continue;
    if (bin_expand(placed[i], fp.bin_um()).overlaps(q)) return false;
  }
  return true;
}

constexpr double kAspects[] = {1.0, 2.0, 0.5, 3.0, 1.0 / 3.0, 4.0, 0.25};

}  // namespace

phys::PlacementResult reference_place(GridFloorplan& fp,
                                      const std::vector<SoftBlock>& blocks,
                                      const phys::PlacerOptions& options,
                                      Rng& rng) {
  phys::PlacementResult result;
  const auto& fixed = fp.macros();

  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return blocks[a].area_um2 > blocks[b].area_um2;
  });
  std::vector<Rect> rects(blocks.size());
  const double step = options.grid_step_um;

  const auto scan = [&](std::size_t bi, double scan_step,
                        double penalty_weight) -> Rect {
    const SoftBlock& block = blocks[bi];
    double best_cost = std::numeric_limits<double>::infinity();
    Rect best{};
    for (const double aspect_scale : kAspects) {
      const double aspect = block.aspect * aspect_scale;
      const double w = std::sqrt(block.area_um2 * aspect);
      const double h = std::sqrt(block.area_um2 / aspect);
      const double penalty =
          penalty_weight * fp.width_um() * std::abs(std::log(aspect_scale));
      for (double y = 0.0; y + h <= fp.height_um() + 1e-6; y += scan_step) {
        for (double x = 0.0; x + w <= fp.width_um() + 1e-6; x += scan_step) {
          const Rect rect = Rect::at(x, y, w, h);
          if (!legal(fp, block, rect, rects, bi)) continue;
          const double cost = block_cost(block, rect, fixed) + penalty;
          if (cost < best_cost) {
            best_cost = cost;
            best = rect;
          }
        }
      }
    }
    return best;
  };

  const auto shelf = [&](std::size_t bi) -> Rect {
    const SoftBlock& block = blocks[bi];
    for (const double aspect_scale : kAspects) {
      const double aspect = block.aspect * aspect_scale;
      const double w = std::sqrt(block.area_um2 * aspect);
      const double h = std::sqrt(block.area_um2 / aspect);
      for (double y = 0.0; y + h <= fp.height_um() + 1e-6; y += fp.bin_um()) {
        for (double x = 0.0; x + w <= fp.width_um() + 1e-6; x += fp.bin_um()) {
          const Rect rect = Rect::at(x, y, w, h);
          if (legal(fp, block, rect, rects, bi)) return rect;
        }
      }
    }
    return {};
  };

  bool any_failed = false;
  for (const std::size_t bi : order) {
    Rect best = scan(bi, step, 0.02);
    if (!best.valid()) best = scan(bi, step / 2.0, 0.0);
    if (!best.valid()) any_failed = true;
    rects[bi] = best;
  }
  if (any_failed) {
    std::fill(rects.begin(), rects.end(), Rect{});
    for (const std::size_t bi : order) {
      rects[bi] = shelf(bi);
      if (!rects[bi].valid()) result.unplaced.push_back(blocks[bi].name);
    }
  }

  double temperature = options.initial_temperature;
  const std::int64_t cols = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(fp.width_um() / step));
  const std::int64_t rows = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(fp.height_um() / step));
  for (int move = 0; move < options.anneal_moves && !blocks.empty(); ++move) {
    const auto bi = static_cast<std::size_t>(rng.below(blocks.size()));
    if (!rects[bi].valid()) continue;
    const SoftBlock& block = blocks[bi];
    const double x =
        static_cast<double>(rng.below(static_cast<std::uint64_t>(cols))) * step;
    const double y =
        static_cast<double>(rng.below(static_cast<std::uint64_t>(rows))) * step;
    const Rect candidate =
        Rect::at(x, y, rects[bi].width(), rects[bi].height());
    if (!legal(fp, block, candidate, rects, bi)) continue;
    const double delta = block_cost(block, candidate, fixed) -
                         block_cost(block, rects[bi], fixed);
    if (delta < 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
      rects[bi] = candidate;
    }
    temperature *= options.cooling;
  }

  result.success = result.unplaced.empty();
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    if (!rects[bi].valid()) continue;
    const bool ok = fp.allocate_region(blocks[bi].tier, rects[bi]);
    ensures(ok, "reference placement committed an illegal region");
    phys::Macro m;
    m.name = blocks[bi].name;
    m.kind = phys::MacroKind::kSramBuffer;
    m.width_um = rects[bi].width();
    m.height_um = rects[bi].height();
    result.blocks.push_back({m, rects[bi]});
    result.source_index.push_back(bi);
    result.total_hpwl_um += block_cost(blocks[bi], rects[bi], fixed);
  }
  return result;
}

}  // namespace uld3d::oracle
