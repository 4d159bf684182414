#include "uld3d/phys/placer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <tuple>

#include "uld3d/util/check.hpp"
#include "uld3d/util/metrics.hpp"

namespace uld3d::phys {

double SoftBlock::width_um() const { return std::sqrt(area_um2 * aspect); }
double SoftBlock::height_um() const { return std::sqrt(area_um2 / aspect); }

Placer::Placer(PlacerOptions options) : options_(options) {
  expects(options_.grid_step_um > 0.0, "grid step must be positive");
  expects(options_.anneal_moves >= 0, "anneal moves must be non-negative");
  expects(options_.cooling > 0.0 && options_.cooling < 1.0,
          "cooling factor must be in (0, 1)");
}

namespace {

/// Weighted HPWL of one block at `rect` toward its anchors.  Affinity
/// indices are validated once at the top of Placer::place.
double block_cost(const SoftBlock& block, const Rect& rect,
                  const std::vector<PlacedMacro>& fixed) {
  double cost = 0.0;
  for (const auto& [index, weight] : block.affinities) {
    cost += weight * center_distance(rect, fixed[index].rect);
  }
  return cost;
}

/// Expand a rectangle to the floorplan's bin boundaries — occupancy is
/// committed at bin granularity, so legality must be checked on the
/// bin-expanded footprint or adjacent blocks could collide at commit time.
Rect bin_expand(const Rect& rect, double bin) {
  return {std::floor(rect.x0 / bin) * bin, std::floor(rect.y0 / bin) * bin,
          std::ceil(rect.x1 / bin - 1e-9) * bin,
          std::ceil(rect.y1 / bin - 1e-9) * bin};
}

/// Legal = inside the die, free of fixed blockages, disjoint from siblings.
/// Reference implementation: the full sibling scan, no index involved.
bool legal_naive(const Floorplan& fp, const SoftBlock& block, const Rect& rect,
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

/// Left-to-right skip state for one scan row.  A blocked candidate records
/// what blocked it; later candidates in the same row whose bin-expanded
/// window still reaches the blocker are rejected without a query (the
/// window rows are fixed along a row and its right edge only grows, so the
/// blocker provably still collides).
struct RowSkip {
  std::int64_t grid_col = -1;  ///< rightmost occupied grid column hit
  double sibling_x1 = -1.0;    ///< right edge (um) of a colliding sibling

  [[nodiscard]] bool covers(const Floorplan& fp, const Rect& q) const {
    if (q.x0 < sibling_x1) return true;
    return grid_col >= 0 && fp.bin_span(q).x0 <= grid_col;
  }
  /// The same verdict from precomputed inputs: `q_x0` is the window's left
  /// edge and `bin_x0` = fp.bin_span(q).x0.  Both only grow with x.
  [[nodiscard]] bool covers(double q_x0, std::int64_t bin_x0) const {
    return q_x0 < sibling_x1 || (grid_col >= 0 && bin_x0 <= grid_col);
  }
};

/// Lower bound on `block_cost` over every rect in `rect`'s row: the sum of
/// the y terms alone.  Each dropped x term is a non-negative addend, and
/// IEEE addition and multiplication round monotonically, so this never
/// exceeds block_cost of any rect with the same y and height.
double row_bound(const SoftBlock& block, const Rect& rect,
                 const std::vector<PlacedMacro>& fixed) {
  const double cy = rect.center().y;
  double bound = 0.0;
  for (const auto& [index, weight] : block.affinities) {
    bound += weight * std::abs(cy - fixed[index].rect.center().y);
  }
  return bound;
}

/// First index in [lo, hi) where `pred` holds, for a predicate that is
/// false and then true along the range (hi when it never holds).
template <typename Pred>
std::size_t first_true(std::size_t lo, std::size_t hi, Pred pred) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// A candidate's position in the reference scan order.  Among candidates
/// of equal cost, the one with the smallest key is the reference winner.
struct ScanKey {
  std::size_t aspect = 0;
  std::size_t row = 0;
  std::size_t col = 0;
  auto operator<=>(const ScanKey&) const = default;
};

/// One aspect candidate of a block in the best-first scan.
struct ScanShape {
  double w = 0.0;
  double h = 0.0;
  double penalty = 0.0;
  std::size_t cols = 0;
  /// Columns [0, left_end) have their centre at or left of every anchor,
  /// columns [right_begin, cols) at or right of every anchor.
  std::size_t left_end = 0;
  std::size_t right_begin = 0;
};

/// One lattice row of one aspect, with its cost lower bound.
struct ScanRow {
  double bound = 0.0;
  std::size_t aspect = 0;
  std::size_t row = 0;
};

}  // namespace

PlacementResult Placer::place(Floorplan& fp,
                              const std::vector<SoftBlock>& blocks,
                              Rng& rng) const {
  PlacementResult result;
  const auto& fixed = fp.macros();
  for (const auto& block : blocks) {
    for (const auto& [index, weight] : block.affinities) {
      expects(index < fixed.size(),
              "affinity index " + std::to_string(index) +
                  " out of range (fixed macros: " +
                  std::to_string(fixed.size()) + ") for block: " + block.name);
      expects(std::isfinite(weight) && weight >= 0.0,
              "affinity weight must be finite and non-negative for block: " +
                  block.name);
    }
  }

  MetricsRegistry& registry = MetricsRegistry::instance();
  Counter& c_scanned = registry.counter("phys.placer.candidates_scanned");
  Counter& c_skipped = registry.counter("phys.placer.candidates_skipped");
  Counter& c_legal = registry.counter("phys.placer.legal_checks");
  Counter& c_pruned = registry.counter("phys.placer.lb_pruned");

  // Fast-path state: bin-expanded rects of currently placed siblings.  The
  // buckets mirror `rects` exactly (insert on place, remove+insert on an
  // accepted anneal move), so a bucket query equals the naive sibling scan.
  const bool fast = placer_index_enabled();
  const double bin = fp.bin_um();
  RectBuckets buckets(fp.width_um(), fp.height_um(),
                      std::max<std::size_t>(blocks.size(), 1));

  // Constructive pass: biggest blocks first, best legal candidate position.
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return blocks[a].area_um2 > blocks[b].area_um2;
  });

  std::vector<Rect> rects(blocks.size());  // invalid until placed
  const double step = options_.grid_step_um;

  // Fast-path legality for one candidate.  Identical verdict to
  // legal_naive (same bounds comparisons; the occupancy index and the
  // buckets answer the same queries), but a blocked candidate feeds the
  // row-skip state.
  const auto legal_fast = [&](const SoftBlock& block, const Rect& q,
                              std::size_t self, RowSkip& skip) -> bool {
    if (q.x0 < 0.0 || q.y0 < 0.0 || q.x1 > fp.width_um() + 1e-6 ||
        q.y1 > fp.height_um() + 1e-6) {
      return false;
    }
    c_legal.add();
    if (!fp.region_free(block.tier, q)) {
      skip.grid_col = fp.rightmost_occupied_col(block.tier, q);
      return false;
    }
    if (const auto hit = buckets.overlaps_any(q, self)) {
      skip.sibling_x1 = std::max(skip.sibling_x1, hit->x1);
      return false;
    }
    return true;
  };

  // Soft blocks may reshape: each aspect candidate is scanned and the best
  // legal (position, shape) wins.  Mild aspect distortion is slightly
  // penalized so square shapes are preferred when space allows.
  constexpr double kAspects[] = {1.0, 2.0, 0.5, 3.0, 1.0 / 3.0, 4.0, 0.25};
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Reference scan (index off): every (aspect, y, x) lattice position in
  // order, naive legality, and a strict < so the first of equal-cost
  // candidates wins.
  const auto reference_scan = [&](std::size_t bi, double scan_step,
                                  double penalty_weight) -> Rect {
    const SoftBlock& block = blocks[bi];
    double best_cost = kInf;
    Rect best{};
    for (const double aspect_scale : kAspects) {
      const double aspect = block.aspect * aspect_scale;
      const double w = std::sqrt(block.area_um2 * aspect);
      const double h = std::sqrt(block.area_um2 / aspect);
      const double distortion_penalty =
          penalty_weight * fp.width_um() * std::abs(std::log(aspect_scale));
      for (double y = 0.0; y + h <= fp.height_um() + 1e-6; y += scan_step) {
        for (double x = 0.0; x + w <= fp.width_um() + 1e-6; x += scan_step) {
          const Rect rect = Rect::at(x, y, w, h);
          c_scanned.add();
          if (!legal_naive(fp, block, rect, rects, bi)) continue;
          const double cost = block_cost(block, rect, fixed) + distortion_penalty;
          if (cost < best_cost) {
            best_cost = cost;
            best = rect;
          }
        }
      }
    }
    return best;
  };

  // Exact best-first scan (index on; DESIGN.md §12).  It returns the
  // reference winner -- the minimum-cost legal candidate, smallest
  // (aspect, row, col) key among equals -- but prices and tests only
  // candidates that could still be that winner: rows in ascending order of
  // a cost lower bound, and in each row only the x-window priced at or
  // below the incumbent.  The scratch buffers only keep their capacity
  // across calls.
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<double> q_x0s;          // bin-expanded left edge per column
  std::vector<std::int64_t> bin_x0s;  // its first grid column
  std::vector<ScanRow> scan_rows;
  const auto best_first_scan = [&](std::size_t bi, double scan_step,
                                   double penalty_weight) -> Rect {
    const SoftBlock& block = blocks[bi];
    double anchor_x_min = kInf;
    double anchor_x_max = -kInf;
    for (const auto& [index, weight] : block.affinities) {
      anchor_x_min = std::min(anchor_x_min, fixed[index].rect.center().x);
      anchor_x_max = std::max(anchor_x_max, fixed[index].rect.center().x);
    }
    std::array<ScanShape, std::size(kAspects)> shapes;
    xs.clear();
    ys.clear();
    scan_rows.clear();
    for (std::size_t a = 0; a < shapes.size(); ++a) {
      ScanShape& s = shapes[a];
      const double aspect = block.aspect * kAspects[a];
      s.w = std::sqrt(block.area_um2 * aspect);
      s.h = std::sqrt(block.area_um2 / aspect);
      s.penalty =
          penalty_weight * fp.width_um() * std::abs(std::log(kAspects[a]));
      // The reference loops' accumulated coordinates, bit for bit: every
      // aspect walks the same sequence and only stops at a different
      // length, so the lattices are shared prefixes.
      for (double x = 0.0; x + s.w <= fp.width_um() + 1e-6; x += scan_step) {
        if (s.cols++ == xs.size()) xs.push_back(x);
      }
      std::size_t rows = 0;
      for (double y = 0.0; y + s.h <= fp.height_um() + 1e-6; y += scan_step) {
        if (rows++ == ys.size()) ys.push_back(y);
      }
      const auto centre_x = [&](std::size_t col) {
        return Rect::at(xs[col], 0.0, s.w, s.h).center().x;
      };
      s.left_end = first_true(0, s.cols, [&](std::size_t col) {
        return centre_x(col) > anchor_x_min;
      });
      s.right_begin = first_true(0, s.cols, [&](std::size_t col) {
        return centre_x(col) >= anchor_x_max;
      });
      for (std::size_t r = 0; r < rows; ++r) {
        const Rect rect = Rect::at(0.0, ys[r], s.w, s.h);
        scan_rows.push_back({row_bound(block, rect, fixed) + s.penalty, a, r});
      }
    }
    // Per column, the two inputs of RowSkip::covers, so a blocked run is
    // skipped without bin-expanding every probed candidate.
    q_x0s.clear();
    bin_x0s.clear();
    for (const double x : xs) {
      const Rect q = bin_expand(Rect::at(x, 0.0, 0.0, 0.0), bin);
      q_x0s.push_back(q.x0);
      bin_x0s.push_back(fp.bin_span(q).x0);
    }
    std::sort(scan_rows.begin(), scan_rows.end(),
              [](const ScanRow& a, const ScanRow& b) {
                return std::tie(a.bound, a.aspect, a.row) <
                       std::tie(b.bound, b.aspect, b.row);
              });

    double best_cost = kInf;
    Rect best{};
    ScanKey best_key;
    std::uint64_t scanned = 0;
    std::uint64_t skipped = 0;
    std::uint64_t pruned = 0;
    for (std::size_t i = 0; i < scan_rows.size(); ++i) {
      const ScanRow& row = scan_rows[i];
      if (row.bound > best_cost ||
          (row.bound == best_cost &&
           ScanKey{row.aspect, row.row, 0} > best_key)) {
        // Every remaining row is bounded at or above the incumbent and
        // either costs more or loses the tie.
        for (; i < scan_rows.size(); ++i) {
          pruned += shapes[scan_rows[i].aspect].cols;
        }
        break;
      }
      const ScanShape& s = shapes[row.aspect];
      const double y = ys[row.row];
      // Left of every anchor the cost does not increase with x, so the
      // columns priced above the incumbent there form a prefix.
      std::size_t col = first_true(0, s.left_end, [&](std::size_t c) {
        return block_cost(block, Rect::at(xs[c], y, s.w, s.h), fixed) +
                   s.penalty <= best_cost;
      });
      pruned += col;
      RowSkip skip;
      for (; col < s.cols; ++col) {
        const Rect rect = Rect::at(xs[col], y, s.w, s.h);
        const double cost = block_cost(block, rect, fixed) + s.penalty;
        const ScanKey key{row.aspect, row.row, col};
        if (!(cost < best_cost || (cost == best_cost && key < best_key))) {
          if (col >= s.right_begin && cost > best_cost) {
            // Right of every anchor the cost only grows from here.
            pruned += s.cols - col;
            break;
          }
          ++pruned;
          continue;
        }
        if (skip.covers(q_x0s[col], bin_x0s[col])) {
          // covers() is monotone in x: jump past the whole blocked run.
          ++skipped;
          col = first_true(col + 1, s.cols, [&](std::size_t c) {
                  return !skip.covers(q_x0s[c], bin_x0s[c]);
                }) - 1;
          continue;
        }
        ++scanned;
        if (!legal_fast(block, bin_expand(rect, bin), bi, skip)) continue;
        best_cost = cost;
        best = rect;
        best_key = key;
        if (best_cost <= row.bound) {
          // The rest of the row costs at least the bound and loses ties.
          pruned += s.cols - col - 1;
          break;
        }
      }
    }
    c_scanned.add(scanned);
    c_skipped.add(skipped);
    c_pruned.add(pruned);
    return best;
  };

  const auto try_place = [&](std::size_t bi, double scan_step,
                             double penalty_weight) -> Rect {
    return fast ? best_first_scan(bi, scan_step, penalty_weight)
                : reference_scan(bi, scan_step, penalty_weight);
  };

  // First-fit bottom-left scan, ignoring affinities — the dense-packing
  // fallback when affinity-driven placement fragments the free space.
  const auto shelf_place = [&](std::size_t bi) -> Rect {
    const SoftBlock& block = blocks[bi];
    for (const double aspect_scale : kAspects) {
      const double aspect = block.aspect * aspect_scale;
      const double w = std::sqrt(block.area_um2 * aspect);
      const double h = std::sqrt(block.area_um2 / aspect);
      for (double y = 0.0; y + h <= fp.height_um() + 1e-6; y += fp.bin_um()) {
        RowSkip skip;
        for (double x = 0.0; x + w <= fp.width_um() + 1e-6; x += fp.bin_um()) {
          const Rect rect = Rect::at(x, y, w, h);
          if (fast) {
            const Rect q = bin_expand(rect, bin);
            if (skip.covers(fp, q)) {
              c_skipped.add();
              continue;
            }
            c_scanned.add();
            if (legal_fast(block, q, bi, skip)) return rect;
          } else {
            c_scanned.add();
            if (legal_naive(fp, block, rect, rects, bi)) return rect;
          }
        }
      }
    }
    return {};
  };

  const auto commit_rect = [&](std::size_t bi, const Rect& rect) {
    rects[bi] = rect;
    if (fast && rect.valid()) buckets.insert(bi, bin_expand(rect, bin));
  };

  bool any_failed = false;
  for (const std::size_t bi : order) {
    expects(blocks[bi].area_um2 > 0.0,
            "soft block area must be positive: " + blocks[bi].name);
    Rect best = try_place(bi, step, 0.02);
    if (!best.valid()) {
      // Second chance: finer scan, any shape accepted.
      best = try_place(bi, step / 2.0, 0.0);
    }
    if (!best.valid()) any_failed = true;
    commit_rect(bi, best);
  }

  if (any_failed) {
    // Affinity-driven placement fragmented the free space; redo the whole
    // placement as a dense bottom-left shelf packing (feasibility first,
    // wirelength second), then let annealing recover locality.
    std::fill(rects.begin(), rects.end(), Rect{});
    buckets.clear();
    for (const std::size_t bi : order) {
      commit_rect(bi, shelf_place(bi));
      if (!rects[bi].valid()) result.unplaced.push_back(blocks[bi].name);
    }
  }

  // Annealing refinement: random relocations, accept downhill (or uphill
  // with Boltzmann probability).
  double temperature = options_.initial_temperature;
  const std::int64_t cols =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(fp.width_um() / step));
  const std::int64_t rows =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(fp.height_um() / step));
  for (int move = 0; move < options_.anneal_moves && !blocks.empty(); ++move) {
    const std::size_t bi = static_cast<std::size_t>(rng.below(blocks.size()));
    if (!rects[bi].valid()) continue;
    const SoftBlock& block = blocks[bi];
    const double x = static_cast<double>(rng.below(static_cast<std::uint64_t>(cols))) * step;
    const double y = static_cast<double>(rng.below(static_cast<std::uint64_t>(rows))) * step;
    // Keep the shape chosen by the constructive pass.
    const Rect candidate =
        Rect::at(x, y, rects[bi].width(), rects[bi].height());
    c_scanned.add();
    if (fast) {
      RowSkip skip;  // single candidate; the hints are unused
      const Rect q = bin_expand(candidate, bin);
      if (!legal_fast(block, q, bi, skip)) continue;
    } else {
      if (!legal_naive(fp, block, candidate, rects, bi)) continue;
    }
    const double old_cost = block_cost(block, rects[bi], fixed);
    const double new_cost = block_cost(block, candidate, fixed);
    const double delta = new_cost - old_cost;
    if (delta < 0.0 || rng.uniform() < std::exp(-delta / temperature)) {
      if (fast) {
        buckets.remove(bi, bin_expand(rects[bi], bin));
        buckets.insert(bi, bin_expand(candidate, bin));
      }
      rects[bi] = candidate;
    }
    temperature *= options_.cooling;
  }

  // Commit to the floorplan.
  result.success = result.unplaced.empty();
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    if (!rects[bi].valid()) continue;
    const bool ok = fp.allocate_region(blocks[bi].tier, rects[bi]);
    ensures(ok, "placement committed an illegal region: " + blocks[bi].name);
    Macro m;
    m.name = blocks[bi].name;
    m.kind = MacroKind::kSramBuffer;  // generic soft block marker
    m.width_um = rects[bi].width();
    m.height_um = rects[bi].height();
    result.blocks.push_back({m, rects[bi]});
    result.source_index.push_back(bi);
    result.total_hpwl_um += block_cost(blocks[bi], rects[bi], fixed);
  }
  return result;
}

}  // namespace uld3d::phys
