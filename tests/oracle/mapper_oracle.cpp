#include "mapper_oracle.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "uld3d/util/math.hpp"

namespace uld3d::oracle {

namespace {

using mapper::OperandBuffers;
using mapper::OperandTraffic;

double buffer_energy(const OperandBuffers& buffers, const OperandTraffic& t) {
  return t.reg_bits * buffers.reg.access_energy_pj_per_bit +
         t.local_bits * buffers.local.access_energy_pj_per_bit +
         t.global_bits * buffers.global.access_energy_pj_per_bit;
}

double buffer_cycles(const OperandBuffers& buffers, const OperandTraffic& t) {
  double cycles = 0.0;
  if (t.local_bits > 0.0 && buffers.local.bandwidth_bits_per_cycle > 0.0) {
    cycles = std::max(cycles,
                      t.local_bits / buffers.local.bandwidth_bits_per_cycle);
  }
  if (t.global_bits > 0.0 && buffers.global.bandwidth_bits_per_cycle > 0.0) {
    cycles = std::max(
        cycles, t.global_bits / buffers.global.bandwidth_bits_per_cycle);
  }
  return cycles;
}

}  // namespace

mapper::LayerCost price_candidate_scalar(const nn::ConvSpec& conv,
                                         const mapper::TemporalMapping& m,
                                         const mapper::Architecture& arch,
                                         const mapper::SystemCosts& sys,
                                         std::int64_t n_cs) {
  mapper::LayerCost cost;
  cost.layer = conv.name;
  cost.mapping_order = m.order;
  cost.utilization = m.utilization;

  // Parallel partitioning: the (k_par, oy_par) split of K tiles and output
  // rows across CSs that maximizes used CSs, preferring larger k_par.
  const std::int64_t oy_outer = ceil_div(conv.oy, arch.spatial.oy);
  std::int64_t k_par = 1;
  std::int64_t oy_par = 1;
  for (std::int64_t k = 1; k <= std::min<std::int64_t>(n_cs, m.k_outer); ++k) {
    const std::int64_t oy = std::min<std::int64_t>(n_cs / k, oy_outer);
    if (k * oy >= k_par * oy_par) {
      k_par = k;
      oy_par = oy;
    }
  }
  const std::int64_t nmax = k_par * oy_par;
  cost.cs_used = nmax;
  const double share = 1.0 / static_cast<double>(nmax);

  cost.compute_cycles = m.compute_cycles * share;

  // RRAM port occupancy per CS: weights split along K, inputs along OY,
  // outputs fully split.
  const double rram_reads_per_cs =
      m.weights.rram_read_bits / static_cast<double>(k_par) +
      m.inputs.rram_read_bits / static_cast<double>(oy_par);
  const double rram_writes_per_cs = m.outputs.rram_write_bits * share;
  cost.rram_cycles = (rram_reads_per_cs + rram_writes_per_cs *
                                              sys.rram_write_occupancy) /
                     arch.rram_bandwidth_bits_per_cycle;

  const double buf_cycles =
      (buffer_cycles(arch.inputs, m.inputs) +
       buffer_cycles(arch.weights, m.weights) +
       buffer_cycles(arch.outputs, m.outputs)) *
      share;
  cost.latency_cycles =
      std::max({cost.compute_cycles, cost.rram_cycles, buf_cycles});

  // Energy (whole system; traffic volumes are per unique bit).
  const double macs = static_cast<double>(conv.k * conv.c * conv.ox * conv.oy *
                                          conv.fx * conv.fy);
  cost.mac_energy_pj = macs * arch.mac_energy_pj;
  cost.buffer_energy_pj = buffer_energy(arch.weights, m.weights) +
                          buffer_energy(arch.inputs, m.inputs) +
                          buffer_energy(arch.outputs, m.outputs);
  const double access_scale = n_cs > 1 ? sys.m3d_access_energy_scale : 1.0;
  cost.rram_energy_pj =
      access_scale *
      ((m.weights.rram_read_bits + m.inputs.rram_read_bits) *
           arch.rram_read_pj_per_bit +
       m.outputs.rram_write_bits * arch.rram_write_pj_per_bit);

  const double n = static_cast<double>(n_cs);
  const double bank_scale = 1.0 + sys.extra_bank_idle_fraction * (n - 1.0);
  const double mem_idle =
      sys.mem_idle_pj_per_cycle * bank_scale *
      std::max(0.0, cost.latency_cycles - cost.rram_cycles);
  const double nm = static_cast<double>(nmax);
  const double cs_idle =
      sys.cs_idle_pj_per_cycle *
      ((n - nm) * cost.latency_cycles +
       nm * std::max(0.0, cost.latency_cycles - cost.compute_cycles));
  cost.idle_energy_pj = mem_idle + cs_idle;

  cost.energy_pj = cost.mac_energy_pj + cost.buffer_energy_pj +
                   cost.rram_energy_pj + cost.idle_energy_pj;
  return cost;
}

mapper::LayerCost seed_best(
    const nn::ConvSpec& conv,
    const std::vector<mapper::TemporalMapping>& candidates,
    const mapper::Architecture& arch, const mapper::SystemCosts& sys,
    std::int64_t n_cs) {
  mapper::LayerCost best;
  double best_edp = std::numeric_limits<double>::infinity();
  for (const auto& m : candidates) {
    mapper::LayerCost c = price_candidate_scalar(conv, m, arch, sys, n_cs);
    const double edp = c.latency_cycles * c.energy_pj;
    if (edp < best_edp) {
      best_edp = edp;
      best = std::move(c);
    }
  }
  return best;
}

mapper::SpatialSearchResult exhaustive_search_spatial(
    const nn::ConvSpec& conv, const mapper::Architecture& arch,
    const mapper::SystemCosts& sys, std::int64_t n_cs) {
  mapper::SpatialSearchResult result;
  result.fixed_cost = mapper::evaluate_conv(conv, arch, sys, n_cs);
  result.best = arch.spatial;
  result.cost = result.fixed_cost;
  double best_edp =
      result.fixed_cost.latency_cycles * result.fixed_cost.energy_pj;
  const std::int64_t pes = arch.spatial.total_pes();
  for (std::int64_t k = 1; k <= pes; k *= 2) {
    for (std::int64_t c = 1; k * c <= pes; c *= 2) {
      for (std::int64_t ox = 1; k * c * ox <= pes; ox *= 2) {
        mapper::Architecture variant = arch;
        variant.spatial = {k, c, ox, pes / (k * c * ox)};
        const mapper::LayerCost cost =
            mapper::evaluate_conv(conv, variant, sys, n_cs);
        ++result.candidates;
        const double edp = cost.latency_cycles * cost.energy_pj;
        if (edp < best_edp) {
          best_edp = edp;
          result.best = variant.spatial;
          result.cost = cost;
        }
      }
    }
  }
  return result;
}

}  // namespace uld3d::oracle
