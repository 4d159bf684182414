// End-to-end benchmark harness for the uld3d library.
//
// One closed-loop client calls the same public entry points as the CLI's
// `datasheet`, `sweep --mapper` and the Fig. 7 bench, one op at a time, over
// a fixed-length op sequence derived from --seed (never from elapsed time).
// Each workload runs in its own process with an explicit jobs count.
//
//   uld3d_perfbench --workload datasheet|search_cold|sweep_warm --seed N
//                   --seconds S --trace 0|1 [--ops N] [--corrupt-op I]
//                   [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs every op twice
// (tracing off, then on, alternating the order) and prints the per-layer
// metrics read from the library's own counters and spans.  The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md in this directory.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "uld3d/accel/case_study.hpp"
#include "uld3d/accel/chip_summary.hpp"
#include "uld3d/core/edp_model.hpp"
#include "uld3d/core/workload.hpp"
#include "uld3d/dse/sweep.hpp"
#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/mapper/map_cache_file.hpp"
#include "uld3d/mapper/spatial_search.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/nn/generator.hpp"
#include "uld3d/nn/zoo.hpp"
#include "uld3d/phys/m3d_flow.hpp"
#include "uld3d/tech/pdk.hpp"
#include "uld3d/util/metrics.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/rng.hpp"
#include "uld3d/util/status.hpp"
#include "uld3d/util/trace.hpp"

namespace {

using namespace uld3d;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Output digests: FNV-1a over the exact bit patterns of a result, so "equal
// digest" means "bit-identical" for the fields folded in.

class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void digest_design(Digest& d, const phys::DesignReport& r) {
  d.i64(r.feasible ? 1 : 0);
  d.i64(static_cast<std::int64_t>(r.unplaced.size()));
  for (const double v :
       {r.die_width_um, r.die_height_um, r.footprint_mm2, r.si_utilization,
        r.intra_cs_wirelength_um, r.placement_hpwl_um,
        r.inter_block_wirelength_um, r.total_wirelength_um,
        r.congestion_peak, r.congestion_overflow, r.timing.critical_path_ns,
        r.timing.achieved_frequency_mhz, r.timing.slack_ns, r.total_power_mw,
        r.upper_tier_power_fraction, r.peak_density_mw_per_mm2}) {
    d.f64(v);
  }
  d.i64(r.cs_placed);
  d.i64(r.buffers);
  d.i64(r.ilv_count);
  for (const auto* placed : {&r.placed_macros, &r.placed_blocks}) {
    for (const auto& m : *placed) {
      d.str(m.macro.name);
      d.f64(m.rect.x0);
      d.f64(m.rect.y0);
      d.f64(m.rect.x1);
      d.f64(m.rect.y1);
    }
  }
}

std::uint64_t digest_summary(const accel::ChipSummary& s) {
  Digest d;
  digest_design(d, s.physical.design_2d);
  digest_design(d, s.physical.design_3d);
  d.i64(s.physical.iso_footprint ? 1 : 0);
  for (const double v :
       {s.physical.wirelength_per_cs_ratio, s.physical.peak_density_ratio,
        s.power_2d_mw, s.power_3d_mw, s.inference_ms_2d, s.inference_ms_3d,
        s.workload.speedup, s.workload.energy_ratio, s.workload.edp_benefit,
        s.workload.run_2d.total_energy_pj, s.workload.run_3d.total_energy_pj}) {
    d.f64(v);
  }
  d.i64(s.workload.run_2d.total_cycles);
  d.i64(s.workload.run_3d.total_cycles);
  for (const auto& layer : s.workload.layers) {
    d.i64(layer.cycles_2d);
    d.i64(layer.cycles_3d);
    d.f64(layer.energy_ratio);
  }
  return d.value();
}

void digest_network_cost(Digest& d, const mapper::NetworkCost& c) {
  d.f64(c.latency_cycles);
  d.f64(c.energy_pj);
  for (const auto& l : c.layers) {
    d.str(l.mapping_order);
    for (const double v : {l.latency_cycles, l.compute_cycles, l.rram_cycles,
                           l.energy_pj, l.mac_energy_pj, l.buffer_energy_pj,
                           l.rram_energy_pj, l.idle_energy_pj, l.utilization}) {
      d.f64(v);
    }
    d.i64(l.cs_used);
  }
}

// ---------------------------------------------------------------------------
// Process-level measurements.

double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// VmHWM of this process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Fixed host-speed probe: the median wall time of a short dependent
/// integer/floating-point chain.  A diagnostic printed before and after the
/// timed phase, so a run that landed on a slow vCPU can be told apart from
/// a regression; it is not a gated metric.
double host_probe_ms() {
  std::vector<double> samples;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += std::sqrt(static_cast<double>(x & 0xffff) + acc * 1e-9);
    }
    sink = sink + acc;
    samples.push_back(ms_between(t0, Clock::now()));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Linear-interpolated quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Trace analysis: per-name total and self time of the spans one op recorded.
// A span's self time is its duration minus the durations of the spans
// directly nested in it on the same thread.

struct SpanTimes {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;
};

SpanTimes span_times(std::vector<TraceEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.dur_us > b.dur_us;
            });
  SpanTimes out;
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    while (!stack.empty()) {
      const TraceEvent& top = events[stack.back()];
      if (top.tid == e.tid && e.ts_us < top.ts_us + top.dur_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_us[stack.back()] += e.dur_us;
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    out.total_ms[events[i].name] += events[i].dur_us * 1e-3;
    out.self_ms[events[i].name] +=
        std::max(0.0, events[i].dur_us - child_us[i]) * 1e-3;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer metric catalogue, printed in this order by every traced run.
// Unless noted in README.md, a value is the mean per traced op.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kLayerMetrics[] = {
    {"phys.design_2d_ms", "ms"},
    {"phys.design_3d_ms", "ms"},
    {"phys.floorplan_ms", "ms"},
    {"phys.place_ms", "ms"},
    {"phys.route_ms", "ms"},
    {"phys.timing_ms", "ms"},
    {"phys.power_ms", "ms"},
    {"phys.placer.candidates_scanned", "count"},
    {"phys.placer.candidates_skipped", "count"},
    {"phys.placer.legal_checks", "count"},
    {"phys.flow.designs", "count"},
    {"phys.flow.useful_design_frac", "frac"},
    {"sim.run_ms", "ms"},
    {"accel.flow_input_ms", "ms"},
    {"mapper.search_net_ms", "ms"},
    {"mapper.spatial_search_ms", "ms"},
    {"mapper.fixed_ms", "ms"},
    {"mapper.temporal.calls", "count"},
    {"mapper.temporal.candidates", "count"},
    {"mapper.spatial.searches", "count"},
    {"mapper.spatial.candidates", "count"},
    {"mapper.spatial.pruned", "count"},
    {"mapper.spatial.lb_pruned", "count"},
    {"mapper.batch.batched_candidates", "count"},
    {"mapper.batch.scalar_fallback_calls", "count"},
    {"mapper.mapcache.hits", "count"},
    {"mapper.mapcache.misses", "count"},
    {"mapper.mapcache.hit_frac", "frac"},
    {"mapper.spatial.priced_frac", "frac"},
    {"mapper.ns_per_candidate", "ns"},
    {"mapper.cache_clear_ms", "ms"},
    {"mapper.store_load_ms", "ms"},
    {"mapper.store_entries", "count"},
    {"mapper.store_mb", "MB"},
    {"dse.sweep_ms", "ms"},
    {"core.point_us", "us"},
    {"mapper.point_us", "us"},
    {"dse.overhead_frac", "frac"},
    {"dse.sweep.points", "count"},
    {"dse.sweep.failed", "count"},
    {"dse.sweep.dedup_unique", "count"},
    {"dse.sweep.dedup_aliased", "count"},
    {"mapper.mapcache.file_hits", "count"},
    {"mapper.mapcache.file_hit_frac", "frac"},
    {"nn.build_ms", "ms"},
    {"tech.pdk_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"fail_frac", "frac"},
};

/// Library counters read (as per-op deltas) around every traced op.
constexpr const char* kCounters[] = {
    "phys.placer.candidates_scanned", "phys.placer.candidates_skipped",
    "phys.placer.legal_checks",       "phys.flow.designs",
    "phys.flow.infeasible",           "mapper.temporal.calls",
    "mapper.temporal.candidates",     "mapper.spatial.searches",
    "mapper.spatial.candidates",      "mapper.spatial.pruned",
    "mapper.spatial.lb_pruned",       "mapper.batch.batched_candidates",
    "mapper.batch.scalar_fallback_calls", "mapper.mapcache.hits",
    "mapper.mapcache.misses",         "mapper.mapcache.file_hits",
    "dse.sweep.points",               "dse.sweep.failed",
    "dse.sweep.dedup_unique",         "dse.sweep.dedup_aliased",
};

/// Sums of per-layer quantities over the traced ops (and set-up values that
/// are reported as-is).
using LayerSums = std::map<std::string, double>;

void set_tracing(bool on) {
  MetricsRegistry::set_enabled(on);
  TraceRecorder::instance().set_enabled(on);
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Worker threads the workload runs with (set explicitly, never implied).
  [[nodiscard]] virtual int jobs() const = 0;
  /// Ops per second of --seconds: sizes the fixed op count from the
  /// requested run length without ever reading a clock.
  [[nodiscard]] virtual double ops_per_second() const = 0;
  /// Build inputs and references for an `n_ops` sequence; `setup` receives
  /// set-up-time layer values (nn.build_ms, tech.pdk_ms, store_*).
  virtual void setup(std::uint64_t seed, std::size_t n_ops,
                     LayerSums& setup) = 0;
  /// Leading ops of the sequence run once, untimed, at the end of set-up.
  [[nodiscard]] virtual std::size_t warmup_ops() const { return 1; }
  /// Work done before op `i` outside its timed interval.
  virtual void before_op(std::size_t /*i*/, bool /*traced*/, LayerSums&) {}
  /// Run op `i` (the timed interval) and keep its result.
  virtual void run_op(std::size_t i, bool traced, LayerSums& sums) = 0;
  /// Check the kept result of op `i` outside the timed interval; true iff
  /// it passes every check.  `corrupt` perturbs the result first
  /// (benchmark self-test).
  [[nodiscard]] virtual bool check_op(std::size_t i, bool corrupt) = 0;
  /// Untimed per-layer probes after a traced op.
  virtual void after_traced_op(std::size_t /*i*/, LayerSums&) {}
  /// Digest of every distinct simulated output, in canonical input order.
  [[nodiscard]] virtual std::uint64_t output_digest() const = 0;
};

template <typename F>
auto timed_ms(double& ms, F&& f) {
  const auto t0 = Clock::now();
  auto result = f();
  ms += ms_between(t0, Clock::now());
  return result;
}

/// Seeded random networks of fixed depth (`stages` x `blocks`, residual
/// choices and layer shapes drawn by the generator), so the op cost varies
/// with shapes but its mean is steady across seeds.
std::vector<nn::Network> random_networks(Rng& rng, std::size_t count,
                                         int stages, int blocks) {
  nn::GeneratorOptions options;
  options.min_stages = options.max_stages = stages;
  options.min_blocks_per_stage = options.max_blocks_per_stage = blocks;
  options.input_size = 64;
  std::vector<nn::Network> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(nn::random_network(rng, options));
  }
  return out;
}

/// `n_ops` draws from [0, pool) in seeded order, each value equally often.
std::vector<std::size_t> balanced_order(Rng& rng, std::size_t n_ops,
                                        std::size_t pool) {
  std::vector<std::size_t> order(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) order[i] = i % pool;
  for (std::size_t i = n_ops; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

// --- datasheet: the coupled sim + Fig. 4b physical flow ---------------------

class DatasheetWorkload final : public Workload {
 public:
  int jobs() const override { return 1; }
  double ops_per_second() const override { return 7.0; }
  std::size_t warmup_ops() const override { return kBlock; }  // both classes

  void setup(std::uint64_t seed, std::size_t n_ops, LayerSums& setup) override {
    Rng rng(seed);
    const auto t0 = Clock::now();
    for (const auto& name : nn::zoo_names()) {
      nets_.push_back(nn::make_network(name));
    }
    for (auto& net : random_networks(rng, 6, 4, 2)) {
      nets_.push_back(std::move(net));
    }
    setup["nn.build_ms"] = ms_between(t0, Clock::now());
    const auto t1 = Clock::now();
    for (const double mb : {64.0, 128.0}) {
      accel::CaseStudy study;
      study.pdk = tech::FoundryM3dPdk::make_130nm();
      // 64 MB: 8 CSs, the paper's design point; 128 MB: 15 CSs.
      study.rram_capacity_mb = mb;
      studies_.push_back(study);
    }
    setup["tech.pdk_ms"] = ms_between(t1, Clock::now());
    // Exactly one op in each block of four is a 128 MB op, at a seeded
    // position, so p50 falls inside the 8-CS class and p90 inside the
    // 15-CS class, and both classes spread evenly over the run.
    const std::vector<std::size_t> net =
        balanced_order(rng, n_ops, nets_.size());
    std::size_t big = 0;
    for (std::size_t i = 0; i < n_ops; ++i) {
      if (i % kBlock == 0) big = i + rng.below(kBlock);
      ops_.push_back({i == big ? 1u : 0u, net[i]});
    }
  }

  void run_op(std::size_t i, bool, LayerSums&) override {
    result_ =
        accel::summarize_chip(studies_[ops_[i].study], nets_[ops_[i].net]);
  }

  bool check_op(std::size_t i, bool corrupt) override {
    accel::ChipSummary& s = result_;
    if (corrupt) s.physical.design_3d.cs_placed += 1;
    const std::int64_t expected_cs = studies_[ops_[i].study].m3d_cs_count();
    const std::uint64_t digest = digest_summary(s);
    // The first result for an input is its reference; later ones must be
    // bit-identical to it.
    const auto [it, first] = reference_.emplace(key(ops_[i]), digest);
    return s.physical.design_2d.feasible && s.physical.design_3d.feasible &&
           s.physical.iso_footprint &&
           s.physical.design_3d.cs_placed == expected_cs &&
           (first || it->second == digest);
  }

  void after_traced_op(std::size_t i, LayerSums& sums) override {
    const accel::CaseStudy& study = studies_[ops_[i].study];
    const nn::Network& net = nets_[ops_[i].net];
    (void)timed_ms(sums["accel.flow_input_ms"], [&] {
      return std::make_pair(accel::derive_flow_input(study, net, false),
                            accel::derive_flow_input(study, net, true));
    });
    (void)timed_ms(sums["sim.run_ms"], [&] { return study.run(net); });
  }

  std::uint64_t output_digest() const override {
    Digest d;
    for (const auto& [k, v] : reference_) {
      d.i64(static_cast<std::int64_t>(k));
      d.i64(static_cast<std::int64_t>(v));
    }
    return d.value();
  }

 private:
  struct Op {
    std::size_t study;
    std::size_t net;
  };
  static constexpr std::size_t kBlock = 4;
  static std::size_t key(const Op& op) { return op.net * 2 + op.study; }

  std::vector<nn::Network> nets_;
  std::vector<accel::CaseStudy> studies_;
  std::vector<Op> ops_;
  accel::ChipSummary result_;
  std::map<std::size_t, std::uint64_t> reference_;
};

// --- search_cold: mapper spatial + temporal search from an empty cache -------

class SearchColdWorkload final : public Workload {
 public:
  int jobs() const override { return 1; }
  double ops_per_second() const override { return 40.0; }

  void setup(std::uint64_t seed, std::size_t n_ops, LayerSums& setup) override {
    Rng rng(seed);
    const auto t0 = Clock::now();
    nets_ = random_networks(rng, kPool, 4, 2);
    setup["nn.build_ms"] = ms_between(t0, Clock::now());
    const auto t1 = Clock::now();
    const auto pdk = tech::FoundryM3dPdk::make_130nm();
    setup["tech.pdk_ms"] = ms_between(t1, Clock::now());
    archs_ = mapper::table2_architectures();
    for (const auto& arch : archs_) {
      n_geom_.push_back(mapper::m3d_parallel_cs(arch, pdk));
    }
    order_ = balanced_order(rng, n_ops, kPool);
    for (const nn::Network& net : nets_) {
      mapper::MapCache::instance().clear();
      reference_.push_back(search(net, nullptr));
    }
  }

  void before_op(std::size_t, bool traced, LayerSums& sums) override {
    const auto t0 = Clock::now();
    mapper::MapCache::instance().clear();
    if (traced) sums["mapper.cache_clear_ms"] += ms_between(t0, Clock::now());
  }

  void run_op(std::size_t i, bool traced, LayerSums& sums) override {
    result_ = search(nets_[order_[i]],
                     traced ? &sums["mapper.search_net_ms"] : nullptr);
  }

  bool check_op(std::size_t i, bool corrupt) override {
    const std::vector<mapper::SearchedNetworkCost>& ref = reference_[order_[i]];
    if (result_.size() != ref.size()) return false;
    if (corrupt) {
      double& latency = result_[0].searched.latency_cycles;
      latency = std::nextafter(latency, 0.0);
    }
    bool ok = true;
    for (std::size_t k = 0; k < result_.size(); ++k) {
      const mapper::SearchedNetworkCost& r = result_[k];
      ok = ok && r.searched.edp() <= r.fixed.edp() &&
           digest(r) == digest(ref[k]);
    }
    return ok;
  }

  std::uint64_t output_digest() const override {
    Digest d;
    for (const auto& results : reference_) {
      for (const auto& r : results) d.i64(static_cast<std::int64_t>(digest(r)));
    }
    return d.value();
  }

 private:
  static constexpr std::size_t kPool = 32;

  static std::uint64_t digest(const mapper::SearchedNetworkCost& r) {
    Digest d;
    digest_network_cost(d, r.fixed);
    digest_network_cost(d, r.searched);
    return d.value();
  }

  /// All six Table II architectures at n_cs = 1 and at m3d_parallel_cs.
  std::vector<mapper::SearchedNetworkCost> search(const nn::Network& net,
                                                  double* search_ms) const {
    const mapper::SystemCosts sys;
    std::vector<mapper::SearchedNetworkCost> out;
    for (std::size_t a = 0; a < archs_.size(); ++a) {
      for (const std::int64_t n : {std::int64_t{1}, n_geom_[a]}) {
        const auto t0 = Clock::now();
        out.push_back(
            mapper::evaluate_network_with_search(net, archs_[a], sys, n));
        if (search_ms != nullptr) *search_ms += ms_between(t0, Clock::now());
      }
    }
    return out;
  }

  std::vector<nn::Network> nets_;
  std::vector<mapper::Architecture> archs_;
  std::vector<std::int64_t> n_geom_;
  std::vector<std::size_t> order_;
  std::vector<std::vector<mapper::SearchedNetworkCost>> reference_;
  std::vector<mapper::SearchedNetworkCost> result_;
};

// --- sweep_warm: Fig. 7 validation sweep against a warm map-cache store ------

class SweepWarmWorkload final : public Workload {
 public:
  explicit SweepWarmWorkload(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}
  ~SweepWarmWorkload() override {
    if (!store_path_.empty()) std::remove(store_path_.c_str());
  }
  SweepWarmWorkload(const SweepWarmWorkload&) = delete;
  SweepWarmWorkload& operator=(const SweepWarmWorkload&) = delete;

  int jobs() const override { return 2; }
  double ops_per_second() const override { return 40.0; }

  void setup(std::uint64_t seed, std::size_t n_ops, LayerSums& setup) override {
    Rng rng(seed);
    const auto t0 = Clock::now();
    nets_ = random_networks(rng, kPool + kExtra, 5, 3);
    setup["nn.build_ms"] = ms_between(t0, Clock::now());
    const auto t1 = Clock::now();
    pdk_ = tech::FoundryM3dPdk::make_130nm();
    setup["tech.pdk_ms"] = ms_between(t1, Clock::now());
    archs_ = mapper::table2_architectures();
    for (auto& arch : archs_) {
      std::vector<std::int64_t> by_cap;
      for (const double cap : kCapacities) {
        arch.rram_capacity_bits = cap * 8.0 * 1024.0 * 1024.0;
        by_cap.push_back(mapper::m3d_parallel_cs(arch, pdk_));
      }
      n_geom_.push_back(by_cap);
    }
    // Each op sweeps kPerOp distinct pool networks chosen by the seed.
    for (std::size_t i = 0; i < n_ops; ++i) {
      std::vector<double> pool(kPool);
      std::iota(pool.begin(), pool.end(), 0.0);
      for (std::size_t k = 0; k < kPerOp; ++k) {
        std::swap(pool[k], pool[k + rng.below(kPool - k)]);
      }
      pool.resize(kPerOp);
      std::sort(pool.begin(), pool.end());
      op_nets_.push_back(pool);
    }

    // Cold fixture pass over every network (the pool plus extra networks,
    // so the store is several times one op's working set), then persist.
    std::vector<double> all_nets(nets_.size());
    std::iota(all_nets.begin(), all_nets.end(), 0.0);
    mapper::MapCache& cache = mapper::MapCache::instance();
    cache.clear();
    const dse::SweepResult fixture = sweep(all_nets, false);
    for (const auto& row : fixture.rows()) {
      if (row.params[4] != kBudgets[0]) continue;  // the blind axis aliases
      reference_[point_index(row.params)] =
          row.ok() ? std::optional<std::vector<double>>(row.metrics)
                   : std::nullopt;
    }
    store_path_ = work_dir_ + "/mapcache_sweep_warm_" +
                  std::to_string(seed) + ".bin";
    (void)mapper::save_map_cache_file(store_path_);
    cache.clear();
    const auto t2 = Clock::now();
    const std::size_t entries = mapper::load_map_cache_file(store_path_);
    setup["mapper.store_load_ms"] = ms_between(t2, Clock::now());
    setup["mapper.store_entries"] = static_cast<double>(entries);
    setup["mapper.store_mb"] =
        static_cast<double>(std::filesystem::file_size(store_path_)) /
        (1024.0 * 1024.0);
  }

  void run_op(std::size_t i, bool traced, LayerSums& sums) override {
    const std::uint64_t misses = mapper::MapCache::instance().misses();
    busy_ns_ = core_ns_ = mapper_ns_ = priced_ = 0;
    const auto t0 = Clock::now();
    result_ = sweep(op_nets_[i], traced);
    const double wall_ms = ms_between(t0, Clock::now());
    new_misses_ = mapper::MapCache::instance().misses() - misses;
    if (traced) {
      const double points =
          static_cast<double>(std::max<std::int64_t>(priced_, 1));
      sums["dse.sweep_ms"] += wall_ms;
      sums["core.point_us"] += static_cast<double>(core_ns_) * 1e-3 / points;
      sums["mapper.point_us"] +=
          static_cast<double>(mapper_ns_) * 1e-3 / points;
      sums["dse.overhead_frac"] +=
          1.0 - static_cast<double>(busy_ns_) * 1e-6 / (jobs() * wall_ms);
    }
  }

  bool check_op(std::size_t i, bool corrupt) override {
    const auto& rows = result_->rows();
    bool ok = new_misses_ == 0 &&
              rows.size() == kArchs * op_nets_[i].size() *
                                 std::size(kCapacities) * std::size(kCsCounts) *
                                 std::size(kBudgets);
    std::size_t infeasible = 0;
    std::size_t expected_infeasible = 0;
    for (const auto& row : rows) {
      const auto it = reference_.find(point_index(row.params));
      if (it == reference_.end()) return false;
      if (!it->second.has_value()) ++expected_infeasible;
      if (!row.ok()) {
        ok = ok && row.failure->code == ErrorCode::kInfeasiblePoint;
        ++infeasible;
        continue;
      }
      std::vector<double> metrics = row.metrics;
      if (corrupt) metrics[2] = std::nextafter(metrics[2], 0.0);
      ok = ok && it->second.has_value() &&
           it->second->size() == metrics.size() &&
           std::memcmp(metrics.data(), it->second->data(),
                       metrics.size() * sizeof(double)) == 0;
    }
    return ok && infeasible == expected_infeasible;
  }

  std::uint64_t output_digest() const override {
    Digest d;
    for (const auto& [k, v] : reference_) {
      d.i64(static_cast<std::int64_t>(k));
      if (v.has_value()) {
        for (const double x : *v) d.f64(x);
      }
    }
    return d.value();
  }

 private:
  static constexpr std::size_t kPool = 24;
  static constexpr std::size_t kPerOp = 12;
  static constexpr std::size_t kExtra = 104;
  static constexpr std::size_t kArchs = 6;
  static constexpr double kCapacities[] = {16.0, 32.0, 64.0, 128.0};
  static constexpr double kCsCounts[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  // Evaluator-blind thermal-budget axis (W): sweep-point dedup collapses it.
  static constexpr double kBudgets[] = {4.0, 8.0};

  static std::size_t index_of(const double* values, std::size_t n, double v) {
    return static_cast<std::size_t>(std::find(values, values + n, v) - values);
  }
  static std::size_t cap_index(double mb) {
    return index_of(kCapacities, std::size(kCapacities), mb);
  }
  /// Dense index over the axes the evaluator reads (all but the budget).
  static std::size_t point_index(const std::vector<double>& p) {
    const std::size_t caps = std::size(kCapacities);
    const std::size_t ns = std::size(kCsCounts);
    const auto net = static_cast<std::size_t>(p[1]);
    const auto arch = static_cast<std::size_t>(p[0]);
    return ((net * kArchs + arch) * caps + cap_index(p[2])) * ns +
           index_of(kCsCounts, ns, p[3]);
  }

  /// Analytic Sec. III price of one design point, as the Fig. 7 bench does.
  static core::EdpResult analytic(const nn::Network& net,
                                  const mapper::Architecture& arch,
                                  const mapper::SystemCosts& sys,
                                  std::int64_t n_cs) {
    core::Chip2d c2;
    c2.bandwidth_bits_per_cycle = arch.rram_bandwidth_bits_per_cycle;
    c2.peak_ops_per_cycle = 2.0 * static_cast<double>(arch.spatial.total_pes());
    c2.alpha_pj_per_bit = arch.rram_read_pj_per_bit;
    c2.compute_pj_per_op = arch.mac_energy_pj / 2.0;
    c2.cs_idle_pj_per_cycle = sys.cs_idle_pj_per_cycle;
    c2.mem_idle_pj_per_cycle = sys.mem_idle_pj_per_cycle;
    core::Chip3d c3;
    c3.parallel_cs = n_cs;
    c3.bandwidth_bits_per_cycle =
        c2.bandwidth_bits_per_cycle * static_cast<double>(n_cs);
    c3.alpha_pj_per_bit = c2.alpha_pj_per_bit * sys.m3d_access_energy_scale;
    c3.mem_idle_pj_per_cycle =
        c2.mem_idle_pj_per_cycle *
        (1.0 + sys.extra_bank_idle_fraction * static_cast<double>(n_cs - 1));
    core::PartitionOptions part;
    part.array_cols = arch.spatial.k;
    part.array_rows = arch.spatial.c;
    part.spatial_ox = arch.spatial.ox;
    part.spatial_oy = arch.spatial.oy;
    part.channel_tap_packing = false;
    part.hybrid_pixel_partition = true;
    std::vector<core::EdpResult> per_layer;
    for (const auto& w :
         core::layer_workloads(net, core::TrafficOptions{}, part)) {
      per_layer.push_back(core::evaluate_edp(w, c2, c3));
    }
    return core::combine_results(per_layer);
  }

  /// One run_sweep over arch x `nets` x capacity x n_cs x budget; every
  /// point is priced analytically and by the mapper (2D and M3D), and
  /// returns the analytic/mapper EDP-benefit ratio (the Fig. 7 check).
  dse::SweepResult sweep(const std::vector<double>& nets, bool timed) {
    dse::Grid grid;
    grid.axis("arch", {0.0, 1.0, 2.0, 3.0, 4.0, 5.0})
        .axis("network", nets)
        .axis("capacity_mb", {std::begin(kCapacities), std::end(kCapacities)})
        .axis("n_cs", {std::begin(kCsCounts), std::end(kCsCounts)})
        .axis("budget_w", {std::begin(kBudgets), std::end(kBudgets)});
    const auto evaluate = [this, timed](const std::vector<double>& p) {
      const auto t0 = Clock::now();
      const auto a = static_cast<std::size_t>(p[0]);
      const nn::Network& net = nets_[static_cast<std::size_t>(p[1])];
      mapper::Architecture arch = archs_[a];
      arch.rram_capacity_bits = p[2] * 8.0 * 1024.0 * 1024.0;
      const auto n = static_cast<std::int64_t>(p[3]);
      const std::int64_t n_geom = n_geom_[a][cap_index(p[2])];
      if (n > n_geom) {
        throw StatusError(
            Failure(ErrorCode::kInfeasiblePoint,
                    "requested CS count does not fit the freed Si area")
                .with("n_cs", n)
                .with("n_geom", n_geom));
      }
      const mapper::SystemCosts sys;
      const core::EdpResult model = analytic(net, arch, sys, n);
      const auto t1 = Clock::now();
      const mapper::NetworkCost c2 =
          mapper::evaluate_network(net, arch, sys, 1);
      const mapper::NetworkCost c3 =
          mapper::evaluate_network(net, arch, sys, n);
      const double mapper_edp = c2.edp() / c3.edp();
      if (timed) {
        const auto t2 = Clock::now();
        const auto ns = [](Clock::time_point x, Clock::time_point y) {
          return std::chrono::duration_cast<std::chrono::nanoseconds>(y - x)
              .count();
        };
        core_ns_ += ns(t0, t1);
        mapper_ns_ += ns(t1, t2);
        busy_ns_ += ns(t0, t2);
        priced_ += 1;
      }
      return std::vector<double>{model.edp_benefit, mapper_edp,
                                 model.edp_benefit / mapper_edp};
    };
    dse::SweepOptions options;
    options.policy = dse::ErrorPolicy::kSkipAndRecord;
    options.jobs = jobs();
    options.point_key = [](const std::vector<double>& p) {
      return std::to_string(point_index(p));
    };
    return dse::run_sweep(
        grid, {"analytic_edp", "mapper_edp", "analytic_over_mapper"},
        evaluate, options);
  }

  std::string work_dir_;
  std::string store_path_;
  tech::FoundryM3dPdk pdk_ = tech::FoundryM3dPdk::make_130nm();
  std::vector<nn::Network> nets_;
  std::vector<mapper::Architecture> archs_;
  std::vector<std::vector<std::int64_t>> n_geom_;
  std::vector<std::vector<double>> op_nets_;
  std::map<std::size_t, std::optional<std::vector<double>>> reference_;
  std::optional<dse::SweepResult> result_;
  std::uint64_t new_misses_ = 0;
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::int64_t> core_ns_{0};
  std::atomic<std::int64_t> mapper_ns_{0};
  std::atomic<std::int64_t> priced_{0};
};

// ---------------------------------------------------------------------------
// Harness entry point.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  long ops = 0;          ///< fixed op count override (self-test quick mode)
  long corrupt_op = -1;  ///< op index whose result is perturbed (self-test)
  std::string work_dir = ".";
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--ops") {
      o.ops = std::stol(value);
    } else if (flag == "--corrupt-op") {
      o.corrupt_op = std::stol(value);
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "datasheet") return std::make_unique<DatasheetWorkload>();
  if (o.workload == "search_cold") {
    return std::make_unique<SearchColdWorkload>();
  }
  if (o.workload == "sweep_warm") {
    return std::make_unique<SweepWarmWorkload>(o.work_dir);
  }
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

std::map<std::string, std::uint64_t> read_counters() {
  std::map<std::string, std::uint64_t> out;
  MetricsRegistry& registry = MetricsRegistry::instance();
  for (const char* name : kCounters) out[name] = registry.counter(name).value();
  return out;
}

/// Moves every thread of the process on to the next `width` CPUs before
/// each op, outside the timed phase.  On a shared host each vCPU's speed
/// drifts on its own (by up to ~70%, for seconds to tens of seconds), so a
/// run the scheduler leaves on one vCPU is as fast as that vCPU happened
/// to be.  Rotating op by op makes every run sample all CPUs equally; over
/// 10 alternating pairs of `datasheet` runs it cut the run-to-run spread
/// of every timing metric by about a third.
class CpuRotation {
 public:
  explicit CpuRotation(int width) : width_(width) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
      }
    }
  }

  void next() {
    if (cpus_.size() <= static_cast<std::size_t>(width_)) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int k = 0; k < width_; ++k) {
      CPU_SET(cpus_[(calls_ + static_cast<std::size_t>(k)) % cpus_.size()],
              &set);
    }
    ++calls_;
    if (DIR* tasks = opendir("/proc/self/task")) {
      while (const dirent* entry = readdir(tasks)) {
        const int tid = std::atoi(entry->d_name);
        if (tid > 0) (void)sched_setaffinity(tid, sizeof set, &set);
      }
      closedir(tasks);
    }
  }

 private:
  int width_;
  std::size_t calls_ = 0;
  std::vector<int> cpus_;
};

/// Wall and process CPU time (all threads) of the timed phase: the sum of
/// the ops' intervals (before_op, the op and its check).
struct Phase {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

struct OpOutcome {
  double ms = 0.0;
  bool ok = false;
};

OpOutcome run_one(Workload& w, CpuRotation& cpus, std::size_t i,
                  bool corrupt, bool traced, LayerSums& sums, Phase& phase) {
  cpus.next();
  const auto p0 = Clock::now();
  const double c0 = process_cpu_ms();
  w.before_op(i, traced, sums);
  OpOutcome out;
  const auto t0 = Clock::now();
  try {
    w.run_op(i, traced, sums);
    out.ms = ms_between(t0, Clock::now());
    out.ok = w.check_op(i, corrupt);
  } catch (const std::exception& e) {
    out.ms = ms_between(t0, Clock::now());
    std::fprintf(stderr, "op %zu failed: %s\n", i, e.what());
  }
  phase.wall_ms += ms_between(p0, Clock::now());
  phase.cpu_ms += process_cpu_ms() - c0;
  return out;
}

void print_metric(std::string& json, bool& first, const std::string& name,
                  double value, const char* unit) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0, unit);
  json += buffer;
  first = false;
}

int run(const Options& o) {
  set_tracing(false);
  mapper::MapCache::instance().set_enabled(true);
  std::optional<CpuRotation> cpus;
  Phase untimed;
  LayerSums scratch;
  std::vector<double> setup_times;
  std::size_t n_ops = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // One timed set-up of a fresh workload object, ending with untimed
  // warm-up ops that fill the lazy state a user run pays for (map cache
  // instance, SIMD latch, thread pool, thread-local batches).
  const auto set_up = [&](LayerSums& values) {
    const auto t0 = Clock::now();
    std::unique_ptr<Workload> fresh = make_workload(o);
    parallel::set_jobs(fresh->jobs());
    if (!cpus) cpus.emplace(fresh->jobs());
    n_ops = o.ops > 0 ? static_cast<std::size_t>(o.ops)
                      : std::max<std::size_t>(
                            100, static_cast<std::size_t>(std::lround(
                                     o.seconds * fresh->ops_per_second())));
    fresh->setup(o.seed, n_ops, values);
    for (std::size_t i = 0; i < std::min(fresh->warmup_ops(), n_ops); ++i) {
      ++attempted;
      if (!run_one(*fresh, *cpus, i, false, false, scratch, untimed).ok) {
        ++failed;
      }
    }
    setup_times.push_back(ms_between(t0, Clock::now()) * 1e-3);
    return fresh;
  };
  LayerSums setup_values;
  std::unique_ptr<Workload> w = set_up(setup_values);
  // setup_s is the median of kSegments set-ups spread over the untraced
  // run: the op sequence runs in kSegments equal segments, each on a
  // freshly set-up workload object (same seed, so the same inputs and
  // references; the previous object is dropped first).  A set-up lasts
  // about a second, far shorter than the host's slow and fast phases, so
  // set-ups taken back to back would all land in one phase.
  constexpr std::size_t kSegments = 3;
  const auto next_segment = [&](std::size_t next_op) {
    for (std::size_t k = 1; k < kSegments; ++k) {
      if (next_op == n_ops * k / kSegments) {
        w.reset();
        LayerSums ignored;
        w = set_up(ignored);
      }
    }
  };

  const double probe_before = host_probe_ms();
  std::vector<double> lat_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  LayerSums sums;
  Phase phase;
  if (!o.trace) {
    for (std::size_t i = 0; i < n_ops; ++i) {
      next_segment(i);
      const bool corrupt = static_cast<long>(i) == o.corrupt_op;
      const OpOutcome r = run_one(*w, *cpus, i, corrupt, false, sums, phase);
      lat_ms.push_back(r.ms);
      ++attempted;
      if (!r.ok) ++failed;
    }
  } else {
    // Warm the tracing path itself (registry entries, recorder buffer).
    set_tracing(true);
    (void)run_one(*w, *cpus, 0, false, true, scratch, untimed);
    set_tracing(false);
    TraceRecorder::instance().clear();
    // Each op runs untraced and traced back to back; the order alternates
    // so host drift cancels out of trace.overhead_frac.
    const std::size_t pairs = std::max<std::size_t>(1, n_ops / 2);
    for (std::size_t i = 0; i < pairs; ++i) {
      for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
        const bool corrupt = traced && static_cast<long>(i) == o.corrupt_op;
        std::map<std::string, std::uint64_t> before;
        if (traced) {
          before = read_counters();
          set_tracing(true);
        }
        const OpOutcome r = run_one(*w, *cpus, i, corrupt, traced, sums, phase);
        ++attempted;
        if (!r.ok) ++failed;
        if (!traced) {
          untraced_ms.push_back(r.ms);
          continue;
        }
        set_tracing(false);
        traced_ms.push_back(r.ms);
        const std::map<std::string, std::uint64_t> after = read_counters();
        for (const auto& [name, value] : after) {
          sums[name] += static_cast<double>(value - before[name]);
        }
        const SpanTimes spans = span_times(TraceRecorder::instance().events());
        TraceRecorder::instance().clear();
        const auto total = [&](const char* name) {
          return spans.total_ms.count(name) ? spans.total_ms.at(name) : 0.0;
        };
        const auto self = [&](const char* name) {
          return spans.self_ms.count(name) ? spans.self_ms.at(name) : 0.0;
        };
        sums["phys.design_2d_ms"] += total("phys.flow.design_2d");
        sums["phys.design_3d_ms"] += total("phys.flow.design_m3d");
        sums["phys.floorplan_ms"] += self("phys.flow.floorplan");
        sums["phys.place_ms"] += self("phys.flow.place");
        sums["phys.route_ms"] += self("phys.flow.route");
        sums["phys.timing_ms"] += self("phys.flow.timing");
        sums["phys.power_ms"] += self("phys.flow.power");
        sums["mapper.spatial_search_ms"] += total("mapper.spatial_search");
        w->after_traced_op(i, sums);
      }
    }
  }
  std::sort(setup_times.begin(), setup_times.end());
  const double setup_s = setup_times[setup_times.size() / 2];
  const double wall_s = phase.wall_ms * 1e-3;
  const double cpu_ms = phase.cpu_ms;
  const double probe_after = host_probe_ms();

  std::printf("workload %s seed %llu jobs %d ops %zu\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), w->jobs(), n_ops);
  std::printf("output_digest %016llx\n",
              static_cast<unsigned long long>(w->output_digest()));
  std::printf("host_probe_ms before %.3f after %.3f\n", probe_before,
              probe_after);

  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::string json;
  bool first = true;
  if (!o.trace) {
    std::vector<double>& sorted = lat_ms;
    std::sort(sorted.begin(), sorted.end());
    const auto n = static_cast<double>(n_ops);
    const std::size_t beyond_p90 =
        sorted.size() - static_cast<std::size_t>(std::ceil(0.9 * n));
    std::printf("latency_samples %zu beyond_p90 %zu\n", sorted.size(),
                beyond_p90);
    print_metric(json, first, "ops_per_s", n / wall_s, "1/s");
    print_metric(json, first, "op_p50_ms", quantile(sorted, 0.5), "ms");
    print_metric(json, first, "op_p90_ms", quantile(sorted, 0.9), "ms");
    print_metric(json, first, "cpu_ms_per_op", cpu_ms / n, "ms");
    print_metric(json, first, "setup_s", setup_s, "s");
    print_metric(json, first, "peak_rss_mb", peak_rss_mb(), "MB");
    print_metric(json, first, "pass_frac", 1.0 - fail_frac, "frac");
  } else {
    const auto n =
        static_cast<double>(std::max<std::size_t>(traced_ms.size(), 1));
    LayerSums values;
    for (const auto& [name, sum] : sums) values[name] = sum / n;
    for (const auto& [name, value] : setup_values) values[name] = value;
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    values["mapper.fixed_ms"] =
        values["mapper.search_net_ms"] - values["mapper.spatial_search_ms"];
    values["phys.flow.useful_design_frac"] =
        ratio(values["phys.flow.designs"] - values["phys.flow.infeasible"],
              values["phys.flow.designs"]);
    const double hits = values["mapper.mapcache.hits"];
    const double lookups = hits + values["mapper.mapcache.misses"];
    values["mapper.mapcache.hit_frac"] = ratio(hits, lookups);
    values["mapper.mapcache.file_hit_frac"] =
        ratio(values["mapper.mapcache.file_hits"], lookups);
    values["mapper.spatial.priced_frac"] =
        ratio(values["mapper.spatial.candidates"] -
                  values["mapper.spatial.lb_pruned"],
              values["mapper.spatial.candidates"]);
    values["mapper.ns_per_candidate"] =
        ratio(values["mapper.search_net_ms"] * 1e6,
              values["mapper.temporal.candidates"]);
    const double traced_sum =
        std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0);
    const double untraced_sum =
        std::accumulate(untraced_ms.begin(), untraced_ms.end(), 0.0);
    values["trace.overhead_frac"] = 1.0 - ratio(untraced_sum, traced_sum);
    values["fail_frac"] = fail_frac;
    for (const MetricSpec& spec : kLayerMetrics) {
      print_metric(json, first, spec.name, values[spec.name], spec.unit);
    }
  }
  std::printf("wall_s %.3f cpu_s %.3f\n", wall_s, cpu_ms * 1e-3);
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed, json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uld3d_perfbench: %s\n", e.what());
    return 2;
  }
}
