#include "uld3d/mapper/map_cache.hpp"

#include <cassert>
#include <cstring>

#include "uld3d/util/metrics.hpp"

namespace uld3d::mapper {

namespace {

/// Fills a Key's word array in a fixed field order and stamps the hash.
/// Ints and doubles both land as raw 64-bit patterns (so -0.0 vs 0.0 or
/// distinct NaN payloads conservatively read as different keys).
class KeyBuilder {
 public:
  explicit KeyBuilder(MapCache::Key& key) : key_(key) {}

  void add_i64(std::int64_t v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    add_word(bits);
  }

  void add_f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    add_word(bits);
  }

  void add_level(const BufferLevel& level) {
    add_f64(level.capacity_bits);
    add_f64(level.access_energy_pj_per_bit);
    add_f64(level.bandwidth_bits_per_cycle);
  }

  void add_buffers(const OperandBuffers& buffers) {
    add_level(buffers.reg);
    add_level(buffers.local);
    add_level(buffers.global);
  }

  /// Word-wise FNV-1a over the filled array; valid only when every slot is
  /// written (in-process bucket/shard picking only — never persisted).
  void finish() {
    assert(next_ == MapCache::kKeyWords);
    stamp_hash(key_);
  }

  static void stamp_hash(MapCache::Key& key) {
    std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
    for (const std::uint64_t w : key.words) {
      h ^= w;
      h *= 1099511628211ull;  // FNV prime
    }
    key.hash = h;
  }

 private:
  void add_word(std::uint64_t bits) {
    assert(next_ < MapCache::kKeyWords);
    key_.words[next_++] = bits;
  }

  MapCache::Key& key_;
  std::size_t next_ = 0;
};

/// Finalizer applied to a Key's FNV hash before masking it down to a
/// loaded-tier slot.  FNV-1a avalanches poorly in the low bits, and the
/// tier's open-addressing table is power-of-two sized — masking the raw
/// hash clusters real key sets badly enough that linear probing
/// degenerates.  (The sharded maps are immune: libstdc++ buckets modulo a
/// prime.)  This is splitmix64's mixer; in-process only, never persisted.
std::uint64_t mix_hash(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

MapCache& MapCache::instance() {
  static MapCache cache;
  return cache;
}

MapCache::Key MapCache::key(const nn::ConvSpec& conv, const Architecture& arch,
                            const SystemCosts& sys, std::int64_t n_cs) {
  Key key;
  KeyBuilder b(key);
  // ConvSpec (name excluded)
  b.add_i64(conv.k);
  b.add_i64(conv.c);
  b.add_i64(conv.ox);
  b.add_i64(conv.oy);
  b.add_i64(conv.fx);
  b.add_i64(conv.fy);
  b.add_i64(conv.stride);
  // Architecture (name excluded)
  b.add_i64(arch.spatial.k);
  b.add_i64(arch.spatial.c);
  b.add_i64(arch.spatial.ox);
  b.add_i64(arch.spatial.oy);
  b.add_buffers(arch.weights);
  b.add_buffers(arch.inputs);
  b.add_buffers(arch.outputs);
  b.add_f64(arch.rram_capacity_bits);
  b.add_f64(arch.rram_bandwidth_bits_per_cycle);
  b.add_f64(arch.rram_read_pj_per_bit);
  b.add_f64(arch.rram_write_pj_per_bit);
  b.add_f64(arch.mac_energy_pj);
  b.add_i64(arch.weight_bits);
  b.add_i64(arch.activation_bits);
  b.add_i64(arch.psum_bits);
  // SystemCosts
  b.add_f64(sys.mem_idle_pj_per_cycle);
  b.add_f64(sys.extra_bank_idle_fraction);
  b.add_f64(sys.cs_idle_pj_per_cycle);
  b.add_f64(sys.m3d_access_energy_scale);
  b.add_f64(sys.rram_write_occupancy);
  b.add_i64(n_cs);
  b.finish();
  return key;
}

MapCache::Key MapCache::key_from_words(
    const std::array<std::uint64_t, kKeyWords>& words) {
  Key key;
  key.words = words;
  KeyBuilder::stamp_hash(key);
  return key;
}

MapCache::Shard& MapCache::shard_for(const Key& key) {
  return shards_[key.hash % kShards];
}

const MapCache::Shard& MapCache::shard_for(const Key& key) const {
  return shards_[key.hash % kShards];
}

std::shared_ptr<const MapCache::LoadedTier> MapCache::tier() const {
  std::lock_guard<std::mutex> lock(tier_mutex_);
  return tier_;
}

std::optional<LayerCost> MapCache::lookup(const Key& key) {
  // References are stable once registered; resolving them through the
  // registry map on every lookup would serialize parallel threads.
  static Counter& m_hits =
      MetricsRegistry::instance().counter("mapper.mapcache.hits");
  static Counter& m_misses =
      MetricsRegistry::instance().counter("mapper.mapcache.misses");
  static Counter& m_file_hits =
      MetricsRegistry::instance().counter("mapper.mapcache.file_hits");
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      m_hits.add();
      return it->second.cost;
    }
  }
  if (const std::shared_ptr<const LoadedTier> loaded = tier()) {
    std::uint64_t slot = mix_hash(key.hash) & loaded->mask;
    while (loaded->index[slot] != kNoSlot) {
      const std::uint32_t e = loaded->index[slot];
      if (loaded->keys[e] == key) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        m_hits.add();
        file_hits_.fetch_add(1, std::memory_order_relaxed);
        m_file_hits.add();
        return loaded->costs[e];
      }
      slot = (slot + 1) & loaded->mask;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  m_misses.add();
  return std::nullopt;
}

void MapCache::insert(const Key& key, const LayerCost& cost) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.map.try_emplace(key, Entry{cost});
}

void MapCache::load_tier(std::vector<Key> keys, std::vector<LayerCost> costs) {
  assert(keys.size() == costs.size());
  std::lock_guard<std::mutex> lock(tier_mutex_);
  auto merged = std::make_shared<LoadedTier>();
  const std::size_t old_n = tier_ != nullptr ? tier_->keys.size() : 0;
  // Index sized for the union at <= 50% occupancy so probes stay short.
  std::uint64_t capacity = 16;
  while (capacity < (old_n + keys.size()) * 2) capacity <<= 1;
  merged->index.assign(capacity, kNoSlot);
  merged->mask = capacity - 1;
  if (old_n == 0) {
    // Common case (one load per process): adopt the vectors wholesale and
    // only build the index.  If the batch turns out to carry a duplicate
    // key the index would disagree with the vectors, so fall back to the
    // dedup-copy path below for that rare case.
    merged->keys = std::move(keys);
    merged->costs = std::move(costs);
    bool duplicate = false;
    for (std::size_t i = 0; i < merged->keys.size() && !duplicate; ++i) {
      std::uint64_t slot = mix_hash(merged->keys[i].hash) & merged->mask;
      while (merged->index[slot] != kNoSlot) {
        if (merged->keys[merged->index[slot]] == merged->keys[i]) {
          duplicate = true;
          break;
        }
        slot = (slot + 1) & merged->mask;
      }
      if (!duplicate) merged->index[slot] = static_cast<std::uint32_t>(i);
    }
    if (!duplicate) {
      tier_ = std::move(merged);
      return;
    }
    keys = std::move(merged->keys);
    costs = std::move(merged->costs);
    merged->keys.clear();
    merged->costs.clear();
    merged->index.assign(capacity, kNoSlot);
  }
  merged->keys.reserve(old_n + keys.size());
  merged->costs.reserve(old_n + keys.size());
  const auto add = [&merged](Key& key, LayerCost& cost) {
    std::uint64_t slot = mix_hash(key.hash) & merged->mask;
    while (merged->index[slot] != kNoSlot) {
      if (merged->keys[merged->index[slot]] == key) return;  // first wins
      slot = (slot + 1) & merged->mask;
    }
    merged->index[slot] = static_cast<std::uint32_t>(merged->keys.size());
    merged->keys.push_back(std::move(key));
    merged->costs.push_back(std::move(cost));
  };
  if (tier_ != nullptr) {
    for (std::size_t i = 0; i < old_n; ++i) {
      Key key = tier_->keys[i];
      LayerCost cost = tier_->costs[i];
      add(key, cost);
    }
  }
  for (std::size_t i = 0; i < keys.size(); ++i) add(keys[i], costs[i]);
  tier_ = std::move(merged);
}

std::vector<std::pair<MapCache::Key, LayerCost>> MapCache::snapshot() const {
  std::vector<std::pair<Key, LayerCost>> out;
  out.reserve(size());
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, entry] : shard.map) {
      out.emplace_back(key, entry.cost);
    }
  }
  // Loaded-tier entries, except any a computing caller also inserted into a
  // shard (identical values; skipping keeps the snapshot free of repeats).
  if (const std::shared_ptr<const LoadedTier> loaded = tier()) {
    for (std::size_t i = 0; i < loaded->keys.size(); ++i) {
      const Key& key = loaded->keys[i];
      const Shard& shard = shard_for(key);
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (shard.map.find(key) == shard.map.end()) {
        out.emplace_back(key, loaded->costs[i]);
      }
    }
  }
  return out;
}

void MapCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
  std::lock_guard<std::mutex> lock(tier_mutex_);
  tier_.reset();
}

void MapCache::reset_counters() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  file_hits_.store(0, std::memory_order_relaxed);
}

std::size_t MapCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.map.size();
  }
  if (const std::shared_ptr<const LoadedTier> loaded = tier()) {
    total += loaded->keys.size();
  }
  return total;
}

}  // namespace uld3d::mapper
