// mapper/map_cache_file: the persistent MapCache store's load-bearing
// guarantees.
//
//  * round-trip fidelity: entries reloaded from the file price layers with
//    BIT-identical costs, counted as file hits;
//  * byte-stability: the same entries always serialize to byte-identical
//    files (shard merges and CI byte-compares rely on it);
//  * append-only merge: saving into a file that already holds another
//    process's entries unions them, losing neither side;
//  * refusal matrix: truncated, tampered (checksum), wrong-magic,
//    wrong-schema, and wrong-key-width files, and a path that is not a
//    regular file (a directory), all throw StatusError(kInvalidConfig); a
//    MISSING file is a normal cold start.
#include "uld3d/mapper/map_cache_file.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "uld3d/mapper/cost_model.hpp"
#include "uld3d/mapper/map_cache.hpp"
#include "uld3d/mapper/table2.hpp"
#include "uld3d/util/status.hpp"

namespace uld3d::mapper {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream content;
  content << in.rdbuf();
  return std::move(content).str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

/// The format's checksum: FNV-1a folding eight bytes (one LE word) per
/// step, byte-wise over any tail — must match map_cache_file.cpp exactly.
std::uint64_t fnv1a_words(const char* data, std::size_t size) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    h ^= word;
    h *= 1099511628211ull;
  }
  for (; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Re-stamp the trailing checksum after a deliberate header edit, so the
/// test reaches the schema/key-width refusals instead of the checksum one.
void fix_checksum(std::string& bytes) {
  ASSERT_GE(bytes.size(), 16u);
  const std::uint64_t checksum =
      fnv1a_words(bytes.data() + 8, bytes.size() - 16);
  std::memcpy(bytes.data() + bytes.size() - 8, &checksum, 8);
}

nn::ConvSpec conv(std::int64_t k, std::int64_t c, std::int64_t ox,
                  std::int64_t fx, const std::string& name = "layer") {
  nn::ConvSpec s;
  s.name = name;
  s.k = k;
  s.c = c;
  s.ox = ox;
  s.oy = ox;
  s.fx = fx;
  s.fy = fx;
  s.stride = 1;
  return s;
}

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

void expect_costs_identical(const LayerCost& a, const LayerCost& b) {
  EXPECT_EQ(a.layer, b.layer);
  EXPECT_EQ(a.mapping_order, b.mapping_order);
  EXPECT_EQ(a.cs_used, b.cs_used);
  EXPECT_TRUE(bits_equal(a.latency_cycles, b.latency_cycles));
  EXPECT_TRUE(bits_equal(a.compute_cycles, b.compute_cycles));
  EXPECT_TRUE(bits_equal(a.rram_cycles, b.rram_cycles));
  EXPECT_TRUE(bits_equal(a.energy_pj, b.energy_pj));
  EXPECT_TRUE(bits_equal(a.mac_energy_pj, b.mac_energy_pj));
  EXPECT_TRUE(bits_equal(a.buffer_energy_pj, b.buffer_energy_pj));
  EXPECT_TRUE(bits_equal(a.rram_energy_pj, b.rram_energy_pj));
  EXPECT_TRUE(bits_equal(a.idle_energy_pj, b.idle_energy_pj));
  EXPECT_TRUE(bits_equal(a.utilization, b.utilization));
}

class MapCacheFileTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    MapCache::instance().set_enabled(true);
    MapCache::instance().clear();
    MapCache::instance().reset_counters();
  }
};

TEST_F(MapCacheFileTest, MissingFileIsAColdStart) {
  const std::string path = temp_path("mcf_missing.bin");
  std::remove(path.c_str());
  EXPECT_EQ(load_map_cache_file(path), 0u);
  EXPECT_EQ(MapCache::instance().file_hits(), 0u);
}

TEST_F(MapCacheFileTest, RoundTripPricesBitIdenticalAndCountsFileHits) {
  const std::string path = temp_path("mcf_roundtrip.bin");
  std::remove(path.c_str());
  const Architecture arch = make_table2_architecture(1);

  const LayerCost cold = evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  const LayerCost cold2 = evaluate_conv(conv(128, 64, 7, 1), arch, {}, 4);
  EXPECT_GT(save_map_cache_file(path), 0u);

  reset();  // simulate a fresh process
  const std::size_t loaded = load_map_cache_file(path);
  EXPECT_GE(loaded, 2u);
  EXPECT_EQ(MapCache::instance().misses(), 0u);

  const LayerCost warm = evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  const LayerCost warm2 = evaluate_conv(conv(128, 64, 7, 1), arch, {}, 4);
  expect_costs_identical(cold, warm);
  expect_costs_identical(cold2, warm2);
  EXPECT_EQ(MapCache::instance().misses(), 0u);
  EXPECT_EQ(MapCache::instance().file_hits(), MapCache::instance().hits());
  EXPECT_GT(MapCache::instance().file_hits(), 0u);
  std::remove(path.c_str());
}

TEST_F(MapCacheFileTest, LayerNameIsNotPartOfTheStore) {
  const std::string path = temp_path("mcf_names.bin");
  std::remove(path.c_str());
  const Architecture arch = make_table2_architecture(1);
  const LayerCost original =
      evaluate_conv(conv(64, 32, 14, 3, "conv_a"), arch, {}, 2);
  save_map_cache_file(path);

  reset();
  load_map_cache_file(path);
  // A DIFFERENT layer name must still hit and come back carrying it.
  const LayerCost renamed =
      evaluate_conv(conv(64, 32, 14, 3, "conv_b"), arch, {}, 2);
  EXPECT_GT(MapCache::instance().file_hits(), 0u);
  EXPECT_EQ(renamed.layer, "conv_b");
  EXPECT_TRUE(bits_equal(original.energy_pj, renamed.energy_pj));
  std::remove(path.c_str());
}

TEST_F(MapCacheFileTest, SavingIsByteStable) {
  const std::string path_a = temp_path("mcf_stable_a.bin");
  const std::string path_b = temp_path("mcf_stable_b.bin");
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  const Architecture arch = make_table2_architecture(1);
  (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  (void)evaluate_conv(conv(128, 64, 7, 1), arch, {}, 4);
  save_map_cache_file(path_a);
  save_map_cache_file(path_b);
  EXPECT_EQ(read_bytes(path_a), read_bytes(path_b));

  // Re-saving into an existing identical file appends nothing and does not
  // change a byte; a load-then-save round trip is the identity too.
  EXPECT_EQ(save_map_cache_file(path_a), 0u);
  EXPECT_EQ(read_bytes(path_a), read_bytes(path_b));
  reset();
  load_map_cache_file(path_a);
  save_map_cache_file(path_a);
  EXPECT_EQ(read_bytes(path_a), read_bytes(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(MapCacheFileTest, SaveMergesWithEntriesAnotherProcessWrote) {
  const std::string path = temp_path("mcf_merge.bin");
  std::remove(path.c_str());
  const Architecture arch = make_table2_architecture(1);

  (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);  // "process 1"
  const std::size_t first = save_map_cache_file(path);
  EXPECT_GT(first, 0u);

  reset();                                          // "process 2"
  (void)evaluate_conv(conv(128, 64, 7, 1), arch, {}, 4);  // disjoint keys
  const std::size_t second = save_map_cache_file(path);
  EXPECT_GT(second, 0u);

  reset();  // "process 3" sees the union
  EXPECT_EQ(load_map_cache_file(path), first + second);
  (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  (void)evaluate_conv(conv(128, 64, 7, 1), arch, {}, 4);
  EXPECT_EQ(MapCache::instance().misses(), 0u);
  std::remove(path.c_str());
}

TEST_F(MapCacheFileTest, RefusesTruncatedFile) {
  const std::string path = temp_path("mcf_truncated.bin");
  std::remove(path.c_str());
  const Architecture arch = make_table2_architecture(1);
  (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  save_map_cache_file(path);
  const std::string bytes = read_bytes(path);
  // Every strict prefix must be refused, never half-loaded.  Probe a few
  // cut points including mid-header and one byte short.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{12}, bytes.size() / 2, bytes.size() - 1}) {
    write_bytes(path, bytes.substr(0, keep));
    reset();
    EXPECT_THROW(load_map_cache_file(path), StatusError) << "kept " << keep;
    EXPECT_EQ(MapCache::instance().size(), 0u) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST_F(MapCacheFileTest, RefusesTamperedFile) {
  const std::string path = temp_path("mcf_tampered.bin");
  std::remove(path.c_str());
  const Architecture arch = make_table2_architecture(1);
  (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  save_map_cache_file(path);
  std::string bytes = read_bytes(path);
  bytes[bytes.size() / 2] ^= 0x5a;  // flip bits mid-payload
  write_bytes(path, bytes);
  reset();
  try {
    load_map_cache_file(path);
    FAIL() << "tampered file must be refused";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(MapCacheFileTest, RefusesWrongMagic) {
  const std::string path = temp_path("mcf_not_a_store.bin");
  write_bytes(path, "this is not a map-cache store at all");
  EXPECT_THROW(load_map_cache_file(path), StatusError);
  std::remove(path.c_str());
}

TEST_F(MapCacheFileTest, RefusesADirectory) {
  // Sizing a directory by seeking to its end used to yield a huge length
  // and a bad_alloc; an existing non-regular path is bad input instead.
  const std::string path = temp_path("mcf_directory");
  std::filesystem::create_directories(path);
  try {
    (void)load_map_cache_file(path);
    FAIL() << "a directory must be refused";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(error.what()).find("not a regular file"),
              std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST_F(MapCacheFileTest, RefusesWrongSchemaVersion) {
  const std::string path = temp_path("mcf_schema.bin");
  std::remove(path.c_str());
  const Architecture arch = make_table2_architecture(1);
  (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  save_map_cache_file(path);
  std::string bytes = read_bytes(path);
  const std::uint32_t future_schema = 999;
  std::memcpy(bytes.data() + 8, &future_schema, sizeof future_schema);
  fix_checksum(bytes);  // valid checksum, so the SCHEMA check must fire
  write_bytes(path, bytes);
  reset();
  try {
    load_map_cache_file(path);
    FAIL() << "future schema must be refused";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(error.what()).find("schema"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(MapCacheFileTest, RefusesWrongKeyWidth) {
  const std::string path = temp_path("mcf_keywidth.bin");
  std::remove(path.c_str());
  const Architecture arch = make_table2_architecture(1);
  (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  save_map_cache_file(path);
  std::string bytes = read_bytes(path);
  const std::uint32_t other_width = MapCache::kKeyWords + 1;
  std::memcpy(bytes.data() + 12, &other_width, sizeof other_width);
  fix_checksum(bytes);
  write_bytes(path, bytes);
  reset();
  try {
    load_map_cache_file(path);
    FAIL() << "wrong key width must be refused";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kInvalidConfig);
    EXPECT_NE(std::string(error.what()).find("key width"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST_F(MapCacheFileTest, SaveOverwritesACorruptFileInsteadOfThrowing) {
  const std::string path = temp_path("mcf_rewrite.bin");
  write_bytes(path, "garbage that is definitely not a store");
  const Architecture arch = make_table2_architecture(1);
  (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  // End-of-run save must not die because a previous file was corrupt —
  // losing this run's entries on top of the corruption would be strictly
  // worse.  It warns and rewrites.
  const std::size_t appended = save_map_cache_file(path);
  EXPECT_GT(appended, 0u);
  reset();
  EXPECT_EQ(load_map_cache_file(path), appended);
  std::remove(path.c_str());
}

TEST_F(MapCacheFileTest, SessionLoadsOnEntryAndSavesOnExit) {
  const std::string path = temp_path("mcf_session.bin");
  std::remove(path.c_str());
  const Architecture arch = make_table2_architecture(1);
  {
    MapCacheFileSession session(path);
    EXPECT_EQ(session.loaded(), 0u);  // cold
    (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
  }
  reset();
  {
    MapCacheFileSession session(path);
    EXPECT_GT(session.loaded(), 0u);  // warm
    (void)evaluate_conv(conv(64, 32, 14, 3), arch, {}, 2);
    EXPECT_EQ(MapCache::instance().misses(), 0u);
    EXPECT_GT(MapCache::instance().file_hits(), 0u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uld3d::mapper
