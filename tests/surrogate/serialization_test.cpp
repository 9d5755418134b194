#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/surrogate.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/util/binary.hpp"
#include "anb/util/error.hpp"
#include "anb/util/io.hpp"

namespace anb {
namespace {

Dataset make_dataset(int n, std::uint64_t seed) {
  Dataset ds(4);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(),
                          static_cast<double>(rng.bernoulli(0.5))};
    ds.add(x, 2.0 * x[0] - x[1] + 0.5 * x[2] * x[3]);
  }
  return ds;
}

/// Save `model` into an in-memory .anbb image and load it back.
std::unique_ptr<Surrogate> binary_round_trip(const Surrogate& model) {
  bin::Writer w;
  const Json meta = model.to_binary(w);
  return surrogate_from_binary(meta,
                               bin::Reader(io::Buffer::from_bytes(w.finish())));
}

class SerializationTest : public ::testing::Test {
 protected:
  void round_trip_and_compare(Surrogate& model) {
    const Dataset train = make_dataset(300, 1);
    Rng rng(2);
    model.fit(train, rng);
    const auto restored = binary_round_trip(model);
    EXPECT_EQ(restored->name(), model.name());
    EXPECT_EQ(binary_image(*restored), binary_image(model)) << model.name();
    Rng probe(3);
    std::vector<double> probe_rows;
    for (int i = 0; i < 50; ++i) {
      const std::vector<double> x{probe.uniform(), probe.uniform(),
                                  probe.uniform(),
                                  static_cast<double>(probe.bernoulli(0.5))};
      probe_rows.insert(probe_rows.end(), x.begin(), x.end());
      EXPECT_EQ(restored->predict(x), model.predict(x)) << model.name();
    }
    std::vector<double> original_batch(50), restored_batch(50);
    model.predict_batch(probe_rows, 4, original_batch);
    restored->predict_batch(probe_rows, 4, restored_batch);
    for (int i = 0; i < 50; ++i)
      EXPECT_EQ(original_batch[static_cast<std::size_t>(i)],
                restored_batch[static_cast<std::size_t>(i)])
          << model.name() << " batch row " << i;
  }
};

TEST_F(SerializationTest, GbdtRoundTrips) {
  GbdtParams p;
  p.n_estimators = 40;
  Gbdt model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, HistGbdtRoundTrips) {
  HistGbdtParams p;
  p.n_estimators = 40;
  HistGbdt model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, RandomForestRoundTrips) {
  RandomForestParams p;
  p.n_trees = 25;
  RandomForest model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, EpsilonSvrRoundTrips) {
  SvrParams p;
  p.kind = SvrKind::kEpsilon;
  p.gamma = 0.5;
  Svr model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, NuSvrRoundTrips) {
  SvrParams p;
  p.kind = SvrKind::kNu;
  p.nu = 0.4;
  p.gamma = 0.5;
  Svr model(p);
  round_trip_and_compare(model);
}

TEST_F(SerializationTest, UnknownTypeRejected) {
  const bin::Reader empty(io::Buffer::from_bytes(bin::Writer().finish()));
  Json j = Json::object();
  j["type"] = "gaussian-process";
  EXPECT_THROW(surrogate_from_binary(j, empty), Error);
  EXPECT_THROW(surrogate_from_binary(Json::object(), empty), Error);
}

TEST_F(SerializationTest, WrongTagRejectedByConcreteLoaders) {
  GbdtParams p;
  p.n_estimators = 5;
  Gbdt model(p);
  const Dataset train = make_dataset(50, 4);
  Rng rng(5);
  model.fit(train, rng);
  bin::Writer w;
  Json meta = model.to_binary(w);
  const bin::Reader r(io::Buffer::from_bytes(w.finish()));
  meta["type"] = "rf";
  EXPECT_THROW(Gbdt::from_binary(meta, r), Error);
}

TEST_F(SerializationTest, EnsembleRoundTrips) {
  GbdtParams member_params;
  member_params.n_estimators = 10;
  EnsembleSurrogate model(
      [member_params] { return std::make_unique<Gbdt>(member_params); },
      /*size=*/3);
  round_trip_and_compare(model);
}

// ---------------------------------------------------------------------------
// Corruption fuzz corpus over saved .anbb artifacts: every corrupted file
// must fail to load with anb::Error naming the file — never a crash, hang,
// or silent partial load. The attack surface is the container's header
// fields, section table, and raw payloads, plus the JSON meta section.
// Corruptions come in two flavors:
//
//   - raw damage (truncations, bit-flips): the file-size field or the
//     whole-file checksum must catch these before any offset is trusted;
//   - *repatched* damage (tampered field + recomputed checksum): models a
//     deliberately malformed file, so the structural validation itself —
//     tag whitelist, power-of-two alignment, range/overlap/ordering
//     checks, the forest shape, the meta record's fields — must reject it.
//
// The corpus is seeded and enumerated deterministically. Every case loads
// through both MapMode::kCopy and MapMode::kMap, so the zero-copy mmap
// path proves it never dereferences an unvalidated offset (the suite runs
// under ASan/UBSan in CI).

/// One small benchmark (accuracy + two perf surrogates of different
/// families): the corpus template.
AccelNASBench make_fuzz_benchmark() {
  const Dataset train = make_dataset(60, 11);
  const auto fitted = [&](std::unique_ptr<Surrogate> model) {
    Rng fit_rng(13);
    model->fit(train, fit_rng);
    return model;
  };
  GbdtParams gp;
  gp.n_estimators = 3;
  SvrParams sp;
  sp.gamma = 0.5;
  AccelNASBench bench;
  bench.set_accuracy_surrogate(fitted(std::make_unique<Gbdt>(gp)));
  bench.set_perf_surrogate(MetricKey{DeviceKind::kA100, PerfMetric::kThroughput},
                           fitted(std::make_unique<Gbdt>(gp)));
  bench.set_perf_surrogate(MetricKey{DeviceKind::kZcu102, PerfMetric::kLatency},
                           fitted(std::make_unique<Svr>(sp)));
  return bench;
}

/// Walks the meta record in deterministic order and erases the `target`-th
/// droppable object key. Keys whose removal legally yields a *valid*
/// benchmark are not droppable: the optional top-level "accuracy" and the
/// entries of the top-level "perf" map (each perf surrogate is optional).
/// Returns true once a key was erased; `target` counts down in-place.
bool drop_nth_key(Json& j, int& target, bool is_root, bool is_perf_map) {
  if (j.is_array()) {
    for (Json& elem : j.as_array()) {
      if (drop_nth_key(elem, target, false, false)) return true;
    }
    return false;
  }
  if (!j.is_object()) return false;
  for (auto& [key, child] : j.as_object()) {
    const bool droppable = !is_perf_map && !(is_root && key == "accuracy");
    if (droppable && target-- == 0) {
      j.as_object().erase(key);
      return true;
    }
    if (drop_nth_key(child, target, false, is_root && key == "perf"))
      return true;
  }
  return false;
}

std::uint32_t load_u32(const std::string& b, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

std::uint64_t load_u64(const std::string& b, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

void store_u32(std::string& b, std::size_t at, std::uint32_t v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}

void store_u64(std::string& b, std::size_t at, std::uint64_t v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}

/// Recompute the whole-file checksum after tampering, so the corruption
/// reaches the structural validators instead of dying at the checksum.
std::string repatch_checksum(std::string bytes) {
  store_u64(bytes, bin::kChecksumOffset, 0);
  store_u64(bytes, bin::kChecksumOffset,
            bin::checksum64({bytes.data(), bytes.size()}));
  return bytes;
}

struct TableEntry {
  std::uint32_t tag = 0;
  std::uint32_t align = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

std::vector<TableEntry> parse_section_table(const std::string& bytes) {
  const std::uint32_t count = load_u32(bytes, 16);
  std::vector<TableEntry> entries(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = bin::kHeaderSize + i * bin::kSectionEntrySize;
    entries[i] = {load_u32(bytes, at), load_u32(bytes, at + 4),
                  load_u64(bytes, at + 8), load_u64(bytes, at + 16)};
  }
  return entries;
}

const std::string& saved_benchmark_anbb() {
  static const std::string bytes = [] {
    const std::string path = ::testing::TempDir() + "anb_fuzz_template.anbb";
    make_fuzz_benchmark().save_binary(path);
    const auto buf = io::Buffer::read_file(path);
    return std::string(buf->data(), buf->size());
  }();
  return bytes;
}

/// The template's meta record (the last section).
Json saved_meta(const std::string& good, const std::vector<TableEntry>& table) {
  const TableEntry& e = table.back();
  return Json::parse(good.substr(static_cast<std::size_t>(e.offset),
                                 static_cast<std::size_t>(e.size)));
}

/// The image with its meta section (written last) replaced by `meta`; the
/// section size, the file-size field and the checksum are patched to
/// match, so only the meta record's own validation can reject it.
std::string with_meta(const std::string& good,
                      const std::vector<TableEntry>& table, const Json& meta) {
  const TableEntry& e = table.back();
  const std::string text = meta.dump();
  std::string bad = good.substr(0, static_cast<std::size_t>(e.offset)) + text +
                    good.substr(static_cast<std::size_t>(e.offset + e.size));
  store_u64(bad,
            bin::kHeaderSize + (table.size() - 1) * bin::kSectionEntrySize + 16,
            text.size());
  store_u64(bad, 24, bad.size());
  return repatch_checksum(std::move(bad));
}

/// The deterministic corpus: (label, corrupted file image) pairs.
std::vector<std::pair<std::string, std::string>> binary_corruption_corpus() {
  const std::string& good = saved_benchmark_anbb();
  const std::vector<TableEntry> table = parse_section_table(good);
  std::vector<std::pair<std::string, std::string>> corpus;

  // --- Truncations: every header/table/section boundary (+-1 around the
  // section edges) plus evenly spread cuts. All strict prefixes.
  std::set<std::size_t> cuts{0,  1,  bin::kMagicSize, 23, 24, 31,
                             32, 39, bin::kHeaderSize};
  cuts.insert(bin::kHeaderSize + table.size() * bin::kSectionEntrySize);
  for (const TableEntry& e : table) {
    for (const std::size_t at : {e.offset, e.offset + e.size}) {
      if (at > 0) cuts.insert(static_cast<std::size_t>(at) - 1);
      cuts.insert(static_cast<std::size_t>(at));
      cuts.insert(static_cast<std::size_t>(at) + 1);
    }
  }
  const int kSpreadCuts = 90;
  for (int i = 0; i < kSpreadCuts; ++i)
    cuts.insert(good.size() * static_cast<std::size_t>(i) /
                static_cast<std::size_t>(kSpreadCuts));
  for (const std::size_t cut : cuts) {
    if (cut >= good.size()) continue;
    corpus.emplace_back("truncation at " + std::to_string(cut),
                        good.substr(0, cut));
  }

  // --- Raw bit-flips anywhere in the file: the checksum (or an earlier
  // header check) must reject every one.
  Rng rng(0xB1A9);
  const int kFlips = 64;
  for (int i = 0; i < kFlips; ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(good.size()) - 1));
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    std::string bad = good;
    bad[pos] = static_cast<char>(static_cast<unsigned char>(bad[pos]) ^
                                 (1u << bit));
    corpus.emplace_back(
        "bit flip " + std::to_string(bit) + " at " + std::to_string(pos), bad);
  }

  // --- Header tampering, checksum repatched: each field's own validator
  // must reject it (or, for a zeroed section count, the benchmark loader's
  // own "empty artifact" check).
  {
    std::string bad = good;
    bad[3] = 'X';  // magic
    corpus.emplace_back("magic corrupted", repatch_checksum(bad));
  }
  {
    std::string bad = good;
    store_u32(bad, 8, 0x04030201u);  // byte-swapped endian marker
    corpus.emplace_back("endianness mismatch", repatch_checksum(bad));
  }
  for (const std::uint32_t version : {0u, 2u, 0xFFFFFFFFu}) {
    std::string bad = good;
    store_u32(bad, 12, version);
    corpus.emplace_back("format version " + std::to_string(version),
                        repatch_checksum(bad));
  }
  for (const std::uint32_t count : {0u, 0xFFFFu, 0xFFFFFFFFu}) {
    std::string bad = good;
    store_u32(bad, 16, count);
    corpus.emplace_back("section count " + std::to_string(count),
                        repatch_checksum(bad));
  }
  {
    std::string bad = good;
    store_u64(bad, 24, good.size() + 1);  // file-size field vs real size
    corpus.emplace_back("file size field too large", repatch_checksum(bad));
    store_u64(bad, 24, good.size() - 1);
    corpus.emplace_back("file size field too small", repatch_checksum(bad));
  }

  // --- Section-table tampering, checksum repatched: structural validation
  // (tag whitelist, power-of-two alignment, in-bounds ranges, ascending
  // non-overlapping sections) must reject each mutation.
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::size_t at = bin::kHeaderSize + i * bin::kSectionEntrySize;
    const auto tampered = [&](const char* what, auto&& mutate) {
      std::string bad = good;
      mutate(bad);
      corpus.emplace_back(
          "section " + std::to_string(i) + ": " + what,
          repatch_checksum(std::move(bad)));
    };
    tampered("tag zero", [&](std::string& b) { store_u32(b, at, 0); });
    tampered("tag unknown",
             [&](std::string& b) { store_u32(b, at, 0xDEADu); });
    tampered("alignment not a power of two",
             [&](std::string& b) { store_u32(b, at + 4, 3); });
    tampered("alignment zero",
             [&](std::string& b) { store_u32(b, at + 4, 0); });
    tampered("offset past end of file", [&](std::string& b) {
      store_u64(b, at + 8, good.size());
    });
    tampered("misaligned / overlapping offset", [&](std::string& b) {
      store_u64(b, at + 8, table[i].offset + 1);
    });
    tampered("size past end of file", [&](std::string& b) {
      store_u64(b, at + 16, good.size());
    });
  }
  // Swapped neighbors break the ascending-offset rule.
  for (std::size_t i = 0; i + 1 < table.size(); ++i) {
    const std::size_t a = bin::kHeaderSize + i * bin::kSectionEntrySize;
    const std::size_t b = a + bin::kSectionEntrySize;
    std::string bad = good;
    store_u64(bad, a + 8, table[i + 1].offset);
    store_u64(bad, a + 16, table[i + 1].size);
    store_u64(bad, b + 8, table[i].offset);
    store_u64(bad, b + 16, table[i].size);
    store_u32(bad, a, table[i + 1].tag);
    store_u32(bad, a + 4, table[i + 1].align);
    store_u32(bad, b, table[i].tag);
    store_u32(bad, b + 4, table[i].align);
    corpus.emplace_back(
        "sections " + std::to_string(i) + "/" + std::to_string(i + 1) +
            " swapped out of order",
        repatch_checksum(std::move(bad)));
  }

  // --- Space-section payload tampering, checksum repatched: the artifact
  // carries a Tag::kSpace descriptor (section version u32 + space id u32);
  // the benchmark loader must reject unknown section versions, unknown
  // space ids, and a descriptor of the wrong size.
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].tag != static_cast<std::uint32_t>(bin::Tag::kSpace))
      continue;
    const auto payload = static_cast<std::size_t>(table[i].offset);
    for (const std::uint32_t version : {0u, 2u, 0xFFFFFFFFu}) {
      std::string bad = good;
      store_u32(bad, payload, version);
      corpus.emplace_back(
          "space section version " + std::to_string(version),
          repatch_checksum(std::move(bad)));
    }
    for (const std::uint32_t id : {0u, 3u, 0xFFFFu, 0xFFFFFFFFu}) {
      std::string bad = good;
      store_u32(bad, payload + 4, id);
      corpus.emplace_back("space id " + std::to_string(id),
                          repatch_checksum(std::move(bad)));
    }
    // In-bounds but wrong-size descriptor (half the struct).
    std::string bad = good;
    store_u64(bad, bin::kHeaderSize + i * bin::kSectionEntrySize + 16, 4);
    corpus.emplace_back("space section truncated to 4 bytes",
                        repatch_checksum(std::move(bad)));
  }

  // --- Forest payload tampering, checksum repatched: FlatForest's shape
  // validation must reject a dangling child, an internal node that is its
  // own child, a back edge to an ancestor (a cycle), and a child shared by
  // two parents. Node 0 of each node section is its first tree's root.
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i].tag != static_cast<std::uint32_t>(bin::Tag::kFlatNode))
      continue;
    const auto field = [&](std::int32_t node, std::size_t offset) {
      return static_cast<std::size_t>(table[i].offset) +
             static_cast<std::size_t>(node) * sizeof(FlatNode) + offset;
    };
    constexpr std::size_t kLeft = offsetof(FlatNode, left);
    constexpr std::size_t kRight = offsetof(FlatNode, right);
    const auto child = [&](std::int32_t node, std::size_t which) {
      return static_cast<std::int32_t>(load_u32(good, field(node, which)));
    };
    const auto tampered = [&](const std::string& what, std::int32_t node,
                              std::size_t which, std::int32_t value) {
      std::string bad = good;
      store_u32(bad, field(node, which), static_cast<std::uint32_t>(value));
      corpus.emplace_back("node section " + std::to_string(i) + ": " + what,
                          repatch_checksum(std::move(bad)));
    };
    tampered("dangling child past the tree", 0, kLeft, 1 << 20);
    tampered("dangling negative child", 0, kRight, -3);
    tampered("internal self-child", 0, kLeft, 0);
    tampered("shared child", 0, kRight, child(0, kLeft));
    for (const std::int32_t c : {child(0, kLeft), child(0, kRight)}) {
      if (child(c, kLeft) == c) continue;  // a leaf
      tampered("back edge to the root", c, kLeft, 0);
      break;
    }
  }

  // --- Meta record tampering, section and file size repatched: dropping
  // any required key, an unknown format tag, or an unknown or wrong
  // surrogate type tag must be rejected by the meta parse or
  // surrogate_from_binary.
  const Json meta = saved_meta(good, table);
  for (int k = 0;; ++k) {
    Json bad = meta;
    int target = k;
    if (!drop_nth_key(bad, target, true, false)) break;
    corpus.emplace_back("meta key drop #" + std::to_string(k),
                        with_meta(good, table, bad));
  }
  {
    Json bad = meta;
    bad["format"] = "not-a-benchmark";
    corpus.emplace_back("meta: unknown format tag",
                        with_meta(good, table, bad));
  }
  {
    Json bad = meta;
    bad["accuracy"]["type"] = "gaussian-process";
    corpus.emplace_back("meta: unknown type tag", with_meta(good, table, bad));
  }
  for (const char* wrong : {"lgb", "rf", "esvr", "ensemble"}) {
    Json bad = meta;
    bad["accuracy"]["type"] = wrong;
    corpus.emplace_back(std::string("meta: xgb model tagged ") + wrong,
                        with_meta(good, table, bad));
  }

  return corpus;
}

class BinaryCorruptionFuzz : public ::testing::Test {
 protected:
  /// Writes the image to a scratch file and requires open to reject
  /// it with anb::Error — through the heap path and the mmap path — with
  /// the offending path named in the message.
  void expect_rejected(const std::string& label, const std::string& image) {
    const std::string path = ::testing::TempDir() + "anb_corruption.anbb";
    io::write_file(path, {image.data(), image.size()});
    for (const io::MapMode mode : {io::MapMode::kCopy, io::MapMode::kMap}) {
      try {
        AccelNASBench::open(path, mode);
        ADD_FAILURE() << "corrupted artifact loaded: " << label;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << label << ": error does not name the offending path";
      }
    }
  }
};

TEST_F(BinaryCorruptionFuzz, EveryCorruptionThrowsAnbError) {
  for (const auto& [label, image] : binary_corruption_corpus())
    expect_rejected(label, image);
}

TEST_F(BinaryCorruptionFuzz, CorpusMeetsMinimumSize) {
  // The robustness contract promises >= 200 deterministic cases, and every
  // tampering family must have produced at least one.
  const auto corpus = binary_corruption_corpus();
  EXPECT_GE(corpus.size(), 200u);
  for (const char* kind :
       {"truncation", "bit flip", "section 0:", "space id", "dangling child",
        "self-child", "shared child", "back edge", "meta key drop",
        "unknown format tag", "unknown type tag", "tagged rf"}) {
    int found = 0;
    for (const auto& entry : corpus)
      found += entry.first.find(kind) != std::string::npos ? 1 : 0;
    EXPECT_GT(found, 0) << kind;
  }
}

TEST_F(BinaryCorruptionFuzz, UncorruptedArtifactStillLoads) {
  // Control: the template itself, and the template with its meta section
  // rewritten unchanged through with_meta(), load in both modes, so every
  // rejection above is attributable to the injected corruption.
  const std::string path = ::testing::TempDir() + "anb_fuzz_control.anbb";
  const std::string& good = saved_benchmark_anbb();
  const std::vector<TableEntry> table = parse_section_table(good);
  for (const std::string& image :
       {good, with_meta(good, table, saved_meta(good, table))}) {
    io::write_file(path, {image.data(), image.size()});
    for (const io::MapMode mode : {io::MapMode::kCopy, io::MapMode::kMap}) {
      const AccelNASBench bench = AccelNASBench::open(path, mode);
      EXPECT_TRUE(bench.has_accuracy());
      EXPECT_EQ(bench.perf_targets().size(), 2u);
    }
  }
}

}  // namespace
}  // namespace anb
