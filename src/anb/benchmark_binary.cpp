// Binary .anbb persistence of the whole benchmark — the one artifact
// format: every surrogate's arrays land in container sections
// (anb/util/binary.hpp) and a single JSON meta section — written last —
// records the structure and the section indices.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/binary.hpp"
#include "anb/util/error.hpp"
#include "anb/util/fault.hpp"

namespace anb {

namespace {
/// Layout of the Tag::kSpace section: a tiny versioned descriptor. The
/// section version covers this struct alone, so the space record can grow
/// without bumping the container's format version; a reader rejects
/// section versions it does not know. Artifacts written before the
/// multi-space redesign have no kSpace section and load as MnasNet.
inline constexpr std::uint32_t kSpaceSectionVersion = 1;
struct SpaceSection {
  std::uint32_t version = kSpaceSectionVersion;
  std::uint32_t space_id = 0;
};
static_assert(sizeof(SpaceSection) == 8);
}  // namespace

void AccelNASBench::save_binary(const std::string& path) const {
  ANB_SPAN("anb.benchmark.save_binary");
  bin::Writer w;
  const SpaceSection space_record{kSpaceSectionVersion,
                                  static_cast<std::uint32_t>(space_)};
  w.add_section(bin::Tag::kSpace,
                {reinterpret_cast<const char*>(&space_record),
                 sizeof(space_record)},
                alignof(SpaceSection));
  Json meta = Json::object();
  meta["format"] = "accel-nasbench-v1";
  if (accuracy_ != nullptr) meta["accuracy"] = accuracy_->to_binary(w);
  Json perf = Json::object();
  // std::map iteration order makes the section layout — and thus the whole
  // file — deterministic: save→load→save_binary is byte-stable.
  for (const auto& [key, surrogate] : perf_)
    perf[perf_json_key(key)] = surrogate->to_binary(w);
  meta["perf"] = std::move(perf);
  const std::string text = meta.dump();
  w.add_section(bin::Tag::kMeta, {text.data(), text.size()}, 1);
  const std::vector<char> file = w.finish();
  if (fault::any_armed()) {
    if (const auto fire = fault::should_fire(kBenchmarkSaveFaultSite)) {
      // Short write: a prefix of the container reaches disk, then the
      // write "fails". The header's file-size field and the checksum both
      // reject the truncated file at load time.
      const auto cut = static_cast<std::size_t>(
          fire->uniform() * static_cast<double>(file.size()));
      io::write_file(path, std::span<const char>(file).first(cut));
      throw Error("AccelNASBench::save_binary: injected short write to " +
                  path);
    }
  }
  io::write_file(path, file);
}

AccelNASBench AccelNASBench::open(const std::string& path, io::MapMode mode) {
  ANB_SPAN("anb.benchmark.open");
  try {
    auto buffer = mode == io::MapMode::kMap ? io::Buffer::map_file(path)
                                            : io::Buffer::read_file(path);
    if (fault::any_armed()) {
      if (const auto fire = fault::should_fire(kBenchmarkLoadFaultSite)) {
        // Short read: only a prefix of the container arrives. A heap copy
        // stands in for the truncated stream; the Reader's size check
        // throws anb::Error below. (No zero-copy concern on a fault path.)
        const auto cut = static_cast<std::size_t>(
            fire->uniform() * static_cast<double>(buffer->size()));
        buffer = io::Buffer::from_bytes(
            std::vector<char>(buffer->data(), buffer->data() + cut));
      }
    }
    const bin::Reader r(std::move(buffer));
    ANB_CHECK(r.num_sections() >= 1, "AccelNASBench: empty binary artifact");
    // The meta section is written last (after every surrogate's arrays).
    const auto meta_index = static_cast<std::uint32_t>(r.num_sections() - 1);
    const std::span<const char> meta_raw =
        r.section(meta_index, bin::Tag::kMeta);
    const Json meta =
        Json::parse(std::string(meta_raw.data(), meta_raw.size()));
    ANB_CHECK(meta.at("format").as_string() == "accel-nasbench-v1",
              "AccelNASBench: unsupported format tag");
    AccelNASBench bench;
    // Space section: optional for backward compatibility (absent ⇒
    // MnasNet, the only space that existed before the section was
    // introduced).
    for (std::uint32_t i = 0; i < meta_index; ++i) {
      if (r.tag(i) != bin::Tag::kSpace) continue;
      const std::span<const char> raw = r.section(i, bin::Tag::kSpace);
      ANB_CHECK(raw.size() == sizeof(SpaceSection),
                "AccelNASBench: malformed space section");
      SpaceSection record;
      std::memcpy(&record, raw.data(), sizeof(record));
      ANB_CHECK(record.version == kSpaceSectionVersion,
                "AccelNASBench: unsupported space section version " +
                    std::to_string(record.version));
      ANB_CHECK(
          record.space_id == static_cast<std::uint32_t>(SpaceId::kMnasNet) ||
              record.space_id == static_cast<std::uint32_t>(SpaceId::kFbnet),
          "AccelNASBench: unknown space id " +
              std::to_string(record.space_id) + " in artifact");
      bench.set_space(static_cast<SpaceId>(record.space_id));
      break;
    }
    if (meta.contains("accuracy"))
      bench.accuracy_ = surrogate_from_binary(meta.at("accuracy"), r);
    for (const auto& [key, payload] : meta.at("perf").as_object())
      bench.perf_[perf_json_key_parse(key)] = surrogate_from_binary(payload, r);
    return bench;
  } catch (const Error& e) {
    throw Error("AccelNASBench::open: cannot load '" + path + "': " +
                e.what());
  }
}

}  // namespace anb
