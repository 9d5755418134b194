#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "anb/util/io.hpp"

// The .anbb binary-artifact container (modeled on LightGBM's binary
// dataset path: fixed header + per-section sizes + alignment). One file
// holds a small JSON "meta" section describing the artifact plus any
// number of raw array sections stored in their in-memory layout, so a
// reader can hand out zero-copy views straight into an mmap of the file.
//
// Layout (all integers little-endian, fixed width):
//
//   [0..24)   header: magic "ANBBIN\r\n" (8) + endian marker u32 +
//             format version u32 + section count u32 + pad u32
//   [24..40)  u64 file_size + u64 checksum
//   [40..)    section table: section_count x SectionEntry
//             { u32 tag, u32 align, u64 offset, u64 size }
//   ...       payload sections, each at offset % align == 0 (zero-filled
//             gaps between sections)
//
// The checksum is checksum64() over the whole file with the checksum
// field itself zeroed, so a single flipped bit anywhere — header, table,
// or payload — fails verification. file_size must equal the actual byte
// count, so truncation is detected before any offset is trusted; every
// section range is then validated against the real buffer size, which is
// what makes the mmap path safe against short files (no access is ever
// issued past the mapping).

namespace anb::bin {

inline constexpr std::size_t kMagicSize = 8;
inline constexpr char kMagic[kMagicSize] = {'A', 'N', 'B', 'B',
                                            'I', 'N', '\r', '\n'};
/// Written natively and compared on load: a byte-order mismatch between
/// writer and reader machines is rejected instead of misread.
inline constexpr std::uint32_t kEndianMarker = 0x01020304u;
/// Current .anbb format version. Readers reject anything newer or older.
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderSize = 40;
inline constexpr std::size_t kSectionEntrySize = 24;
/// Byte offset of the u64 checksum field within the file.
inline constexpr std::size_t kChecksumOffset = 32;

/// Fast non-cryptographic 64-bit checksum: splitmix64-mixed 8-byte words
/// (word-at-a-time, so verification is a small share of a load).
/// Any single-bit corruption changes the result; collisions for random
/// corruption are ~2^-64.
std::uint64_t checksum64(std::span<const char> bytes);

/// Section payload kinds. The tag is checked on every access, so a
/// section-table entry pointing at the wrong payload throws instead of
/// reinterpreting bytes.
enum class Tag : std::uint32_t {
  kMeta = 1,      ///< JSON text (artifact descriptor)
  kF64 = 2,       ///< double[]
  kI32 = 3,       ///< int32[]
  kU8 = 4,        ///< uint8[]
  kU64 = 5,       ///< uint64[]
  kFlatNode = 6,  ///< FlatForest node records (24-byte PODs)
  kSpace = 7,     ///< search-space descriptor (2 u32: section version, id)
};

/// Assembles a .anbb file in memory. Sections are laid out in add order;
/// finish() prepends header + table and patches the checksum.
class Writer {
 public:
  /// Append a raw section; returns its index (referenced from the meta
  /// JSON). `align` must be a power of two (payload offset in the file is
  /// padded to it).
  std::uint32_t add_section(Tag tag, std::span<const char> payload,
                            std::uint32_t align);

  /// Append a trivially-copyable array in its in-memory layout.
  template <typename T>
  std::uint32_t add_array(Tag tag, std::span<const T> xs) {
    static_assert(std::is_trivially_copyable_v<T>);
    return add_section(
        tag, {reinterpret_cast<const char*>(xs.data()), xs.size() * sizeof(T)},
        alignof(T));
  }

  std::uint32_t num_sections() const {
    return static_cast<std::uint32_t>(sections_.size());
  }

  /// Assemble the final file image (header + table + payload + checksum).
  std::vector<char> finish() const;

 private:
  struct Pending {
    Tag tag;
    std::uint32_t align;
    std::vector<char> payload;
  };
  std::vector<Pending> sections_;
};

/// Validated view over a .anbb file image. The constructor verifies
/// magic, endianness, version, file size, checksum, and every section
/// range/alignment before any accessor hands out data; all failures throw
/// anb::Error. Array accessors return zero-copy views that pin the
/// underlying buffer (heap or mmap) alive.
class Reader {
 public:
  /// `buffer` is the whole file (from io::Buffer::read_file or map_file).
  explicit Reader(std::shared_ptr<const io::Buffer> buffer);

  std::uint32_t format_version() const { return version_; }
  std::size_t num_sections() const { return entries_.size(); }
  Tag tag(std::uint32_t index) const;

  /// Raw bytes of a section; throws on bad index or tag mismatch.
  std::span<const char> section(std::uint32_t index, Tag expected) const;

  /// Zero-copy typed view of a section. Checks the tag, that the size is
  /// a whole number of elements, and that the payload address satisfies
  /// alignof(T) (a corrupted/misaligned offset throws, never UB).
  template <typename T>
  io::ArrayRef<T> array(std::uint32_t index, Tag expected) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::span<const char> raw = section(index, expected);
    check_array(raw, sizeof(T), alignof(T), index);
    return io::ArrayRef<T>(
        {reinterpret_cast<const T*>(raw.data()), raw.size() / sizeof(T)},
        buffer_);
  }

  /// The backing buffer (for lifetime plumbing / diagnostics).
  const std::shared_ptr<const io::Buffer>& buffer() const { return buffer_; }

 private:
  struct Entry {
    Tag tag;
    std::uint32_t align;
    std::uint64_t offset;
    std::uint64_t size;
  };

  void check_array(std::span<const char> raw, std::size_t elem_size,
                   std::size_t elem_align, std::uint32_t index) const;

  std::shared_ptr<const io::Buffer> buffer_;
  std::uint32_t version_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace anb::bin
