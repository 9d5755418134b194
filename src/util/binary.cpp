#include "anb/util/binary.hpp"

#include <cstring>

#include "anb/util/error.hpp"

namespace anb::bin {

namespace {

/// splitmix64 finalizer: full-avalanche mixing of one 64-bit word.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store_u64(char* p, std::uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
void store_u32(char* p, std::uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

std::uint64_t align_up(std::uint64_t offset, std::uint64_t align) {
  return (offset + align - 1) & ~(align - 1);
}

const char* tag_name(Tag t) {
  switch (t) {
    case Tag::kMeta: return "meta";
    case Tag::kF64: return "f64";
    case Tag::kI32: return "i32";
    case Tag::kU8: return "u8";
    case Tag::kU64: return "u64";
    case Tag::kFlatNode: return "flat_node";
    case Tag::kSpace: return "space";
  }
  return "unknown";
}

bool valid_tag(std::uint32_t raw) {
  return raw >= static_cast<std::uint32_t>(Tag::kMeta) &&
         raw <= static_cast<std::uint32_t>(Tag::kSpace);
}

}  // namespace

namespace {

/// Streaming form of checksum64: feed() spans whose sizes are multiples of
/// 8 except possibly the last, then take final(). Exists so the Reader can
/// hash "patched header + untouched payload" without copying the payload.
class ChecksumStream {
 public:
  void feed(std::span<const char> bytes) {
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8, ++word_index_) {
      h_ ^= mix64(load_u64(bytes.data() + i) + word_index_);
      h_ = mix64(h_);
    }
    for (; i < bytes.size(); ++i) {
      tail_ |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[i]))
               << (8 * tail_len_++);
    }
    total_ += bytes.size();
  }

  std::uint64_t digest() const {
    std::uint64_t h = h_ ^ mix64(tail_ + word_index_);
    return mix64(h ^ static_cast<std::uint64_t>(total_));
  }

 private:
  std::uint64_t h_ = 0x736f6d6570736575ULL;
  std::uint64_t word_index_ = 0;
  std::uint64_t tail_ = 0;
  unsigned tail_len_ = 0;
  std::size_t total_ = 0;
};

/// True when `bytes` starts with the .anbb magic.
bool has_magic(std::span<const char> bytes) {
  return bytes.size() >= kMagicSize &&
         std::memcmp(bytes.data(), kMagic, kMagicSize) == 0;
}

}  // namespace

std::uint64_t checksum64(std::span<const char> bytes) {
  // Word-at-a-time: mix each 8-byte chunk with its position, then fold the
  // tail and the length in. Position-dependent so transposed words differ.
  ChecksumStream s;
  s.feed(bytes);
  return s.digest();
}

std::uint32_t Writer::add_section(Tag tag, std::span<const char> payload,
                                  std::uint32_t align) {
  ANB_CHECK(is_pow2(align), "bin::Writer: section alignment must be a "
                            "power of two");
  Pending p;
  p.tag = tag;
  p.align = align;
  p.payload.assign(payload.begin(), payload.end());
  sections_.push_back(std::move(p));
  return static_cast<std::uint32_t>(sections_.size() - 1);
}

std::vector<char> Writer::finish() const {
  const std::uint64_t table_size =
      static_cast<std::uint64_t>(sections_.size()) * kSectionEntrySize;

  // First pass: lay out section offsets.
  std::vector<std::uint64_t> offsets(sections_.size());
  std::uint64_t cursor = kHeaderSize + table_size;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    cursor = align_up(cursor, sections_[i].align);
    offsets[i] = cursor;
    cursor += sections_[i].payload.size();
  }
  const std::uint64_t file_size = cursor;

  std::vector<char> out(static_cast<std::size_t>(file_size), '\0');

  // Header. Checksum stays zero until the very end.
  std::memcpy(out.data(), kMagic, kMagicSize);
  store_u32(out.data() + 8, kEndianMarker);
  store_u32(out.data() + 12, kFormatVersion);
  store_u32(out.data() + 16, static_cast<std::uint32_t>(sections_.size()));
  store_u32(out.data() + 20, 0);  // pad
  store_u64(out.data() + 24, file_size);
  store_u64(out.data() + kChecksumOffset, 0);

  // Section table + payloads.
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    char* entry = out.data() + kHeaderSize + i * kSectionEntrySize;
    store_u32(entry, static_cast<std::uint32_t>(sections_[i].tag));
    store_u32(entry + 4, sections_[i].align);
    store_u64(entry + 8, offsets[i]);
    store_u64(entry + 16, sections_[i].payload.size());
    if (!sections_[i].payload.empty()) {
      std::memcpy(out.data() + offsets[i], sections_[i].payload.data(),
                  sections_[i].payload.size());
    }
  }

  store_u64(out.data() + kChecksumOffset, checksum64(out));
  return out;
}

Reader::Reader(std::shared_ptr<const io::Buffer> buffer)
    : buffer_(std::move(buffer)) {
  ANB_CHECK(buffer_ != nullptr, "bin::Reader: null buffer");
  const std::span<const char> bytes = buffer_->bytes();

  // The actual buffer size is authoritative; nothing beyond it is ever
  // read, which keeps a truncated-file mmap from faulting past EOF. The
  // magic goes first, so any input that is not a .anbb (a JSON file, an
  // empty file) reports that rather than its size.
  ANB_CHECK(has_magic(bytes), "bin::Reader: bad magic (not a .anbb file)");
  ANB_CHECK(bytes.size() >= kHeaderSize,
            "bin::Reader: file too small for header (" +
                std::to_string(bytes.size()) + " bytes)");
  const std::uint32_t endian = load_u32(bytes.data() + 8);
  ANB_CHECK(endian == kEndianMarker,
            "bin::Reader: endianness mismatch (artifact written on an "
            "incompatible machine)");
  version_ = load_u32(bytes.data() + 12);
  ANB_CHECK(version_ == kFormatVersion,
            "bin::Reader: unsupported format version " +
                std::to_string(version_) + " (expected " +
                std::to_string(kFormatVersion) + ")");
  const std::uint32_t section_count = load_u32(bytes.data() + 16);
  const std::uint64_t file_size = load_u64(bytes.data() + 24);
  ANB_CHECK(file_size == bytes.size(),
            "bin::Reader: file size mismatch (header says " +
                std::to_string(file_size) + ", file has " +
                std::to_string(bytes.size()) + " bytes — truncated?)");

  // Verify the whole-file checksum with the checksum field zeroed: hash a
  // patched copy of the 40-byte header, then chain the payload bytes in
  // place (header size is a multiple of 8, so word boundaries line up).
  {
    char prefix[kHeaderSize];
    std::memcpy(prefix, bytes.data(), kHeaderSize);
    store_u64(prefix + kChecksumOffset, 0);
    ChecksumStream s;
    s.feed({prefix, kHeaderSize});
    s.feed(bytes.subspan(kHeaderSize));
    const std::uint64_t want = load_u64(bytes.data() + kChecksumOffset);
    ANB_CHECK(s.digest() == want,
              "bin::Reader: checksum mismatch (file corrupt)");
  }

  const std::uint64_t table_size =
      static_cast<std::uint64_t>(section_count) * kSectionEntrySize;
  ANB_CHECK(kHeaderSize + table_size <= bytes.size(),
            "bin::Reader: section table exceeds file size");

  entries_.reserve(section_count);
  std::uint64_t min_offset = kHeaderSize + table_size;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const char* e = bytes.data() + kHeaderSize + i * kSectionEntrySize;
    Entry entry;
    const std::uint32_t raw_tag = load_u32(e);
    ANB_CHECK(valid_tag(raw_tag), "bin::Reader: section " +
                                      std::to_string(i) + " has unknown tag " +
                                      std::to_string(raw_tag));
    entry.tag = static_cast<Tag>(raw_tag);
    entry.align = load_u32(e + 4);
    entry.offset = load_u64(e + 8);
    entry.size = load_u64(e + 16);
    ANB_CHECK(is_pow2(entry.align),
              "bin::Reader: section " + std::to_string(i) +
                  " has non-power-of-two alignment");
    ANB_CHECK(entry.offset % entry.align == 0,
              "bin::Reader: section " + std::to_string(i) +
                  " offset violates its alignment");
    // Overflow-safe range check: both offset and size individually within
    // the file, and the sum too (size <= file - offset cannot overflow).
    ANB_CHECK(entry.offset >= min_offset && entry.offset <= bytes.size() &&
                  entry.size <= bytes.size() - entry.offset,
              "bin::Reader: section " + std::to_string(i) +
                  " range [" + std::to_string(entry.offset) + ", +" +
                  std::to_string(entry.size) + ") out of bounds");
    // Sections are laid out in order and must not overlap.
    min_offset = entry.offset + entry.size;
    entries_.push_back(entry);
  }
}

Tag Reader::tag(std::uint32_t index) const {
  ANB_CHECK(index < entries_.size(),
            "bin::Reader: section index " + std::to_string(index) +
                " out of range (have " + std::to_string(entries_.size()) +
                ")");
  return entries_[index].tag;
}

std::span<const char> Reader::section(std::uint32_t index, Tag expected) const {
  ANB_CHECK(index < entries_.size(),
            "bin::Reader: section index " + std::to_string(index) +
                " out of range (have " + std::to_string(entries_.size()) +
                ")");
  const Entry& e = entries_[index];
  ANB_CHECK(e.tag == expected, "bin::Reader: section " + std::to_string(index) +
                                   " has tag '" + tag_name(e.tag) +
                                   "', expected '" + tag_name(expected) + "'");
  return buffer_->bytes().subspan(static_cast<std::size_t>(e.offset),
                                  static_cast<std::size_t>(e.size));
}

void Reader::check_array(std::span<const char> raw, std::size_t elem_size,
                         std::size_t elem_align, std::uint32_t index) const {
  ANB_CHECK(raw.size() % elem_size == 0,
            "bin::Reader: section " + std::to_string(index) + " size " +
                std::to_string(raw.size()) +
                " is not a multiple of the element size " +
                std::to_string(elem_size));
  const auto addr = reinterpret_cast<std::uintptr_t>(raw.data());
  ANB_CHECK(addr % elem_align == 0,
            "bin::Reader: section " + std::to_string(index) +
                " payload is misaligned for its element type");
}

}  // namespace anb::bin
