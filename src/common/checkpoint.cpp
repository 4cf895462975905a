#include "common/checkpoint.hpp"

#include <dirent.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace idg {

namespace {

constexpr std::size_t kMagicSize = 8;

/// Removes stale `<basename>.tmp*` siblings of `path`: leftovers of writers
/// killed between opening the temp file and renaming it. Temp names embed
/// the writer pid, so the current writer passes its own temp name to spare
/// it. Sweep failures are ignored — an unreadable directory must not fail
/// the commit that just succeeded.
void sweep_stale_temps(const std::string& path, const std::string& keep) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const std::string base =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp";
  const std::string keep_name =
      keep.find_last_of('/') == std::string::npos
          ? keep
          : keep.substr(keep.find_last_of('/') + 1);
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;
  while (const dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind(base, 0) != 0 || name == keep_name) continue;
    std::remove((dir + "/" + name).c_str());
  }
  closedir(d);
}

// Slicing-by-16 CRC-32: table k maps a byte to its CRC contribution k
// bytes ahead of the end of a 16-byte block, so one block folds into the
// running CRC with 16 independent lookups instead of 16 dependent ones.
// Table 0 is the classic byte-at-a-time (Sarwate) table. The tables are
// built at compile time; the values are the reflected IEEE 802.3 CRC, so
// every checksum is identical to the byte-wise loop's.
constexpr std::size_t kCrcSlices = 16;
using CrcTables = std::array<std::array<std::uint32_t, 256>, kCrcSlices>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < kCrcSlices; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// The word loads below read bytes in little-endian order.
static_assert(std::endian::native == std::endian::little,
              "crc32's slicing loop assumes a little-endian host");

std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const CrcTables& t = kCrcTables;
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; size >= kCrcSlices; size -= kCrcSlices, p += kCrcSlices) {
    const std::uint32_t w0 = load_u32(p) ^ c;
    const std::uint32_t w1 = load_u32(p + 4);
    const std::uint32_t w2 = load_u32(p + 8);
    const std::uint32_t w3 = load_u32(p + 12);
    c = t[15][w0 & 0xffu] ^ t[14][(w0 >> 8) & 0xffu] ^
        t[13][(w0 >> 16) & 0xffu] ^ t[12][w0 >> 24] ^
        t[11][w1 & 0xffu] ^ t[10][(w1 >> 8) & 0xffu] ^
        t[9][(w1 >> 16) & 0xffu] ^ t[8][w1 >> 24] ^
        t[7][w2 & 0xffu] ^ t[6][(w2 >> 8) & 0xffu] ^
        t[5][(w2 >> 16) & 0xffu] ^ t[4][w2 >> 24] ^
        t[3][w3 & 0xffu] ^ t[2][(w3 >> 8) & 0xffu] ^
        t[1][(w3 >> 16) & 0xffu] ^ t[0][w3 >> 24];
  }
  for (; size > 0; --size, ++p) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void CheckpointWriter::append(const void* data, std::size_t size) {
  payload_.append(static_cast<const char*>(data), size);
}

void CheckpointWriter::commit(const std::string& path,
                              const char* magic) const {
  IDG_CHECK(std::strlen(magic) == kMagicSize,
            "checkpoint magic must be exactly 8 bytes");
  // Predictable per-writer temp name; the sweep removes what previous
  // (killed) writers left behind, including legacy un-suffixed `.tmp`
  // files. Checkpoint files are single-writer per path by contract.
  const std::string tmp = path + ".tmp." + std::to_string(getpid());
  sweep_stale_temps(path, tmp);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    IDG_CHECK(out.good(),
              "cannot open checkpoint temp file for writing: " << tmp);
    out.write(magic, kMagicSize);
    out.write(payload_.data(),
              static_cast<std::streamsize>(payload_.size()));
    const std::uint32_t crc = crc32(payload_.data(), payload_.size());
    out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      throw Error("failed writing checkpoint temp file: " + tmp);
    }
  }
  // The atomic replace: a reader sees the old complete file or the new
  // complete file, never a torn one.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("failed renaming checkpoint '" + tmp + "' to '" + path +
                "'");
  }
}

CheckpointReader CheckpointReader::from_payload(std::string payload,
                                                std::string label) {
  CheckpointReader reader;
  reader.path_ = std::move(label);
  reader.payload_ = std::move(payload);
  return reader;
}

CheckpointReader::CheckpointReader(const std::string& path,
                                   const char* magic)
    : path_(path) {
  IDG_CHECK(std::strlen(magic) == kMagicSize,
            "checkpoint magic must be exactly 8 bytes");
  std::ifstream in(path, std::ios::binary);
  IDG_CHECK(in.good(), "cannot open checkpoint file: " << path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  IDG_CHECK(contents.size() >= kMagicSize + sizeof(std::uint32_t),
            "checkpoint file truncated (shorter than magic + CRC): "
                << path);
  IDG_CHECK(std::memcmp(contents.data(), magic, kMagicSize) == 0,
            "not a '" << magic << "' checkpoint file: " << path);

  const std::size_t payload_size =
      contents.size() - kMagicSize - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, contents.data() + kMagicSize + payload_size,
              sizeof(stored));
  const std::uint32_t computed =
      crc32(contents.data() + kMagicSize, payload_size);
  IDG_CHECK(stored == computed,
            "checkpoint CRC mismatch (corrupt or partially written): "
                << path);
  payload_ = contents.substr(kMagicSize, payload_size);
}

void CheckpointReader::extract(void* out, std::size_t size,
                               const char* what) {
  IDG_CHECK(size <= payload_.size() - offset_,
            "checkpoint file truncated reading " << what << ": " << path_);
  if (size == 0) return;  // `out` may be null (an empty array's data())
  std::memcpy(out, payload_.data() + offset_, size);
  offset_ += size;
}

void CheckpointReader::finish() const {
  IDG_CHECK(offset_ == payload_.size(),
            "checkpoint file has " << (payload_.size() - offset_)
                                   << " trailing bytes: " << path_);
}

}  // namespace idg
