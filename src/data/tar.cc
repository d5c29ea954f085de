#include "data/tar.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"

namespace hivesim::data {

namespace {

constexpr size_t kBlockSize = 512;
constexpr size_t kNameLen = 100;
// Entry payloads are read at most this many bytes at a time.
constexpr size_t kReadChunk = 64 * 1024;

struct TarHeader {
  char name[100];
  char mode[8];
  char uid[8];
  char gid[8];
  char size[12];
  char mtime[12];
  char chksum[8];
  char typeflag;
  char linkname[100];
  char magic[6];
  char version[2];
  char uname[32];
  char gname[32];
  char devmajor[8];
  char devminor[8];
  char prefix[155];
  char padding[12];
};
static_assert(sizeof(TarHeader) == kBlockSize, "ustar header must be 512B");

void OctalField(char* field, size_t len, uint64_t value) {
  // len-1 octal digits, NUL terminated, zero padded.
  std::snprintf(field, len, "%0*llo", static_cast<int>(len - 1),
                static_cast<unsigned long long>(value));
}

uint32_t HeaderChecksum(const TarHeader& h) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(&h);
  uint32_t sum = 0;
  for (size_t i = 0; i < kBlockSize; ++i) {
    // The checksum field itself counts as spaces.
    if (i >= offsetof(TarHeader, chksum) &&
        i < offsetof(TarHeader, chksum) + 8) {
      sum += ' ';
    } else {
      sum += bytes[i];
    }
  }
  return sum;
}

bool IsZeroBlock(const TarHeader& h) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(&h);
  for (size_t i = 0; i < kBlockSize; ++i) {
    if (bytes[i] != 0) return false;
  }
  return true;
}

Result<uint64_t> ParseOctal(const char* field, size_t len) {
  uint64_t value = 0;
  bool any = false;
  for (size_t i = 0; i < len; ++i) {
    const char c = field[i];
    if (c == '\0' || c == ' ') {
      if (any) break;
      continue;
    }
    if (c < '0' || c > '7') {
      return Status::Corruption("non-octal digit in tar numeric field");
    }
    value = value * 8 + static_cast<uint64_t>(c - '0');
    any = true;
  }
  if (!any) return Status::Corruption("empty tar numeric field");
  return value;
}

}  // namespace

Status TarWriter::AddFile(const std::string& name,
                          const std::vector<uint8_t>& data) {
  if (finished_) {
    return Status::FailedPrecondition("tar archive already finished");
  }
  if (name.empty() || name.size() >= kNameLen) {
    return Status::InvalidArgument(
        StrCat("tar entry name must be 1..99 bytes: '", name, "'"));
  }

  TarHeader h;
  std::memset(&h, 0, sizeof(h));
  std::memcpy(h.name, name.data(), name.size());
  OctalField(h.mode, sizeof(h.mode), 0644);
  OctalField(h.uid, sizeof(h.uid), 0);
  OctalField(h.gid, sizeof(h.gid), 0);
  OctalField(h.size, sizeof(h.size), data.size());
  OctalField(h.mtime, sizeof(h.mtime), 0);
  h.typeflag = '0';  // Regular file.
  std::memcpy(h.magic, "ustar", 6);
  std::memcpy(h.version, "00", 2);
  std::snprintf(h.chksum, sizeof(h.chksum), "%06o", HeaderChecksum(h));
  h.chksum[7] = ' ';

  out_->write(reinterpret_cast<const char*>(&h), kBlockSize);
  if (!data.empty()) {
    out_->write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(data.size()));
  }
  const size_t padding = (kBlockSize - data.size() % kBlockSize) % kBlockSize;
  if (padding > 0) {
    static const char kZeros[kBlockSize] = {};
    out_->write(kZeros, static_cast<std::streamsize>(padding));
  }
  if (!*out_) return Status::IOError("tar write failed");
  bytes_written_ += kBlockSize + data.size() + padding;
  return Status::OK();
}

Status TarWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("tar archive already finished");
  }
  static const char kZeros[kBlockSize] = {};
  out_->write(kZeros, kBlockSize);
  out_->write(kZeros, kBlockSize);
  if (!*out_) return Status::IOError("tar terminator write failed");
  bytes_written_ += 2 * kBlockSize;
  finished_ = true;
  return Status::OK();
}

Result<std::optional<TarEntry>> TarReader::Next() {
  // Non-regular entries (directories, links) are skipped in a loop, so a
  // long run of them costs no stack.
  while (!done_) {
    TarHeader h;
    in_->read(reinterpret_cast<char*>(&h), kBlockSize);
    if (in_->gcount() == 0 && in_->eof()) {
      // Clean EOF without terminator blocks: tolerate (some writers do it).
      done_ = true;
      break;
    }
    if (in_->gcount() != kBlockSize) {
      return Status::Corruption("truncated tar header");
    }
    if (IsZeroBlock(h)) {
      done_ = true;
      break;
    }
    if (std::memcmp(h.magic, "ustar", 5) != 0) {
      return Status::Corruption("bad ustar magic");
    }

    uint64_t stored_sum = 0;
    HIVESIM_ASSIGN_OR_RETURN(stored_sum,
                             ParseOctal(h.chksum, sizeof(h.chksum)));
    if (stored_sum != HeaderChecksum(h)) {
      return Status::Corruption("tar header checksum mismatch");
    }

    uint64_t size = 0;
    HIVESIM_ASSIGN_OR_RETURN(size, ParseOctal(h.size, sizeof(h.size)));

    TarEntry entry;
    entry.name.assign(h.name, strnlen(h.name, kNameLen));
    // The header's size is a claim, not a fact: read in bounded chunks
    // and grow only as bytes arrive, so a short archive claiming a huge
    // entry costs its own length in memory, not the claimed size.
    while (entry.data.size() < size) {
      const size_t have = entry.data.size();
      const size_t chunk = static_cast<size_t>(
          std::min<uint64_t>(kReadChunk, size - have));
      entry.data.resize(have + chunk);
      in_->read(reinterpret_cast<char*>(entry.data.data() + have),
                static_cast<std::streamsize>(chunk));
      if (static_cast<size_t>(in_->gcount()) != chunk) {
        return Status::Corruption("truncated tar entry data");
      }
    }
    const size_t padding = (kBlockSize - size % kBlockSize) % kBlockSize;
    if (padding > 0) {
      in_->ignore(static_cast<std::streamsize>(padding));
      if (static_cast<size_t>(in_->gcount()) != padding) {
        return Status::Corruption("truncated tar entry padding");
      }
    }
    if (h.typeflag == '0' || h.typeflag == '\0') {
      return std::optional<TarEntry>(std::move(entry));
    }
  }
  return std::optional<TarEntry>(std::nullopt);
}

}  // namespace hivesim::data
