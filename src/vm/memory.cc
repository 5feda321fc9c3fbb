#include "vm/memory.h"

#include <algorithm>
#include <cstring>

namespace autovac::vm {

MemFault Memory::Read8(uint32_t addr, uint32_t* out) const {
  if (!InBounds(addr, 1)) return MemFault::kOutOfBounds;
  *out = ByteAt(addr);
  return MemFault::kNone;
}

MemFault Memory::Read32(uint32_t addr, uint32_t* out) const {
  if (!InBounds(addr, 4)) return MemFault::kOutOfBounds;
  uint32_t value = 0;
  const uint32_t offset = addr % kPageBytes;
  if (offset <= kPageBytes - 4) {
    std::memcpy(&value, pages_.page(addr / kPageBytes).bytes.data() + offset,
                4);  // little-endian host
  } else {
    for (uint32_t i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(ByteAt(addr + i)) << (8 * i);
    }
  }
  *out = value;
  return MemFault::kNone;
}

MemFault Memory::Write8(uint32_t addr, uint32_t value) {
  if (!InBounds(addr, 1)) return MemFault::kOutOfBounds;
  if (IsReadOnly(addr)) return MemFault::kWriteToReadOnly;
  SetByte(addr, static_cast<uint8_t>(value));
  NoteWrite(addr, 1);
  return MemFault::kNone;
}

MemFault Memory::Write32(uint32_t addr, uint32_t value) {
  if (!InBounds(addr, 4)) return MemFault::kOutOfBounds;
  if (IsReadOnly(addr) || IsReadOnly(addr + 3)) {
    return MemFault::kWriteToReadOnly;
  }
  const uint32_t offset = addr % kPageBytes;
  if (offset <= kPageBytes - 4) {
    std::memcpy(pages_.mutable_page(addr / kPageBytes).bytes.data() + offset,
                &value, 4);
  } else {
    for (uint32_t i = 0; i < 4; ++i) {
      SetByte(addr + i, static_cast<uint8_t>(value >> (8 * i)));
    }
  }
  NoteWrite(addr, 4);
  return MemFault::kNone;
}

void Memory::LoaderWrite(uint32_t addr, std::string_view bytes) {
  AUTOVAC_CHECK_MSG(InBounds(addr, static_cast<uint32_t>(bytes.size())),
                    "loader write out of bounds");
  while (!bytes.empty()) {
    const uint32_t page = addr / kPageBytes;
    const uint32_t offset = addr % kPageBytes;
    const std::string_view chunk =
        bytes.substr(0, std::min<size_t>(bytes.size(), kPageBytes - offset));
    // Zeros (a `buffer` directive) on an untouched page change nothing.
    const bool zeros = std::all_of(chunk.begin(), chunk.end(),
                                   [](char c) { return c == '\0'; });
    if (!zeros || !pages_.is_default(page)) {
      std::memcpy(pages_.mutable_page(page).bytes.data() + offset,
                  chunk.data(), chunk.size());
    }
    addr += static_cast<uint32_t>(chunk.size());
    bytes.remove_prefix(chunk.size());
  }
}

std::string Memory::ReadCString(uint32_t addr, size_t max_len) const {
  std::string out;
  for (size_t i = 0; i < max_len; ++i) {
    uint32_t byte = 0;
    if (Read8(addr + static_cast<uint32_t>(i), &byte) != MemFault::kNone) {
      break;
    }
    if (byte == 0) break;
    out.push_back(static_cast<char>(byte));
  }
  return out;
}

uint32_t Memory::WriteCString(uint32_t addr, std::string_view text,
                              uint32_t capacity) {
  size_t len = text.size();
  if (capacity > 0 && len >= capacity) len = capacity - 1;
  uint32_t written = 0;
  for (size_t i = 0; i < len; ++i) {
    if (Write8(addr + static_cast<uint32_t>(i),
               static_cast<uint8_t>(text[i])) != MemFault::kNone) {
      return written;
    }
    ++written;
  }
  if (Write8(addr + written, 0) == MemFault::kNone) ++written;
  return written;
}

std::string_view Memory::RawView(uint32_t addr, uint32_t size) const {
  AUTOVAC_CHECK_MSG(InBounds(addr, size) && size <= kPageBytes &&
                        addr % kPageBytes <= kPageBytes - size,
                    "RawView out of bounds or across a page");
  const MemoryPage& page = pages_.page(addr / kPageBytes);
  return std::string_view(
      reinterpret_cast<const char*>(page.bytes.data()) + addr % kPageBytes,
      size);
}

}  // namespace autovac::vm
