// The 1 MiB guest address space with segment permissions, stored as
// copy-on-write pages (cow_pages.h): a fresh machine, a snapshot of it
// and a resume from that snapshot each cost O(pages touched).
//
// Layout (constants below):
//   .rdata  — read-only constants (static identifier strings live here;
//             the determinism analysis classifies reads from this segment
//             as `static` sources, exactly as the paper does for x86
//             .rdata)
//   .data   — read/write globals and buffers
//   heap    — bump-allocated by the kernel's VirtualAlloc
//   stack   — grows down from kStackTop
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.h"
#include "vm/cow_pages.h"

namespace autovac::vm {

inline constexpr uint32_t kMemSize = 0x100000;  // 1 MiB
inline constexpr uint32_t kRdataBase = 0x1000;
inline constexpr uint32_t kRdataEnd = 0x10000;
inline constexpr uint32_t kDataBase = 0x10000;
inline constexpr uint32_t kDataEnd = 0x40000;
inline constexpr uint32_t kHeapBase = 0x40000;
inline constexpr uint32_t kHeapEnd = 0xE0000;
inline constexpr uint32_t kStackBase = 0xE0000;  // lowest valid stack byte
inline constexpr uint32_t kStackTop = 0xFFFF0;   // initial ESP

// Copy-on-write granularity of guest memory and of every per-byte shadow
// of it (taint labels, determinism origins).
inline constexpr uint32_t kPageBytes = 4096;
inline constexpr uint32_t kNumPages = kMemSize / kPageBytes;

// Write-then-execute tracking granularity. Guest stores bump a per-page
// write generation; the CPU records the generation it last decoded per
// page, so executing a page whose bytes changed since the last decode is
// detectable in O(1) — the "concatic" unpacking detector.
inline constexpr uint32_t kCodePageSize = 256;
inline constexpr uint32_t kNumCodePages = kMemSize / kCodePageSize;
inline constexpr uint32_t kCodePagesPerPage = kPageBytes / kCodePageSize;

// Result of a memory access attempt.
enum class MemFault {
  kNone = 0,
  kOutOfBounds,
  kWriteToReadOnly,
};

// One copy-on-write page of guest memory. The write/exec generations of
// its code pages live inside it, so they travel with every copy.
struct MemoryPage {
  std::array<uint8_t, kPageBytes> bytes{};
  std::array<uint32_t, kCodePagesPerPage> write_gen{};
  std::array<uint32_t, kCodePagesPerPage> exec_gen{};
};

class Memory {
 public:
  // Direct byte accessors with bounds/permission checking. `enforce_ro`
  // is dropped during program loading.
  [[nodiscard]] MemFault Read8(uint32_t addr, uint32_t* out) const;
  [[nodiscard]] MemFault Read32(uint32_t addr, uint32_t* out) const;
  [[nodiscard]] MemFault Write8(uint32_t addr, uint32_t value);
  [[nodiscard]] MemFault Write32(uint32_t addr, uint32_t value);

  // Loader-only: writes that ignore read-only protection.
  void LoaderWrite(uint32_t addr, std::string_view bytes);

  // Reads a NUL-terminated string (capped at `max_len`); returns what was
  // readable even if the terminator is missing.
  [[nodiscard]] std::string ReadCString(uint32_t addr,
                                        size_t max_len = 4096) const;

  // Writes `text` plus a NUL terminator; truncates to fit `capacity` when
  // capacity > 0. Returns bytes written including the NUL.
  uint32_t WriteCString(uint32_t addr, std::string_view text,
                        uint32_t capacity = 0);

  // Raw view of [addr, addr+size), which must lie inside one page (the
  // CPU reads whole 256-byte code pages). No permission checks; valid
  // until the next write to this Memory.
  [[nodiscard]] std::string_view RawView(uint32_t addr, uint32_t size) const;

  [[nodiscard]] static bool InBounds(uint32_t addr, uint32_t size) {
    return addr < kMemSize && size <= kMemSize - addr;
  }
  [[nodiscard]] static bool IsReadOnly(uint32_t addr) {
    return addr >= kRdataBase && addr < kRdataEnd;
  }
  [[nodiscard]] static bool IsRdata(uint32_t addr) { return IsReadOnly(addr); }

  // --- write-then-execute tracking -------------------------------------
  // Guest stores (Write8/Write32/WriteCString) bump the write generation
  // of every page they touch; LoaderWrite does not — the loaded image is
  // the baseline, only runtime self-modification counts. The CPU stamps
  // exec generations as it decodes, so both live inside Memory and ride
  // along with machine snapshots for free.
  [[nodiscard]] static uint32_t PageOf(uint32_t addr) {
    return addr / kCodePageSize;
  }
  [[nodiscard]] uint32_t page_write_gen(uint32_t page) const {
    return pages_.page(page / kCodePagesPerPage)
        .write_gen[page % kCodePagesPerPage];
  }
  [[nodiscard]] uint32_t page_exec_gen(uint32_t page) const {
    return pages_.page(page / kCodePagesPerPage)
        .exec_gen[page % kCodePagesPerPage];
  }
  void set_page_exec_gen(uint32_t page, uint32_t gen) {
    pages_.mutable_page(page / kCodePagesPerPage)
        .exec_gen[page % kCodePagesPerPage] = gen;
  }

  // Pages loaded or written since construction, shared with copies or
  // not: what a copy references beyond the shared zero page.
  [[nodiscard]] size_t owned_pages() const { return pages_.owned_pages(); }

 private:
  void NoteWrite(uint32_t addr, uint32_t size) {
    const uint32_t first = PageOf(addr);
    const uint32_t last = PageOf(addr + size - 1);
    BumpWriteGen(first);
    if (last != first) BumpWriteGen(last);
  }
  void BumpWriteGen(uint32_t page) {
    ++pages_.mutable_page(page / kCodePagesPerPage)
          .write_gen[page % kCodePagesPerPage];
  }
  [[nodiscard]] uint8_t ByteAt(uint32_t addr) const {
    return pages_.page(addr / kPageBytes).bytes[addr % kPageBytes];
  }
  void SetByte(uint32_t addr, uint8_t value) {
    pages_.mutable_page(addr / kPageBytes).bytes[addr % kPageBytes] = value;
  }

  CowPages<MemoryPage, kNumPages> pages_;
};

// One `T` per guest byte, stored like Memory in copy-on-write pages that
// all start as the shared T{} page: the taint shadow and the determinism
// origin map. Writing T{} to an untouched page allocates nothing.
template <typename T>
class ShadowMemory {
 public:
  [[nodiscard]] T Get(uint32_t addr) const {
    return pages_.page(addr / kPageBytes)[addr % kPageBytes];
  }
  void Set(uint32_t addr, T value) {
    const uint32_t page = addr / kPageBytes;
    if (value == T{} && pages_.is_default(page)) return;
    pages_.mutable_page(page)[addr % kPageBytes] = value;
  }

  // Pages that hold a non-default element (or once did).
  [[nodiscard]] size_t owned_pages() const { return pages_.owned_pages(); }

 private:
  CowPages<std::array<T, kPageBytes>, kNumPages> pages_;
};

}  // namespace autovac::vm
