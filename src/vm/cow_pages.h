// Copy-on-write page table: the storage behind guest memory, the taint
// shadow and the determinism origin map.
//
// The array is split into fixed-size pages held by reference-counted
// pointers. Every untouched page points to one shared, immutable default
// page (a value-initialized payload), so a fresh array costs a table of
// pointers, not the address space. Copying an array copies the table and
// counts one more owner per page; a write clones a page only while
// another array still holds it. A machine snapshot, and every resume from
// it, therefore costs O(pages touched).
//
// Threads: distinct arrays that share pages may be read, written, copied
// and destroyed concurrently (one snapshot serves the mutation fan-out's
// resumes). The ownership test before an in-place write is an acquire
// load that pairs with the release decrement of the last other owner, so
// a writer never races a reader that has just let go of the page. One
// array is, like any container, not safe to share between threads.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace autovac::vm {

template <typename Payload, size_t kNumPages>
class CowPages {
 public:
  CowPages() { pages_.fill(DefaultNode()); }
  CowPages(const CowPages& other) : pages_(other.pages_) {
    for (Node* node : pages_) Acquire(node);
  }
  CowPages(CowPages&& other) noexcept : CowPages() {
    std::swap(pages_, other.pages_);
  }
  CowPages& operator=(const CowPages& other) {
    CowPages copy(other);
    std::swap(pages_, copy.pages_);
    return *this;
  }
  CowPages& operator=(CowPages&& other) noexcept {
    std::swap(pages_, other.pages_);
    return *this;
  }
  ~CowPages() {
    for (Node* node : pages_) Release(node);
  }

  [[nodiscard]] const Payload& page(size_t index) const {
    return pages_[index]->payload;
  }

  // The page for writing: cloned first unless this array is its only
  // owner (the default page always has other owners).
  [[nodiscard]] Payload& mutable_page(size_t index) {
    Node*& node = pages_[index];
    if (node == DefaultNode() ||
        node->refs.load(std::memory_order_acquire) != 1) {
      Node* copy = new Node(node->payload);
      Release(node);
      node = copy;
    }
    return node->payload;
  }

  // Whether the page is still the shared default (never written).
  [[nodiscard]] bool is_default(size_t index) const {
    return pages_[index] == DefaultNode();
  }

  // Pages that are not the default page, shared or not.
  [[nodiscard]] size_t owned_pages() const {
    size_t owned = 0;
    for (const Node* node : pages_) owned += node != DefaultNode() ? 1 : 0;
    return owned;
  }

 private:
  struct Node {
    constexpr Node() = default;
    explicit Node(const Payload& copy) : payload(copy) {}
    std::atomic<uint32_t> refs{1};
    Payload payload{};
  };

  // Never counted and never freed: every array shares it.
  static Node* DefaultNode() { return &default_node_; }

  static void Acquire(Node* node) {
    if (node != DefaultNode()) {
      node->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  static void Release(Node* node) {
    if (node != DefaultNode() &&
        node->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete node;
    }
  }

  static constinit inline Node default_node_{};
  std::array<Node*, kNumPages> pages_;
};

}  // namespace autovac::vm
