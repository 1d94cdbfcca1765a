// SmallBytes: a byte string that keeps short contents inside the object.
//
// A request's bytes are tiny: a KV Put command is 17 bytes and its result
// 8, less than a malloc header plus the std::vector that would point at
// them. SmallBytes stores up to kInlineCapacity bytes inline and spills a
// longer string to exactly one heap block, so decoding, copying or
// executing a typical request allocates nothing. It offers the subset of
// std::vector<uint8_t> the code base uses (size/data/begin/end, ==,
// assign, resize/reserve/push_back, capacity) and converts implicitly from
// a vector, so embedders that build commands as vectors keep compiling.
//
// Moves never throw and never allocate (a vector of transactions must
// relocate by move, not by deep copy); a moved-from SmallBytes is empty.

#ifndef PRESTIGE_UTIL_SMALL_BYTES_H_
#define PRESTIGE_UTIL_SMALL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <new>
#include <stdexcept>
#include <vector>

namespace prestige {
namespace util {

class SmallBytes {
 public:
  /// Bytes held without a heap block. 24 keeps the object at 32 bytes.
  static constexpr size_t kInlineCapacity = 24;

  using value_type = uint8_t;
  using size_type = size_t;
  using iterator = uint8_t*;
  using const_iterator = const uint8_t*;

  SmallBytes() noexcept = default;
  SmallBytes(std::initializer_list<uint8_t> bytes) {
    assign(bytes.begin(), bytes.end());
  }
  // Implicit on purpose: a std::vector<uint8_t> command or result converts.
  SmallBytes(const std::vector<uint8_t>& bytes) {  // NOLINT(runtime/explicit)
    assign(bytes.data(), bytes.data() + bytes.size());
  }

  SmallBytes(const SmallBytes& other) { assign(other.begin(), other.end()); }
  SmallBytes(SmallBytes&& other) noexcept { Steal(other); }
  SmallBytes& operator=(const SmallBytes& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallBytes& operator=(SmallBytes&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  ~SmallBytes() { Release(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Bytes storable without a new heap block: kInlineCapacity while
  /// inline, else the size of the one heap block.
  size_t capacity() const { return capacity_; }

  uint8_t* data() { return on_heap() ? storage_.heap : storage_.bytes; }
  const uint8_t* data() const {
    return on_heap() ? storage_.heap : storage_.bytes;
  }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  uint8_t& operator[](size_t i) { return data()[i]; }
  const uint8_t& operator[](size_t i) const { return data()[i]; }

  /// Replaces the contents with [first, last), which may lie inside this
  /// string. Allocates only when the new length exceeds capacity(), and
  /// then exactly that length.
  void assign(const uint8_t* first, const uint8_t* last) {
    const size_t len = static_cast<size_t>(last - first);
    if (len > capacity_) {
      uint8_t* block = Allocate(len);
      std::memcpy(block, first, len);
      Adopt(block, len);
    } else if (len > 0) {
      std::memmove(data(), first, len);
    }
    size_ = static_cast<uint32_t>(len);
  }
  /// Replaces the contents with `len` copies of `value`.
  void assign(size_t len, uint8_t value) {
    size_ = 0;
    resize(len, value);
  }

  void clear() { size_ = 0; }

  /// Grows capacity() to at least `cap`, exactly (no rounding).
  void reserve(size_t cap) {
    if (cap <= capacity_) return;
    uint8_t* block = Allocate(cap);
    if (size_ > 0) std::memcpy(block, data(), size_);
    Adopt(block, cap);
  }
  /// Truncates, or appends copies of `value` up to `len`.
  void resize(size_t len, uint8_t value = 0) {
    reserve(len);
    if (len > size_) std::memset(data() + size_, value, len - size_);
    size_ = static_cast<uint32_t>(len);
  }
  void push_back(uint8_t b) {
    if (size_ == capacity_) reserve(2 * capacity_);
    data()[size_++] = b;
  }

  friend bool operator==(const SmallBytes& a, const SmallBytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator!=(const SmallBytes& a, const SmallBytes& b) {
    return !(a == b);
  }

 private:
  bool on_heap() const { return capacity_ > kInlineCapacity; }

  static uint8_t* Allocate(size_t cap) {
    if (cap > std::numeric_limits<uint32_t>::max()) {
      throw std::length_error("SmallBytes longer than 4 GiB");
    }
    return static_cast<uint8_t*>(::operator new(cap));
  }
  /// Frees the current heap block (if any) and takes `block` of `cap`.
  void Adopt(uint8_t* block, size_t cap) {
    Release();
    storage_.heap = block;
    capacity_ = static_cast<uint32_t>(cap);
  }
  void Release() {
    if (on_heap()) ::operator delete(storage_.heap);
  }
  /// Takes other's bytes or heap block (one fixed-size copy: the union
  /// holds either), leaving `other` empty and inline.
  void Steal(SmallBytes& other) {
    size_ = other.size_;
    capacity_ = other.capacity_;
    storage_ = other.storage_;
    other.size_ = 0;
    other.capacity_ = kInlineCapacity;
  }

  union Storage {
    uint8_t bytes[kInlineCapacity];
    uint8_t* heap;
  };

  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
  Storage storage_ = {};
};

static_assert(sizeof(SmallBytes) == 32);

}  // namespace util
}  // namespace prestige

#endif  // PRESTIGE_UTIL_SMALL_BYTES_H_
