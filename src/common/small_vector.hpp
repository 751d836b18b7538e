// A vector with inline storage for its first N elements.
//
// Events carry a handful of attributes (type, time, source plus a few
// payload fields), so the common case fits entirely inside the owning
// allocation — one heap block per event instead of one per attribute
// node the way a std::map lays them out.  Only the operations the event
// core needs are provided: append, sorted insert, in-place update,
// iteration and comparison.  Spills to the heap past N and never
// shrinks back.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace aa {

template <typename T, std::size_t N>
class SmallVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept {}  // user-provided: allows const-default-construction

  SmallVector(const SmallVector& other) { append_from(other.begin(), other.size()); }

  SmallVector(SmallVector&& other) noexcept {
    if (other.on_heap()) {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_data();
      other.size_ = 0;
      other.capacity_ = N;
    } else {
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
      }
      size_ = other.size_;
      other.clear();
    }
  }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      append_from(other.begin(), other.size());
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      destroy_all();
      if (other.on_heap()) {
        data_ = other.data_;
        size_ = other.size_;
        capacity_ = other.capacity_;
        other.data_ = other.inline_data();
        other.size_ = 0;
        other.capacity_ = N;
      } else {
        data_ = inline_data();
        size_ = other.size_;
        for (std::size_t i = 0; i < size_; ++i) {
          ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
        }
        other.clear();
      }
    }
    return *this;
  }

  ~SmallVector() { destroy_all(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void reserve(std::size_t wanted) {
    if (wanted > capacity_) grow(wanted);
  }

  void push_back(T value) {
    if (size_ == capacity_) grow(capacity_ * 2);
    ::new (static_cast<void*>(data_ + size_)) T(std::move(value));
    ++size_;
  }

  /// Inserts before `pos` (a valid iterator into *this), shifting the
  /// tail one slot right.
  iterator insert(const_iterator pos, T value) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    if (size_ == capacity_) grow(capacity_ * 2);
    if (at == size_) {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(value));
    } else {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(data_[size_ - 1]));
      for (std::size_t i = size_ - 1; i > at; --i) data_[i] = std::move(data_[i - 1]);
      data_[at] = std::move(value);
    }
    ++size_;
    return data_ + at;
  }

  void clear() {
    destroy_all();
    data_ = inline_data();
    size_ = 0;
    capacity_ = N;
  }

  bool operator==(const SmallVector& other) const {
    return size_ == other.size_ && std::equal(begin(), end(), other.begin());
  }

 private:
  T* inline_data() { return reinterpret_cast<T*>(inline_storage_); }
  bool on_heap() const { return data_ != const_cast<SmallVector*>(this)->inline_data(); }

  void append_from(const T* src, std::size_t n) {
    reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ::new (static_cast<void*>(data_ + size_)) T(src[i]);
      ++size_;
    }
  }

  void grow(std::size_t wanted) {
    const std::size_t new_cap = std::max(wanted, capacity_ * 2);
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T), std::align_val_t{alignof(T)}));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (on_heap()) ::operator delete(data_, std::align_val_t{alignof(T)});
    data_ = fresh;
    capacity_ = new_cap;
  }

  void destroy_all() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    if (on_heap()) ::operator delete(data_, std::align_val_t{alignof(T)});
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace aa
