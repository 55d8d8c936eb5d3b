/**
 * @file
 * Fixed-size arrays whose memory the OS supplies zeroed on first touch.
 *
 * Large, mostly idle tables — cache tag arrays and data slabs, the N×N
 * tile-pair traffic matrix — would cost their full size in set-up time
 * and resident memory if value-initialised. A ZeroArray maps anonymous
 * pages instead: construction runs no per-element constructor and
 * touches nothing, and a page becomes resident only when it is first
 * written. Reads of untouched pages see zeros. Mapping directly (rather
 * than calloc) keeps that guarantee independent of the allocator's
 * mmap threshold, which glibc raises after large frees.
 */

#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace graphite
{

/**
 * @tparam T a trivially copyable, trivially destructible type whose
 *           all-zero bit pattern is its initial value.
 */
template <class T>
class ZeroArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);

  public:
    ZeroArray() = default;

    explicit ZeroArray(std::size_t n) : size_(n)
    {
        if (n == 0)
            return;
        void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        // Where transparent huge pages are on for every mapping, one
        // written byte would make 2 MB resident; keep 4 KB granularity.
        // Advice only: an error leaves a working mapping.
        ::madvise(p, bytes(), MADV_NOHUGEPAGE);
        data_ = static_cast<T*>(p);
    }

    ZeroArray(ZeroArray&& o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {
    }

    ZeroArray&
    operator=(ZeroArray&& o) noexcept
    {
        if (this != &o) {
            release();
            data_ = std::exchange(o.data_, nullptr);
            size_ = std::exchange(o.size_, 0);
        }
        return *this;
    }

    ZeroArray(const ZeroArray&) = delete;
    ZeroArray& operator=(const ZeroArray&) = delete;

    ~ZeroArray() { release(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    T* data() { return data_; }
    const T* data() const { return data_; }
    T& operator[](std::size_t i) { return data_[i]; }
    const T& operator[](std::size_t i) const { return data_[i]; }
    T* begin() { return data_; }
    T* end() { return data_ + size_; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }

  private:
    std::size_t bytes() const { return size_ * sizeof(T); }

    void
    release()
    {
        if (data_ != nullptr)
            ::munmap(data_, bytes());
        data_ = nullptr;
        size_ = 0;
    }

    T* data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace graphite
