#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "common/strfmt.h"
#include "snapshot/snapshot.h"

namespace graphite
{

Cache::Cache(std::string name, std::uint64_t size_bytes,
             int associativity, std::uint64_t line_size)
    : name_(std::move(name)),
      capacity_(size_bytes),
      assoc_(associativity),
      lineSize_(line_size)
{
    if (line_size == 0 || !std::has_single_bit(line_size))
        fatal("cache {}: line size {} is not a power of two", name_,
              line_size);
    if (associativity <= 0)
        fatal("cache {}: associativity must be positive", name_);
    if (size_bytes == 0 ||
        size_bytes % (line_size * static_cast<std::uint64_t>(assoc_)) != 0)
        fatal("cache {}: size {} not divisible by line*assoc", name_,
              size_bytes);
    numSets_ = size_bytes / (line_size * assoc_);
    const std::uint64_t lines = numSets_ * assoc_;
    if (lines > UINT32_MAX)
        fatal("cache {}: {} lines exceed the 2^32 slot limit", name_,
              lines);
    lineShift_ = std::countr_zero(line_size);
    setsPow2_ = std::has_single_bit(numSets_);
    lines_ = ZeroArray<CacheLine>(lines);
    slab_ = ZeroArray<std::uint8_t>(size_bytes);
    filledSets_.resize((numSets_ + 63) / 64);
}

void
Cache::markFilled(std::uint64_t set)
{
    filledSets_[set / 64] |= std::uint64_t{1} << (set % 64);
}

CacheLine*
Cache::lookup(addr_t line_addr)
{
    std::uint64_t set = setIndex(line_addr);
    CacheLine* base = &lines_[set * assoc_];
    for (int w = 0; w < assoc_; ++w) {
        if (base[w].valid() && base[w].lineAddr == line_addr)
            return &base[w];
    }
    return nullptr;
}

const CacheLine*
Cache::lookup(addr_t line_addr) const
{
    return const_cast<Cache*>(this)->lookup(line_addr);
}

CacheLine*
Cache::find(addr_t addr)
{
    return lookup(lineAlign(addr));
}

const CacheLine*
Cache::find(addr_t addr) const
{
    return lookup(lineAlign(addr));
}

CacheLine*
Cache::access(addr_t addr, bool is_write)
{
    ++accesses_;
    CacheLine* line = find(addr);
    if (line == nullptr) {
        ++misses_;
        return nullptr;
    }
    if (is_write && line->state == CacheState::Exclusive) {
        // MESI silent upgrade: the sole clean owner gains write
        // permission without a directory transaction.
        line->state = CacheState::Modified;
    }
    if (is_write && line->state != CacheState::Modified) {
        // Upgrade required: treated as a miss by the caller's protocol
        // logic, but the probe itself found data. Count as miss so
        // write-permission misses show up in the stats.
        ++misses_;
        line->lruStamp = ++lruCounter_;
        return nullptr;
    }
    line->lruStamp = ++lruCounter_;
    return line;
}

bool
Cache::sufficient(const CacheLine* line, bool is_write)
{
    if (line == nullptr || !line->valid())
        return false;
    return !is_write || line->state == CacheState::Modified ||
           line->state == CacheState::Exclusive;
}

CacheProbe
Cache::probe(addr_t addr, bool is_write) const
{
    const CacheLine* line = find(addr);
    if (line == nullptr)
        return CacheProbe::Miss;
    if (sufficient(line, is_write))
        return CacheProbe::Hit;
    return CacheProbe::NeedsUpgrade;
}

std::optional<addr_t>
Cache::peekVictim(addr_t line_addr) const
{
    GRAPHITE_ASSERT(lineAlign(line_addr) == line_addr);
    if (lookup(line_addr) != nullptr)
        return std::nullopt; // already present: insert() is illegal
    std::uint64_t set = setIndex(line_addr);
    const CacheLine* base = &lines_[set * assoc_];
    const CacheLine* victim = nullptr;
    for (int w = 0; w < assoc_; ++w) {
        if (!base[w].valid())
            return std::nullopt; // free way: no eviction
        if (victim == nullptr || base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    return victim->lineAddr;
}

Insertion
Cache::insert(addr_t line_addr, CacheState state)
{
    GRAPHITE_ASSERT(lineAlign(line_addr) == line_addr);
    GRAPHITE_ASSERT(state != CacheState::Invalid);
    GRAPHITE_ASSERT(lookup(line_addr) == nullptr);

    std::uint64_t set = setIndex(line_addr);
    CacheLine* base = &lines_[set * assoc_];
    int way = -1;
    for (int w = 0; w < assoc_; ++w) {
        if (!base[w].valid()) {
            way = w;
            break;
        }
        if (way < 0 || base[w].lruStamp < base[way].lruStamp)
            way = w;
    }

    CacheLine& line = base[way];
    Insertion out;
    if (line.valid()) {
        ++evictions_;
        out.victim = Eviction{line.lineAddr,
                              line.state == CacheState::Modified,
                              data(line)};
    }
    line.lineAddr = line_addr;
    line.state = state;
    line.lruStamp = ++lruCounter_;
    line.slot = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(way) * numSets_ + set);
    markFilled(set);
    out.data = data(line);
    return out;
}

std::optional<Eviction>
Cache::invalidate(addr_t line_addr)
{
    CacheLine* line = lookup(line_addr);
    if (line == nullptr)
        return std::nullopt;
    ++invalidations_;
    Eviction out{line->lineAddr, line->state == CacheState::Modified,
                 data(*line)};
    line->state = CacheState::Invalid;
    return out;
}

std::span<const std::uint8_t>
Cache::downgrade(addr_t line_addr)
{
    CacheLine* line = lookup(line_addr);
    if (line == nullptr || (line->state != CacheState::Modified &&
                            line->state != CacheState::Exclusive))
        return {};
    line->state = CacheState::Shared;
    return data(*line); // the line keeps its bytes in Shared state
}

double
Cache::missRate() const
{
    return accesses_ == 0
               ? 0.0
               : static_cast<double>(misses_) /
                     static_cast<double>(accesses_);
}

std::vector<const CacheLine*>
Cache::validLines() const
{
    // Only sets that ever held a line are read, so the tag pages of a
    // sparse cache stay untouched.
    std::vector<const CacheLine*> out;
    for (std::size_t word = 0; word < filledSets_.size(); ++word) {
        for (std::uint64_t bits = filledSets_[word]; bits != 0;
             bits &= bits - 1) {
            const std::uint64_t set = word * 64 + std::countr_zero(bits);
            for (int w = 0; w < assoc_; ++w) {
                const CacheLine& line = lines_[set * assoc_ + w];
                if (line.valid())
                    out.push_back(&line);
            }
        }
    }
    return out;
}

void
Cache::saveState(snapshot::SnapshotWriter& w) const
{
    w.u64(static_cast<std::uint64_t>(lines_.size()));
    w.u64(lruCounter_);
    w.u64(accesses_);
    w.u64(misses_);
    w.u64(evictions_);
    w.u64(invalidations_);
    // A valid line carries lineSize_ bytes and an invalid one none: the
    // layout the per-line byte vectors of earlier versions produced.
    for (const CacheLine& line : lines_) {
        w.u64(line.lineAddr);
        w.u8(static_cast<std::uint8_t>(line.state));
        w.u64(line.lruStamp);
        const auto bytes = line.valid() ? data(line)
                                        : std::span<const std::uint8_t>{};
        w.bytes(bytes.data(), bytes.size());
    }
}

void
Cache::loadState(snapshot::SnapshotReader& r)
{
    std::uint64_t count = r.u64();
    if (count != lines_.size())
        throw snapshot::SnapshotError(
            strfmt("snapshot: cache '{}' geometry mismatch ({} lines "
                   "in snapshot, {} configured)",
                   name_, count, lines_.size()));
    lruCounter_ = r.u64();
    accesses_ = r.u64();
    misses_ = r.u64();
    evictions_ = r.u64();
    invalidations_ = r.u64();
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        for (int way = 0; way < assoc_; ++way) {
            CacheLine& line = lines_[set * assoc_ + way];
            line.lineAddr = r.u64();
            line.state = static_cast<CacheState>(r.u8());
            line.lruStamp = r.u64();
            line.slot = static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(way) * numSets_ + set);
            std::uint8_t none = 0;
            if (line.valid()) {
                markFilled(set);
                r.bytesInto(data(line).data(), lineSize_);
            } else {
                r.bytesInto(&none, 0);
            }
        }
    }
}

} // namespace graphite
