#include "common/lockdep.h"
#include "obs/profiler.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "common/strfmt.h"
#include "common/table.h"

namespace graphite
{
namespace obs
{

std::atomic<bool> HostProfiler::enabledFlag_{false};

HostProfiler&
HostProfiler::instance()
{
    static HostProfiler profiler;
    return profiler;
}

void
HostProfiler::setEnabled(bool on)
{
    enabledFlag_.store(on, std::memory_order_relaxed);
}

HostProfiler::Site&
HostProfiler::site(const char* name)
{
    lockdep::Guard lock(mutex_);
    for (const auto& s : sites_) {
        if (std::strcmp(s->name, name) == 0)
            return *s;
    }
    sites_.push_back(std::make_unique<Site>(name));
    return *sites_.back();
}

void
HostProfiler::reset()
{
    lockdep::Guard lock(mutex_);
    for (const auto& s : sites_) {
        s->calls.store(0, std::memory_order_relaxed);
        s->totalNs.store(0, std::memory_order_relaxed);
        s->maxNs.store(0, std::memory_order_relaxed);
    }
}

std::string
HostProfiler::report() const
{
    struct Entry
    {
        const char* name;
        std::uint64_t calls, totalNs, maxNs;
    };
    std::vector<Entry> entries;
    {
        lockdep::Guard lock(mutex_);
        for (const auto& s : sites_) {
            std::uint64_t calls =
                s->calls.load(std::memory_order_relaxed);
            if (calls == 0)
                continue;
            entries.push_back(
                Entry{s->name, calls,
                      s->totalNs.load(std::memory_order_relaxed),
                      s->maxNs.load(std::memory_order_relaxed)});
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                  return a.totalNs > b.totalNs;
              });

    TextTable table;
    table.header({"scope", "calls", "total ms", "avg us", "max us"});
    for (const Entry& e : entries) {
        table.row({e.name, std::to_string(e.calls),
                   TextTable::num(e.totalNs / 1e6, 3),
                   TextTable::num(e.totalNs / 1e3 /
                                      static_cast<double>(e.calls),
                                  2),
                   TextTable::num(e.maxNs / 1e3, 2)});
    }
    // ru_maxrss is the process's high-water resident set, in KiB.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return table.render() +
           strfmt("peak rss          : {} MB\n",
                  TextTable::num(static_cast<double>(ru.ru_maxrss) /
                                     1024.0,
                                 1));
}

} // namespace obs
} // namespace graphite
