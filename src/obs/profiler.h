/**
 * @file
 * Host-side self-profiling: RAII wall-clock timers around simulator
 * phases (init, run, barrier waits, MCP dispatch, transport polling),
 * reported as a final table so simulator overhead (paper Table 2) is
 * attributable by component.
 *
 * Usage at a call site:
 *
 * @code
 *   {
 *       GRAPHITE_PROFILE_SCOPE("mcp.dispatch");
 *       ... timed work ...
 *   }
 * @endcode
 *
 * The macro resolves the named Site once (function-local static), so the
 * steady-state cost is one relaxed atomic load when profiling is
 * disabled, and two clock reads plus three relaxed atomic adds when
 * enabled. Sites accumulate call count, total and max wall nanoseconds.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>
#include "common/lockdep.h"

namespace graphite
{
namespace obs
{

/** Process-global registry of profiling sites. */
class HostProfiler
{
  public:
    /** Accumulators for one named scope. */
    struct Site
    {
        const char* name;
        std::atomic<std::uint64_t> calls{0};
        std::atomic<std::uint64_t> totalNs{0};
        std::atomic<std::uint64_t> maxNs{0};

        explicit Site(const char* n) : name(n) {}
    };

    static HostProfiler& instance();

    /** Cached enable flag (hot-path check). */
    static bool
    enabled()
    {
        return enabledFlag_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on);

    /**
     * Find-or-create the site for @p name (matched by string value).
     * The returned reference stays valid for the process lifetime.
     */
    Site& site(const char* name);

    /** Zero all accumulators (sites persist; used between runs). */
    void reset();

    /**
     * Render the self-profile table, sites sorted by total time
     * descending (sites never entered are omitted), then the process's
     * peak resident set size so far ("peak rss : N MB", getrusage).
     */
    std::string report() const;

  private:
    static std::atomic<bool> enabledFlag_;

    mutable lockdep::OrderedMutex mutex_{lockdep::LockClass::profiler};
    std::vector<std::unique_ptr<Site>> sites_;
};

/** RAII timer charging a HostProfiler::Site. */
class ProfileScope
{
  public:
    explicit ProfileScope(HostProfiler::Site& site)
    {
        if (HostProfiler::enabled()) {
            site_ = &site;
            t0_ = std::chrono::steady_clock::now();
        }
    }

    ~ProfileScope()
    {
        if (site_ == nullptr)
            return;
        auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0_)
                .count());
        site_->calls.fetch_add(1, std::memory_order_relaxed);
        site_->totalNs.fetch_add(ns, std::memory_order_relaxed);
        std::uint64_t prev =
            site_->maxNs.load(std::memory_order_relaxed);
        while (prev < ns &&
               !site_->maxNs.compare_exchange_weak(
                   prev, ns, std::memory_order_relaxed)) {
        }
    }

    ProfileScope(const ProfileScope&) = delete;
    ProfileScope& operator=(const ProfileScope&) = delete;

  private:
    HostProfiler::Site* site_ = nullptr;
    std::chrono::steady_clock::time_point t0_;
};

/** Time the enclosing block under @p name (one use per block). */
#define GRAPHITE_PROFILE_SCOPE(name)                                       \
    static ::graphite::obs::HostProfiler::Site& graphite_prof_site =      \
        ::graphite::obs::HostProfiler::instance().site(name);             \
    ::graphite::obs::ProfileScope graphite_prof_scope(graphite_prof_site)

} // namespace obs
} // namespace graphite
