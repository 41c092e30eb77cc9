/**
 * @file
 * Full-system assembly: GPU -> per-CU L1s -> crossbar -> banked L2
 * -> HBM2 controller, with a caching policy applied across the
 * hierarchy and the dispatcher's synchronization hooks wired up.
 */

#ifndef MIGC_CORE_SYSTEM_HH
#define MIGC_CORE_SYSTEM_HH

#include <memory>
#include <string_view>
#include <vector>

#include "cache/gpu_cache.hh"
#include "core/sim_config.hh"
#include "dram/dram_ctrl.hh"
#include "gpu/gpu.hh"
#include "mem/packet_pool.hh"
#include "mem/xbar.hh"
#include "policy/cache_policy.hh"
#include "policy/policy_engine.hh"
#include "policy/reuse_predictor.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace migc
{

class System
{
  public:
    System(const SimConfig &cfg, const CachePolicy &policy);

    /**
     * Return the whole system to the state a fresh
     * System(cfg-with-@p seed, @p policy) would have, while keeping
     * every allocation warm: PacketPool chunks, the event-heap
     * array, tag/DBI storage, queue buffers, and DRAM bank state all
     * stay resident. Only the policy and the seed may change; the
     * geometry is fixed at construction (see
     * SimConfig::structurallyEqual for what a caller must check
     * before reusing a System for a different SimConfig).
     *
     * Requires a quiescent system - i.e. the previous run completed
     * (the dispatcher's done callback fired). A reset system is
     * bit-identical in behavior to a freshly built one; the golden
     * determinism suite pins this.
     */
    void reset(const CachePolicy &policy, std::uint64_t seed);

    EventQueue &eventQueue() { return eventq_; }

    /** Shared packet recycler for every component in this system. */
    PacketPool &packetPool() { return pktPool_; }

    Gpu &gpu() { return *gpu_; }

    DramCtrl &dram() { return *dram_; }

    GpuCache &l1(unsigned i) { return *l1s_.at(i); }

    GpuCache &l2Bank(unsigned i) { return *l2Banks_.at(i); }

    unsigned numL2Banks() const
    {
        return static_cast<unsigned>(l2Banks_.size());
    }

    ReusePredictor &predictor() { return predictor_; }

    /** The run's policy decision engine (shared by every cache). */
    PolicyEngine &policyEngine() { return engine_; }

    const SimConfig &config() const { return cfg_; }

    const CachePolicy &policy() const { return policy_; }

    StatGroup &stats() { return stats_; }

    /** No request, fill, or writeback in flight anywhere. */
    bool memSystemQuiescent() const;

  private:
    /**
     * The single source of truth for how the current policy and
     * seed map onto one cache's mutable flags; both construction
     * (via l1ConfigFor/l2ConfigFor) and reset() go through these.
     * @p name is the cache's seed-stream label. Allocation-free.
     */
    GpuCache::PolicyView l1PolicyView(std::string_view name) const;
    GpuCache::PolicyView l2PolicyView(std::string_view name) const;

    /** L1 config for CU @p i under the current policy and seed. */
    GpuCacheConfig l1ConfigFor(unsigned i) const;

    /** L2 bank config for bank @p j under the current policy/seed. */
    GpuCacheConfig l2ConfigFor(unsigned j) const;

    SimConfig cfg_;
    CachePolicy policy_;
    PolicyEngine engine_;
    EventQueue eventq_;
    /** Declared before the components so packet storage outlives
     *  anything that might still reference it at teardown. */
    PacketPool pktPool_;
    ReusePredictor predictor_;

    std::unique_ptr<Gpu> gpu_;
    std::vector<std::unique_ptr<GpuCache>> l1s_;
    std::unique_ptr<XBar> xbar_;
    std::vector<std::unique_ptr<GpuCache>> l2Banks_;
    std::unique_ptr<DramCtrl> dram_;

    StatGroup stats_;
};

} // namespace migc

#endif // MIGC_CORE_SYSTEM_HH
