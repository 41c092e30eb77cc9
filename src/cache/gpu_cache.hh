/**
 * @file
 * The GPU cache controller used for both the per-CU L1s and the
 * banked shared L2.
 *
 * Implements the mechanisms the paper's evaluation depends on:
 *  - non-blocking misses with MSHR target coalescing;
 *  - a bypass path whose reads coalesce in a pending table while the
 *    original bypass request is in flight (Section III);
 *  - blocking allocation: when every way of the target set is busy
 *    (fill pending), the request stalls - the paper's primary cache
 *    stall source (Section VI.C.1) - unless allocation bypass is
 *    enabled (Section VII.A), in which case the request is converted
 *    to a bypass request;
 *  - write coalescing at the L2 (CacheRW): store misses allocate
 *    dirty without fetching, and dirty data drains on eviction or at
 *    system-scope flushes (Section III);
 *  - Dirty-Block Index row rinsing (Section VII.B);
 *  - PC-based L2 bypass prediction for loads and stores
 *    (Section VII.C).
 */

#ifndef MIGC_CACHE_GPU_CACHE_HH
#define MIGC_CACHE_GPU_CACHE_HH

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/dbi.hh"
#include "cache/mshr.hh"
#include "cache/tags.hh"
#include "dram/address_map.hh"
#include "mem/packet_pool.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "policy/policy_engine.hh"
#include "policy/reuse_predictor.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace migc
{

/** Construction parameters for one cache (bank). */
struct GpuCacheConfig
{
    std::string name = "cache";
    std::uint64_t size = 16 * 1024;
    unsigned assoc = 16;
    unsigned lineSize = 64;

    /** Tag+data pipeline depth for a hit, in cycles. */
    Cycles lookupLatency{4};

    /** Fill-to-response latency, in cycles. */
    Cycles responseLatency{2};

    /** Latency of the bypass path, in cycles. */
    Cycles bypassLatency{1};

    std::size_t mshrs = 32;
    std::size_t targetsPerMshr = 16;

    /** Pending-table entries for in-flight bypass reads. */
    std::size_t bypassEntries = 64;

    /** Outstanding evicted-dirty writebacks before allocation blocks. */
    std::size_t writeBufDepth = 16;

    /** Downstream request queue depth. */
    std::size_t memQueueDepth = 32;

    Tick clockPeriod = 625;
    ReplKind repl = ReplKind::lru;
    std::uint64_t seed = 1;

    /** log2 of the bank count this cache is one bank of (strips the
     *  bank-interleave bits from the set index). */
    unsigned bankInterleaveBits = 0;

    // --- policy-controlled behavior ---
    bool cacheLoads = true;
    bool cacheStores = false;
    bool allocationBypass = false;
    bool rinsing = false;
    std::size_t dbiRows = 64;
};

class GpuCache : public SimObject
{
  public:
    /**
     * @param addr_map DRAM address map; required when rinsing is on
     *                 (row ids), otherwise may be null.
     * @param predictor shared PC reuse predictor, or null to disable
     *                  prediction at this cache.
     * @param engine the owning System's policy engine, consulted at
     *               every allocate/bypass/rinse decision point, or
     *               null for standalone (unit-test) caches, which
     *               then behave exactly as their static config flags.
     * @param level which hierarchy level this cache serves; selects
     *              the engine's per-level verdicts.
     */
    GpuCache(const GpuCacheConfig &cfg, EventQueue &eq, PacketPool &pool,
             const AddressMap *addr_map, ReusePredictor *predictor,
             PolicyEngine *engine = nullptr,
             CacheLevel level = CacheLevel::l1);

    ~GpuCache() override;

    ResponsePort &cpuSidePort() { return cpuPort_; }

    RequestPort &memSidePort() { return memPort_; }

    /** Kernel-boundary self-invalidation of clean valid data. */
    std::uint64_t invalidateClean();

    /**
     * Write back all dirty data (system-scope synchronization).
     * @p on_done fires when every writeback has been acknowledged.
     */
    void flushDirty(std::function<void()> on_done);

    /** True when no request, fill, or writeback is in flight. */
    bool quiescent() const;

    /** The per-run mutable subset of GpuCacheConfig (reset()). */
    struct PolicyView
    {
        bool cacheLoads;
        bool cacheStores;
        bool allocationBypass;
        bool rinsing;
        std::uint64_t seed;
    };

    /**
     * Return the cache to its just-constructed state under a new
     * policy/seed combination while keeping every allocation (tag
     * array, DBI, MSHR buckets, queue storage) warm - reset performs
     * zero heap allocations. The geometry is fixed at construction;
     * only @p pv and the predictor binding change. The cache must be
     * quiescent. Part of System::reset().
     */
    void reset(const PolicyView &pv, ReusePredictor *predictor);

    void regStats(StatGroup &group) override;

    const Tags &tags() const { return tags_; }

    /** Demand hits + misses (the hit_rate formula's denominator). */
    double demandAccesses() const
    {
        return statHits_.value() + statMisses_.value();
    }

  private:
    // --- ports ---
    class CpuSidePort : public ResponsePort
    {
      public:
        CpuSidePort(std::string name, GpuCache &cache)
            : ResponsePort(std::move(name)), cache_(cache)
        {}

        bool
        recvTimingReq(PacketPtr pkt) override
        {
            return cache_.handleRequest(pkt);
        }

      private:
        GpuCache &cache_;
    };

    class MemSidePort : public RequestPort
    {
      public:
        MemSidePort(std::string name, GpuCache &cache)
            : RequestPort(std::move(name)), cache_(cache)
        {}

        void
        recvTimingResp(PacketPtr pkt) override
        {
            cache_.handleResponse(pkt);
        }

        void recvReqRetry() override { cache_.memQueue_.retry(); }

      private:
        GpuCache &cache_;
    };

    /** Why a request was rejected (for stats and waiter wakeup). */
    enum class RejectReason
    {
        port,        ///< tag/bypass port occupied this cycle
        mshrFull,
        targetsFull,
        bypassFull,
        allocBlocked, ///< every way in the set busy
        writeBufFull,
        memQueueFull,
    };

    // --- request paths ---
    bool handleRequest(PacketPtr pkt);

    /** Per-request store verdict: does a store to @p addr coalesce
     *  here? Static policies answer with the capability flag alone;
     *  set dueling asks the engine for the set's constituency. */
    bool storeAllocates(Addr addr);

    /** Adaptive pre-bypass: convert this cached request to a bypass
     *  because its target set's occupancy crossed the threshold? */
    bool occupancyPreBypass(PacketPtr pkt);

    /** Duel cost accounting for leader sets (no-op unless dueling). */
    void noteDuelCost(Addr addr, DuelRole charged_role);

    bool cachedRead(PacketPtr pkt);
    bool cachedWrite(PacketPtr pkt);
    bool bypassRead(PacketPtr pkt);
    bool bypassWrite(PacketPtr pkt);

    // --- response paths ---
    void handleResponse(PacketPtr pkt);
    void completeFill(PacketPtr fill_pkt);
    void completeBypassRead(PacketPtr fwd_pkt);
    void handleWritebackResp(PacketPtr pkt);

    // --- eviction / writeback machinery ---
    /**
     * Make @p blk reusable: write it back if dirty (plus the DBI
     * rinse set when enabled) and invalidate it.
     */
    void evictBlock(CacheBlk *blk);
    void scheduleWriteback(Addr line_addr, std::uint32_t flags);
    void drainWritebacks();
    void checkFlushDone();

    // --- flow control ---
    /**
     * Refuse the current request. @p counted_stall selects whether
     * the blocked time counts as a cache stall (a ready request
     * blocked from querying the cache, Section VI.C.1) or as memory
     * back-pressure (bypass traffic waiting on a full downstream
     * queue, which does not query the cache at all).
     */
    bool reject(RejectReason reason, bool counted_stall);
    void accepted();
    void maybeSendRetry();
    void occupyPort();

    /** Train the predictor for a block leaving the cache. */
    void trainOnEviction(const CacheBlk &blk);

    GpuCacheConfig cfg_;
    PacketPool &pktPool_;
    const AddressMap *addrMap_;
    ReusePredictor *predictor_;
    PolicyEngine *engine_;
    CacheLevel level_;

    Tags tags_;
    MshrFile mshrs_;
    std::unique_ptr<DirtyBlockIndex> dbi_;

    CpuSidePort cpuPort_;
    MemSidePort memPort_;
    RespPacketQueue respQueue_;
    ReqPacketQueue memQueue_;

    /** In-flight bypass reads: line addr -> waiting targets. */
    struct BypassEntry
    {
        std::uint64_t fwdPktId = 0;
        std::vector<PacketPtr> targets;
    };
    std::unordered_map<Addr, BypassEntry> bypassPending_;

    /** Writebacks awaiting downstream queue space. */
    struct PendingWb
    {
        Addr lineAddr;
        std::uint32_t flags;
    };
    std::deque<PendingWb> wbQueue_;
    std::size_t outstandingWbs_ = 0;
    EventFunctionWrapper wbDrainEvent_;

    std::function<void()> flushDone_;

    Tick nextPortFree_ = 0;
    bool retryNeeded_ = false;
    bool stalled_ = false;
    Tick stallStart_ = 0;
    bool backpressured_ = false;
    Tick backpressureStart_ = 0;
    EventFunctionWrapper retryEvent_;

    // --- statistics ---
    StatScalar statHits_;
    StatScalar statMisses_;
    StatScalar statMshrCoalesced_;
    StatScalar statBypassReads_;
    StatScalar statBypassWrites_;
    StatScalar statBypassCoalesced_;
    StatScalar statStoresAbsorbed_;
    StatScalar statWritebacks_;
    StatScalar statRinseWritebacks_;
    StatScalar statRinseDeferred_;
    StatScalar statFlushWritebacks_;
    StatScalar statAllocBlockedRejects_;
    StatScalar statAllocBypassed_;
    StatScalar statPredictorBypasses_;
    StatScalar statStallCycles_;
    StatScalar statBackpressureCycles_;
    StatScalar statRejects_;
    StatScalar statRejectPort_;
    StatScalar statRejectMshr_;
    StatScalar statRejectMemq_;
    StatScalar statInvalidations_;
};

} // namespace migc

#endif // MIGC_CACHE_GPU_CACHE_HH
