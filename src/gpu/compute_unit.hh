/**
 * @file
 * A GCN-like compute unit: 4 SIMDs x 10 wavefront slots, one vector
 * instruction issued per SIMD per cycle, a coalescer feeding a
 * bounded per-CU memory queue, and an L1 port with retry flow
 * control.
 *
 * The tick is armed only for the earliest cycle at which it can
 * change something: the next edge while the memory queue can drain,
 * else the earliest free cycle of a SIMD holding a runnable
 * wavefront. With nothing runnable the CU sleeps until signalWork()
 * (port retry, a load that releases a waiting wavefront, or a
 * workgroup dispatch). Results and stats are those of a CU that
 * ticks every cycle while work is pending: a sleeping CU keeps its
 * place in the same-tick order and counts the skipped cycles as
 * active on wake (see tick() and signalWork()).
 */

#ifndef MIGC_GPU_COMPUTE_UNIT_HH
#define MIGC_GPU_COMPUTE_UNIT_HH

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/wavefront.hh"
#include "mem/packet_pool.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace migc
{

class ComputeUnit : public SimObject
{
  public:
    ComputeUnit(std::string name, EventQueue &eq, PacketPool &pool,
                const GpuConfig &cfg, unsigned cu_id);

    /** Port to bind to this CU's L1 cpu-side port. */
    RequestPort &memPort() { return memPort_; }

    /** Dispatcher notification when a whole workgroup retires. */
    void
    onWorkgroupComplete(std::function<void(unsigned cu_id)> cb)
    {
        wgCompleteCb_ = std::move(cb);
    }

    /** Free wavefront slots across all SIMDs. */
    unsigned freeWfSlots() const;

    /**
     * Start a workgroup: @p programs holds one program per wavefront.
     * Caller must check freeWfSlots() >= programs.size().
     */
    void startWorkgroup(std::uint32_t wg_id,
                        std::vector<WavefrontProgram> programs);

    /** No live wavefronts and no memory traffic in flight. */
    bool idle() const;

    /**
     * Return to the just-constructed state, keeping all storage
     * (wavefront slots, queue buffers, hash-map buckets) allocated.
     * The CU must be idle. Part of System::reset().
     */
    void reset();

    unsigned liveWavefronts() const { return liveWavefronts_; }

    std::uint64_t outstandingStores() const { return outstandingStores_; }

    void regStats(StatGroup &group) override;

    double vectorOps() const { return statVops_.value(); }

    /** Coalesced line requests issued (the paper's GPU memory
     *  requests; denominators of Figures 5 and 8). */
    double memRequests() const
    {
        return statLoadReqs_.value() + statStoreReqs_.value();
    }

  private:
    struct PendingLine
    {
        Addr addr;
        bool isLoad;
        Addr pc;
        int slot; ///< wavefront slot for loads; -1 for stores
    };

    void tick();
    void signalWork();
    /** A vload/vstore whose coalesced lines do not fit the queue. */
    bool queueBlocked(const Wavefront &wf) const;
    bool issueFromSimd(unsigned simd);
    bool executeOp(int slot_index, Wavefront &wf);
    void issueMemory();
    void handleResponse(PacketPtr pkt);
    void wavefrontFinished(int slot_index);

    class CuMemPort : public RequestPort
    {
      public:
        CuMemPort(std::string name, ComputeUnit &cu)
            : RequestPort(std::move(name)), cu_(cu)
        {}

        void
        recvTimingResp(PacketPtr pkt) override
        {
            cu_.handleResponse(pkt);
        }

        void
        recvReqRetry() override
        {
            cu_.portBlocked_ = false;
            cu_.signalWork();
        }

      private:
        ComputeUnit &cu_;
    };

    PacketPool &pktPool_;
    GpuConfig cfg_;
    unsigned cuId_;

    /** Slot layout: simd s owns [s*slotsPerSimd, (s+1)*slotsPerSimd). */
    std::vector<Wavefront> slots_;
    std::vector<Tick> simdBusyUntil_;
    std::vector<unsigned> simdRoundRobin_;

    std::deque<PendingLine> memQueue_;
    bool portBlocked_ = false;

    /**
     * True while a CU ticking every cycle would still be re-arming
     * its tick: the tick event, pending or asleep, then stands for
     * that chain of re-arms and keeps the sequence number the chain
     * started with.
     */
    bool chained_ = false;
    /** Tick of the last tick(); skipped chain cycles count from it. */
    Tick lastTick_ = 0;

    /** Load packet id -> wavefront slot. */
    std::unordered_map<std::uint64_t, int> loadCtx_;

    std::uint64_t outstandingStores_ = 0;
    unsigned liveWavefronts_ = 0;

    /** Live wavefronts remaining per workgroup id. */
    std::unordered_map<std::uint32_t, unsigned> wgLiveWaves_;

    std::function<void(unsigned)> wgCompleteCb_;

    CuMemPort memPort_;
    EventFunctionWrapper tickEvent_;

    StatScalar statVops_;
    StatScalar statLoadReqs_;
    StatScalar statStoreReqs_;
    StatScalar statLdsCycles_;
    StatScalar statActiveCycles_;
    StatScalar statWavefrontsRun_;
};

} // namespace migc

#endif // MIGC_GPU_COMPUTE_UNIT_HH
