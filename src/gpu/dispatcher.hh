/**
 * @file
 * Workgroup dispatcher and kernel sequencer.
 *
 * Launches each kernel's workgroups onto CUs as slots free up; when
 * a kernel's last wavefront retires it drains the memory system and
 * performs the paper's synchronization actions: clean
 * self-invalidation of the GPU caches at every kernel boundary, plus
 * an L2 dirty flush at system-scope boundaries (Section III). The
 * next kernel launches after the host launch latency.
 */

#ifndef MIGC_GPU_DISPATCHER_HH
#define MIGC_GPU_DISPATCHER_HH

#include <functional>
#include <vector>

#include "gpu/compute_unit.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace migc
{

class Dispatcher : public SimObject
{
  public:
    /**
     * Hooks into the memory system, provided by core/System.
     *
     * Scope model (Section III, coherent APU): every kernel boundary
     * self-invalidates the L1s; a system-scope boundary additionally
     * invalidates clean L2 data and flushes L2 dirty data so the host
     * observes it. Device-scope boundaries leave the L2 intact, which
     * is what lets multi-kernel workloads (RNN steps, CM layers)
     * reuse weights and activations across kernels.
     */
    struct SyncHooks
    {
        /** Self-invalidate clean data in the per-CU L1s. */
        std::function<void()> invalidateL1s;

        /**
         * System-scope L2 synchronization: flush dirty data and
         * self-invalidate clean data; invoke the callback when all
         * writebacks have been acknowledged.
         */
        std::function<void(std::function<void()>)> syncL2System;

        /** True when caches and DRAM have no requests in flight. */
        std::function<bool()> memSystemQuiescent;
    };

    Dispatcher(std::string name, EventQueue &eq, const GpuConfig &cfg,
               std::vector<ComputeUnit *> cus);

    void setSyncHooks(SyncHooks hooks) { hooks_ = std::move(hooks); }

    /**
     * Run @p kernels in order; @p on_done fires after the final
     * kernel's system-scope synchronization completes.
     */
    void run(std::vector<KernelDesc> kernels,
             std::function<void()> on_done);

    bool running() const { return running_; }

    /**
     * Return to the just-constructed state; must not be running.
     * Part of System::reset().
     */
    void reset();

    void regStats(StatGroup &group) override;

  private:
    void launchKernel();
    void tryDispatch();
    void onWorkgroupComplete(unsigned cu_id);
    void drainPoll();
    void kernelBoundary();
    void afterBoundary();

    GpuConfig cfg_;
    std::vector<ComputeUnit *> cus_;
    SyncHooks hooks_;

    std::vector<KernelDesc> kernels_;
    std::function<void()> onDone_;
    bool running_ = false;

    std::size_t kernelIdx_ = 0;
    std::uint32_t nextWg_ = 0;
    std::uint32_t wgsOutstanding_ = 0;
    unsigned rrCu_ = 0;
    bool draining_ = false;

    EventFunctionWrapper launchEvent_;
    EventFunctionWrapper drainEvent_;

    StatScalar statKernels_;
    StatScalar statWorkgroups_;
    StatScalar statFlushes_;
    StatScalar statInvalidates_;
};

} // namespace migc

#endif // MIGC_GPU_DISPATCHER_HH
