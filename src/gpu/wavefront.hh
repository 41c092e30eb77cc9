/**
 * @file
 * Wavefront execution state.
 */

#ifndef MIGC_GPU_WAVEFRONT_HH
#define MIGC_GPU_WAVEFRONT_HH

#include <cstdint>
#include <vector>

#include "gpu/kernel.hh"
#include "sim/types.hh"

namespace migc
{

/** One live 64-lane wavefront on a SIMD slot. */
struct Wavefront
{
    bool active = false;
    std::uint32_t wgId = 0;
    std::uint32_t wfId = 0;

    WavefrontProgram program;
    std::size_t pcIdx = 0;

    /** Line loads issued and not yet answered. */
    unsigned outstandingLoads = 0;

    /** Parked at a waitLoads op. */
    bool waitingMem = false;

    /**
     * Coalesced lines of the memory op at @c coalescedPc. A blocked
     * vload/vstore is re-checked against the memory queue on every
     * CU tick (its line count is what marks it queue-blocked);
     * coalescing is a pure function of the op, so the CU computes it
     * once per program counter and reuses the buffer (storage
     * persists across reset() to stay allocation-free between
     * wavefronts).
     */
    std::vector<Addr> coalesced;
    std::size_t coalescedPc = SIZE_MAX;

    /** All instructions retired (loads may still be pending). */
    bool
    instructionsDone() const
    {
        return pcIdx >= program.size();
    }

    /** Fully complete: retired and no loads in flight. */
    bool
    complete() const
    {
        return active && instructionsDone() && outstandingLoads == 0;
    }

    void
    reset()
    {
        active = false;
        program.clear();
        pcIdx = 0;
        outstandingLoads = 0;
        waitingMem = false;
        coalescedPc = SIZE_MAX;
    }
};

} // namespace migc

#endif // MIGC_GPU_WAVEFRONT_HH
