/**
 * @file
 * PC-indexed reuse predictor for adaptive L2 bypassing.
 *
 * Follows the adaptive GPU cache bypassing scheme of Tian et al.
 * (GPGPU'15), applied at the L2 for both loads and stores as in the
 * paper (Section VII.C): a table of saturating counters indexed by a
 * hash of the requesting PC. A block inserted by PC p that is later
 * reused strengthens p's counter; a block evicted without reuse
 * weakens it. Requests whose PC's counter falls below the caching
 * threshold bypass the cache. A deterministic address-hash sample of
 * accesses is always cached so the predictor keeps learning even for
 * PCs currently predicted to bypass.
 */

#ifndef MIGC_POLICY_REUSE_PREDICTOR_HH
#define MIGC_POLICY_REUSE_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace migc
{

class ReusePredictor
{
  public:
    struct Config
    {
        /** Number of counters (power of two). */
        std::size_t entries = 1024;

        /** Saturating counter ceiling (2^bits - 1). */
        unsigned counterBits = 3;

        /** Cache when counter >= threshold. */
        unsigned threshold = 4;

        /** Counters start here (weakly caching). */
        unsigned initialValue = 4;

        /** 1-in-N lines always cached for training. */
        unsigned sampleInterval = 16;
    };

    ReusePredictor();

    explicit ReusePredictor(const Config &cfg);

    /**
     * Decide whether an access by @p pc to @p line_addr should be
     * cached. Sampled lines return true regardless of the counter so
     * training continues while bypassing.
     */
    bool shouldCache(Addr pc, Addr line_addr);

    /** A block inserted by @p pc was reused before eviction. */
    void trainReuse(Addr pc);

    /** A block inserted by @p pc was evicted without reuse. */
    void trainNoReuse(Addr pc);

    /** Raw counter value for @p pc (tests / introspection). */
    unsigned counterFor(Addr pc) const;

    /** Reset all counters to the initial value and zero the stats. */
    void reset();

    void regStats(StatGroup &group);

  private:
    std::size_t indexOf(Addr pc) const;

    Config cfg_;
    unsigned maxCounter_;
    std::vector<std::uint8_t> table_;

    StatScalar statLookups_;
    StatScalar statBypassPredictions_;
    StatScalar statSampledOverrides_;
    StatScalar statTrainReuse_;
    StatScalar statTrainNoReuse_;
};

} // namespace migc

#endif // MIGC_POLICY_REUSE_PREDICTOR_HH
