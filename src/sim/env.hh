/**
 * @file
 * Environment-variable and option parsing shared by every layer.
 *
 * parseBoundedUnsigned is the one bounded-unsigned parser behind
 * MIGC_JOBS and migc_sweep's count flags, so validation cannot drift
 * between them: a malformed value is always fatal, never a silent
 * fallback to some default that happens to run (oversubscribing the
 * machine, a fleet of the wrong size, ...).
 */

#ifndef MIGC_SIM_ENV_HH
#define MIGC_SIM_ENV_HH

#include <cstdlib>

#include "sim/logging.hh"

namespace migc
{

/**
 * Parse a decimal @p value in [@p min_value, @p max_value]; fatal
 * (naming @p label) on anything else - including empty text, signs,
 * trailing junk, and out-of-range values.
 */
inline unsigned
parseBoundedUnsigned(const char *label, const char *value,
                     unsigned min_value, unsigned max_value)
{
    char *end = nullptr;
    unsigned long v = std::strtoul(value, &end, 10);
    fatal_if(end == value || *end != '\0' || v < min_value ||
                 v > max_value,
             "%s=%s: expected an integer in [%u, %u]", label, value,
             min_value, max_value);
    return static_cast<unsigned>(v);
}

} // namespace migc

#endif // MIGC_SIM_ENV_HH
