/**
 * @file
 * An immutable view of run-cache contents, shared between threads by
 * shared_ptr swap.
 *
 * The serving story (bench/migc_serve, docs/SERVE.md) needs many
 * concurrent readers answering cache queries while a writer folds in
 * freshly simulated rows. A CacheSnapshot is an immutable, ordered
 * list of validated v4 images (cache_v4.hh): each image is one
 * canonical sorted segment, either a cache file mapped read-only or
 * segment bytes held in memory. Queries run on the interned columns
 * directly - binary search over interned ids for exact finds, glob
 * evaluation once per distinct interned string (instead of once per
 * row) before any row is touched - and format CSV straight from the
 * metric column. When images share a key, the first image holding
 * it wins.
 *
 * Publishing new results builds a *new* snapshot and swaps one
 * shared_ptr; readers keep using whatever snapshot they loaded,
 * lock-free, for as long as they hold it. migc_serve publishes its
 * start image plus one small delta image of its own fills, so a
 * publish costs O(fills), not O(cache).
 *
 * Ownership: a snapshot holds its images by shared_ptr, so it stays
 * valid after the RunCache (or file) it came from is gone.
 *
 * Thread-safety: a CacheSnapshot is deeply immutable; any number of
 * threads may query one concurrently with no locking.
 */

#ifndef MIGC_CORE_CACHE_SNAPSHOT_HH
#define MIGC_CORE_CACHE_SNAPSHOT_HH

#include <memory>
#include <string>
#include <vector>

namespace migc
{

class MappedCacheV4;

/**
 * Glob match with '*' (any run, including empty) and '?' (exactly
 * one character); everything else matches literally. The pattern
 * language of migc_serve's `match` queries. Iterative two-pointer
 * matching with single-star backtracking: O(|pattern| * |text|)
 * worst case even on adversarial multi-'*' patterns, never the
 * exponential blowup of naive recursive matchers.
 */
bool globMatch(const std::string &pattern, const std::string &text);

class CacheSnapshot
{
  public:
    /** One validated single-segment v4 image, mapped or in memory. */
    using Image = std::shared_ptr<const MappedCacheV4>;

    /** Snapshot over @p images in order; an earlier image wins a key
     *  a later one also holds. */
    static std::shared_ptr<const CacheSnapshot>
    fromImages(std::vector<Image> images);

    /** Snapshot over one mapped cache file (fromImages({file})). */
    static std::shared_ptr<const CacheSnapshot>
    fromMappedFile(Image file);

    /** The images, in precedence order. */
    const std::vector<Image> &images() const { return images_; }

    /**
     * Exact lookup: on a hit, appends the row's CSV line (no
     * trailing newline) to @p out and returns true. The first image
     * holding the key answers, by interned-id binary search.
     */
    bool findCsv(const std::string &sig, const std::string &workload,
                 const std::string &policy, std::string &out) const;

    /**
     * Glob query: appends one '\n'-terminated CSV line per matching
     * row to @p out in canonical order (signature, then workload,
     * then policy - the cache-file serialization order, so answers
     * are byte-stable across runs), and returns the match count.
     * Each image evaluates each glob once per distinct interned
     * string (signatures per section, workload/policy over the
     * string table) and only then scans its key column - the
     * prefilter that makes glob serving cheap on wide caches; the
     * images' matches are then merged, first image winning a shared
     * key.
     */
    std::size_t matchCsv(const std::string &sig_pattern,
                         const std::string &workload_pattern,
                         const std::string &policy_pattern,
                         std::string &out) const;

    /** Distinct rows across the images. */
    std::size_t rows() const { return rows_; }

    /** Distinct config sections across the images. */
    std::size_t sectionCount() const;

  private:
    explicit CacheSnapshot(std::vector<Image> images);

    std::vector<Image> images_;
    std::size_t rows_ = 0;
};

} // namespace migc

#endif // MIGC_CORE_CACHE_SNAPSHOT_HH
