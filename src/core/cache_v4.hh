/**
 * @file
 * The v4 binary columnar sweep-cache format.
 *
 * A v4 file is a sequence of self-contained *segments*. Each segment
 * carries its own string table (every distinct signature / workload /
 * policy name, sorted, so interned ids order exactly like the
 * strings), a sorted key column of interned-id triples, a fixed-width
 * metric column (one 176-byte row per key, fields in CSV column
 * order), and a checksummed footer. A compacted cache is one segment
 * in canonical (signature, workload, policy) order - byte-identical
 * for a given row set no matter how it was produced; checkpoints
 * append one small segment of fresh rows instead of rewriting the
 * file (see RunCache::checkpoint).
 *
 * Layout (all integers little-endian, every part 8-byte aligned, so
 * segments always start on an 8-byte boundary):
 *
 *   header   (64 B): magic "MIGC4SEG", u32 version, u32 endian tag,
 *                    u64 segmentBytes, u64 stringCount,
 *                    u64 stringBytes, u64 rowCount, u64 reserved[2]
 *   stringEnds     : u64[stringCount]  (end offset of each string)
 *   blob           : char[stringBytes] (concatenated, 0-padded to 8)
 *   keys           : {u32 sig, u32 workload, u32 policy, u32 pad}
 *                    [rowCount], sorted by the id triple
 *   rows           : V4Row[rowCount]   (rows[i] belongs to keys[i])
 *   footer   (24 B): u64 checksum (over everything before the
 *                    footer), u64 rowCount, magic "MIGC4END"
 *
 * A torn append (crash mid-write) truncates or garbles the *last*
 * segment only; the footer checksum catches it, readers keep every
 * earlier segment and report the tail as one parse error, and the
 * next compaction rewrites a clean file. The tmp+rename discipline
 * of full saves is unchanged.
 */

#ifndef MIGC_CORE_CACHE_V4_HH
#define MIGC_CORE_CACHE_V4_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/metrics.hh"

namespace migc
{

/** First / last 8 bytes of every segment. */
constexpr char kV4SegMagic[8] = {'M', 'I', 'G', 'C', '4', 'S', 'E', 'G'};
constexpr char kV4EndMagic[8] = {'M', 'I', 'G', 'C', '4', 'E', 'N', 'D'};
constexpr std::uint32_t kV4Version = 1;
constexpr std::uint32_t kV4EndianTag = 0x01020304u;
constexpr std::size_t kV4HeaderBytes = 64;
constexpr std::size_t kV4FooterBytes = 24;

/** @return true when @p p (>= 8 bytes) starts with the segment
 *  magic - the whole-file format sniff. */
inline bool
isV4Magic(const char *p)
{
    return std::memcmp(p, kV4SegMagic, sizeof(kV4SegMagic)) == 0;
}

/**
 * Checksum used by segment footers: splitmix64 chained over 64-bit
 * words (tail bytes zero-padded into a final word). Not
 * cryptographic - it exists to detect torn appends and truncation,
 * and to do so at memory bandwidth rather than byte-at-a-time FNV
 * speed, since every load verifies it.
 */
std::uint64_t v4Checksum(const void *data, std::size_t n);

/** The fixed-width metric column is RunValues itself: a run's
 *  numeric fields in CSV column order (execTicks, then 21 doubles),
 *  stored verbatim, so CSV re-export formats the exact same values
 *  byte-identically. */
using V4Row = RunValues;
static_assert(sizeof(V4Row) == 176, "v4 metric row layout drifted");

/** Interned key triple; ids index the segment's string table. */
struct V4Key
{
    std::uint32_t sig;
    std::uint32_t workload;
    std::uint32_t policy;
    std::uint32_t pad;
};
static_assert(sizeof(V4Key) == 16, "v4 key layout drifted");

/** One row bound for a segment: names as views (the writer interns
 *  them), metrics by value. */
struct V4RowRef
{
    std::string_view sig;
    std::string_view workload;
    std::string_view policy;
    V4Row data;
};

/**
 * Serialize one segment from @p rows, which MUST be sorted by
 * (sig, workload, policy) with no duplicate keys - the canonical
 * cache order. Deterministic: same rows, same bytes.
 */
std::string buildV4Segment(const std::vector<V4RowRef> &rows);

/** A parsed, validated view over one segment's bytes (not owning). */
struct V4SegmentView
{
    std::size_t bytes = 0; ///< total segment size, header..footer
    std::uint64_t stringCount = 0;
    std::uint64_t rowCount = 0;
    const std::uint64_t *stringEnds = nullptr;
    const char *blob = nullptr;
    const V4Key *keys = nullptr;
    const V4Row *rows = nullptr;

    std::string_view
    str(std::uint32_t id) const
    {
        const std::uint64_t begin = id == 0 ? 0 : stringEnds[id - 1];
        return std::string_view(blob + begin, stringEnds[id] - begin);
    }

    /** (sig, workload, policy) of row @p i, as views into the
     *  segment; compares in canonical order across segments. */
    using KeyStrings = std::tuple<std::string_view, std::string_view,
                                  std::string_view>;

    KeyStrings
    keyAt(std::uint64_t i) const
    {
        return KeyStrings{str(keys[i].sig), str(keys[i].workload),
                          str(keys[i].policy)};
    }
};

/**
 * Parse and validate the segment starting at @p p (8-byte aligned,
 * @p avail bytes available). Verifies magic, version, endianness,
 * internal bounds, the footer checksum, and that the string table is
 * sorted unique. @return false (with @p why set) on any mismatch -
 * including a torn tail shorter than the header claims.
 */
bool parseV4Segment(const char *p, std::size_t avail,
                    V4SegmentView &seg, std::string *why);

/**
 * A v4 cache file's readable prefix, mapped read-only: every segment
 * that validates, in file order, up to the first damaged one. This
 * is the one segment walk every reader of a possibly fragmented file
 * shares: RunCache's loader, the shard join (shard.hh) and
 * v4SegmentCount. A missing or zero-length file reads as no segments
 * (a fleet worker SIGKILLed before its first checkpoint leaves a
 * zero-length shard: a legitimate empty cache). A non-empty file
 * that does not start with the segment magic - a v3/v2 text cache
 * from an older build, or not a cache at all - is fatal, naming
 * `migc_sweep --convert`, and is left untouched: every v4 file
 * starts with a magic, since its first write is always a whole
 * tmp+rename segment. The segment views point into the mapping and
 * live as long as this object.
 */
class V4SegmentFile
{
  public:
    explicit V4SegmentFile(const std::string &path);
    ~V4SegmentFile();

    V4SegmentFile(const V4SegmentFile &) = delete;
    V4SegmentFile &operator=(const V4SegmentFile &) = delete;

    /** False when the file could not be opened (missing). */
    bool exists() const { return exists_; }

    /** File size in bytes; 0 for a missing or empty file. */
    std::size_t bytes() const { return len_; }

    /** The valid segments, in file order. */
    const std::vector<V4SegmentView> &segments() const
    {
        return segments_;
    }

    /** Why the segment at damagedAt() failed validation; empty when
     *  the whole file parsed. */
    const std::string &damage() const { return damage_; }

    /** Byte offset of the first damaged segment (see damage()). */
    std::size_t damagedAt() const { return damagedAt_; }

  private:
    void *base_ = nullptr;
    std::size_t len_ = 0;
    bool exists_ = false;
    std::vector<V4SegmentView> segments_;
    std::string damage_;
    std::size_t damagedAt_ = 0;
};

/** Segments parseable from the front of @p path (stops at the first
 *  damaged one); 0 for a missing file. Test/introspection. */
std::size_t v4SegmentCount(const std::string &path);

/**
 * Write @p bytes to @p path through a per-process tmp file and a
 * rename, so readers never observe a half-written file and
 * concurrent writers never share a tmp file; the tmp file is removed
 * on any failure. Every whole-file write of a cache, a pushed or
 * fetched shard, the merged join output and a figure CSV goes
 * through here. @return false (with @p error set, when given) on
 * failure.
 */
bool writeFileAtomic(const std::string &path, const std::string &bytes,
                     std::string *error = nullptr);

/**
 * One validated single-segment v4 image - the unit a CacheSnapshot
 * (cache_snapshot.hh) is made of. It is either a cache file mapped
 * read-only (map) or segment bytes held in memory (fromBytes: the
 * canonical image RunCache::snapshot() builds, or the delta of fresh
 * rows migc_serve publishes). Either way the image is one canonical
 * sorted run whose checksum verified; multi-segment files with
 * pending appends and torn tails do not qualify and are read segment
 * by segment through V4SegmentFile instead. The bytes live until the
 * last shared_ptr drops.
 */
class MappedCacheV4
{
  public:
    /** Map @p path; nullptr (with @p why set) when not mappable. */
    static std::shared_ptr<const MappedCacheV4>
    map(const std::string &path, std::string *why);

    /** Own @p bytes, one whole segment (what buildV4Segment
     *  returns); nullptr (with @p why set) when they do not
     *  validate. */
    static std::shared_ptr<const MappedCacheV4>
    fromBytes(std::string bytes, std::string *why);

    ~MappedCacheV4();

    MappedCacheV4(const MappedCacheV4 &) = delete;
    MappedCacheV4 &operator=(const MappedCacheV4 &) = delete;

    const V4SegmentView &segment() const { return seg_; }
    std::size_t rows() const { return seg_.rowCount; }

    /** Distinct signatures (= config sections). */
    std::size_t sections() const { return sections_.size(); }

    /** Interned id of @p s, or -1: binary search over the sorted
     *  string table (id order == string order). */
    std::int64_t stringId(std::string_view s) const;

    /** Row index for the exact key triple, or -1: interned-id
     *  binary search over the sorted key column. */
    std::int64_t findRow(std::string_view sig, std::string_view workload,
                         std::string_view policy) const;

    using KeyStrings = V4SegmentView::KeyStrings;

    /** The key strings of row @p idx (V4SegmentView::keyAt). */
    KeyStrings keyAt(std::size_t idx) const { return seg_.keyAt(idx); }

    /** One config section: key range [begin, end) in the row
     *  columns; every key in it shares keys[begin].sig. */
    struct SectionRange
    {
        std::size_t begin;
        std::size_t end;
    };

    const std::vector<SectionRange> &sectionRanges() const
    {
        return sections_;
    }

  private:
    MappedCacheV4() = default;

    /** Validate [@p p, @p p + @p len) as exactly one segment and
     *  index its sections. */
    bool adopt(const char *p, std::size_t len, std::string *why);

    /** The mapping (map) - null for an in-memory image. */
    void *base_ = nullptr;
    std::size_t len_ = 0;

    /** The bytes of an in-memory image (fromBytes). */
    std::string owned_;

    V4SegmentView seg_;
    std::vector<SectionRange> sections_;
};

} // namespace migc

#endif // MIGC_CORE_CACHE_V4_HH
