/** @file Seeded, deterministic structural fuzz of the v4 cache reader,
 *  the only file-format trust boundary: cache files, mmapped serving
 *  snapshots, and pushed shard files are all v4. Valid segments get
 *  their header counts, string ends, key ids and footer checksums
 *  mutated - usually re-signed with a fresh checksum, since the
 *  checksum is not a MAC and an attacker can compute it - and every
 *  mutant goes through parseV4Segment, RunCache::mergeFile,
 *  MappedCacheV4::map and, as a pushed shard file, the coordinator
 *  join (mergeShardCaches). Each must reject it, or accept it with
 *  every string end and key id in range; under the sanitizer build
 *  any read outside the buffer fails the run. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/cache_snapshot.hh"
#include "core/cache_v4.hh"
#include "core/shard.hh"
#include "core/sweep_engine.hh"
#include "sim/rng.hh"

using namespace migc;

namespace
{

/** Header field offsets (see the layout in cache_v4.hh). */
constexpr std::size_t kSegBytesAt = 16;
constexpr std::size_t kStringCountAt = 24;
constexpr std::size_t kStringBytesAt = 32;
constexpr std::size_t kRowCountAt = 40;

/** Mutants per fuzz run: enough to hit every mutation kind many
 *  times, few enough to stay fast under the sanitizers. */
constexpr int kIterations = 1500;

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + "migc_v4fuzz_" + leaf;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t
getU64(const std::string &b, std::size_t at)
{
    std::uint64_t v = 0;
    std::memcpy(&v, b.data() + at, sizeof(v));
    return v;
}

void
putU64(std::string &b, std::size_t at, std::uint64_t v)
{
    std::memcpy(b.data() + at, &v, sizeof(v));
}

/** Valid segments to mutate: empty, one row, and a multi-section
 *  grid whose string table mixes signatures and names. */
std::vector<std::string>
seedSegments()
{
    std::vector<std::string> sigs{"sig-a", "sig-b", "sig-c"};
    std::vector<std::string> wls{"FwBN", "FwSoft", "w"};
    std::vector<std::string> pols{"CacheR", "Uncached"};
    std::vector<V4RowRef> grid;
    double v = 1.0;
    for (const auto &s : sigs)
        for (const auto &w : wls)
            for (const auto &p : pols) {
                RunMetrics m;
                m.execTicks = static_cast<Tick>(v * 100);
                m.simEvents = v;
                v += 1.0;
                grid.push_back(V4RowRef{s, w, p, m});
            }
    return {buildV4Segment({}), buildV4Segment({grid.front()}),
            buildV4Segment(grid)};
}

/** A value from the edges a bounds check can get wrong. */
std::uint64_t
edgyValue(Rng &rng, std::uint64_t near)
{
    switch (rng.below(7)) {
    case 0:
        return 0;
    case 1:
        return ~std::uint64_t(0) - rng.below(64);
    case 2:
        return near + rng.below(17) - 8;
    case 3:
        return near * 2;
    case 4:
        return std::uint64_t(1) << rng.below(64);
    case 5:
        return (~std::uint64_t(0) - near) + 1 + 8 * rng.below(4);
    default:
        return rng.next();
    }
}

/** Apply one to three structural mutations to @p seg; re-sign the
 *  footer checksum most of the time. */
std::string
mutate(Rng &rng, std::string seg)
{
    const std::uint64_t strings = getU64(seg, kStringCountAt);
    const std::uint64_t blob = getU64(seg, kStringBytesAt);
    const std::uint64_t rows = getU64(seg, kRowCountAt);
    const std::size_t keys_at = kV4HeaderBytes + 8 * strings + blob;
    const std::size_t footer_at = seg.size() - kV4FooterBytes;

    const unsigned edits = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned e = 0; e < edits; ++e) {
        switch (rng.below(4)) {
        case 0: { // a header count
            static constexpr std::size_t fields[] = {
                kSegBytesAt, kStringCountAt, kStringBytesAt,
                kRowCountAt};
            const std::size_t at = fields[rng.below(4)];
            putU64(seg, at, edgyValue(rng, getU64(seg, at)));
            break;
        }
        case 1: // a string end
            if (strings > 0) {
                const std::size_t at =
                    kV4HeaderBytes + 8 * rng.below(strings);
                putU64(seg, at, edgyValue(rng, getU64(seg, at)));
            }
            break;
        case 2: // a key id (or its pad word)
            if (rows > 0) {
                const std::size_t at =
                    keys_at + 16 * rng.below(rows) + 4 * rng.below(4);
                std::uint32_t id = 0;
                switch (rng.below(4)) {
                case 0:
                    id = static_cast<std::uint32_t>(strings);
                    break;
                case 1:
                    id = static_cast<std::uint32_t>(
                        rng.below(strings + 1));
                    break;
                case 2:
                    id = ~std::uint32_t(0);
                    break;
                default:
                    id = static_cast<std::uint32_t>(rng.next());
                }
                std::memcpy(seg.data() + at, &id, sizeof(id));
            }
            break;
        default: // the footer checksum or its row count
            putU64(seg, footer_at + 8 * rng.below(2),
                   edgyValue(rng, getU64(seg, footer_at)));
        }
    }
    if (rng.below(5) != 0)
        putU64(seg, footer_at, v4Checksum(seg.data(), footer_at));
    return seg;
}

/**
 * Parse @p bytes from an exactly-sized aligned heap copy and check
 * the accepted-segment invariants. @return whether it was accepted,
 * with @p rows set to its row count - or to ~0 when the accepted
 * segment is shorter than @p bytes, whose tail then counts as damage
 * - and @p segment_rows (when given) to its row count either way.
 */
bool
checkParse(const std::string &bytes, std::uint64_t &rows,
           std::uint64_t *segment_rows = nullptr)
{
    std::vector<std::uint64_t> words(bytes.size() / 8);
    std::memcpy(words.data(), bytes.data(), bytes.size());
    const char *p = reinterpret_cast<const char *>(words.data());
    V4SegmentView seg;
    std::string why;
    if (!parseV4Segment(p, bytes.size(), seg, &why)) {
        EXPECT_FALSE(why.empty());
        return false;
    }
    EXPECT_GE(seg.bytes, kV4HeaderBytes + kV4FooterBytes);
    EXPECT_LE(seg.bytes, bytes.size());
    const std::uint64_t string_bytes =
        static_cast<std::uint64_t>(
            reinterpret_cast<const char *>(seg.keys) - seg.blob);
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < seg.stringCount; ++i) {
        EXPECT_GE(seg.stringEnds[i], prev);
        EXPECT_LE(seg.stringEnds[i], string_bytes);
        prev = seg.stringEnds[i];
    }
    EXPECT_LE(reinterpret_cast<const char *>(seg.rows + seg.rowCount),
              p + seg.bytes - kV4FooterBytes);
    // Hash every referenced string so its bytes are really read.
    static volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < seg.rowCount; ++i) {
        const V4Key &k = seg.keys[i];
        EXPECT_LT(k.sig, seg.stringCount);
        EXPECT_LT(k.workload, seg.stringCount);
        EXPECT_LT(k.policy, seg.stringCount);
        sink = sink ^ fnv1a(seg.str(k.sig)) ^ fnv1a(seg.str(k.workload)) ^
               fnv1a(seg.str(k.policy));
    }
    rows = seg.bytes == bytes.size() ? seg.rowCount : ~std::uint64_t(0);
    if (segment_rows != nullptr)
        *segment_rows = seg.rowCount;
    return true;
}

/** Feed one mutant through the file readers too. */
void
checkFileReaders(const std::string &path, const std::string &bytes,
                 bool accepted, std::uint64_t rows)
{
    writeFile(path, bytes);

    RunCache rc{std::string()};
    const RunCache::MergeStats stats = rc.mergeFile(path);
    if (accepted && rows != ~std::uint64_t(0)) {
        EXPECT_EQ(stats.parseErrors, 0u);
        EXPECT_EQ(rc.size(), rows);
    } else if (!accepted) {
        EXPECT_EQ(stats.parseErrors, 1u);
        EXPECT_EQ(rc.size(), 0u);
    }
    // Every row the merge accepted answers a glob query.
    std::string all;
    EXPECT_EQ(rc.snapshot()->matchCsv("*", "*", "*", all), rc.size());

    std::string why;
    auto file = MappedCacheV4::map(path, &why);
    if (file == nullptr) {
        EXPECT_FALSE(why.empty());
        return;
    }
    EXPECT_TRUE(accepted);
    EXPECT_EQ(file->rows(), rows);
    auto snap = CacheSnapshot::fromMappedFile(file);
    all.clear();
    EXPECT_EQ(snap->matchCsv("*", "*", "*", all), file->rows());
    for (std::size_t i = 0; i < file->rows(); ++i) {
        const auto [sig, workload, policy] = file->keyAt(i);
        EXPECT_EQ(file->findRow(sig, workload, policy),
                  static_cast<std::int64_t>(i));
    }
}

/**
 * Feed one mutant through the coordinator join as shard 0 of an
 * empty canonical file at @p base - where a pushed payload's
 * structure is first checked. A rejected mutant (or the damaged tail
 * after an accepted segment) counts as one parse error, and the
 * canonical file keeps only the valid segment before it, if any;
 * every key id of the merged file is in range.
 */
void
checkJoin(const std::string &base, const std::string &bytes,
          bool accepted, std::uint64_t rows, std::uint64_t segment_rows)
{
    writeFile(base, "");
    writeFile(shardCachePath(base, 0), bytes);
    const ShardMergeStats stats = mergeShardCaches(base, 1);
    EXPECT_EQ(stats.files, 1u);
    const bool whole = accepted && rows != ~std::uint64_t(0);
    EXPECT_EQ(stats.parseErrors, whole ? 0u : 1u);

    std::string why;
    auto merged = MappedCacheV4::map(base, &why);
    ASSERT_NE(merged, nullptr) << why;
    const std::uint64_t want = accepted ? segment_rows : 0;
    EXPECT_EQ(merged->rows(), want);
    EXPECT_EQ(stats.rows, want);
    const V4SegmentView &seg = merged->segment();
    for (std::size_t i = 0; i < merged->rows(); ++i) {
        EXPECT_LT(seg.keys[i].sig, seg.stringCount);
        EXPECT_LT(seg.keys[i].workload, seg.stringCount);
        EXPECT_LT(seg.keys[i].policy, seg.stringCount);
    }
}

/** One fuzz run: a digest of every verdict, so two runs with the same
 *  seed can be compared. */
std::uint64_t
fuzz(std::uint64_t seed, bool with_files, int *accepted_out = nullptr,
     int *rejected_out = nullptr)
{
    const std::vector<std::string> seeds = seedSegments();
    const std::string path = tempPath("mutant");
    const std::string base = tempPath("join");
    Rng rng(seed);
    std::uint64_t digest = fnv1a("migc-v4-fuzz");
    int accepted = 0, rejected = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
        const std::string mutant =
            mutate(rng, seeds[rng.below(seeds.size())]);
        std::uint64_t rows = 0, segment_rows = 0;
        const bool ok = checkParse(mutant, rows, &segment_rows);
        (ok ? accepted : rejected) += 1;
        digest = splitmix64(digest ^ (ok ? rows + 1 : 0));
        if (with_files) {
            checkFileReaders(path, mutant, ok, rows);
            checkJoin(base, mutant, ok, rows, segment_rows);
        }
        if (::testing::Test::HasFailure())
            break; // one report, not thousands
    }
    std::remove(path.c_str());
    std::remove(base.c_str());
    if (accepted_out != nullptr)
        *accepted_out = accepted;
    if (rejected_out != nullptr)
        *rejected_out = rejected;
    return digest;
}

} // namespace

TEST(CacheV4Fuzz, SeedSegmentsAreValid)
{
    for (const std::string &seg : seedSegments()) {
        std::uint64_t rows = 0;
        ASSERT_TRUE(checkParse(seg, rows));
        EXPECT_EQ(rows, getU64(seg, kRowCountAt));
    }
}

TEST(CacheV4Fuzz, StructuralMutantsAreRejectedOrInRange)
{
    int accepted = 0, rejected = 0;
    fuzz(0xC0FFEEu, /*with_files=*/true, &accepted, &rejected);
    // The mutator reaches both verdicts: re-signed harmless edits
    // (a key's pad word) are accepted, everything else rejected.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, kIterations / 2);
}

TEST(CacheV4Fuzz, DamagedTailKeepsEarlierSegments)
{
    // A mutant appended after a valid segment - a hostile or torn
    // checkpoint append - never costs the rows before it.
    const std::vector<std::string> seeds = seedSegments();
    const std::string path = tempPath("tail");
    Rng rng(0x7A11u);
    for (int iter = 0; iter < kIterations / 5; ++iter) {
        writeFile(path, seeds[2] + mutate(rng, seeds[1]));
        RunCache rc{std::string()};
        rc.mergeFile(path);
        EXPECT_GE(rc.size(), getU64(seeds[2], kRowCountAt));
        if (::testing::Test::HasFailure())
            break;
    }
    std::remove(path.c_str());
}

TEST(CacheV4Fuzz, VerdictsAreDeterministicAcrossRuns)
{
    EXPECT_EQ(fuzz(0xC0FFEEu, false), fuzz(0xC0FFEEu, false));
    EXPECT_NE(fuzz(0xC0FFEEu, false), fuzz(0xC0FFEFu, false));
}
