/**
 * @file
 * The v4 binary columnar cache format: round-trip exactness, byte
 * determinism, O(fresh) checkpoint appends, torn-write rejection and
 * recovery, refusal of text caches at a cache path, the one-shot
 * v3/v2 text import with byte-identical CSV export, the mapped
 * snapshot's parity with RunCache's in-memory image of the same
 * rows, the general shard merge over fragmented shards, and
 * rejection of a crafted segment whose layout only adds up modulo
 * 2^64. See src/core/cache_v4.hh
 * and docs/SWEEPS.md.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cache_snapshot.hh"
#include "core/cache_v4.hh"
#include "core/metrics.hh"
#include "core/shard.hh"
#include "core/sweep_engine.hh"

using namespace migc;

namespace
{

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + "migc_cache_v4_" + leaf;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** A row with doubles no text format would round-trip exactly. */
RunMetrics
awkwardRow(const std::string &workload, const std::string &policy)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = 123456789012345ull;
    m.execSeconds = 1.0 / 3.0;
    m.gpuMemRequests = 2.0 / 7.0;
    m.dramReads = 1e-300;
    m.dramWrites = 9.87654321e200;
    m.dramAccesses = 0.1;
    m.dramRowHitRate = 0.30000000000000004; // 0.1 + 0.2
    m.cacheStallCycles = 1.0;
    m.stallsPerRequest = 3.0e-9;
    m.vops = 7.0;
    m.gvops = 1234.5678901234567;
    m.gmrps = 2.5;
    m.l1Hits = 42.0;
    m.simEvents = 1e6 + 0.25;
    return m;
}

/** A plain deterministic row. Whole-number doubles only, so the
 *  row survives a v3 text round trip bit-exactly (the text import
 *  tests compare across serializations). */
RunMetrics
simpleRow(const std::string &workload, const std::string &policy,
          double seedv)
{
    RunMetrics m;
    m.workload = workload;
    m.policy = policy;
    m.execTicks = static_cast<Tick>(1000 + seedv);
    m.execSeconds = seedv;
    m.dramAccesses = seedv + 1.0;
    m.simEvents = seedv * 3 + 1;
    return m;
}

/** Append @p v little-endian (the v4 byte order on every supported
 *  host) to @p buf. */
void
putU64(std::string &buf, std::uint64_t v)
{
    buf.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

/**
 * A 96-byte segment whose declared layout only adds up modulo 2^64:
 * string_count=2, row_count=0, string_bytes=2^64-8, so
 * header + 2 string ends + string_bytes + footer wraps to exactly
 * the declared 96 bytes. The footer checksum is valid, and the
 * second string end aliases it, so the table looks monotone while
 * its second string starts past the end of the buffer.
 */
std::string
wrappedLayoutSegment()
{
    std::string buf(kV4SegMagic, sizeof(kV4SegMagic));
    const std::uint32_t version = kV4Version;
    const std::uint32_t endian = kV4EndianTag;
    buf.append(reinterpret_cast<const char *>(&version), 4);
    buf.append(reinterpret_cast<const char *>(&endian), 4);
    putU64(buf, 96);                    // segment bytes
    putU64(buf, 2);                     // string count
    putU64(buf, ~std::uint64_t(0) - 7); // string bytes: 2^64-8
    putU64(buf, 0);                     // row count
    putU64(buf, 0);                     // reserved
    putU64(buf, 0);                     // reserved
    putU64(buf, 16);                    // stringEnds[0]
    // Footer: checksum (also read as stringEnds[1]), row count, magic.
    putU64(buf, v4Checksum(buf.data(), buf.size()));
    putU64(buf, 0);
    buf.append(kV4EndMagic, sizeof(kV4EndMagic));
    return buf;
}

} // namespace

// ---------------------------------------------------------------
// Round-trip and byte determinism
// ---------------------------------------------------------------

TEST(CacheV4, RoundTripPreservesExactDoubles)
{
    const std::string path = tempPath("roundtrip");
    std::remove(path.c_str());
    const RunMetrics planted = awkwardRow("FwSoft", "CacheRW");
    {
        RunCache rc(path, 100);
        rc.insert("sig-a", planted);
        rc.flush();
    }
    RunCache rc(path, 100);
    const RunMetrics *held = rc.find("sig-a", "FwSoft", "CacheRW");
    ASSERT_NE(held, nullptr);
    // Exact equality, not near-equality: the binary format stores
    // the doubles bit-for-bit, unlike the rounding v3 text columns.
    EXPECT_EQ(held->execTicks, planted.execTicks);
    EXPECT_EQ(held->execSeconds, planted.execSeconds);
    EXPECT_EQ(held->gpuMemRequests, planted.gpuMemRequests);
    EXPECT_EQ(held->dramReads, planted.dramReads);
    EXPECT_EQ(held->dramWrites, planted.dramWrites);
    EXPECT_EQ(held->dramRowHitRate, planted.dramRowHitRate);
    EXPECT_EQ(held->stallsPerRequest, planted.stallsPerRequest);
    EXPECT_EQ(held->gvops, planted.gvops);
    EXPECT_EQ(held->simEvents, planted.simEvents);
    std::remove(path.c_str());
}

TEST(CacheV4, FileBytesAreAPureFunctionOfTheRowSet)
{
    // Same rows inserted in different orders, different checkpoint
    // histories: the flushed files must be byte-identical.
    const std::string a = tempPath("determ_a");
    const std::string b = tempPath("determ_b");
    std::remove(a.c_str());
    std::remove(b.c_str());

    std::vector<std::pair<std::string, RunMetrics>> rows;
    for (int i = 0; i < 20; ++i) {
        const std::string sig = i % 3 ? "sig-x" : "sig-y";
        rows.emplace_back(
            sig, simpleRow("w" + std::to_string(i % 5),
                           "p" + std::to_string(i / 5), i * 7.0));
    }

    {
        RunCache rc(a, 1000);
        for (const auto &[sig, m] : rows)
            rc.insert(sig, m);
        rc.flush();
    }
    {
        // Reverse order, tiny checkpoint interval (many appends).
        RunCache rc(b, 2);
        for (auto it = rows.rbegin(); it != rows.rend(); ++it)
            rc.insert(it->first, it->second);
        rc.flush();
    }
    EXPECT_EQ(readFile(a), readFile(b));
    std::remove(a.c_str());
    std::remove(b.c_str());
}

// ---------------------------------------------------------------
// Checkpoints append; flush compacts
// ---------------------------------------------------------------

TEST(CacheV4, CheckpointAppendsSegmentsInsteadOfRewriting)
{
    const std::string path = tempPath("appends");
    std::remove(path.c_str());
    RunCache rc(path, 1000);

    rc.insert("sig-a", simpleRow("w0", "p0", 1));
    rc.insert("sig-a", simpleRow("w1", "p0", 2));
    rc.checkpoint(); // absent file: first durable write compacts
    EXPECT_EQ(v4SegmentCount(path), 1u);
    const std::string after_first = readFile(path);

    rc.insert("sig-b", simpleRow("w0", "p0", 3));
    rc.checkpoint(); // clean v4 file: O(fresh) append
    EXPECT_EQ(v4SegmentCount(path), 2u);
    // The first segment's bytes are untouched - the checkpoint only
    // appended.
    EXPECT_EQ(readFile(path).compare(0, after_first.size(),
                                     after_first),
              0);

    rc.insert("sig-c", simpleRow("w9", "p9", 4));
    rc.checkpoint();
    EXPECT_EQ(v4SegmentCount(path), 3u);

    // A fresh cache reads the appended file whole.
    {
        RunCache other(path, 1000);
        EXPECT_EQ(other.size(), 4u);
        EXPECT_EQ(other.parseErrors(), 0u);
        EXPECT_NE(other.find("sig-c", "w9", "p9"), nullptr);
    }

    // flush() compacts: one canonical segment, mmap-servable.
    rc.flush();
    EXPECT_EQ(v4SegmentCount(path), 1u);
    std::string why;
    EXPECT_NE(MappedCacheV4::map(path, &why), nullptr) << why;
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Torn writes: rejection and recovery
// ---------------------------------------------------------------

TEST(CacheV4, TruncatedFooterIsRejectedLoudly)
{
    const std::string path = tempPath("truncated");
    std::remove(path.c_str());
    {
        RunCache rc(path, 100);
        for (int i = 0; i < 5; ++i)
            rc.insert("sig-a", simpleRow("w" + std::to_string(i),
                                         "p0", i));
        rc.flush();
    }
    const std::string clean = readFile(path);
    writeFile(path, clean.substr(0, clean.size() - 9));

    // The parsing loader refuses the damaged segment and counts the
    // loss; nothing is served from it.
    RunCache rc(path, 100);
    EXPECT_EQ(rc.size(), 0u);
    EXPECT_GE(rc.parseErrors(), 1u);

    // The zero-copy mapper refuses it outright.
    std::string why;
    EXPECT_EQ(MappedCacheV4::map(path, &why), nullptr);
    EXPECT_FALSE(why.empty());
    std::remove(path.c_str());
}

TEST(CacheV4, CorruptedByteFailsTheChecksum)
{
    const std::string path = tempPath("corrupt");
    std::remove(path.c_str());
    {
        RunCache rc(path, 100);
        rc.insert("sig-a", awkwardRow("FwSoft", "CacheRW"));
        rc.flush();
    }
    std::string bytes = readFile(path);
    bytes[bytes.size() / 2] ^= 0x40; // flip one bit mid-file
    writeFile(path, bytes);

    RunCache rc(path, 100);
    EXPECT_EQ(rc.size(), 0u);
    EXPECT_GE(rc.parseErrors(), 1u);
    std::string why;
    EXPECT_EQ(MappedCacheV4::map(path, &why), nullptr);
    std::remove(path.c_str());
}

TEST(CacheV4, WrappedLayoutSumIsRejected)
{
    const std::string bytes = wrappedLayoutSegment();
    ASSERT_EQ(bytes.size(), 96u);
    // The crafted string ends are monotone, so only the layout
    // arithmetic stands between this segment and a read past the
    // buffer.
    std::uint64_t end1 = 0;
    std::memcpy(&end1, bytes.data() + 72, sizeof(end1));
    ASSERT_GE(end1, 16u);

    // Exactly-sized heap copy: any read past byte 96 is out of
    // bounds (and an ASan report).
    std::vector<std::uint64_t> words(bytes.size() / 8);
    std::memcpy(words.data(), bytes.data(), bytes.size());
    V4SegmentView seg;
    std::string why;
    EXPECT_FALSE(parseV4Segment(reinterpret_cast<const char *>(
                                    words.data()),
                                bytes.size(), seg, &why));
    EXPECT_FALSE(why.empty());

    const std::string path = tempPath("wrapped");
    writeFile(path, bytes);
    RunCache rc{std::string()};
    RunCache::MergeStats stats = rc.mergeFile(path);
    EXPECT_EQ(stats.rows, 0u);
    EXPECT_GE(stats.parseErrors, 1u);
    EXPECT_EQ(rc.size(), 0u);

    why.clear();
    EXPECT_EQ(MappedCacheV4::map(path, &why), nullptr);
    EXPECT_FALSE(why.empty());
    std::remove(path.c_str());
}

TEST(CacheV4, CrashMidAppendLosesOnlyTheTornSegment)
{
    const std::string path = tempPath("torn_append");
    std::remove(path.c_str());

    // A clean two-segment file (one compact write + one append)...
    std::string two_segments;
    {
        RunCache rc(path, 1000);
        rc.insert("sig-a", simpleRow("w0", "p0", 1));
        rc.insert("sig-a", simpleRow("w1", "p0", 2));
        rc.checkpoint();
        rc.insert("sig-b", simpleRow("w2", "p0", 3));
        rc.checkpoint();
        ASSERT_EQ(v4SegmentCount(path), 2u);
        two_segments = readFile(path);
    }
    // ... whose dtor flush then compacted it. Restore the pre-crash
    // two-segment bytes and tear the second append mid-write.
    const std::string torn =
        two_segments.substr(0, two_segments.size() - 21);
    writeFile(path, torn);

    // Reload: the clean first segment survives, the torn tail is a
    // counted parse error, not silent loss of the whole file.
    RunCache rc(path, 1000);
    EXPECT_EQ(rc.size(), 2u);
    EXPECT_GE(rc.parseErrors(), 1u);
    EXPECT_NE(rc.find("sig-a", "w0", "p0"), nullptr);
    EXPECT_EQ(rc.find("sig-b", "w2", "p0"), nullptr);

    // The next durable write must compact (appending after the
    // garbage tail would strand unreachable bytes forever).
    rc.insert("sig-c", simpleRow("w5", "p5", 9));
    rc.checkpoint();
    EXPECT_EQ(v4SegmentCount(path), 1u);
    {
        RunCache healed(path, 1000);
        EXPECT_EQ(healed.size(), 3u);
        EXPECT_EQ(healed.parseErrors(), 0u);
    }

    // And the healed bytes equal a never-crashed cache holding the
    // same rows: crash history does not leak into the file.
    const std::string ref = tempPath("torn_append_ref");
    std::remove(ref.c_str());
    {
        RunCache rr(ref, 1000);
        rr.insert("sig-a", simpleRow("w0", "p0", 1));
        rr.insert("sig-a", simpleRow("w1", "p0", 2));
        rr.insert("sig-c", simpleRow("w5", "p5", 9));
        rr.flush();
    }
    rc.flush();
    EXPECT_EQ(readFile(path), readFile(ref));
    std::remove(path.c_str());
    std::remove(ref.c_str());
}

// ---------------------------------------------------------------
// Text caches: refused at a cache path, imported by --convert
// ---------------------------------------------------------------

TEST(CacheV4Death, TextCacheAtACachePathIsRefusedAndLeftUntouched)
{
    const std::string path = tempPath("refused_v3");
    const std::string text = "# migc-sweep-v3\n# config sig-a\n" +
                             RunMetrics::csvHeader() + "\n" +
                             simpleRow("w0", "p0", 1).toCsv() + "\n";
    writeFile(path, text);

    // Loading must stop before anything could rewrite the file, and
    // point at the one-shot import.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            RunCache rc(path);
            rc.insert("sig-b", simpleRow("w1", "p1", 2));
            rc.flush();
        },
        ::testing::ExitedWithCode(1), "not a v4 cache.*--convert");
    EXPECT_EQ(readFile(path), text);

    // Unrecognized bytes are refused the same way.
    writeFile(path, "not a cache at all\n");
    EXPECT_EXIT({ RunCache rc(path); }, ::testing::ExitedWithCode(1),
                "not a v4 cache");
    EXPECT_EQ(readFile(path), "not a cache at all\n");

    // A zero-length file is an empty cache, not a refusal.
    writeFile(path, "");
    RunCache empty(path);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_STREQ(empty.loadedFormatName(), "none");
    std::remove(path.c_str());
}

TEST(CacheV4, V3LoadSaveExportIsByteIdenticalToTheTextPipeline)
{
    // A reference v3 text cache, converted to v4 by the one-shot
    // import (what `migc_sweep --convert` does) and exported back to
    // csv: the exported bytes must equal the original text exactly,
    // and the converted file must equal a natively written v4 cache.
    const std::string v3 = tempPath("migrate_v3");
    const std::string v4 = tempPath("migrate_v4");
    const std::string native = tempPath("migrate_native");
    const std::string out = tempPath("migrate_out");
    for (const std::string &p : {v3, v4, native, out})
        std::remove(p.c_str());
    {
        RunCache rc(native, 100);
        for (int i = 0; i < 12; ++i)
            rc.insert(i % 2 ? "sig-a" : "sig-b",
                      simpleRow("w" + std::to_string(i), "p", i));
        rc.flush();
        ASSERT_TRUE(rc.exportFile(v3, CacheFormat::csv));
    }
    const std::string v3_bytes = readFile(v3);
    ASSERT_EQ(v3_bytes.rfind("# migc-sweep-v3\n", 0), 0u);

    {
        RunCache text{std::string()};
        RunCache::MergeStats stats = importTextCache(v3, text);
        EXPECT_EQ(stats.rows, 12u);
        EXPECT_EQ(stats.parseErrors, 0u);
        ASSERT_TRUE(text.exportFile(v4, CacheFormat::v4));
    }
    EXPECT_EQ(readFile(v4), readFile(native));
    {
        RunCache rc(v4, 100);
        EXPECT_EQ(rc.size(), 12u);
        ASSERT_TRUE(rc.exportFile(out, CacheFormat::csv));
    }
    EXPECT_EQ(readFile(out), v3_bytes);
    for (const std::string &p : {v3, v4, native, out})
        std::remove(p.c_str());
}

TEST(CacheV4, LegacyV2RowsSurviveMigrationAsAForeignSection)
{
    const std::string path = tempPath("migrate_v2");
    std::remove(path.c_str());
    const std::string old_sig =
        "test:cus4:l2x4:64kB:ch4:scale0.125:seed1";
    RunMetrics planted = simpleRow("FwSoft", "CacheRW", 5);
    std::string row = planted.toCsv();
    row = row.substr(0, row.rfind(',')); // no sim_events column
    writeFile(path, "# migc-sweep-v2 " + old_sig +
                        "\nworkload,policy,...legacy header...\n" +
                        row + "\n");

    {
        // Converting the v2 file writes v4; the legacy rows ride
        // along as a preserved (never served) section.
        RunCache text{std::string()};
        EXPECT_EQ(importTextCache(path, text).rows, 1u);
        ASSERT_TRUE(text.exportFile(path, CacheFormat::v4));
    }
    {
        RunCache rc(path, 100);
        rc.insert("sig-new", simpleRow("w0", "p0", 1));
        ASSERT_TRUE(rc.saveNow());
    }
    std::string why;
    EXPECT_NE(MappedCacheV4::map(path, &why), nullptr) << why;

    RunCache rc(path, 100);
    EXPECT_EQ(rc.size(), 2u);
    // The legacy row kept its key and its data (sim_events
    // defaulted to 0 by the v2 importer).
    const RunMetrics *held = rc.find(old_sig, "FwSoft", "CacheRW");
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(held->toCsv(), row + ",0");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Mapped snapshot parity
// ---------------------------------------------------------------

TEST(CacheV4, MappedSnapshotAnswersExactlyLikeTheParsedOne)
{
    const std::string path = tempPath("parity");
    std::remove(path.c_str());
    RunCache rc(path, 1000);
    for (int s = 0; s < 3; ++s)
        for (int w = 0; w < 4; ++w)
            for (int p = 0; p < 4; ++p)
                rc.insert("sig-" + std::to_string(s),
                          simpleRow("w" + std::to_string(w),
                                    "p" + std::to_string(p),
                                    s * 16 + w * 4 + p));
    rc.flush();
    auto parsed = rc.snapshot();

    std::string why;
    auto file = MappedCacheV4::map(path, &why);
    ASSERT_NE(file, nullptr) << why;
    auto mapped = CacheSnapshot::fromMappedFile(std::move(file));

    ASSERT_EQ(parsed->images().size(), 1u);
    EXPECT_EQ(mapped->rows(), parsed->rows());
    EXPECT_EQ(mapped->sectionCount(), parsed->sectionCount());

    // Exact lookups: same hit set, same serialized row bytes.
    for (int s = 0; s < 3; ++s) {
        for (int w = 0; w < 4; ++w) {
            for (int p = 0; p < 4; ++p) {
                const std::string sig = "sig-" + std::to_string(s);
                const std::string wl = "w" + std::to_string(w);
                const std::string po = "p" + std::to_string(p);
                std::string a, b;
                ASSERT_TRUE(mapped->findCsv(sig, wl, po, a));
                ASSERT_TRUE(parsed->findCsv(sig, wl, po, b));
                EXPECT_EQ(a, b);
            }
        }
    }
    std::string none;
    EXPECT_FALSE(mapped->findCsv("sig-0", "w0", "nope", none));

    // Glob queries: identical multi-line answers, canonical order.
    for (const char *pat : {"*", "w1", "w?", "*2"}) {
        std::string a, b;
        const std::size_t na = mapped->matchCsv("*", pat, "*", a);
        const std::size_t nb = parsed->matchCsv("*", pat, "*", b);
        EXPECT_EQ(na, nb);
        EXPECT_EQ(a, b);
    }

    std::remove(path.c_str());
}

// ---------------------------------------------------------------
// Shard merge over fragmented shards
// ---------------------------------------------------------------

TEST(CacheV4, FragmentedShardMergeMatchesTheCompactedMerge)
{
    // Shard 1 of one fleet is left as the appended multi-segment
    // file a worker's checkpoints produce (e.g. a worker killed
    // before its final flush), so the zero-copy k-way join declines
    // it: the general RunCache merge must produce exactly the bytes
    // of the all-compacted join.
    const std::string frag = tempPath("merge_fragmented");
    const std::string compact = tempPath("merge_compacted");
    for (const std::string &base : {frag, compact}) {
        std::remove(base.c_str());
        for (unsigned i = 0; i < 2; ++i)
            std::remove(shardCachePath(base, i).c_str());
    }

    auto fill = [](const std::string &path, unsigned shard,
                   bool fragmented) {
        std::string bytes;
        {
            // Checkpoint every two inserts: one compacting first
            // write, then one appended segment per checkpoint.
            RunCache rc(path, 2);
            for (int i = 0; i < 6; ++i)
                rc.insert("sig-a",
                          simpleRow("w" + std::to_string(i * 2 + shard),
                                    "p0", i * 2.0 + shard));
            if (!fragmented)
                rc.flush();
            bytes = readFile(path);
        }
        writeFile(path, bytes); // undo the destructor's compaction
    };
    fill(shardCachePath(frag, 0), 0, false);
    fill(shardCachePath(frag, 1), 1, true);
    fill(shardCachePath(compact, 0), 0, false);
    fill(shardCachePath(compact, 1), 1, false);
    ASSERT_GT(v4SegmentCount(shardCachePath(frag, 1)), 1u);
    std::string why;
    ASSERT_EQ(MappedCacheV4::map(shardCachePath(frag, 1), &why),
              nullptr);

    const ShardMergeStats a = mergeShardCaches(frag, 2);
    const ShardMergeStats b = mergeShardCaches(compact, 2);
    EXPECT_EQ(a.files, 2u);
    EXPECT_EQ(a.rows, 12u);
    EXPECT_EQ(b.rows, 12u);
    EXPECT_EQ(a.parseErrors, 0u);

    // Both canonical files are compacted v4 with identical bytes.
    EXPECT_EQ(readFile(frag), readFile(compact));
    EXPECT_EQ(v4SegmentCount(frag), 1u);
    const std::string probe = readFile(frag);
    ASSERT_GE(probe.size(), 8u);
    EXPECT_EQ(probe.substr(0, 8), "MIGC4SEG");

    std::remove(frag.c_str());
    std::remove(compact.c_str());
}

// ---------------------------------------------------------------
// Glob matcher: adversarial input stays linear-ish
// ---------------------------------------------------------------

TEST(GlobMatch, AdversarialStarChainsDoNotBlowUp)
{
    // The classic exponential killer for recursive matchers:
    // many '*'s that each have to try every split point, against a
    // text that almost matches. The iterative matcher is
    // O(|pattern| * |text|); give it a generous wall-clock bound
    // that any backtracking blowup would miss by orders of
    // magnitude.
    const std::string text(4000, 'a');
    std::string pattern;
    for (int i = 0; i < 40; ++i)
        pattern += "a*";
    pattern += 'b'; // never matches: text has no 'b'

    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(globMatch(pattern, text));
    EXPECT_TRUE(globMatch(pattern + "*", text + 'b'));
    EXPECT_FALSE(globMatch("*a?b*", text));
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(secs, 5.0) << "glob matching went super-linear";

    // And the basics still hold.
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("a*c", "abc"));
    EXPECT_FALSE(globMatch("a*c", "abd"));
    EXPECT_TRUE(globMatch("?*?", "ab"));
    EXPECT_FALSE(globMatch("?*?", "a"));
}
