#include "core/cache_v4.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace migc
{

namespace
{

/** Append a little-endian scalar to a byte buffer. */
template <typename T>
void
put(std::string &buf, T v)
{
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    buf.append(raw, sizeof(T));
}

/** Read a scalar from a byte pointer (alignment-safe). */
template <typename T>
T
get(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

constexpr std::uint64_t kChecksumSeed = 0x9E3779B97F4A7C15ull;

bool
fail(std::string *why, const std::string &msg)
{
    if (why != nullptr)
        *why = msg;
    return false;
}

/**
 * Map @p path read-only into @p base / @p len; an empty file opens
 * with len 0 and no mapping. @return false (with @p why set) when the
 * file cannot be opened, sized or mapped.
 */
bool
mapFile(const std::string &path, void *&base, std::size_t &len,
        std::string *why)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail(why, "cannot open the file");
    struct ::stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return fail(why, "cannot stat the file");
    }
    len = static_cast<std::size_t>(st.st_size);
    if (len > 0)
        base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping holds its own reference
    if (base == MAP_FAILED) {
        base = nullptr;
        len = 0;
        return fail(why, "mmap failed");
    }
    return true;
}

} // namespace

std::uint64_t
v4Checksum(const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    std::uint64_t h = kChecksumSeed ^ n;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        h = splitmix64(h ^ get<std::uint64_t>(p + i));
    if (i < n) {
        std::uint64_t tail = 0;
        std::memcpy(&tail, p + i, n - i);
        h = splitmix64(h ^ tail);
    }
    return h;
}

std::string
buildV4Segment(const std::vector<V4RowRef> &rows)
{
    // Intern: sorted unique names, so ids order like the strings and
    // sorting keys by id triple IS the canonical string order.
    std::vector<std::string_view> table;
    table.reserve(rows.size() * 3);
    for (const V4RowRef &r : rows) {
        table.push_back(r.sig);
        table.push_back(r.workload);
        table.push_back(r.policy);
    }
    std::sort(table.begin(), table.end());
    table.erase(std::unique(table.begin(), table.end()), table.end());
    panic_if(table.size() > UINT32_MAX,
             "v4 segment with more than 2^32 interned strings");

    auto idOf = [&](std::string_view s) {
        auto it = std::lower_bound(table.begin(), table.end(), s);
        return static_cast<std::uint32_t>(it - table.begin());
    };

    std::uint64_t string_bytes = 0;
    for (std::string_view s : table)
        string_bytes += s.size();
    const std::uint64_t blob_padded = (string_bytes + 7) & ~7ull;

    const std::uint64_t seg_bytes =
        kV4HeaderBytes + 8 * table.size() + blob_padded +
        sizeof(V4Key) * rows.size() + sizeof(V4Row) * rows.size() +
        kV4FooterBytes;

    std::string buf;
    buf.reserve(seg_bytes);
    buf.append(kV4SegMagic, sizeof(kV4SegMagic));
    put<std::uint32_t>(buf, kV4Version);
    put<std::uint32_t>(buf, kV4EndianTag);
    put<std::uint64_t>(buf, seg_bytes);
    put<std::uint64_t>(buf, table.size());
    put<std::uint64_t>(buf, blob_padded);
    put<std::uint64_t>(buf, rows.size());
    put<std::uint64_t>(buf, 0); // reserved
    put<std::uint64_t>(buf, 0); // reserved

    std::uint64_t end = 0;
    for (std::string_view s : table) {
        end += s.size();
        put<std::uint64_t>(buf, end);
    }
    for (std::string_view s : table)
        buf.append(s.data(), s.size());
    buf.append(blob_padded - string_bytes, '\0');

    V4Key prev{0, 0, 0, 0};
    bool first = true;
    for (const V4RowRef &r : rows) {
        V4Key k{idOf(r.sig), idOf(r.workload), idOf(r.policy), 0};
        panic_if(!first &&
                     std::tie(prev.sig, prev.workload, prev.policy) >=
                         std::tie(k.sig, k.workload, k.policy),
                 "buildV4Segment input not sorted-unique by "
                 "(sig, workload, policy)");
        prev = k;
        first = false;
        buf.append(reinterpret_cast<const char *>(&k), sizeof(k));
    }
    for (const V4RowRef &r : rows)
        buf.append(reinterpret_cast<const char *>(&r.data),
                   sizeof(r.data));

    put<std::uint64_t>(buf, v4Checksum(buf.data(), buf.size()));
    put<std::uint64_t>(buf, rows.size());
    buf.append(kV4EndMagic, sizeof(kV4EndMagic));
    panic_if(buf.size() != seg_bytes,
             "v4 segment size accounting drifted (%zu vs %llu)",
             buf.size(),
             static_cast<unsigned long long>(seg_bytes));
    return buf;
}

bool
parseV4Segment(const char *p, std::size_t avail, V4SegmentView &seg,
               std::string *why)
{
    if (avail < kV4HeaderBytes + kV4FooterBytes)
        return fail(why, "segment truncated before the header");
    if (!isV4Magic(p))
        return fail(why, "segment magic mismatch");
    if (get<std::uint32_t>(p + 8) != kV4Version)
        return fail(why, "unsupported v4 segment version");
    if (get<std::uint32_t>(p + 12) != kV4EndianTag)
        return fail(why, "endianness mismatch (foreign-byte-order "
                         "cache file)");
    const std::uint64_t seg_bytes = get<std::uint64_t>(p + 16);
    const std::uint64_t string_count = get<std::uint64_t>(p + 24);
    const std::uint64_t string_bytes = get<std::uint64_t>(p + 32);
    const std::uint64_t row_count = get<std::uint64_t>(p + 40);

    // Recompute the layout from the counts and demand exact
    // agreement with the declared size before touching any offset.
    // Every count is bounded by the bytes present first, and the sum
    // is overflow-checked: a layout that only adds up modulo 2^64
    // would otherwise match the declared size while its string table
    // reaches far past the buffer.
    constexpr std::uint64_t row_bytes = sizeof(V4Key) + sizeof(V4Row);
    if (string_count > avail / 8 || string_bytes > avail ||
        row_count > avail / row_bytes)
        return fail(why, "segment counts exceed the available bytes");
    std::uint64_t expect = kV4HeaderBytes + kV4FooterBytes;
    for (std::uint64_t part :
         {8 * string_count, string_bytes, row_bytes * row_count}) {
        if (__builtin_add_overflow(expect, part, &expect))
            return fail(why, "segment layout overflows");
    }
    if (seg_bytes != expect || (string_bytes & 7) != 0)
        return fail(why, "segment layout is inconsistent with its "
                         "declared size");
    if (seg_bytes > avail)
        return fail(why, "segment truncated (torn append?)");

    const char *footer = p + seg_bytes - kV4FooterBytes;
    if (std::memcmp(footer + 16, kV4EndMagic, sizeof(kV4EndMagic)) != 0)
        return fail(why, "footer magic mismatch (torn append?)");
    if (get<std::uint64_t>(footer + 8) != row_count)
        return fail(why, "footer row count disagrees with the header");
    if (get<std::uint64_t>(footer) !=
        v4Checksum(p, seg_bytes - kV4FooterBytes))
        return fail(why, "footer checksum mismatch (corrupted or "
                         "torn segment)");

    seg.bytes = seg_bytes;
    seg.stringCount = string_count;
    seg.rowCount = row_count;
    seg.stringEnds =
        reinterpret_cast<const std::uint64_t *>(p + kV4HeaderBytes);
    seg.blob = p + kV4HeaderBytes + 8 * string_count;
    seg.keys = reinterpret_cast<const V4Key *>(seg.blob + string_bytes);
    seg.rows = reinterpret_cast<const V4Row *>(seg.keys + row_count);

    // String ends must be monotone and inside the blob, and the
    // table sorted strictly ascending - every str() and every
    // binary search depends on it.
    std::uint64_t prev_end = 0;
    for (std::uint64_t i = 0; i < string_count; ++i) {
        if (seg.stringEnds[i] < prev_end ||
            seg.stringEnds[i] > string_bytes) {
            return fail(why, "string table offsets out of bounds");
        }
        prev_end = seg.stringEnds[i];
    }
    for (std::uint64_t i = 1; i < string_count; ++i) {
        if (seg.str(i - 1) >= seg.str(i))
            return fail(why, "string table not sorted unique");
    }
    for (std::uint64_t i = 0; i < row_count; ++i) {
        const V4Key &k = seg.keys[i];
        if (k.sig >= string_count || k.workload >= string_count ||
            k.policy >= string_count) {
            return fail(why, "key column references a string id "
                             "outside the table");
        }
        if (i > 0) {
            const V4Key &q = seg.keys[i - 1];
            if (std::tie(q.sig, q.workload, q.policy) >=
                std::tie(k.sig, k.workload, k.policy)) {
                return fail(why, "key column not sorted unique");
            }
        }
    }
    return true;
}

V4SegmentFile::V4SegmentFile(const std::string &path)
{
    exists_ = mapFile(path, base_, len_, nullptr);
    if (len_ == 0)
        return; // missing or empty: no segments
    const char *buf = static_cast<const char *>(base_);
    fatal_if(len_ < sizeof(kV4SegMagic) || !isV4Magic(buf),
             "sweep cache %s is not a v4 cache (a v3/v2 text cache or "
             "an unrecognized file); it was left untouched. Convert a "
             "text cache once with `migc_sweep --cache %s --convert`",
             path.c_str(), path.c_str());
    std::size_t off = 0;
    while (off < len_) {
        V4SegmentView seg;
        if (!parseV4Segment(buf + off, len_ - off, seg, &damage_)) {
            damagedAt_ = off;
            break;
        }
        segments_.push_back(seg);
        off += seg.bytes;
    }
}

V4SegmentFile::~V4SegmentFile()
{
    if (base_ != nullptr)
        ::munmap(base_, len_);
}

std::size_t
v4SegmentCount(const std::string &path)
{
    return V4SegmentFile(path).segments().size();
}

bool
writeFileAtomic(const std::string &path, const std::string &bytes,
                std::string *error)
{
    // The pid suffix keeps concurrent processes' tmp files private.
    const std::string tmp = csprintf("%s.%d.tmp", path.c_str(),
                                     static_cast<int>(::getpid()));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return fail(error, csprintf("cannot open %s for writing",
                                    tmp.c_str()));
    bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        return fail(error, csprintf("short write to %s", tmp.c_str()));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return fail(error, csprintf("rename %s -> %s failed",
                                    tmp.c_str(), path.c_str()));
    }
    return true;
}

// ---------------------------------------------------------------------
// MappedCacheV4
// ---------------------------------------------------------------------

std::shared_ptr<const MappedCacheV4>
MappedCacheV4::map(const std::string &path, std::string *why)
{
    auto mapped = std::shared_ptr<MappedCacheV4>(new MappedCacheV4());
    if (!mapFile(path, mapped->base_, mapped->len_, why))
        return nullptr;
    if (mapped->len_ == 0) {
        fail(why, "the file is empty");
        return nullptr;
    }
    if (!mapped->adopt(static_cast<const char *>(mapped->base_),
                       mapped->len_, why))
        return nullptr; // dtor unmaps
    return mapped;
}

std::shared_ptr<const MappedCacheV4>
MappedCacheV4::fromBytes(std::string bytes, std::string *why)
{
    auto image = std::shared_ptr<MappedCacheV4>(new MappedCacheV4());
    image->owned_ = std::move(bytes);
    // The typed column views need 8-byte alignment. Any buffer long
    // enough to hold a segment is past the small-string size, so it
    // comes from operator new, which guarantees that alignment.
    panic_if(image->owned_.size() >= kV4HeaderBytes + kV4FooterBytes &&
                 reinterpret_cast<std::uintptr_t>(
                     image->owned_.data()) % 8 != 0,
             "v4 image bytes are not 8-byte aligned");
    if (!image->adopt(image->owned_.data(), image->owned_.size(), why))
        return nullptr;
    return image;
}

bool
MappedCacheV4::adopt(const char *p, std::size_t len, std::string *why)
{
    if (!parseV4Segment(p, len, seg_, why))
        return false;
    if (seg_.bytes != len) {
        // Pending append segments (or trailing garbage): the parsing
        // loader must fold them; an image is the one canonical
        // sorted run a compaction produces.
        return fail(why, "file is not a single compacted segment");
    }
    for (std::size_t i = 0; i < seg_.rowCount; ++i) {
        if (i == 0 || seg_.keys[i].sig != seg_.keys[i - 1].sig)
            sections_.push_back(SectionRange{i, i + 1});
        else
            sections_.back().end = i + 1;
    }
    return true;
}

MappedCacheV4::~MappedCacheV4()
{
    if (base_ != nullptr)
        ::munmap(base_, len_);
}

std::int64_t
MappedCacheV4::stringId(std::string_view s) const
{
    std::size_t lo = 0, hi = seg_.stringCount;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (seg_.str(static_cast<std::uint32_t>(mid)) < s)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < seg_.stringCount &&
        seg_.str(static_cast<std::uint32_t>(lo)) == s) {
        return static_cast<std::int64_t>(lo);
    }
    return -1;
}

std::int64_t
MappedCacheV4::findRow(std::string_view sig, std::string_view workload,
                       std::string_view policy) const
{
    const std::int64_t s = stringId(sig);
    const std::int64_t w = stringId(workload);
    const std::int64_t p = stringId(policy);
    if (s < 0 || w < 0 || p < 0)
        return -1;
    const V4Key want{static_cast<std::uint32_t>(s),
                     static_cast<std::uint32_t>(w),
                     static_cast<std::uint32_t>(p), 0};
    const V4Key *begin = seg_.keys;
    const V4Key *end = seg_.keys + seg_.rowCount;
    const V4Key *it = std::lower_bound(
        begin, end, want, [](const V4Key &a, const V4Key &b) {
            return std::tie(a.sig, a.workload, a.policy) <
                   std::tie(b.sig, b.workload, b.policy);
        });
    if (it == end || it->sig != want.sig ||
        it->workload != want.workload || it->policy != want.policy) {
        return -1;
    }
    return it - begin;
}

} // namespace migc
