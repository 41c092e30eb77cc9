#include "core/cache_snapshot.hh"

#include <set>
#include <string_view>

#include "core/cache_v4.hh"
#include "sim/logging.hh"

namespace migc
{

bool
globMatch(const std::string &pattern, const std::string &text)
{
    // Iterative two-pointer matcher with single-star backtracking:
    // on mismatch, retry from the most recent '*' consuming one more
    // character. O(|pattern| * |text|) worst case, no allocation.
    std::size_t p = 0, t = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (t < text.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == text[t])) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = t;
        } else if (star != std::string::npos) {
            p = star + 1;
            t = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

CacheSnapshot::CacheSnapshot(std::vector<Image> images)
    : images_(std::move(images))
{
    for (const Image &image : images_)
        panic_if(image == nullptr, "CacheSnapshot over a null image");
    // Every row of the first image counts; a later image's row counts
    // only when no earlier image holds its key - O(later rows * log),
    // which keeps a base-plus-delta publish proportional to the delta.
    if (!images_.empty())
        rows_ = images_.front()->rows();
    for (std::size_t i = 1; i < images_.size(); ++i) {
        for (std::size_t r = 0; r < images_[i]->rows(); ++r) {
            const auto [sig, wl, pol] = images_[i]->keyAt(r);
            bool shadowed = false;
            for (std::size_t j = 0; j < i && !shadowed; ++j)
                shadowed = images_[j]->findRow(sig, wl, pol) >= 0;
            rows_ += shadowed ? 0 : 1;
        }
    }
}

std::shared_ptr<const CacheSnapshot>
CacheSnapshot::fromImages(std::vector<Image> images)
{
    return std::shared_ptr<const CacheSnapshot>(
        new CacheSnapshot(std::move(images)));
}

std::shared_ptr<const CacheSnapshot>
CacheSnapshot::fromMappedFile(Image file)
{
    return fromImages({std::move(file)});
}

bool
CacheSnapshot::findCsv(const std::string &sig,
                       const std::string &workload,
                       const std::string &policy,
                       std::string &out) const
{
    for (const Image &image : images_) {
        const std::int64_t idx = image->findRow(sig, workload, policy);
        if (idx >= 0) {
            out += csvRow(workload, policy, image->segment().rows[idx]);
            return true;
        }
    }
    return false;
}

std::size_t
CacheSnapshot::matchCsv(const std::string &sig_pattern,
                        const std::string &workload_pattern,
                        const std::string &policy_pattern,
                        std::string &out) const
{
    // Per image, the matching rows in its canonical order. The
    // interned-table prefilter evaluates the workload/policy globs
    // once per distinct string and the signature glob once per
    // section; rows are only visited inside sections whose signature
    // matched, and each visit is two byte-sized flag loads.
    std::vector<std::vector<std::size_t>> hits(images_.size());
    for (std::size_t i = 0; i < images_.size(); ++i) {
        const MappedCacheV4 &image = *images_[i];
        const V4SegmentView &seg = image.segment();
        std::vector<unsigned char> wl_ok(seg.stringCount, 0);
        std::vector<unsigned char> pol_ok(seg.stringCount, 0);
        for (std::uint64_t s = 0; s < seg.stringCount; ++s) {
            const std::string str(seg.str(static_cast<std::uint32_t>(s)));
            wl_ok[s] = globMatch(workload_pattern, str) ? 1 : 0;
            pol_ok[s] = globMatch(policy_pattern, str) ? 1 : 0;
        }
        for (const MappedCacheV4::SectionRange &range :
             image.sectionRanges()) {
            const std::string sig(seg.str(seg.keys[range.begin].sig));
            if (!globMatch(sig_pattern, sig))
                continue;
            for (std::size_t r = range.begin; r < range.end; ++r) {
                const V4Key &k = seg.keys[r];
                if (wl_ok[k.workload] && pol_ok[k.policy])
                    hits[i].push_back(r);
            }
        }
    }

    // Merge the sorted runs: emit the smallest head key, from the
    // earliest image holding it, and retire every image's copy.
    std::vector<std::size_t> next(images_.size(), 0);
    std::size_t n = 0;
    for (;;) {
        int winner = -1;
        MappedCacheV4::KeyStrings best;
        for (std::size_t i = 0; i < images_.size(); ++i) {
            if (next[i] == hits[i].size())
                continue;
            const auto key = images_[i]->keyAt(hits[i][next[i]]);
            if (winner < 0 || key < best) {
                winner = static_cast<int>(i);
                best = key;
            }
        }
        if (winner < 0)
            return n;
        const std::size_t row = hits[winner][next[winner]];
        out += csvRow(std::get<1>(best), std::get<2>(best),
                      images_[winner]->segment().rows[row]);
        out += '\n';
        ++n;
        for (std::size_t i = 0; i < images_.size(); ++i) {
            if (next[i] < hits[i].size() &&
                images_[i]->keyAt(hits[i][next[i]]) == best)
                ++next[i];
        }
    }
}

std::size_t
CacheSnapshot::sectionCount() const
{
    std::set<std::string_view> sigs;
    for (const Image &image : images_) {
        const V4SegmentView &seg = image->segment();
        for (const MappedCacheV4::SectionRange &range :
             image->sectionRanges())
            sigs.insert(seg.str(seg.keys[range.begin].sig));
    }
    return sigs.size();
}

} // namespace migc
