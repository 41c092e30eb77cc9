#include "core/cache_snapshot.hh"

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

CacheSnapshot::CacheSnapshot(
    SectionMap sections, std::size_t rows,
    std::vector<std::shared_ptr<const void>> keep_alive)
    : sections_(std::move(sections)), rows_(rows),
      keepAlive_(std::move(keep_alive))
{}

CacheSnapshot::CacheSnapshot(std::shared_ptr<const MappedCacheV4> file)
    : rows_(file->rows()), mapped_(std::move(file))
{}

std::shared_ptr<const CacheSnapshot>
CacheSnapshot::empty()
{
    static const std::shared_ptr<const CacheSnapshot> instance(
        new CacheSnapshot({}, 0, {}));
    return instance;
}

std::shared_ptr<const CacheSnapshot>
CacheSnapshot::fromMappedFile(std::shared_ptr<const MappedCacheV4> file)
{
    panic_if(file == nullptr,
             "fromMappedFile needs a mapped cache file");
    return std::shared_ptr<const CacheSnapshot>(
        new CacheSnapshot(std::move(file)));
}

const RunMetrics *
CacheSnapshot::find(const std::string &sig, const std::string &workload,
                    const std::string &policy) const
{
    auto sit = sections_.find(sig);
    if (sit == sections_.end())
        return nullptr;
    auto rit = sit->second.find(Key{workload, policy});
    return rit == sit->second.end() ? nullptr : rit->second;
}

bool
CacheSnapshot::findCsv(const std::string &sig,
                       const std::string &workload,
                       const std::string &policy,
                       std::string &out) const
{
    if (mapped_ != nullptr) {
        const std::int64_t idx =
            mapped_->findRow(sig, workload, policy);
        if (idx < 0)
            return false;
        out += mapped_->materialize(static_cast<std::size_t>(idx))
                   .toCsv();
        return true;
    }
    const RunMetrics *row = find(sig, workload, policy);
    if (row == nullptr)
        return false;
    out += row->toCsv();
    return true;
}

std::size_t
CacheSnapshot::matchCsv(const std::string &sig_pattern,
                        const std::string &workload_pattern,
                        const std::string &policy_pattern,
                        std::string &out) const
{
    if (mapped_ == nullptr) {
        std::size_t n = 0;
        for (const auto &[sig, section] : sections_) {
            if (!globMatch(sig_pattern, sig))
                continue;
            for (const auto &[key, row] : section) {
                if (globMatch(workload_pattern, key.first) &&
                    globMatch(policy_pattern, key.second)) {
                    out += row->toCsv();
                    out += '\n';
                    ++n;
                }
            }
        }
        return n;
    }

    // Interned-table prefilter: evaluate the workload/policy globs
    // once per distinct string, the signature glob once per section.
    // Rows are only visited inside sections whose signature matched,
    // and each visit is two byte-sized flag loads - the globs never
    // rescan per row.
    const V4SegmentView &seg = mapped_->segment();
    std::vector<unsigned char> wl_ok(seg.stringCount, 0);
    std::vector<unsigned char> pol_ok(seg.stringCount, 0);
    for (std::uint64_t i = 0; i < seg.stringCount; ++i) {
        const std::string s(seg.str(static_cast<std::uint32_t>(i)));
        wl_ok[i] = globMatch(workload_pattern, s) ? 1 : 0;
        pol_ok[i] = globMatch(policy_pattern, s) ? 1 : 0;
    }

    std::size_t n = 0;
    for (const MappedCacheV4::SectionRange &range :
         mapped_->sectionRanges()) {
        const std::string sig(
            seg.str(seg.keys[range.begin].sig));
        if (!globMatch(sig_pattern, sig))
            continue;
        for (std::size_t i = range.begin; i < range.end; ++i) {
            const V4Key &k = seg.keys[i];
            if (!wl_ok[k.workload] || !pol_ok[k.policy])
                continue;
            out += mapped_->materialize(i).toCsv();
            out += '\n';
            ++n;
        }
    }
    return n;
}

std::size_t
CacheSnapshot::sectionCount() const
{
    return mapped_ != nullptr ? mapped_->sections() : sections_.size();
}

double
CacheSnapshot::estimateEvents(const std::string &workload,
                              const std::string &policy) const
{
    if (mapped_ != nullptr) {
        const std::int64_t w = mapped_->stringId(workload);
        const std::int64_t p = mapped_->stringId(policy);
        if (w < 0 || p < 0)
            return 0.0;
        const V4SegmentView &seg = mapped_->segment();
        double best = 0.0;
        for (std::uint64_t i = 0; i < seg.rowCount; ++i) {
            const V4Key &k = seg.keys[i];
            if (k.workload == static_cast<std::uint32_t>(w) &&
                k.policy == static_cast<std::uint32_t>(p) &&
                seg.rows[i].m[20] > best) {
                best = seg.rows[i].m[20];
            }
        }
        return best;
    }
    double best = 0.0;
    for (const auto &[sig, section] : sections_) {
        auto it = section.find(Key{workload, policy});
        if (it != section.end() && it->second->simEvents > best)
            best = it->second->simEvents;
    }
    return best;
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

bool
CacheSnapshot::Builder::add(const std::string &sig,
                            const RunMetrics *row)
{
    if (row == nullptr)
        return false;
    auto [it, fresh] = sections_[sig].emplace(
        Key{row->workload, row->policy}, row);
    (void)it;
    if (fresh)
        ++rows_;
    return fresh;
}

bool
CacheSnapshot::Builder::addSorted(const std::string &sig,
                                  const RunMetrics *row)
{
    if (row == nullptr)
        return false;
    if (!haveHint_ || hintSection_->first != sig) {
        // New (or first) section: hint at the end of the section
        // map - correct whenever sections arrive in ascending order,
        // and emplace_hint stays correct (just slower) when not.
        hintSection_ =
            sections_.emplace_hint(sections_.end(), sig, Section{});
        haveHint_ = true;
    }
    Section &section = hintSection_->second;
    const std::size_t before = section.size();
    section.emplace_hint(section.end(),
                         Key{row->workload, row->policy}, row);
    if (section.size() == before)
        return false; // key already present: first add wins
    ++rows_;
    return true;
}

void
CacheSnapshot::Builder::retain(std::shared_ptr<const void> owner)
{
    if (owner)
        keepAlive_.push_back(std::move(owner));
}

void
CacheSnapshot::Builder::addAll(
    const std::shared_ptr<const CacheSnapshot> &snap)
{
    if (!snap)
        return;
    panic_if(snap->mapped(),
             "Builder::addAll on a mapped snapshot: it has no "
             "materialized rows to add, and dropping %zu rows "
             "silently is not an option - materialize through "
             "RunCache first",
             snap->rows());
    for (const auto &[sig, section] : snap->sections()) {
        for (const auto &[key, row] : section)
            add(sig, row);
    }
    retain(snap);
}

std::shared_ptr<const CacheSnapshot>
CacheSnapshot::Builder::build()
{
    // Drop sections that ended up empty (a section key learned from
    // a "# config" line with no parseable rows) so serialization and
    // matchCsv() never see hollow sections.
    for (auto it = sections_.begin(); it != sections_.end();) {
        if (it->second.empty())
            it = sections_.erase(it);
        else
            ++it;
    }
    auto snap = std::shared_ptr<const CacheSnapshot>(new CacheSnapshot(
        std::move(sections_), rows_, std::move(keepAlive_)));
    sections_ = {};
    rows_ = 0;
    keepAlive_ = {};
    haveHint_ = false;
    return snap;
}

} // namespace migc
