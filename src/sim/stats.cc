#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace migc
{

StatHistogram::StatHistogram(double min, double max, std::size_t buckets)
    : min_(min), max_(max),
      width_((max - min) / static_cast<double>(buckets)),
      buckets_(buckets, 0.0)
{
    panic_if(buckets == 0, "histogram needs at least one bucket");
    panic_if(max <= min, "histogram range is empty");
}

void
StatHistogram::sample(double v, double weight)
{
    double idx_f = (v - min_) / width_;
    std::size_t idx;
    if (idx_f < 0.0) {
        idx = 0;
    } else if (idx_f >= static_cast<double>(buckets_.size())) {
        idx = buckets_.size() - 1;
    } else {
        idx = static_cast<std::size_t>(idx_f);
    }
    buckets_[idx] += weight;
    count_ += weight;
    sum_ += v * weight;
    if (!any_ || v < minSeen_)
        minSeen_ = v;
    if (!any_ || v > maxSeen_)
        maxSeen_ = v;
    any_ = true;
}

double
StatHistogram::bucketLow(std::size_t i) const
{
    return min_ + width_ * static_cast<double>(i);
}

void
StatHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0.0);
    count_ = 0.0;
    sum_ = 0.0;
    minSeen_ = 0.0;
    maxSeen_ = 0.0;
    any_ = false;
}

void
StatGroup::addScalar(const std::string &name, const std::string &desc,
                     const StatScalar *stat)
{
    entries_.push_back(
        Entry{name, desc, [stat]() { return stat->value(); }, nullptr});
}

void
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      std::function<double()> fn)
{
    entries_.push_back(Entry{name, desc, std::move(fn), nullptr});
}

void
StatGroup::addHistogram(const std::string &name, const std::string &desc,
                        const StatHistogram *stat)
{
    entries_.push_back(
        Entry{name, desc, [stat]() { return stat->mean(); }, stat});
}

StatGroup &
StatGroup::child(const std::string &name)
{
    auto it = children_.find(name);
    if (it == children_.end())
        it = children_.emplace(name, StatGroup(name)).first;
    return it->second;
}

const StatGroup::Entry *
StatGroup::findLocal(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

const StatGroup::Entry *
StatGroup::find(const std::string &dotted_path) const
{
    auto dot = dotted_path.find('.');
    if (dot == std::string::npos)
        return findLocal(dotted_path);
    auto it = children_.find(dotted_path.substr(0, dot));
    if (it == children_.end())
        return nullptr;
    return it->second.find(dotted_path.substr(dot + 1));
}

double
StatGroup::get(const std::string &dotted_path) const
{
    const Entry *e = find(dotted_path);
    panic_if(e == nullptr, "no stat named '%s' in group '%s'",
             dotted_path.c_str(), name_.c_str());
    return e->value();
}

bool
StatGroup::has(const std::string &dotted_path) const
{
    return find(dotted_path) != nullptr;
}

double
StatGroup::sumOverChildren(const std::string &leaf_path,
                           const std::string &child_prefix) const
{
    double total = 0.0;
    for (auto it = children_.lower_bound(child_prefix);
         it != children_.end() && it->first.starts_with(child_prefix);
         ++it) {
        if (const Entry *e = it->second.find(leaf_path))
            total += e->value();
    }
    return total;
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    std::string base = prefix.empty() ? name_ : prefix;
    for (const auto &e : entries_) {
        std::string path = base.empty() ? e.name : base + "." + e.name;
        os << path << " " << e.value();
        if (!e.desc.empty())
            os << " # " << e.desc;
        os << "\n";
    }
    for (const auto &[name, group] : children_) {
        std::string child_prefix = base.empty() ? name : base + "." + name;
        group.dump(os, child_prefix);
    }
}

void
StatGroup::flatten(std::map<std::string, double> &out,
                   const std::string &prefix) const
{
    std::string base = prefix.empty() ? name_ : prefix;
    for (const auto &e : entries_) {
        std::string path = base.empty() ? e.name : base + "." + e.name;
        out[path] = e.value();
    }
    for (const auto &[name, group] : children_) {
        std::string child_prefix = base.empty() ? name : base + "." + name;
        group.flatten(out, child_prefix);
    }
}

} // namespace migc
