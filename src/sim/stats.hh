/**
 * @file
 * A small hierarchical statistics package.
 *
 * Stats are plain counters owned by simulation objects; a StatGroup
 * collects (name, description, accessor) triples so they can be
 * dumped uniformly and harvested by the experiment harness.
 */

#ifndef MIGC_SIM_STATS_HH
#define MIGC_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace migc
{

/** A monotonically increasing scalar counter. */
class StatScalar
{
  public:
    StatScalar() = default;

    StatScalar &
    operator+=(double v)
    {
        value_ += v;
        return *this;
    }

    StatScalar &
    operator++()
    {
        value_ += 1.0;
        return *this;
    }

    void set(double v) { value_ = v; }

    double value() const { return value_; }

    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/** Running average (sum / count). */
class StatAverage
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_ += 1.0;
    }

    double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

    double count() const { return count_; }

    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0.0;
    }

  private:
    double sum_ = 0.0;
    double count_ = 0.0;
};

/**
 * A fixed-bucket histogram over [min, max); out-of-range samples go
 * to saturating end buckets.
 */
class StatHistogram
{
  public:
    StatHistogram() : StatHistogram(0.0, 1.0, 1) {}

    StatHistogram(double min, double max, std::size_t buckets);

    void sample(double v, double weight = 1.0);

    double count() const { return count_; }

    double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

    double minSample() const { return minSeen_; }

    double maxSample() const { return maxSeen_; }

    const std::vector<double> &buckets() const { return buckets_; }

    double bucketLow(std::size_t i) const;

    void reset();

  private:
    double min_;
    double max_;
    double width_;
    std::vector<double> buckets_;
    double count_ = 0.0;
    double sum_ = 0.0;
    double minSeen_ = 0.0;
    double maxSeen_ = 0.0;
    bool any_ = false;
};

/**
 * Registry of named statistics for one subsystem, arranged in a tree
 * by dotted path.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /** Register a scalar stat under @p name. */
    void addScalar(const std::string &name, const std::string &desc,
                   const StatScalar *stat);

    /** Register a derived value computed at dump time. */
    void addFormula(const std::string &name, const std::string &desc,
                    std::function<double()> fn);

    void addHistogram(const std::string &name, const std::string &desc,
                      const StatHistogram *stat);

    /** Create (or get) a child group named @p name. */
    StatGroup &child(const std::string &name);

    const std::string &name() const { return name_; }

    /** Fetch one value by dotted path, e.g. "l2.bank0.hits". */
    double get(const std::string &dotted_path) const;

    /** True if @p dotted_path names a registered value. */
    bool has(const std::string &dotted_path) const;

    /**
     * Sum a stat over the direct children whose name starts with
     * @p child_prefix (all of them by default) and that register it,
     * e.g. sumOverChildren("hits", "l1_") over every L1.
     */
    double sumOverChildren(const std::string &leaf_path,
                           const std::string &child_prefix = "") const;

    /** Dump all stats (recursively) as "path value # desc" lines. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Flatten to (path, value) pairs for programmatic harvest. */
    void flatten(std::map<std::string, double> &out,
                 const std::string &prefix = "") const;

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::function<double()> value;
        const StatHistogram *histogram = nullptr;
    };

    const Entry *findLocal(const std::string &name) const;

    /** The entry at @p dotted_path, or null. */
    const Entry *find(const std::string &dotted_path) const;

    std::string name_;
    std::vector<Entry> entries_;
    // map keeps deterministic iteration order for dumps
    std::map<std::string, StatGroup> children_;
};

} // namespace migc

#endif // MIGC_SIM_STATS_HH
