/**
 * @file
 * Per-policy configuration blob: an ordered string key/value map with
 * typed accessors.
 *
 * Policies registered with a policy registry read their tunables from
 * here instead of from dedicated ExperimentConfig members, so adding a
 * governor never touches the harness config struct. Keys are dotted
 * and policy-scoped by convention (`nmap.ni_th`, `parties.interval`,
 * `userspace.pstate`); values are stored as strings so the blob
 * round-trips through the key=value config format losslessly.
 *
 * Durations accept an optional ns/us/ms/s suffix ("10ms", "500us");
 * ticks written programmatically are stored as integer nanoseconds.
 * Doubles are stored in shortest-round-trip form.
 *
 * Plans that own a key namespace (`fault.*`, `client.*`, ...) read it
 * through a ParamsReader, which also rejects the keys they never read.
 */

#ifndef NMAPSIM_HARNESS_POLICY_PARAMS_HH_
#define NMAPSIM_HARNESS_POLICY_PARAMS_HH_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "sim/logging.hh"
#include "sim/time.hh"

namespace nmapsim {

/** Ordered, string-typed per-policy parameter blob. */
class PolicyParams
{
  public:
    using Entry = std::map<std::string, std::string>::value_type;

    PolicyParams() = default;

    bool operator==(const PolicyParams &) const = default;

    bool empty() const { return values_.empty(); }
    std::size_t size() const { return values_.size(); }
    bool has(const std::string &key) const { return values_.count(key) != 0; }
    void erase(const std::string &key) { values_.erase(key); }

    /** The stored entry for @p key; nullptr when absent. */
    const Entry *
    find(const std::string &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? nullptr : &*it;
    }

    /** Raw value; empty string when absent. */
    std::string
    raw(const std::string &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? std::string() : it->second;
    }

    PolicyParams &
    set(const std::string &key, const std::string &value)
    {
        values_[key] = value;
        return *this;
    }

    PolicyParams &
    set(const std::string &key, const char *value)
    {
        values_[key] = value;
        return *this;
    }

    PolicyParams &
    set(const std::string &key, double value)
    {
        values_[key] = formatDouble(value);
        return *this;
    }

    PolicyParams &
    set(const std::string &key, int value)
    {
        values_[key] = std::to_string(value);
        return *this;
    }

    PolicyParams &
    set(const std::string &key, bool value)
    {
        values_[key] = value ? "true" : "false";
        return *this;
    }

    /** Store a duration as integer nanoseconds. */
    PolicyParams &
    setTick(const std::string &key, Tick value)
    {
        values_[key] = std::to_string(value) + "ns";
        return *this;
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        const Entry *e = find(key);
        return e == nullptr ? fallback : parseDouble(e->second, key);
    }

    int
    getInt(const std::string &key, int fallback) const
    {
        const Entry *e = find(key);
        return e == nullptr ? fallback : parseInt(e->second, key);
    }

    bool
    getBool(const std::string &key, bool fallback) const
    {
        const Entry *e = find(key);
        return e == nullptr ? fallback : parseBool(e->second, key);
    }

    /** Duration with optional ns/us/ms/s suffix; bare numbers are ns. */
    Tick
    getTick(const std::string &key, Tick fallback) const
    {
        const Entry *e = find(key);
        return e == nullptr ? fallback : parseTick(e->second, key);
    }

    auto begin() const { return values_.begin(); }
    auto end() const { return values_.end(); }

    /** Shortest string that parses back to exactly @p value. */
    static std::string
    formatDouble(double value)
    {
        char buf[64];
        auto res = std::to_chars(buf, buf + sizeof(buf), value);
        return std::string(buf, res.ptr);
    }

    static double
    parseDouble(const std::string &text, const std::string &key)
    {
        double v = 0.0;
        const char *b = text.data();
        const char *e = b + text.size();
        auto res = std::from_chars(b, e, v);
        if (res.ec != std::errc() || res.ptr != e)
            fatal("param '" + key + "': not a number: '" + text + "'");
        return v;
    }

    static int
    parseInt(const std::string &text, const std::string &key)
    {
        int v = 0;
        const char *b = text.data();
        const char *e = b + text.size();
        auto res = std::from_chars(b, e, v);
        if (res.ec != std::errc() || res.ptr != e)
            fatal("param '" + key + "': not an integer: '" + text + "'");
        return v;
    }

    static bool
    parseBool(const std::string &text, const std::string &key)
    {
        if (text == "true" || text == "1")
            return true;
        if (text == "false" || text == "0")
            return false;
        fatal("param '" + key + "': not a bool: '" + text + "'");
    }

    /** Non-finite values and values outside Tick's range are "not a
     *  duration": casting them to Tick is undefined. */
    static Tick
    parseTick(const std::string &text, const std::string &key)
    {
        double v = 0.0;
        const char *b = text.data();
        const char *e = b + text.size();
        auto res = std::from_chars(b, e, v);
        if (res.ec != std::errc())
            fatal("param '" + key + "': not a duration: '" + text +
                  "'");
        std::string suffix(res.ptr, e);
        double mult = 1.0;
        if (suffix == "" || suffix == "ns")
            mult = 1.0;
        else if (suffix == "us")
            mult = 1e3;
        else if (suffix == "ms")
            mult = 1e6;
        else if (suffix == "s")
            mult = 1e9;
        else
            fatal("param '" + key + "': bad duration suffix: '" + text +
                  "' (use ns/us/ms/s)");
        // [-2^63, 2^63) is Tick's range, exact in double; NaN fails
        // both comparisons.
        const double ns = v * mult;
        if (!(ns >= -0x1p63 && ns < 0x1p63))
            fatal("param '" + key + "': not a duration: '" + text +
                  "'");
        return static_cast<Tick>(ns);
    }

  private:
    std::map<std::string, std::string> values_;
};

/**
 * Reader for one key namespace of a PolicyParams blob (`fault.*`,
 * `client.*`, ...). A plan reads every key it understands through the
 * reader, then calls rejectUnread() before any semantic check: the
 * reads themselves are the namespace's known-key list, so a typo'd
 * key fails with `unknown <ns> key '<key>'`.
 *
 * Getters take full dotted keys and behave like PolicyParams's. Only
 * keys present in the blob are remembered, so a blob with nothing in
 * the namespace costs no allocation.
 */
class ParamsReader
{
  public:
    /** @p ns is the namespace without its dot, e.g. "fault". */
    ParamsReader(const PolicyParams &params, const char *ns)
        : params_(params), ns_(ns)
    {
    }

    double
    getDouble(const std::string &key, double fallback)
    {
        const PolicyParams::Entry *e = read(key);
        return e ? PolicyParams::parseDouble(e->second, key) : fallback;
    }

    int
    getInt(const std::string &key, int fallback)
    {
        const PolicyParams::Entry *e = read(key);
        return e ? PolicyParams::parseInt(e->second, key) : fallback;
    }

    bool
    getBool(const std::string &key, bool fallback)
    {
        const PolicyParams::Entry *e = read(key);
        return e ? PolicyParams::parseBool(e->second, key) : fallback;
    }

    Tick
    getTick(const std::string &key, Tick fallback)
    {
        const PolicyParams::Entry *e = read(key);
        return e ? PolicyParams::parseTick(e->second, key) : fallback;
    }

    bool has(const std::string &key) { return read(key) != nullptr; }

    /** Raw value; empty string when absent. */
    std::string
    raw(const std::string &key)
    {
        const PolicyParams::Entry *e = read(key);
        return e ? e->second : std::string();
    }

    /** The present keys read so far, in read order (a key read twice
     *  is listed twice). A plan compares sizes around a group of reads
     *  to learn whether any key of the group was given. */
    const std::vector<const PolicyParams::Entry *> &
    present() const
    {
        return present_;
    }

    /** fatal() on the first `<ns>.*` key, in key order, that no
     *  getter has read. */
    void
    rejectUnread() const
    {
        const std::size_t n = std::strlen(ns_);
        for (const PolicyParams::Entry &entry : params_) {
            const std::string &key = entry.first;
            if (key.size() > n && key[n] == '.' &&
                key.compare(0, n, ns_) == 0 &&
                std::find(present_.begin(), present_.end(), &entry) ==
                    present_.end())
                fatal("unknown " + std::string(ns_) + " key '" + key +
                      "'");
        }
    }

  private:
    /** The entry for @p key, remembered when present. */
    const PolicyParams::Entry *
    read(const std::string &key)
    {
        const PolicyParams::Entry *entry = params_.find(key);
        if (entry != nullptr)
            present_.push_back(entry);
        return entry;
    }

    const PolicyParams &params_;
    const char *ns_;
    std::vector<const PolicyParams::Entry *> present_;
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_POLICY_PARAMS_HH_
