/**
 * @file
 * Declarative ExperimentConfig <-> key=value text round trip.
 *
 * printConfig() emits one `key=value` line per serialisable field;
 * parseConfig() reads the same format back, starting from a
 * default-constructed config, so `parseConfig(printConfig(c)) == c`
 * for any config without in-memory-only members. Blank lines and
 * `#` comments are skipped.
 *
 * The schema is one ordered field list, `forEachField` in
 * config_io.cc: printing, parsing and unknown-key rejection all walk
 * it, so each key is spelled once. cluster_io.cc lists the cluster
 * keys the same way.
 *
 * Key space:
 *   - flat keys (`cores`, `app`, `freq_policy`, ...) and dotted
 *     harness-struct keys (`gov.*`, `burst.*`, `os.*`, `nic.*`) are
 *     fixed by the field list; an unlisted key under a listed dotted
 *     prefix, or an unlisted flat key, is fatal();
 *   - any other dotted key (`nmap.ni_th`, `parties.interval`, ...) is
 *     passed through verbatim into ExperimentConfig::params, so a
 *     newly registered policy's tunables need no parser changes;
 *   - durations accept ns/us/ms/s suffixes and print as integer ns;
 *   - `app` is the AppProfile name (see AppProfile::byName).
 *
 * Not serialised (in-memory-only, documented on ExperimentConfig):
 * loadSchedule and extraObservers.
 */

#ifndef NMAPSIM_HARNESS_CONFIG_IO_HH_
#define NMAPSIM_HARNESS_CONFIG_IO_HH_

#include <charconv>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "harness/experiment.hh"
#include "sim/logging.hh"

namespace nmapsim {

/** Serialise every schema field as `key=value` lines. */
std::string printConfig(const ExperimentConfig &config);

/** Parse `key=value` lines onto a default config; fatal() on unknown
 *  keys or malformed values. */
ExperimentConfig parseConfig(const std::string &text);

/** Apply one key/value onto @p config; fatal() on unknown keys or
 *  malformed values. The CLI's `--set key=value` uses this. */
void setConfigValue(ExperimentConfig &config, const std::string &key,
                    const std::string &value);

/** Call @p apply on every `key=value` line of @p text, both sides
 *  trimmed. Blank lines and `#` comments are skipped; a line without
 *  '=' or with an empty key is fatal(). parseConfig and
 *  parseClusterConfig share it. */
void forEachConfigLine(
    const std::string &text,
    const std::function<void(const std::string &key,
                             const std::string &value)> &apply);

/** @name Scalar parsers of the field codec */
/**@{*/
/** @p text as an integer of type T; fatal() names @p key otherwise.
 *  An unsigned T takes digits only, so `-1` is an error, not a wrap. */
template <class T>
T
parseConfigInteger(const std::string &text, const std::string &key)
{
    T v = 0;
    const char *b = text.data();
    const char *e = b + text.size();
    auto res = std::from_chars(b, e, v);
    if (res.ec != std::errc() || res.ptr != e)
        fatal("config key '" + key + "': not " +
              (std::is_signed_v<T> ? "an integer" : "an unsigned integer") +
              ": '" + text + "'");
    return v;
}

bool parseConfigBool(const std::string &text, const std::string &key);
LoadLevel parseLoadLevel(const std::string &text, const std::string &key);
/**@}*/

/** @name Field-list visitors
 *  A field list is a function template `forEachField(config, field)`
 *  calling `field("key", config.member)` once per serialisable field,
 *  in print order; these are its two `field` callbacks. A member's
 *  type picks its codec: Tick (std::int64_t) members are durations,
 *  printed as integer ns and parsed with an ns/us/ms/s suffix. */
/**@{*/
/** Appends one `key=value` line per field to a string. */
class ConfigFieldPrinter
{
  public:
    explicit ConfigFieldPrinter(std::string &out) : out_(out) {}

    template <class T>
    void
    operator()(std::string_view key, const T &value)
    {
        out_ += key;
        out_ += '=';
        if constexpr (std::is_same_v<T, std::string>)
            out_ += value;
        else if constexpr (std::is_same_v<T, AppProfile>)
            out_ += value.name;
        else if constexpr (std::is_same_v<T, LoadLevel>)
            out_ += loadLevelName(value);
        else if constexpr (std::is_same_v<T, bool>)
            out_ += value ? "true" : "false";
        else if constexpr (std::is_same_v<T, double>)
            out_ += PolicyParams::formatDouble(value);
        else if constexpr (std::is_same_v<T, Tick>)
            out_ += std::to_string(value) + "ns";
        else
            out_ += std::to_string(value); // int and unsigned
        out_ += '\n';
    }

  private:
    std::string &out_;
};

/** Parses one value into the field listed under its key. */
class ConfigFieldSetter
{
  public:
    ConfigFieldSetter(const std::string &key, const std::string &value)
        : key_(key), value_(value), dot_(key.find('.'))
    {
    }

    template <class T>
    void
    operator()(std::string_view name, T &field)
    {
        if (hit_ != nullptr)
            return;
        if (name != key_) {
            reservedPrefix_ = reservedPrefix_ ||
                              (dot_ != std::string::npos &&
                               name.substr(0, dot_ + 1) ==
                                   std::string_view(key_).substr(
                                       0, dot_ + 1));
            return;
        }
        hit_ = &field;
        if constexpr (std::is_same_v<T, std::string>)
            field = value_;
        else if constexpr (std::is_same_v<T, AppProfile>)
            field = AppProfile::byName(value_);
        else if constexpr (std::is_same_v<T, LoadLevel>)
            field = parseLoadLevel(value_, key_);
        else if constexpr (std::is_same_v<T, bool>)
            field = parseConfigBool(value_, key_);
        else if constexpr (std::is_same_v<T, double>)
            field = PolicyParams::parseDouble(value_, key_);
        else if constexpr (std::is_same_v<T, Tick>)
            field = PolicyParams::parseTick(value_, key_);
        else
            field = parseConfigInteger<T>(value_, key_);
    }

    /** The member that took the value; nullptr when no field is
     *  listed under the key. */
    const void *hit() const { return hit_; }

    /** A listed key shares the unlisted key's dotted prefix
     *  (`gov.sample_period` beside `gov.bogus`): the key is a typo in
     *  a namespace the list owns. */
    bool reservedPrefix() const { return reservedPrefix_; }

  private:
    const std::string &key_;
    const std::string &value_;
    std::size_t dot_;
    const void *hit_ = nullptr;
    bool reservedPrefix_ = false;
};
/**@}*/

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_CONFIG_IO_HH_
