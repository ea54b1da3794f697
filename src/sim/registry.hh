/**
 * @file
 * The self-registering name-to-factory registry behind every
 * extension point: frequency and sleep policies
 * (harness/policy_registry.hh), dispatch policies (cluster/dispatch.hh),
 * dataplane policies (dataplane/policy.hh) and admission policies
 * (resilience/admission.hh).
 *
 * An instantiation names what its factories build, the context they
 * take and a kind label for its messages:
 *
 *     inline constexpr char kDispatchPolicyKind[] = "dispatch policy";
 *     using DispatchRegistry =
 *         Registry<std::unique_ptr<DispatchPolicy>,
 *                  const DispatchContext &, kDispatchPolicyKind>;
 *     using DispatchRegistrar = Registrar<DispatchRegistry>;
 *
 * and each module wraps the registrar in its own `REGISTER_*` macro.
 * Names are unique: a second registration is fatal. Every lookup
 * takes an exact match first, then a unique case-insensitive one (so
 * configs and the CLI may say "nmap" for "NMAP"); an unknown name is
 * fatal with the sorted known-name list.
 *
 * Each registry is a Meyers singleton, header-only so a module can
 * register without linking against its consumers. Registrar statics
 * fill it during static initialisation; the module's
 * `ensureBuiltin*()` function, defined in the TU holding its
 * registrars, forces that object file out of its static archive.
 * After that the registry is read-only.
 */

#ifndef NMAPSIM_SIM_REGISTRY_HH_
#define NMAPSIM_SIM_REGISTRY_HH_

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace nmapsim {

/** String-keyed factories of @p Product taking a @p Context; @p Kind
 *  ("dispatch policy", ...) labels the fatal() messages. */
template <typename Product, typename Context, const char *Kind>
class Registry
{
  public:
    using Factory = std::function<Product(Context)>;

    static Registry &
    instance()
    {
        static Registry registry;
        return registry;
    }

    /** Register @p name; fatal() on duplicates. */
    void
    registerPolicy(const std::string &name, Factory factory,
                   std::string help = "")
    {
        if (!entries_.emplace(name, Entry{std::move(factory),
                                          std::move(help)})
                 .second)
            fatal(std::string("duplicate ") + Kind +
                  " registration: '" + name + "'");
    }

    bool
    has(const std::string &name) const
    {
        return resolve(name) != entries_.end();
    }

    /** The registered name @p name resolves to; @p name itself when
     *  none does. */
    std::string
    canonical(const std::string &name) const
    {
        auto it = resolve(name);
        return it == entries_.end() ? name : it->first;
    }

    /** Instantiate @p name; fatal() on unknown names. */
    Product
    make(const std::string &name, Context ctx) const
    {
        auto it = resolve(name);
        if (it == entries_.end())
            fatal(std::string("unknown ") + Kind + " '" + name +
                  "' (known: " + joined() + ")");
        return it->second.factory(ctx);
    }

    /** Registered names, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(entries_.size());
        for (const auto &[name, entry] : entries_)
            out.push_back(name);
        return out;
    }

    std::string
    help(const std::string &name) const
    {
        auto it = resolve(name);
        return it == entries_.end() ? std::string() : it->second.help;
    }

  private:
    struct Entry
    {
        Factory factory;
        std::string help;
    };
    using Map = std::map<std::string, Entry>;

    Registry() = default;

    /** Exact match first, then a unique case-insensitive match. */
    typename Map::const_iterator
    resolve(const std::string &name) const
    {
        auto it = entries_.find(name);
        if (it != entries_.end())
            return it;
        auto match = entries_.end();
        for (auto i = entries_.begin(); i != entries_.end(); ++i) {
            if (equalsIgnoreCase(i->first, name)) {
                if (match != entries_.end())
                    return entries_.end(); // ambiguous
                match = i;
            }
        }
        return match;
    }

    static bool
    equalsIgnoreCase(const std::string &a, const std::string &b)
    {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (lower(a[i]) != lower(b[i]))
                return false;
        return true;
    }

    static char
    lower(char c)
    {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                    : c;
    }

    std::string
    joined() const
    {
        std::string out;
        for (const auto &[name, entry] : entries_) {
            if (!out.empty())
                out += ", ";
            out += name;
        }
        return out;
    }

    Map entries_;
};

/** Registers one factory with registry @p R at static-initialisation
 *  time; each module aliases it (DispatchRegistrar, ...). */
template <typename R>
struct Registrar
{
    Registrar(const std::string &name, typename R::Factory factory,
              std::string help = "")
    {
        R::instance().registerPolicy(name, std::move(factory),
                                     std::move(help));
    }
};

/** Pastes a `__COUNTER__` suffix onto a `REGISTER_*` macro's
 *  registrar variable, giving each registration a unique name. */
#define NMAPSIM_REGISTRAR_CONCAT_(a, b) a##b
#define NMAPSIM_REGISTRAR_CONCAT(a, b) NMAPSIM_REGISTRAR_CONCAT_(a, b)

} // namespace nmapsim

#endif // NMAPSIM_SIM_REGISTRY_HH_
