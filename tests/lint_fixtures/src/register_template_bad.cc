// Fixture: trips register-hygiene (a registration declared through
// the shared Registrar template with an empty name and doc string;
// only that rule).

namespace nmapsim {
namespace {

struct DispatchRegistry
{
};

template <typename R>
struct Registrar
{
    Registrar(const char *, int, const char *) {}
};

const Registrar<DispatchRegistry> fixtureRegistrar("", 0, "");

} // namespace
} // namespace nmapsim
