// Fixture: lists one key the fixture README documents and one it
// does not — project rule `config-doc-sync`, code->doc direction.
#include <string>

namespace nmapsim {

template <class Config, class Visit>
void
forEachField(Config &c, Visit &field)
{
    field("documented_key", c.documented);
    field("undocumented_key", c.undocumented);
}

} // namespace nmapsim
