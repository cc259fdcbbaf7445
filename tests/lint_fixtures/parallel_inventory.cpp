// Fixture: a parallel_for call site in a file absent from DESIGN.md's
// threading inventory (parallel-inventory). The rule only arms when the
// caller supplies an inventory, so the plain two-argument lint_content
// overload leaves this fixture clean.
#include <cstddef>

void parallel_for(std::size_t begin, std::size_t end,
                  void (*body)(std::size_t));
void bump(std::size_t i);

void sweep() { parallel_for(0, 64, &bump); }
