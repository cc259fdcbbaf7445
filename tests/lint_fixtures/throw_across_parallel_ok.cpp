// Negative fixture for throw-across-parallel: validation throws on the
// calling thread before the parallel region; the lambda body itself never
// throws. Linted, never compiled.
#include <stdexcept>
#include <vector>

namespace vn2::core {

void safe(std::vector<double>& out) {
  if (out.empty()) throw std::invalid_argument("safe: empty input");  // fine
  parallel_for(0, out.size(),
               [&out](std::size_t i) { out[i] = 1.0; });
}

}  // namespace vn2::core
