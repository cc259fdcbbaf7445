// Positive fixture for throw-across-parallel: a raw throw inside a
// parallel_for lambda crosses the task boundary. Linted, never compiled.
#include <stdexcept>
#include <vector>

namespace vn2::core {

void risky(std::vector<double>& out) {
  parallel_for(0, out.size(), [&out](std::size_t i) {
    if (out[i] < 0.0) throw std::runtime_error("negative input");  // fires
    out[i] = 1.0;
  });
}

}  // namespace vn2::core
