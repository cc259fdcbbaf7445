// Positive fixture for lock-in-parallel-body: a mutex acquired inside a
// parallel_for lambda. Linted, never compiled.
#include <mutex>
#include <vector>

namespace vn2::core {

void accumulate(std::vector<double>& out, std::mutex& m, double* sum) {
  parallel_for(0, out.size(), [&](std::size_t i) {
    std::lock_guard<std::mutex> guard(m);  // fires: lock in the body
    *sum += out[i];
  });
}

}  // namespace vn2::core
