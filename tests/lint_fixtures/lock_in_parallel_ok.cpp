// Negative fixture for lock-in-parallel-body: the lock is taken on the
// calling thread, before the parallel region; the lambda writes only to
// index-owned slots. Linted, never compiled.
#include <mutex>
#include <vector>

namespace vn2::core {

void accumulate(std::vector<double>& out, std::mutex& m) {
  std::lock_guard<std::mutex> guard(m);  // outside the lambda: fine
  parallel_for(0, out.size(),
               [&out](std::size_t i) { out[i] += 1.0; });
}

}  // namespace vn2::core
