// Fixture: a parallel_for body mutating a '&'-captured local
// (parallel-capture). The index-owned write to out[i] is the sanctioned
// pattern and must NOT be flagged.
#include <cstddef>
#include <vector>

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

double racy_sum(const std::vector<double>& values) {
  double total = 0.0;
  std::vector<double> out(values.size());
  parallel_for(0, values.size(), [&](std::size_t i) {
    out[i] = values[i] * 2.0;
    total += values[i];
  });
  return total;
}
