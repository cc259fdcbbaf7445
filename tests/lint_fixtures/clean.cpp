// Fixture: a file full of near-misses that must produce zero findings.
//
// Mentions of rand(), std::random_device, time(...) or std::cout in
// comments are fine, and so are the same tokens inside string literals.
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

struct NoCopy {
  NoCopy() = default;
  NoCopy(const NoCopy&) = delete;             // deleted, not naked delete
  NoCopy& operator=(const NoCopy&) = delete;  // ditto
};

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

std::string lint_bait() {
  // The next line keeps the tokens inside a string literal only.
  std::string bait = "rand() std::random_device std::cout time(nullptr)";
  auto owned = std::make_unique<int>(3);  // ownership without naked new
  std::vector<double> out(8);
  double scale = 2.0;  // written before, not inside, the parallel body
  scale *= 2.0;
  parallel_for(0, out.size(), [&](std::size_t i) {
    double local = scale;  // body-local writes are fine
    local += 1.0;
    out[i] = local;  // index-owned slot: the sanctioned pattern
  });
  return bait;
}
