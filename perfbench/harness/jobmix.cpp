#include "harness/jobmix.hpp"

#include <numeric>

namespace perfbench {

namespace {
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

const std::vector<idg::server::JobSpec>& job_deck() {
  static const std::vector<idg::server::JobSpec> deck = [] {
    std::vector<idg::server::JobSpec> specs;
    for (const std::int32_t stations : {10, 14}) {
      for (const std::int32_t timesteps : {32, 64}) {
        for (const std::uint32_t grid : {128u, 256u}) {
          idg::server::JobSpec spec;
          spec.nr_stations = stations;
          spec.nr_timesteps = timesteps;
          spec.nr_channels = 16;
          spec.grid_size = grid;
          spec.nr_cycles = 2;
          specs.push_back(spec);
        }
      }
    }
    return specs;
  }();
  return deck;
}

std::size_t job_index(std::uint64_t seed, std::size_t client, std::size_t k) {
  const std::size_t n = job_deck().size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::uint64_t state = seed * 0x100000001b3ull ^
                        (static_cast<std::uint64_t>(client) << 40) ^
                        static_cast<std::uint64_t>(k / n);
  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(splitmix64(state) % (i + 1));
    std::swap(order[i], order[j]);
  }
  return order[k % n];
}

}  // namespace perfbench
