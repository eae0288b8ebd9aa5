#include "host_probe.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

// Keeps the probe's result observable so the compiler cannot drop its work.
volatile std::uint64_t g_probe_sink = 0;

}  // namespace

double HostProbeSeconds() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ull;
  std::vector<std::uint64_t> numbers(400000);
  for (std::uint64_t& n : numbers) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    n = x;
  }
  std::sort(numbers.begin(), numbers.end());
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (std::size_t i = 0; i < 100000; ++i) {
    counts[numbers[i * 3] % 50000] += i;
  }
  std::vector<std::string> keys;
  keys.reserve(50000);
  for (std::size_t i = 0; i < 50000; ++i) {
    keys.push_back("key" + std::to_string(numbers[i] % 100000));
  }
  std::sort(keys.begin(), keys.end());
  std::uint64_t sink = keys[100].size() + numbers[7];
  for (const auto& [k, v] : counts) sink += k ^ v;
  g_probe_sink = sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
