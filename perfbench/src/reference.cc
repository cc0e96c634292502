#include "reference.hh"

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kFunctions = 512;
constexpr std::size_t kTableWords = std::size_t{1} << 17; // 1 MiB
constexpr int kCalls = 150'000;

struct State
{
    std::uint64_t *table;
    std::uint64_t mask;
};

/** One of kFunctions distinct bodies: branches and table stores. */
template <int N>
__attribute__((noinline)) std::uint64_t
step(State &s, std::uint64_t x)
{
    std::uint64_t v = x * (2 * N + 1) + N;
    for (int i = 0; i < (N % 5) + 2; ++i) {
        if ((v >> (N % 13)) & 1)
            v ^= v >> (3 + N % 7);
        else
            v += static_cast<std::uint64_t>(N) * 0x9e37;
        s.table[(v + static_cast<std::uint64_t>(i)) & s.mask] += v;
    }
    if (N % 3 == 0)
        v ^= s.table[(v >> 7) & s.mask];
    return v;
}

using Step = std::uint64_t (*)(State &, std::uint64_t);

template <std::size_t... I>
constexpr std::array<Step, sizeof...(I)>
stepTable(std::index_sequence<I...>)
{
    return {&step<static_cast<int>(I)>...};
}

constexpr auto kSteps = stepTable(std::make_index_sequence<kFunctions>{});

} // namespace

double
referenceNs()
{
    static std::vector<std::uint64_t> table(kTableWords, 1);
    State state{table.data(), kTableWords - 1};
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    std::uint64_t x = 1;
    std::uint64_t sum = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kCalls; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        x = kSteps[rng % kFunctions](state, x);
        sum += x;
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    asm volatile("" : : "g"(sum) : "memory");
    return ns;
}

} // namespace perfbench
