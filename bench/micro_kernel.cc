/**
 * @file
 * google-benchmark microbenchmarks for the simulation substrate: event
 * queue throughput, wired-OR settle, composite-identity max finding,
 * and full end-to-end simulation speed.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bus/async_contention.hh"
#include "bus/contention.hh"
#include "bus/wired_or.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "random/rng.hh"
#include "sim/event_queue.hh"

namespace {

using namespace busarb;

EventQueuePolicy
policyArg(std::int64_t value)
{
    return value == 0 ? EventQueuePolicy::kCalendar
                      : EventQueuePolicy::kHeap;
}

const char *
policyLabel(std::int64_t value)
{
    return value == 0 ? "calendar" : "heap";
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q(policyArg(state.range(1)));
        int sink = 0;
        for (int i = 0; i < batch; ++i)
            q.schedule(i % 97, [&sink] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * batch);
    state.SetLabel(policyLabel(state.range(1)));
}
BENCHMARK(BM_EventQueueScheduleRun)
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({1000, 1})
    ->Args({10000, 1});

void
BM_EventQueueSteadyState(benchmark::State &state)
{
    // The simulator's steady-state shape: a fixed population of
    // self-rescheduling events (one per agent), exactly what the arena
    // free-list and calendar year-lap are tuned for. The functor is
    // trivially copyable and fits the callback SBO, so the benchmark
    // measures the queue, not std::function copies.
    struct SelfSched
    {
        EventQueue *q;
        std::int64_t *remaining;
        Tick period;

        void
        operator()() const
        {
            if (--*remaining > 0)
                q->scheduleIn(period, SelfSched{*this});
        }
    };
    const int population = static_cast<int>(state.range(0));
    const std::int64_t events = 50000;
    for (auto _ : state) {
        EventQueue q(policyArg(state.range(1)),
                     CalendarTuning::forExpectedDepth(
                         static_cast<std::size_t>(population)));
        std::int64_t remaining = events;
        for (int i = 0; i < population; ++i) {
            // Unit-scale periods (kTicksPerUnit = 1e6): the timestamp
            // distribution the simulator actually produces.
            const Tick period = (90 + i) * 10'000;
            q.scheduleIn(period, SelfSched{&q, &remaining, period});
        }
        q.run();
        benchmark::DoNotOptimize(q.numExecuted());
    }
    state.SetItemsProcessed(state.iterations() * events);
    state.SetLabel(policyLabel(state.range(1)));
}
BENCHMARK(BM_EventQueueSteadyState)
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void
BM_EventQueuePopAllocations(benchmark::State &state)
{
    // Regression pin for the runOne() copy bug: scheduling and popping
    // simulator-shaped callbacks must perform ZERO per-pop callback
    // heap allocations — every callable fits EventCallback's inline
    // buffer and is moved, never copied, out of the queue.
    const std::uint64_t before = EventCallback::heapAllocations();
    std::int64_t pops = 0;
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1000; ++i) {
            q.schedule(i % 97, [&sink, &q, i] { sink += i + (int)q.now(); });
        }
        q.run();
        pops += 1000;
        benchmark::DoNotOptimize(sink);
    }
    const std::uint64_t allocs =
        EventCallback::heapAllocations() - before;
    if (allocs != 0) {
        state.SkipWithError("callback heap allocations on the pop path");
    }
    state.counters["callback_heap_allocs"] =
        static_cast<double>(allocs);
    state.SetItemsProcessed(pops);
}
BENCHMARK(BM_EventQueuePopAllocations);

void
BM_WiredOrPulse(benchmark::State &state)
{
    // A full assert/read/release sweep over every agent: with packed
    // driver words this is bit sets plus word tests, not a bit-vector
    // walk.
    const int n = static_cast<int>(state.range(0));
    WiredOrLine line(n);
    for (auto _ : state) {
        for (int a = 1; a <= n; ++a)
            line.assertLine(a);
        benchmark::DoNotOptimize(line.read());
        int sum = 0;
        line.forEachAsserting([&sum](AgentId a) { sum += a; });
        benchmark::DoNotOptimize(sum);
        for (int a = 1; a <= n; ++a)
            line.releaseLine(a);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WiredOrPulse)->Arg(10)->Arg(64);

void
BM_ContentionSettle(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    const int n = static_cast<int>(state.range(1));
    ContentionArbiter arb(k);
    Rng rng(42);
    std::vector<Competitor> competitors;
    std::vector<std::uint64_t> used;
    for (int i = 0; i < n; ++i) {
        std::uint64_t w;
        do {
            w = 1 + rng.below((1ULL << k) - 1);
        } while (std::find(used.begin(), used.end(), w) != used.end());
        used.push_back(w);
        competitors.push_back(Competitor{i + 1, w});
    }
    for (auto _ : state) {
        auto result = arb.settle(competitors);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContentionSettle)
    ->Args({6, 8})
    ->Args({10, 16})
    ->Args({16, 32});

void
BM_AsyncContentionSettle(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    const int n = static_cast<int>(state.range(1));
    AsyncContentionArbiter arb(k);
    Rng rng(43);
    std::vector<PlacedCompetitor> competitors;
    std::vector<std::uint64_t> used;
    for (int i = 0; i < n; ++i) {
        std::uint64_t w;
        do {
            w = 1 + rng.below((1ULL << k) - 1);
        } while (std::find(used.begin(), used.end(), w) != used.end());
        used.push_back(w);
        competitors.push_back(
            PlacedCompetitor{i + 1, w, rng.uniform()});
    }
    for (auto _ : state) {
        auto result = arb.settle(competitors);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsyncContentionSettle)->Args({6, 8})->Args({10, 16});

void
BM_FullSimulation(benchmark::State &state)
{
    // End-to-end completions per second for a saturated 10-agent bus,
    // through either event-queue kernel.
    const char *keys[] = {"rr1", "fcfs1", "aap1"};
    const char *key = keys[state.range(0)];
    ScenarioConfig config = equalLoadScenario(10, 2.0);
    config.numBatches = 2;
    config.batchSize = 5000;
    config.warmup = 1000;
    config.eventQueuePolicy = policyArg(state.range(1));
    for (auto _ : state) {
        auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec(key));
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            (config.numBatches * config.batchSize +
                             config.warmup));
    state.SetLabel(std::string(key) + "/" +
                   policyLabel(state.range(1)));
}
BENCHMARK(BM_FullSimulation)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1});

void
BM_FullSimulationAgents20(benchmark::State &state)
{
    // The acceptance-gate workload: the paper's saturated 20-agent bus
    // under rr1, calendar vs reference-heap kernel. events_per_second
    // reports true simulator events (the queue's executed count), which
    // is what the >= 3x calendar-over-heap gate in check_bench.sh and
    // BENCH_6.json measures.
    ScenarioConfig config = equalLoadScenario(20, 2.0);
    config.numBatches = 2;
    config.batchSize = 5000;
    config.warmup = 1000;
    config.eventQueuePolicy = policyArg(state.range(0));
    config.profile = true; // exposes the executed-event count
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
        events += result.profile.eventsExecuted;
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            (config.numBatches * config.batchSize +
                             config.warmup));
    state.counters["events_per_second"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
    state.SetLabel(policyLabel(state.range(0)));
}
BENCHMARK(BM_FullSimulationAgents20)->Arg(0)->Arg(1);

void
BM_FullSimulationAgents64(benchmark::State &state, const char *key)
{
    // The 20-agent run widened to 64 agents (two mask words of
    // competitors) on the calendar kernel, per protocol:
    // events_per_second here against BM_FullSimulationAgents20/0 checks
    // that a wider bus costs no more per event.
    ScenarioConfig config = equalLoadScenario(64, 2.0);
    config.numBatches = 2;
    config.batchSize = 5000;
    config.warmup = 1000;
    config.profile = true; // exposes the executed-event count
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec(key));
        events += result.profile.eventsExecuted;
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            (config.numBatches * config.batchSize +
                             config.warmup));
    state.counters["events_per_second"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_FullSimulationAgents64, rr1, "rr1");
BENCHMARK_CAPTURE(BM_FullSimulationAgents64, fcfs1, "fcfs1");
BENCHMARK_CAPTURE(BM_FullSimulationAgents64, aap1, "aap1");
BENCHMARK_CAPTURE(BM_FullSimulationAgents64, aap2, "aap2");
BENCHMARK_CAPTURE(BM_FullSimulationAgents64, fixed, "fixed");

void
BM_FullSimulationObserved(benchmark::State &state)
{
    // Same saturated run as BM_FullSimulation/rr1, with the obs layer
    // at each level: 0 = no tracer (the null-sink default, which must
    // cost nothing measurable vs BM_FullSimulation), 1 = binary trace
    // capture, 2 = capture plus a flight recorder, 3 = the fairness
    // auditor alone (so its streaming bookkeeping can be priced
    // against the untraced baseline).
    ScenarioConfig config = equalLoadScenario(10, 2.0);
    config.numBatches = 2;
    config.batchSize = 5000;
    config.warmup = 1000;
    switch (state.range(0)) {
      case 3:
        config.tuning.fairness = true;
        break;
      case 2:
        config.flightRecorderEvents = 256;
        [[fallthrough]];
      case 1:
        config.tuning.captureTrace = true;
        break;
      default:
        break;
    }
    for (auto _ : state) {
        auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            (config.numBatches * config.batchSize +
                             config.warmup));
    static const char *labels[] = {"untraced", "binary-trace",
                                   "trace+flight-recorder",
                                   "fairness-auditor"};
    state.SetLabel(labels[state.range(0)]);
}
BENCHMARK(BM_FullSimulationObserved)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void
BM_FullSimulationProfiled(benchmark::State &state)
{
    // The self-profiler overhead guard: the same saturated rr1 run as
    // BM_FullSimulation with 0 = profiling off and 1 = the full
    // per-phase timer + event-queue probe set (--profile). The ratio of
    // the two is the "< 2% overhead" budget; compare against a
    // -DBUSARB_PROFILING=OFF build to price the compiled-in-but-idle
    // probes as well.
    ScenarioConfig config = equalLoadScenario(10, 2.0);
    config.numBatches = 2;
    config.batchSize = 5000;
    config.warmup = 1000;
    config.profile = state.range(0) != 0;
    for (auto _ : state) {
        auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            (config.numBatches * config.batchSize +
                             config.warmup));
    state.SetLabel(state.range(0) != 0 ? "profiled" : "unprofiled");
}
BENCHMARK(BM_FullSimulationProfiled)->Arg(0)->Arg(1);

void
BM_RunHealthMonitored(benchmark::State &state)
{
    // The convergence monitor's cost is one addBatch per batch — it
    // must be invisible next to the simulation itself (0 = off, 1 =
    // --health, 2 = --health with the snapshot stream).
    ScenarioConfig config = equalLoadScenario(10, 2.0);
    config.numBatches = 2;
    config.batchSize = 5000;
    config.warmup = 1000;
    config.tuning.health = state.range(0) >= 1;
    config.tuning.healthSnapshots = state.range(0) >= 2;
    for (auto _ : state) {
        auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            (config.numBatches * config.batchSize +
                             config.warmup));
    static const char *labels[] = {"unmonitored", "health",
                                   "health+snapshots"};
    state.SetLabel(labels[state.range(0)]);
}
BENCHMARK(BM_RunHealthMonitored)->Arg(0)->Arg(1)->Arg(2);

} // namespace

BENCHMARK_MAIN();
