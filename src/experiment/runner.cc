#include "experiment/runner.hh"

#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <utility>

#include "experiment/job_pool.hh"
#include "experiment/metrics.hh"
#include "experiment/workload_registry.hh"
#include "obs/binary_trace.hh"
#include "obs/export_format.hh"
#include "obs/fairness_auditor.hh"
#include "obs/flight_recorder.hh"
#include "obs/run_health.hh"
#include "random/rng.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "workload/workload_source.hh"

namespace busarb {

namespace {

/** Snapshot of all cumulative counters at a batch boundary. */
struct Snapshot
{
    Tick now = 0;
    std::uint64_t totalCompletions = 0;
    Tick busyTicks = 0;
    std::uint64_t passes = 0;
    std::uint64_t retryPasses = 0;
    std::vector<MetricsCollector::AgentSums> agents; // index 0 -> agent 1
};

Snapshot
takeSnapshot(const EventQueue &queue, const Bus &bus,
             const MetricsCollector &collector, int num_agents)
{
    Snapshot s;
    s.now = queue.now();
    s.totalCompletions = collector.totalCompletions();
    s.busyTicks = bus.busyTicks();
    s.passes = bus.arbitrationPasses();
    s.retryPasses = bus.retryPasses();
    s.agents.reserve(static_cast<std::size_t>(num_agents));
    for (AgentId a = 1; a <= num_agents; ++a)
        s.agents.push_back(collector.agent(a));
    return s;
}

BatchStats
batchFromDelta(const Snapshot &prev, const Snapshot &cur,
               const RunningStats &wait_stats)
{
    BatchStats b;
    b.duration = ticksToUnits(cur.now - prev.now);
    BUSARB_ASSERT(b.duration > 0.0, "empty batch");
    const auto n = cur.totalCompletions - prev.totalCompletions;
    BUSARB_ASSERT(wait_stats.count() == n,
                  "batch wait accumulator out of sync: ",
                  wait_stats.count(), " observations vs ", n,
                  " completions");
    if (n > 0) {
        b.waitMean = wait_stats.mean();
        // Batch-local Welford: the variance is a sum of non-negative
        // increments, so it cannot be driven negative by cancellation
        // the way E[x^2] - E[x]^2 over cumulative sums can.
        const double var = wait_stats.variancePopulation();
        BUSARB_ASSERT(var >= 0.0, "negative batch wait variance: ", var);
        b.waitStddev = std::sqrt(var);
    }
    b.utilization =
        static_cast<double>(cur.busyTicks - prev.busyTicks) /
        static_cast<double>(cur.now - prev.now);
    b.passes = cur.passes - prev.passes;
    b.retryPasses = cur.retryPasses - prev.retryPasses;
    const std::size_t num_agents = cur.agents.size();
    b.completions.resize(num_agents);
    b.productive.resize(num_agents);
    b.cycle.resize(num_agents);
    b.waitSum.resize(num_agents);
    b.overlapSum.resize(num_agents);
    for (std::size_t i = 0; i < num_agents; ++i) {
        const auto &pa = prev.agents[i];
        const auto &ca = cur.agents[i];
        b.completions[i] = ca.completions - pa.completions;
        const double think = ca.thinkSum - pa.thinkSum;
        const double wait = ca.waitSum - pa.waitSum;
        const double overlap = ca.overlapSum - pa.overlapSum;
        b.waitSum[i] = wait;
        b.overlapSum[i] = overlap;
        b.productive[i] = think + overlap;
        b.cycle[i] = think + wait;
    }
    return b;
}

/** Fill the per-run metrics registry from the final simulation state. */
void
populateMetrics(MetricsRegistry &m, const ScenarioConfig &config,
                const EventQueue &queue, const Bus &bus,
                const MetricsCollector &collector)
{
    m.counter("bus.completions").add(bus.completedTransactions());
    m.counter("bus.passes").add(bus.arbitrationPasses());
    m.counter("bus.retry_passes").add(bus.retryPasses());
    m.counter("bus.busy_ticks")
        .add(static_cast<std::uint64_t>(bus.busyTicks()));
    m.counter("bus.exposed_arb_ticks")
        .add(static_cast<std::uint64_t>(bus.exposedArbitrationTicks()));
    m.gauge("bus.utilization")
        .set(queue.now() > 0
                 ? static_cast<double>(bus.busyTicks()) /
                       static_cast<double>(queue.now())
                 : 0.0);
    m.gauge("sim.final_units").set(ticksToUnits(queue.now()));
    const std::uint64_t n = collector.totalCompletions();
    if (n > 0) {
        m.gauge("wait.mean").set(collector.totalWaitSum() /
                                 static_cast<double>(n));
    }
    for (AgentId a = 1; a <= config.numAgents; ++a) {
        const MetricsCollector::AgentSums &sums = collector.agent(a);
        const std::string prefix =
            agentMetricPrefix(a, config.numAgents);
        m.counter(prefix + "completions").add(sums.completions);
        if (sums.completions > 0) {
            m.gauge(prefix + "wait_mean")
                .set(sums.waitSum /
                     static_cast<double>(sums.completions));
            m.gauge(prefix + "queue_wait_mean")
                .set(sums.queueWaitSum /
                     static_cast<double>(sums.completions));
        }
    }
    if (config.collectHistogram) {
        m.histogram("wait.histogram", config.histBinWidth,
                    config.histBins)
            .merge(collector.histogram());
    }
}

} // namespace

ScenarioResult
runScenario(const ScenarioConfig &config, const ProtocolFactory &factory)
{
    BUSARB_ASSERT(static_cast<int>(config.agents.size()) ==
                  config.numAgents,
                  "agent traits count (", config.agents.size(),
                  ") != numAgents (", config.numAgents, ")");
    BUSARB_ASSERT(config.numBatches >= 1, "need at least one batch");
    BUSARB_ASSERT(config.batchSize >= 1, "batch size must be >= 1");

    // Seed the calendar geometry from the scenario's expected live depth:
    // every agent keeps about one event in flight, plus a handful of bus
    // bookkeeping events.
    EventQueue queue(config.eventQueuePolicy,
                     CalendarTuning::forExpectedDepth(
                         static_cast<std::size_t>(config.numAgents) + 4));
    std::unique_ptr<ArbitrationProtocol> protocol = factory();
    BUSARB_ASSERT(protocol != nullptr, "protocol factory returned null");
    const std::string protocol_name = protocol->name();
    Bus bus(queue, std::move(protocol), config.numAgents, config.bus);

    // Observability sinks ride the bus event stream in a fixed order:
    // trace writer, flight recorder, fairness auditor, then the caller's
    // sink. Each run owns its writer/recorder, so captures are hermetic
    // (JobPool-safe and byte-identical at any --jobs count).
    std::unique_ptr<BinaryTraceWriter> trace_writer;
    std::unique_ptr<FlightRecorder> recorder;
    std::unique_ptr<ScopedFlightRecorderDump> panic_dump;
    if (config.tuning.captureTrace) {
        trace_writer = std::make_unique<BinaryTraceWriter>(
            config.numAgents, protocol_name);
        bus.addTraceSink(trace_writer.get());
    }
    if (config.flightRecorderEvents > 0) {
        recorder =
            std::make_unique<FlightRecorder>(config.flightRecorderEvents);
        panic_dump = std::make_unique<ScopedFlightRecorderDump>(*recorder);
        bus.addTraceSink(recorder.get());
    }
    std::unique_ptr<FairnessAuditor> auditor;
    if (config.tuning.fairness || config.tuning.snapshotEvery > 0.0) {
        FairnessAuditorConfig fc;
        fc.numAgents = config.numAgents;
        fc.windowTicks = unitsToTicks(config.tuning.fairnessWindow);
        fc.bypassBound = config.tuning.bypassBound;
        fc.snapshotEveryTicks = unitsToTicks(config.tuning.snapshotEvery);
        fc.label = protocol_name;
        auditor = std::make_unique<FairnessAuditor>(fc);
        bus.addTraceSink(auditor.get());
    }
    bus.addTraceSink(config.tracer);

    MetricsCollector collector(config.numAgents, config.histBinWidth,
                               config.histBins);

    std::unique_ptr<RunHealthMonitor> health;
    if (config.tuning.health || config.tuning.healthSnapshots) {
        RunHealthConfig hc;
        hc.convergence.confidence = config.confidence;
        hc.convergence.relHalfWidthTarget = config.tuning.healthRelHw;
        hc.convergence.lag1Threshold = config.tuning.healthLag1;
        hc.label = protocol_name;
        hc.snapshots = config.tuning.healthSnapshots;
        health = std::make_unique<RunHealthMonitor>(hc);
    }

    // Self-profiler: one per run, owned here, so no hot-path locks. Its
    // wall-clock phases are host-only; the simulation never reads them.
    Profiler profiler;
    const bool profile = config.profile;

    // The workload seam: the scenario's `source=` spec decides who
    // generates traffic. `closed` reproduces the historical agent
    // wiring bit-for-bit; open-loop and trace sources plug in here
    // without the runner knowing their shape.
    std::unique_ptr<WorkloadSource> source =
        buildWorkloadSource(config, queue, bus);
    source->setThinkSink(&collector);
    for (AgentId a = 1; a <= config.numAgents; ++a) {
        collector.setOverlapLimit(
            a, config.agents[static_cast<std::size_t>(a - 1)]
                   .overlapLimit);
    }

    const std::uint64_t needed_completions =
        config.warmup +
        static_cast<std::uint64_t>(config.numBatches) * config.batchSize;
    if (source->capacity() > 0) {
        BUSARB_ASSERT(source->capacity() >= needed_completions,
                      "workload source supplies ", source->capacity(),
                      " requests but the run needs ",
                      needed_completions,
                      " completions; the simulation would deadlock");
    }

    // Route service notifications to the collector first (so waits are
    // recorded), then to the source (closed loops schedule the next
    // request of the completed agent's token from it).
    struct Dispatcher : BusObserver
    {
        MetricsCollector *collector;
        WorkloadSource *source;

        void
        onServiceStart(const Request &req, Tick now) override
        {
            collector->onServiceStart(req, now);
        }

        void
        onServiceEnd(const Request &req, Tick now) override
        {
            collector->onServiceEnd(req, now);
            source->onServiceEnd(req.agent, now);
        }
    };
    Dispatcher dispatcher;
    dispatcher.collector = &collector;
    dispatcher.source = source.get();
    bus.setObserver(&dispatcher);

    source->start();

    const auto run_until = [&](std::uint64_t target) {
        while (collector.totalCompletions() < target) {
            const bool progressed = queue.runOne();
            BUSARB_ASSERT(progressed, "simulation deadlocked at tick ",
                          queue.now());
        }
    };

    {
        ProfilePhaseTimer t(profile ? &profiler : nullptr,
                            RunPhase::kWarmup);
        run_until(config.warmup);
    }
    if (config.collectHistogram)
        collector.enableHistogram();
    if (config.collectPerAgentHistograms)
        collector.enablePerAgentHistograms();

    ScenarioResult result;
    result.protocolName = protocol_name;
    result.workloadSpec = config.workloadSpec;
    result.numAgents = config.numAgents;
    result.confidence = config.confidence;
    result.waitHistogram = Histogram(config.histBinWidth, config.histBins);

    // Open-loop runs can outrun the bus; snapshot the issue counter at
    // the measurement boundary so backlog growth (not its warm-up
    // level) drives the saturation verdict.
    const bool open_loop = source->openLoop();
    const std::uint64_t measure_start_issued = source->issued();
    const Tick measure_start_tick = queue.now();

    // Stream cumulative counters into the trace at batch boundaries so
    // Perfetto shows progress tracks alongside the event timeline.
    std::uint64_t completions_cid = 0;
    std::uint64_t passes_cid = 0;
    std::uint64_t retries_cid = 0;
    if (trace_writer != nullptr) {
        completions_cid = trace_writer->defineCounter("bus.completions");
        passes_cid = trace_writer->defineCounter("bus.passes");
        retries_cid = trace_writer->defineCounter("bus.retry_passes");
    }
    const auto emit_counters = [&] {
        if (trace_writer == nullptr)
            return;
        trace_writer->counterUpdate(completions_cid, queue.now(),
                                    bus.completedTransactions());
        trace_writer->counterUpdate(passes_cid, queue.now(),
                                    bus.arbitrationPasses());
        trace_writer->counterUpdate(retries_cid, queue.now(),
                                    bus.retryPasses());
    };

    collector.beginBatch();
    Snapshot prev =
        takeSnapshot(queue, bus, collector, config.numAgents);
    emit_counters();
    {
        ProfilePhaseTimer t(profile ? &profiler : nullptr,
                            RunPhase::kMeasure);
        for (int b = 0; b < config.numBatches; ++b) {
            run_until(config.warmup +
                      (static_cast<std::uint64_t>(b) + 1) *
                          config.batchSize);
            const Snapshot cur =
                takeSnapshot(queue, bus, collector, config.numAgents);
            result.batches.push_back(
                batchFromDelta(prev, cur, collector.batchWaitStats()));
            if (health != nullptr) {
                const BatchStats &batch = result.batches.back();
                health->onBatch(ticksToUnits(cur.now), batch.waitMean,
                                batch.utilization);
            }
            collector.beginBatch();
            prev = cur;
            emit_counters();
        }
    }
    if (open_loop) {
        WorkloadStats &w = result.workload;
        w.openLoop = true;
        w.issued = source->issued();
        const std::uint64_t completed = collector.totalCompletions();
        BUSARB_ASSERT(w.issued >= completed,
                      "more completions than issued requests");
        w.finalBacklog = w.issued - completed;
        const double measured_units =
            ticksToUnits(queue.now() - measure_start_tick);
        const std::uint64_t measured_completions =
            completed - config.warmup;
        w.offeredRate = static_cast<double>(w.issued -
                                            measure_start_issued) /
                        measured_units;
        w.carriedRate =
            static_cast<double>(measured_completions) / measured_units;
        // Saturation: the backlog at the end of measurement exceeds the
        // backlog at its start by more than a noise floor. A stable
        // queue fluctuates around its stationary level; an unstable one
        // grows linearly, so growth of 5% of the measured completions
        // (64 minimum, for short runs) separates the two cleanly.
        const std::uint64_t backlog_start =
            measure_start_issued - config.warmup;
        const std::uint64_t growth = w.finalBacklog > backlog_start
                                         ? w.finalBacklog - backlog_start
                                         : 0;
        const std::uint64_t noise_floor =
            measured_completions / 20 > 64 ? measured_completions / 20
                                           : 64;
        w.saturated = growth > noise_floor;
        if (w.saturated && health != nullptr)
            health->noteSaturated();
    }
    ProfilePhaseTimer drain_timer(profile ? &profiler : nullptr,
                                  RunPhase::kDrain);
    result.waitHistogram = collector.histogram();
    if (config.collectPerAgentHistograms) {
        for (AgentId a = 1; a <= config.numAgents; ++a)
            result.agentWaitHistograms.push_back(
                collector.agentHistogram(a));
    }
    if (trace_writer != nullptr)
        result.binaryTrace = trace_writer->finish();
    populateMetrics(result.metrics, config, queue, bus, collector);
    // workload.* observables exist only for open-loop sources: closed
    // loops cannot build backlog, and the closed path's artifacts must
    // stay byte-identical to pre-seam runs.
    if (open_loop) {
        MetricsRegistry &m = result.metrics;
        const WorkloadStats &w = result.workload;
        m.counter("workload.issued").add(w.issued);
        m.counter("workload.backlog").add(w.finalBacklog);
        m.gauge("workload.offered_rate").set(w.offeredRate);
        m.gauge("workload.carried_rate").set(w.carriedRate);
        m.gauge("workload.saturated").set(w.saturated ? 1.0 : 0.0);
        for (AgentId a = 1; a <= config.numAgents; ++a) {
            const std::uint64_t agent_backlog =
                source->issuedBy(a) - collector.agent(a).completions;
            m.gauge(agentMetricPrefix(a, config.numAgents) + "backlog")
                .set(static_cast<double>(agent_backlog));
        }
    }
    if (config.workloadSpec != "closed")
        result.metrics.setAnnotation("workload.spec",
                                     config.workloadSpec);
    if (auditor != nullptr) {
        auditor->finish(queue.now());
        auditor->exportMetrics(result.metrics);
        result.fairnessSnapshots = auditor->snapshots();
    }
    if (health != nullptr) {
        health->exportMetrics(result.metrics);
        result.health = health->report();
        result.healthSnapshots = health->snapshots();
    }
    if (profile) {
        profiler.finish(queue, bus.arbitrationPasses(),
                        bus.retryPasses(), bus.completedTransactions());
        result.profile = profiler.report();
        result.profile.exportMetrics(result.metrics);
    }
    return result;
}

std::vector<ScenarioResult>
runScenarioGrid(const std::vector<GridJob> &grid, int jobs,
                const std::function<void(std::size_t, std::size_t)>
                    &on_progress)
{
    using Clock = std::chrono::steady_clock;
    const auto timed_run = [](const GridJob &job) {
        const auto start = Clock::now();
        ScenarioResult result = runScenario(job.config, job.factory);
        result.elapsedMs =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                .count();
        result.spec = job.spec;
        if (!job.spec.empty())
            result.metrics.setAnnotation("protocol.spec", job.spec);
        return result;
    };

    // Progress calls are serialized so the callback can write to a
    // stream without interleaving; the counter is the only shared
    // state, and it never influences results.
    std::mutex progress_mutex;
    std::size_t done = 0;
    const std::size_t total = grid.size();
    const auto report_progress = [&] {
        if (!on_progress)
            return;
        const std::scoped_lock lock(progress_mutex);
        ++done;
        on_progress(done, total);
    };

    std::vector<ScenarioResult> results(grid.size());
    const int workers = resolveJobCount(jobs);
    if (workers == 1 || grid.size() <= 1) {
        for (std::size_t i = 0; i < grid.size(); ++i) {
            results[i] = timed_run(grid[i]);
            report_progress();
        }
        return results;
    }

    // Each cell owns its slot in the pre-sized vector, so workers never
    // touch the same element and submission order is preserved without
    // any post-hoc sorting.
    JobPool pool(workers);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        pool.submit([&grid, &results, &timed_run, &report_progress, i] {
            results[i] = timed_run(grid[i]);
            report_progress();
        });
    }
    pool.wait();
    return results;
}

// ------------------------------------------------------- result helpers

Estimate
ScenarioResult::throughput() const
{
    BatchMeans bm;
    for (const auto &b : batches) {
        std::uint64_t total = 0;
        for (auto c : b.completions)
            total += c;
        bm.addBatch(static_cast<double>(total) / b.duration);
    }
    return bm.estimate(confidence);
}

Estimate
ScenarioResult::utilization() const
{
    BatchMeans bm;
    for (const auto &b : batches)
        bm.addBatch(b.utilization);
    return bm.estimate(confidence);
}

Estimate
ScenarioResult::agentThroughput(AgentId agent) const
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents,
                  "agent id out of range: ", agent);
    BatchMeans bm;
    for (const auto &b : batches) {
        bm.addBatch(static_cast<double>(
                        b.completions[static_cast<std::size_t>(agent - 1)]) /
                    b.duration);
    }
    return bm.estimate(confidence);
}

Estimate
ScenarioResult::throughputRatio(AgentId numer, AgentId denom) const
{
    BUSARB_ASSERT(numer >= 1 && numer <= numAgents && denom >= 1 &&
                  denom <= numAgents,
                  "agent id out of range");
    std::vector<double> num, den;
    bool starved = false;
    double num_total = 0.0;
    double den_total = 0.0;
    for (const auto &b : batches) {
        num.push_back(static_cast<double>(
            b.completions[static_cast<std::size_t>(numer - 1)]));
        den.push_back(static_cast<double>(
            b.completions[static_cast<std::size_t>(denom - 1)]));
        num_total += num.back();
        den_total += den.back();
        if (den.back() == 0.0)
            starved = true;
    }
    if (starved) {
        Estimate e;
        e.value = (den_total == 0.0)
                      ? std::numeric_limits<double>::infinity()
                      : num_total / den_total;
        return e;
    }
    return ratioEstimate(num, den, confidence);
}

Estimate
ScenarioResult::meanWait() const
{
    BatchMeans bm;
    for (const auto &b : batches)
        bm.addBatch(b.waitMean);
    return bm.estimate(confidence);
}

Estimate
ScenarioResult::agentMeanWait(AgentId agent) const
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents,
                  "agent id out of range: ", agent);
    BatchMeans bm;
    const auto idx = static_cast<std::size_t>(agent - 1);
    for (const auto &b : batches) {
        BUSARB_ASSERT(b.completions[idx] > 0,
                      "agent ", agent, " completed nothing in a batch");
        bm.addBatch(b.waitSum[idx] /
                    static_cast<double>(b.completions[idx]));
    }
    return bm.estimate(confidence);
}

Estimate
ScenarioResult::waitStddev() const
{
    BatchMeans bm;
    for (const auto &b : batches)
        bm.addBatch(b.waitStddev);
    return bm.estimate(confidence);
}

Estimate
ScenarioResult::productivity() const
{
    BatchMeans bm;
    for (const auto &b : batches) {
        double productive = 0.0;
        double cycle = 0.0;
        for (std::size_t i = 0; i < b.productive.size(); ++i) {
            productive += b.productive[i];
            cycle += b.cycle[i];
        }
        BUSARB_ASSERT(cycle > 0.0, "empty batch cycle time");
        bm.addBatch(productive / cycle);
    }
    return bm.estimate(confidence);
}

Estimate
ScenarioResult::agentProductivity(AgentId agent) const
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents,
                  "agent id out of range: ", agent);
    BatchMeans bm;
    const auto idx = static_cast<std::size_t>(agent - 1);
    for (const auto &b : batches) {
        BUSARB_ASSERT(b.cycle[idx] > 0.0,
                      "agent ", agent, " has no cycle time in a batch");
        bm.addBatch(b.productive[idx] / b.cycle[idx]);
    }
    return bm.estimate(confidence);
}

Estimate
ScenarioResult::residualWait() const
{
    BatchMeans bm;
    for (const auto &b : batches) {
        double wait = 0.0;
        double overlap = 0.0;
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < b.waitSum.size(); ++i) {
            wait += b.waitSum[i];
            overlap += b.overlapSum[i];
            n += b.completions[i];
        }
        BUSARB_ASSERT(n > 0, "batch without completions");
        bm.addBatch((wait - overlap) / static_cast<double>(n));
    }
    return bm.estimate(confidence);
}

double
ScenarioResult::waitPercentile(double p) const
{
    BUSARB_ASSERT(waitHistogram.count() > 0,
                  "waitPercentile needs collectHistogram = true");
    return waitHistogram.quantile(p);
}

Estimate
ScenarioResult::retryPassFraction() const
{
    BatchMeans bm;
    for (const auto &b : batches) {
        bm.addBatch(b.passes == 0
                        ? 0.0
                        : static_cast<double>(b.retryPasses) /
                              static_cast<double>(b.passes));
    }
    return bm.estimate(confidence);
}

} // namespace busarb
