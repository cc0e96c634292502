/**
 * @file
 * Registration units for every protocol in src/core and src/baseline.
 *
 * This is the only place that knows both the protocol configuration
 * structs and the registry: each register* function declares a
 * descriptor (key, paper section, parameter schema) and a build
 * function mapping validated parameter values onto the corresponding
 * config struct. The tools, the runner and the scenario files consume
 * protocols exclusively through the registry, so adding a protocol
 * means adding a registration unit here — nothing else.
 */

#include <memory>

#include "baseline/aap_batch.hh"
#include "baseline/aap_futurebus.hh"
#include "baseline/central.hh"
#include "baseline/fixed_priority.hh"
#include "baseline/ticket_fcfs.hh"
#include "core/fcfs.hh"
#include "core/hybrid.hh"
#include "core/round_robin.hh"
#include "core/weighted_round_robin.hh"
#include "experiment/protocol_registry.hh"

namespace busarb {

namespace {

ParamSpec
intParam(const std::string &name, long default_value, long min, long max,
         const std::string &help)
{
    ParamSpec param;
    param.name = name;
    param.type = ParamType::kInt;
    param.defaultValue = std::to_string(default_value);
    param.help = help;
    param.hasRange = true;
    param.minValue = static_cast<double>(min);
    param.maxValue = static_cast<double>(max);
    return param;
}

ParamSpec
doubleParam(const std::string &name, const std::string &default_value,
            double min, double max, const std::string &help)
{
    ParamSpec param;
    param.name = name;
    param.type = ParamType::kDouble;
    param.defaultValue = default_value;
    param.help = help;
    param.hasRange = true;
    param.minValue = min;
    param.maxValue = max;
    return param;
}

ParamSpec
boolParam(const std::string &name, bool default_value,
          const std::string &help)
{
    ParamSpec param;
    param.name = name;
    param.type = ParamType::kBool;
    param.defaultValue = default_value ? "true" : "false";
    param.help = help;
    return param;
}

ParamSpec
enumParam(const std::string &name, const std::string &default_value,
          std::vector<std::string> values, const std::string &help)
{
    ParamSpec param;
    param.name = name;
    param.type = ParamType::kEnum;
    param.defaultValue = default_value;
    param.enumValues = std::move(values);
    param.help = help;
    return param;
}

/** The priority-class parameters shared by RR implementation 1. */
ParamSpec
priorityParam()
{
    return boolParam("priority", false,
                     "accept priority-class requests (Section 2.4)");
}

RrConfig
rrConfigFrom(RrImplementation impl, const ParamValues &values)
{
    RrConfig config;
    config.impl = impl;
    config.enablePriority = values.getBool("priority");
    config.rrWithinPriorityClass = values.getBool("rr-within-class");
    return config;
}

void
registerRoundRobin(ProtocolRegistry &registry)
{
    const ParamSpec rr_within =
        boolParam("rr-within-class", true,
                  "apply the RR rule within the priority class rather "
                  "than always asserting the RR bit");

    ProtocolDescriptor rr1;
    rr1.key = "rr1";
    rr1.summary = "distributed round-robin, rr-priority-bit line";
    rr1.paperSection = "§3.1";
    rr1.params = {priorityParam(), rr_within};
    rr1.build = [](const ParamValues &values) -> ProtocolFactory {
        const RrConfig config =
            rrConfigFrom(RrImplementation::kPriorityBit, values);
        return [config] {
            return std::make_unique<RoundRobinProtocol>(config);
        };
    };
    registry.add(rr1);

    const auto plain_rr = [](RrImplementation impl) {
        return [impl](const ParamValues &) -> ProtocolFactory {
            RrConfig config;
            config.impl = impl;
            return [config] {
                return std::make_unique<RoundRobinProtocol>(config);
            };
        };
    };

    ProtocolDescriptor rr2;
    rr2.key = "rr2";
    rr2.summary = "distributed round-robin, low-request gating line";
    rr2.paperSection = "§3.1";
    rr2.build = plain_rr(RrImplementation::kLowRequestLine);
    registry.add(rr2);

    ProtocolDescriptor rr3;
    rr3.key = "rr3";
    rr3.summary = "distributed round-robin, no extra line (retry pass)";
    rr3.paperSection = "§3.1";
    rr3.build = plain_rr(RrImplementation::kNoExtraLine);
    registry.add(rr3);

    // The canonical parameterized family: rr:impl=1|2|3.
    ProtocolDescriptor rr;
    rr.key = "rr";
    rr.summary = "distributed round-robin";
    rr.paperSection = "§3.1";
    rr.isAlias = true;
    rr.params = {intParam("impl", 1, 1, 3,
                          "published implementation: 1 = rr-priority "
                          "bit, 2 = low-request line, 3 = no extra "
                          "line"),
                 priorityParam(), rr_within};
    rr.validate = [](const ParamValues &values) -> std::string {
        if (values.getBool("priority") && values.getInt("impl") != 1) {
            return "option 'priority' requires impl=1 (the rr-priority "
                   "bit implementation)";
        }
        return "";
    };
    rr.build = [](const ParamValues &values) -> ProtocolFactory {
        RrConfig config;
        switch (values.getInt("impl")) {
          case 1:
            config.impl = RrImplementation::kPriorityBit;
            break;
          case 2:
            config.impl = RrImplementation::kLowRequestLine;
            break;
          default:
            config.impl = RrImplementation::kNoExtraLine;
            break;
        }
        config.enablePriority = values.getBool("priority");
        config.rrWithinPriorityClass = values.getBool("rr-within-class");
        return [config] {
            return std::make_unique<RoundRobinProtocol>(config);
        };
    };
    registry.add(rr);
}

FcfsConfig
fcfsConfigFrom(FcfsStrategy strategy, const ParamValues &values)
{
    FcfsConfig config;
    config.strategy = strategy;
    config.counterBits = static_cast<int>(values.getInt("bits"));
    config.overflow = values.getEnum("overflow") == "wrap"
                          ? OverflowPolicy::kWrap
                          : OverflowPolicy::kSaturate;
    config.incrWindow = values.getDouble("window");
    config.maxOutstandingHint = static_cast<int>(values.getInt("r"));
    config.enablePriority = values.getBool("priority");
    const std::string counting = values.getEnum("counting");
    config.priorityCounting =
        counting == "always"  ? PriorityCounting::kAlwaysIncrement
        : counting == "dual"  ? PriorityCounting::kDualIncrLines
                              : PriorityCounting::kMatchedIncrement;
    return config;
}

std::vector<ParamSpec>
fcfsParams()
{
    ParamSpec bits = intParam("bits", 0, 0, 32,
                              "arrival-counter width; 0 sizes it from "
                              "the agent count");
    bits.aliases = {"counter_bits"};
    return {
        bits,
        enumParam("overflow", "saturate", {"saturate", "wrap"},
                  "counter overflow policy"),
        doubleParam("window", "0.01", 1e-9, 1e6,
                    "coincident-arrival window, transaction units"),
        intParam("r", 1, 1, 64,
                 "expected maximum outstanding requests per agent"),
        priorityParam(),
        enumParam("counting", "matched", {"always", "matched", "dual"},
                  "how arrival counters treat priority requests"),
    };
}

std::vector<SpecSugar>
fcfsSugar()
{
    return {{"wrap", "overflow", "wrap"},
            {"saturate", "overflow", "saturate"}};
}

void
registerFcfs(ProtocolRegistry &registry)
{
    const auto strategy_build = [](FcfsStrategy strategy) {
        return [strategy](const ParamValues &values) -> ProtocolFactory {
            const FcfsConfig config = fcfsConfigFrom(strategy, values);
            return [config] {
                return std::make_unique<FcfsProtocol>(config);
            };
        };
    };

    ProtocolDescriptor fcfs1;
    fcfs1.key = "fcfs1";
    fcfs1.summary = "distributed FCFS, increment-on-lose counters";
    fcfs1.paperSection = "§3.2";
    fcfs1.params = fcfsParams();
    fcfs1.sugar = fcfsSugar();
    fcfs1.build = strategy_build(FcfsStrategy::kIncrementOnLose);
    registry.add(fcfs1);

    ProtocolDescriptor fcfs2;
    fcfs2.key = "fcfs2";
    fcfs2.summary = "distributed FCFS, increment lines (a-incr)";
    fcfs2.paperSection = "§3.2";
    fcfs2.params = fcfsParams();
    fcfs2.sugar = fcfsSugar();
    fcfs2.build = strategy_build(FcfsStrategy::kIncrLine);
    registry.add(fcfs2);

    // The canonical parameterized family: fcfs:strategy=...
    ProtocolDescriptor fcfs;
    fcfs.key = "fcfs";
    fcfs.summary = "distributed first-come first-serve";
    fcfs.paperSection = "§3.2";
    fcfs.isAlias = true;
    fcfs.params = fcfsParams();
    fcfs.params.insert(
        fcfs.params.begin(),
        enumParam("strategy", "increment_on_lose",
                  {"increment_on_lose", "incr_line"},
                  "how waiting counts are maintained"));
    fcfs.sugar = fcfsSugar();
    fcfs.build = [](const ParamValues &values) -> ProtocolFactory {
        const FcfsStrategy strategy =
            values.getEnum("strategy") == "incr_line"
                ? FcfsStrategy::kIncrLine
                : FcfsStrategy::kIncrementOnLose;
        const FcfsConfig config = fcfsConfigFrom(strategy, values);
        return [config] { return std::make_unique<FcfsProtocol>(config); };
    };
    registry.add(fcfs);
}

void
registerHybridAndBaselines(ProtocolRegistry &registry)
{
    ProtocolDescriptor hybrid;
    hybrid.key = "hybrid";
    hybrid.summary = "hybrid RR/FCFS (bounded counters + RR tiebreak)";
    hybrid.paperSection = "§5";
    hybrid.params = {intParam("bits", 0, 0, 32,
                              "bounded-counter width; 0 sizes it from "
                              "the agent count")};
    hybrid.build = [](const ParamValues &values) -> ProtocolFactory {
        HybridConfig config;
        config.counterBits = static_cast<int>(values.getInt("bits"));
        return [config] {
            return std::make_unique<HybridProtocol>(config);
        };
    };
    registry.add(hybrid);

    ProtocolDescriptor fixed;
    fixed.key = "fixed";
    fixed.summary = "fixed priority (plain contention arbiter)";
    fixed.paperSection = "§2.1";
    fixed.params = {priorityParam()};
    fixed.build = [](const ParamValues &values) -> ProtocolFactory {
        const bool priority = values.getBool("priority");
        return [priority] {
            return std::make_unique<FixedPriorityProtocol>(priority);
        };
    };
    registry.add(fixed);

    ProtocolDescriptor aap1;
    aap1.key = "aap1";
    aap1.summary = "assured access, batching (Fastbus/Multibus II)";
    aap1.paperSection = "§2.2";
    aap1.params = {priorityParam()};
    aap1.build = [](const ParamValues &values) -> ProtocolFactory {
        const bool priority = values.getBool("priority");
        return [priority] {
            return std::make_unique<BatchAapProtocol>(priority);
        };
    };
    registry.add(aap1);

    ProtocolDescriptor aap2;
    aap2.key = "aap2";
    aap2.summary = "assured access, inhibit/release (Futurebus)";
    aap2.paperSection = "§2.2";
    aap2.params = {priorityParam()};
    aap2.build = [](const ParamValues &values) -> ProtocolFactory {
        const bool priority = values.getBool("priority");
        return [priority] {
            return std::make_unique<FuturebusAapProtocol>(priority);
        };
    };
    registry.add(aap2);

    ProtocolDescriptor central_rr;
    central_rr.key = "central-rr";
    central_rr.summary = "centralized round-robin reference";
    central_rr.paperSection = "ref";
    central_rr.build = [](const ParamValues &) -> ProtocolFactory {
        return [] { return std::make_unique<CentralRoundRobinProtocol>(); };
    };
    registry.add(central_rr);

    ProtocolDescriptor central_fcfs;
    central_fcfs.key = "central-fcfs";
    central_fcfs.summary = "centralized FCFS reference";
    central_fcfs.paperSection = "ref";
    central_fcfs.build = [](const ParamValues &) -> ProtocolFactory {
        return [] { return std::make_unique<CentralFcfsProtocol>(); };
    };
    registry.add(central_fcfs);

    ProtocolDescriptor ticket;
    ticket.key = "ticket";
    ticket.summary = "Sharma-Ahuja ticket FCFS baseline";
    ticket.paperSection = "ref";
    ticket.params = {intParam("bits", 0, 0, 32,
                              "ticket-counter width; 0 sizes it from "
                              "the agent count")};
    ticket.build = [](const ParamValues &values) -> ProtocolFactory {
        TicketFcfsConfig config;
        config.ticketBits = static_cast<int>(values.getInt("bits"));
        return [config] {
            return std::make_unique<TicketFcfsProtocol>(config);
        };
    };
    registry.add(ticket);
}

} // namespace

void
registerWeightedRoundRobin(ProtocolRegistry &registry)
{
    ProtocolDescriptor wrr;
    wrr.key = "wrr";
    wrr.summary = "weighted round-robin (claim line, burst credits)";
    wrr.paperSection = "WRR";
    ParamSpec weights;
    weights.name = "weights";
    weights.type = ParamType::kIntList;
    weights.defaultValue = "1";
    weights.help = "per-agent burst weights ('/'-separated); one value "
                   "broadcasts to all agents";
    weights.hasRange = true;
    weights.minValue = 1;
    weights.maxValue = 4096;
    wrr.params = {weights};
    wrr.build = [](const ParamValues &values) -> ProtocolFactory {
        WrrConfig config;
        for (long w : values.getIntList("weights"))
            config.weights.push_back(static_cast<int>(w));
        return [config] {
            return std::make_unique<WeightedRoundRobinProtocol>(config);
        };
    };
    registry.add(wrr);
}

void
registerBuiltinProtocols(ProtocolRegistry &registry)
{
    // Paper protocols and baselines first (rr1..ticket), in their
    // historical order, then the registration-only additions.
    registerRoundRobin(registry);
    registerFcfs(registry);
    registerHybridAndBaselines(registry);
    registerWeightedRoundRobin(registry);
}

} // namespace busarb
