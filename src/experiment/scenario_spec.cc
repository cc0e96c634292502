#include "experiment/scenario_spec.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>

#include "experiment/cli.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/sweep_cells.hh"
#include "experiment/workload_registry.hh"
#include "obs/export_format.hh"
#include "sim/logging.hh"

namespace busarb {

namespace {

/** Upper bound for integer flags stored as int. */
constexpr long kIntMax = std::numeric_limits<int>::max();

std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

std::vector<std::string>
splitWhitespace(const std::string &s)
{
    std::vector<std::string> tokens;
    std::istringstream is(s);
    std::string token;
    while (is >> token)
        tokens.push_back(token);
    return tokens;
}

bool
parseUint64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text[0] == '-')
        return false;
    char *end = nullptr;
    // Base 0 accepts 0x... seeds, matching how they are usually quoted.
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0')
        return false;
    out = value;
    return true;
}

const std::vector<std::string> &
sectionNames()
{
    static const std::vector<std::string> names = {
        "workload", "bus", "run", "protocol", "sweep"};
    return names;
}

const std::vector<std::string> &
keysOf(const std::string &section)
{
    static const std::vector<std::string> workload = {
        "family", "agents", "cv",
        "unequal-factor", "max-outstanding", "load",
        "source", "hot-agents", "hot-factor"};
    static const std::vector<std::string> bus = {
        "arb-overhead", "settle-timing", "worst-case-settle"};
    static const std::vector<std::string> run = {
        "batches", "batch-size", "warmup", "seed", "confidence"};
    static const std::vector<std::string> protocol = {"spec"};
    static const std::vector<std::string> sweep = {"loads", "protocols"};
    static const std::vector<std::string> none;
    if (section == "workload")
        return workload;
    if (section == "bus")
        return bus;
    if (section == "run")
        return run;
    if (section == "protocol")
        return protocol;
    if (section == "sweep")
        return sweep;
    return none;
}

/** Expand one loads token ("2" or "a:b:step") into tokens. */
bool
expandLoadToken(const std::string &token,
                std::vector<std::string> &out, std::string &error)
{
    const auto colon = token.find(':');
    if (colon == std::string::npos) {
        double value = 0.0;
        if (!parseDouble(token, value)) {
            error = "bad load '" + token + "'";
            return false;
        }
        out.push_back(token);
        return true;
    }
    const auto colon2 = token.find(':', colon + 1);
    double lo = 0.0, hi = 0.0, step = 0.0;
    if (colon2 == std::string::npos ||
        !parseDouble(token.substr(0, colon), lo) ||
        !parseDouble(token.substr(colon + 1, colon2 - colon - 1), hi) ||
        !parseDouble(token.substr(colon2 + 1), step)) {
        error = "bad load range '" + token + "' (expected lo:hi:step)";
        return false;
    }
    if (step <= 0.0 || hi < lo) {
        error = "bad load range '" + token +
                "' (need step > 0 and hi >= lo)";
        return false;
    }
    // A half-step tolerance keeps 0.25:2:0.25-style ranges inclusive
    // despite accumulated floating-point error.
    for (double v = lo; v <= hi + step * 0.5; v += step)
        out.push_back(formatDouble(v));
    return true;
}

} // namespace

std::string
ScenarioSpec::format() const
{
    std::ostringstream os;
    os << "[workload]\n";
    os << "family = " << family << "\n";
    os << "agents = " << agents << "\n";
    os << "cv = " << formatDouble(cv) << "\n";
    if (family == "unequal")
        os << "unequal-factor = " << formatDouble(unequalFactor) << "\n";
    os << "max-outstanding = " << maxOutstanding << "\n";
    // Emitted only when set, so pre-seam scenarios format (and hash,
    // and annotate) byte-identically to before these keys existed.
    if (source != "closed")
        os << "source = " << source << "\n";
    if (hotAgents > 0) {
        os << "hot-agents = " << hotAgents << "\n";
        os << "hot-factor = " << formatDouble(hotFactor) << "\n";
    }
    os << "\n[bus]\n";
    os << "arb-overhead = " << formatDouble(arbOverhead) << "\n";
    os << "settle-timing = " << (settleTiming ? "true" : "false") << "\n";
    os << "worst-case-settle = "
       << (worstCaseSettle ? "true" : "false") << "\n";
    os << "\n[run]\n";
    os << "batches = " << batches << "\n";
    os << "batch-size = " << batchSize << "\n";
    os << "warmup = " << formatUint(resolvedWarmup()) << "\n";
    os << "seed = " << formatUint(seed) << "\n";
    os << "confidence = " << formatDouble(confidence) << "\n";
    if (!loadTokens.empty() || !protocolSpecs.empty()) {
        os << "\n[sweep]\n";
        if (!loadTokens.empty()) {
            os << "loads =";
            for (const auto &t : loadTokens)
                os << " " << t;
            os << "\n";
        }
        if (!protocolSpecs.empty()) {
            os << "protocols =";
            for (const auto &p : protocolSpecs)
                os << " " << p;
            os << "\n";
        }
    }
    return os.str();
}

bool
ScenarioSpec::sourceTakesLoads() const
{
    const WorkloadDescriptor *desc = workloadDescriptorFor(source);
    return desc == nullptr || desc->takesLoads;
}

const std::vector<std::string> &
ScenarioSpec::loadAxis() const
{
    // The placeholder keeps the cell enumeration non-degenerate when
    // the source fixes its own schedule: one cell per protocol, with a
    // stable row label.
    static const std::vector<std::string> no_load_axis = {"-"};
    if (!sourceTakesLoads())
        return no_load_axis;
    return loadTokens;
}

std::size_t
ScenarioSpec::cellCount() const
{
    return loadAxis().size() * protocolSpecs.size();
}

const std::string &
ScenarioSpec::cellLoadToken(std::size_t index) const
{
    BUSARB_ASSERT(index < cellCount(), "cell index ", index,
                  " out of range (", cellCount(), " cells)");
    return loadAxis()[index / protocolSpecs.size()];
}

const std::string &
ScenarioSpec::cellProtocolSpec(std::size_t index) const
{
    BUSARB_ASSERT(index < cellCount(), "cell index ", index,
                  " out of range (", cellCount(), " cells)");
    return protocolSpecs[index % protocolSpecs.size()];
}

ScenarioConfig
ScenarioSpec::configForLoad(const std::string &load_token) const
{
    ScenarioConfig config;
    if (family == "worst-case") {
        config = worstCaseRrScenario(agents, cv);
    } else if (!sourceTakesLoads()) {
        // No load axis: the source (trace replay) fixes its own
        // arrivals and never samples think times, so the traits' load
        // is inert — any fixed value keeps the config deterministic.
        config = equalLoadScenario(agents, 0.5, cv);
    } else {
        double load = 0.0;
        BUSARB_ASSERT(parseDouble(load_token, load),
                      "bad load token '", load_token, "'");
        if (family == "unequal") {
            config =
                unequalLoadScenario(agents, load / agents,
                                    unequalFactor, cv);
        } else {
            config = equalLoadScenario(agents, load, cv);
        }
        if (hotAgents > 0) {
            const double hot_load = hotFactor * load / agents;
            for (int i = 0; i < hotAgents; ++i) {
                config.agents[static_cast<std::size_t>(i)]
                    .meanInterrequest = interrequestForLoad(hot_load);
            }
        }
    }
    config.workloadSpec = source;
    config.numBatches = batches;
    config.batchSize = static_cast<std::uint64_t>(batchSize);
    config.warmup = resolvedWarmup();
    config.seed = seed;
    config.confidence = confidence;
    config.bus.arbitrationOverhead = arbOverhead;
    config.bus.settleTiming = settleTiming || worstCaseSettle;
    if (worstCaseSettle)
        config.bus.settleMode = BusParams::SettleMode::kWorstCase;
    for (auto &traits : config.agents)
        traits.maxOutstanding = maxOutstanding;
    return config;
}

bool
parseScenarioSpec(const std::string &text, ScenarioSpec &out,
                  std::string &error)
{
    ScenarioSpec spec;
    spec.rawText = text;

    std::istringstream is(text);
    std::string raw_line;
    std::string section;
    std::set<std::string> seen; // scalar keys, qualified by section
    int line_no = 0;
    bool ok = true;

    const auto fail = [&](const std::string &message) {
        error = "line " + std::to_string(line_no) + ": " + message;
        ok = false;
        return false;
    };

    while (ok && std::getline(is, raw_line)) {
        ++line_no;
        std::string line = trim(raw_line);
        if (line.empty() || line[0] == '#' || line[0] == ';')
            continue;

        if (line[0] == '[') {
            if (line.back() != ']')
                return fail("malformed section header '" + line + "'");
            section = trim(line.substr(1, line.size() - 2));
            bool known = false;
            for (const auto &name : sectionNames())
                known = known || name == section;
            if (!known) {
                return fail(
                    "unknown section '[" + section + "]'" +
                    didYouMeanHint(section, sectionNames()));
            }
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            return fail("expected 'key = value' or '[section]', got '" +
                        line + "'");
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (section.empty())
            return fail("key '" + key + "' outside any [section]");
        const auto &vocab = keysOf(section);
        bool known = false;
        for (const auto &name : vocab)
            known = known || name == key;
        if (!known) {
            return fail("unknown key '" + key + "' in [" + section +
                        "]" + didYouMeanHint(key, vocab));
        }
        if (value.empty())
            return fail("key '" + key + "' needs a value");

        // List keys accumulate; everything else is single-assignment.
        const bool list_key = key == "load" || key == "loads" ||
                              key == "spec" || key == "protocols";
        if (!list_key && !seen.insert(section + "." + key).second)
            return fail("duplicate key '" + key + "' in [" + section +
                        "]");

        const auto want_int = [&](long min_value, long &slot) {
            long parsed = 0;
            if (!parseLong(value, parsed))
                return fail("key '" + key +
                            "' expects an integer, got '" + value + "'");
            if (parsed < min_value)
                return fail("key '" + key + "' must be >= " +
                            std::to_string(min_value) + ", got '" +
                            value + "'");
            slot = parsed;
            return true;
        };
        const auto want_double = [&](double min_value, bool exclusive,
                                     double &slot) {
            double parsed = 0.0;
            if (!parseDouble(value, parsed))
                return fail("key '" + key +
                            "' expects a number, got '" + value + "'");
            if (parsed < min_value ||
                (exclusive && parsed == min_value)) {
                return fail("key '" + key + "' must be " +
                            (exclusive ? ">" : ">=") + " " +
                            formatDouble(min_value) + ", got '" + value +
                            "'");
            }
            slot = parsed;
            return true;
        };
        const auto want_bool = [&](bool &slot) {
            if (value != "true" && value != "false")
                return fail("key '" + key +
                            "' expects true/false, got '" + value + "'");
            slot = value == "true";
            return true;
        };

        if (key == "family") {
            if (value != "equal" && value != "unequal" &&
                value != "worst-case") {
                return fail(
                    "key 'family' expects equal|unequal|worst-case, "
                    "got '" + value + "'" +
                    didYouMeanHint(value, {"equal", "unequal",
                                           "worst-case"}));
            }
            spec.family = value;
        } else if (key == "agents") {
            long v = 0;
            if (want_int(1, v))
                spec.agents = static_cast<int>(v);
        } else if (key == "cv") {
            want_double(0.0, false, spec.cv);
        } else if (key == "unequal-factor") {
            want_double(0.0, true, spec.unequalFactor);
        } else if (key == "max-outstanding") {
            long v = 0;
            if (want_int(1, v))
                spec.maxOutstanding = static_cast<int>(v);
        } else if (key == "source") {
            WorkloadSpec parsed;
            std::string spec_error;
            if (!WorkloadRegistry::builtin().parseSpec(value, parsed,
                                                       spec_error)) {
                return fail("bad workload source '" + value + "': " +
                            spec_error);
            }
            spec.source = value;
        } else if (key == "hot-agents") {
            long v = 0;
            if (want_int(0, v))
                spec.hotAgents = static_cast<int>(v);
        } else if (key == "hot-factor") {
            want_double(0.0, true, spec.hotFactor);
        } else if (key == "arb-overhead") {
            want_double(0.0, false, spec.arbOverhead);
        } else if (key == "settle-timing") {
            want_bool(spec.settleTiming);
        } else if (key == "worst-case-settle") {
            want_bool(spec.worstCaseSettle);
        } else if (key == "batches") {
            long v = 0;
            if (want_int(1, v))
                spec.batches = static_cast<int>(v);
        } else if (key == "batch-size") {
            want_int(1, spec.batchSize);
        } else if (key == "warmup") {
            if (want_int(0, spec.warmup))
                spec.warmupSet = true;
        } else if (key == "seed") {
            if (!parseUint64(value, spec.seed))
                return fail("key 'seed' expects an unsigned integer, "
                            "got '" + value + "'");
        } else if (key == "confidence") {
            double v = 0.0;
            if (!parseDouble(value, v))
                return fail("key 'confidence' expects a number, got '" +
                            value + "'");
            if (v <= 0.0 || v >= 1.0)
                return fail("key 'confidence' must be in (0, 1), got '" +
                            value + "'");
            spec.confidence = v;
        } else if (key == "load" || key == "loads") {
            for (const auto &token : splitWhitespace(value)) {
                std::string expand_error;
                if (!expandLoadToken(token, spec.loadTokens,
                                     expand_error))
                    return fail(expand_error);
            }
        } else if (key == "spec" || key == "protocols") {
            for (const auto &token : splitWhitespace(value)) {
                ProtocolSpec parsed;
                std::string spec_error;
                if (!ProtocolRegistry::builtin().parseSpec(
                        token, parsed, spec_error)) {
                    return fail("bad protocol spec '" + token + "': " +
                                spec_error);
                }
                spec.protocolSpecs.push_back(token);
            }
        } else {
            BUSARB_PANIC("unhandled scenario key '", key, "'");
        }
    }
    if (!ok)
        return false;

    // File-level validation errors carry no line prefix.
    if (spec.family == "unequal" && spec.unequalFactor <= 0.0) {
        error = "family 'unequal' requires unequal-factor";
        return false;
    }
    if (spec.family == "worst-case" && !spec.loadTokens.empty()) {
        error = "family 'worst-case' takes no loads (the Table 4.5 "
                "workload fixes its own rates)";
        return false;
    }
    if (spec.family == "unequal" && spec.agents < 2) {
        error = "family 'unequal' needs at least 2 agents";
        return false;
    }
    if (spec.family == "worst-case" && spec.agents < 5) {
        error = "family 'worst-case' needs at least 5 agents (the "
                "Table 4.5 rates are n - 3.6 and n - 0.5)";
        return false;
    }
    // Every load must give each agent an offered load in (0, 1): that
    // is what the equal and unequal families can build.
    for (const auto &token : spec.loadTokens) {
        double load = 0.0;
        if (!parseDouble(token, load))
            continue; // expandLoadToken already validated
        const double per_agent = load / spec.agents;
        const double peak =
            spec.family == "unequal"
                ? std::max(per_agent, per_agent * spec.unequalFactor)
                : per_agent;
        if (!(per_agent > 0.0 && peak < 1.0)) {
            error = "load " + token + " with " +
                    std::to_string(spec.agents) +
                    " agents puts an agent's offered load outside "
                    "(0, 1)";
            return false;
        }
    }
    if (!spec.sourceTakesLoads() && !spec.loadTokens.empty()) {
        error = "workload source '" + spec.source +
                "' takes no loads (it fixes its own arrival schedule)";
        return false;
    }
    if (spec.hotAgents > 0) {
        if (spec.family != "equal") {
            error = "hot-agents requires family 'equal' (family "
                    "'unequal' already defines its own hot agent)";
            return false;
        }
        if (spec.hotFactor <= 0.0) {
            error = "hot-agents requires hot-factor";
            return false;
        }
        if (spec.hotAgents > spec.agents) {
            error = "hot-agents exceeds agents";
            return false;
        }
        for (const auto &token : spec.loadTokens) {
            double load = 0.0;
            if (!parseDouble(token, load))
                continue; // expandLoadToken already validated
            if (spec.hotFactor * load / spec.agents >= 1.0) {
                error = "hot-factor " + formatDouble(spec.hotFactor) +
                        " at load " + token +
                        " pushes a hot agent's offered load to >= 1";
                return false;
            }
        }
    } else if (spec.hotFactor > 0.0) {
        error = "hot-factor requires hot-agents";
        return false;
    }
    out = spec;
    return true;
}

ScenarioSpec
scenarioSpecOrExit(const std::string &program, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << program << ": cannot read " << path << "\n";
        std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ScenarioSpec spec;
    std::string error;
    if (!parseScenarioSpec(buffer.str(), spec, error)) {
        std::cerr << program << ": " << path << ": " << error << "\n";
        std::exit(2);
    }
    return spec;
}

void
addScenarioFlags(ArgParser &parser)
{
    parser.addStringFlag("scenario", "",
                         "read the workload/bus/run description from "
                         "this scenario file (see docs/PROTOCOLS.md); "
                         "conflicts with the flags below");
    parser.addIntFlag("agents", 10, "number of agents (1..N)", 1, kIntMax);
    parser.addDoubleFlag("load", 2.0, "total offered load");
    parser.addDoubleFlag("cv", 1.0,
                         "inter-request coefficient of variation");
    parser.addBoolFlag("worst-case", false,
                       "use the Table 4.5 just-miss workload instead of "
                       "equal loads");
    parser.addDoubleFlag("unequal-factor", 0.0,
                         "agent 1's load multiplier (Table 4.4); 0 "
                         "disables");
    parser.addIntFlag("max-outstanding", 1,
                      "outstanding requests per agent (FCFS r > 1)", 1,
                      kIntMax);
    parser.addStringFlag("source", "closed",
                         "workload-source spec (see --list-workloads): "
                         "closed, open:..., onoff:..., trace:...");
    parser.addIntFlag("hot-agents", 0,
                      "first K agents offer --hot-factor times the "
                      "per-agent base load (family equal); 0 disables",
                      0, kIntMax);
    parser.addDoubleFlag("hot-factor", 0.0,
                         "hot agents' per-agent load multiplier");
    parser.addIntFlag("batches", 10, "measurement batches", 1, kIntMax);
    parser.addIntFlag("batch-size", 8000, "completions per batch", 1);
    parser.addIntFlag("warmup", 8000, "warm-up completions discarded", 0);
    parser.addIntFlag("seed", 0x5eedcafe, "random seed", 0);
    parser.addDoubleFlag("arb-overhead", 0.5,
                         "arbitration overhead, transaction times");
    parser.addBoolFlag("settle-timing", false,
                       "derive pass durations from the bit-level "
                       "contention model");
    parser.addBoolFlag("worst-case-settle", false,
                       "budget ceil(k/2) propagations per pass "
                       "(synchronous bus)");
}

ScenarioSpec
scenarioSpecFromFlags(const std::string &program,
                      const ArgParser &parser)
{
    const std::string path = parser.getString("scenario");
    if (!path.empty()) {
        static const char *const kOwned[] = {
            "agents", "load", "cv", "worst-case", "unequal-factor",
            "max-outstanding", "batches", "batch-size", "warmup",
            "seed", "arb-overhead", "settle-timing",
            "worst-case-settle", "source", "hot-agents", "hot-factor"};
        for (const char *flag : kOwned) {
            if (parser.wasSet(flag)) {
                std::cerr << program << ": --" << flag
                          << " conflicts with --scenario (the file is "
                             "the single source of truth)\n";
                std::exit(2);
            }
        }
        return scenarioSpecOrExit(program, path);
    }

    ScenarioSpec spec;
    const double factor = parser.getDouble("unequal-factor");
    if (parser.getBool("worst-case"))
        spec.family = "worst-case";
    else if (factor > 0.0)
        spec.family = "unequal";
    else
        spec.family = "equal";
    spec.agents = static_cast<int>(parser.getInt("agents"));
    spec.cv = parser.getDouble("cv");
    spec.unequalFactor = factor;
    spec.maxOutstanding =
        static_cast<int>(parser.getInt("max-outstanding"));
    spec.arbOverhead = parser.getDouble("arb-overhead");
    spec.settleTiming = parser.getBool("settle-timing");
    spec.worstCaseSettle = parser.getBool("worst-case-settle");
    spec.batches = static_cast<int>(parser.getInt("batches"));
    spec.batchSize = parser.getInt("batch-size");
    spec.warmupSet = true;
    spec.warmup = parser.getInt("warmup");
    spec.seed = static_cast<std::uint64_t>(parser.getInt("seed"));

    spec.source = parser.getString("source");
    workloadSpecOrExit(program, spec.source); // validate; keep verbatim
    spec.hotAgents = static_cast<int>(parser.getInt("hot-agents"));
    spec.hotFactor = parser.getDouble("hot-factor");

    if (!spec.sourceTakesLoads()) {
        if (parser.wasSet("load")) {
            std::cerr << program << ": --load conflicts with --source "
                      << spec.source
                      << " (the source fixes its own arrival "
                         "schedule)\n";
            std::exit(2);
        }
    } else if (spec.family != "worst-case") {
        spec.loadTokens.push_back(
            formatDouble(parser.getDouble("load")));
    }
    validateSpecOrExit(program, spec);
    return spec;
}

void
validateSpecOrExit(const std::string &program, const ScenarioSpec &spec)
{
    ScenarioSpec validated;
    std::string error;
    if (!parseScenarioSpec(spec.format(), validated, error)) {
        std::cerr << program << ": " << error << "\n";
        std::exit(2);
    }
}

void
addObserverFlags(ArgParser &parser)
{
    parser.addStringFlag("trace-out", "",
                         "capture a binary event trace of every run to "
                         "this file (decode with busarb_trace)");
    parser.addStringFlag("metrics-out", "",
                         "write merged run metrics to this file (.json "
                         "for JSON, anything else for CSV)");
    parser.addBoolFlag("fairness", false,
                       "attach the fairness auditor: bypass counts "
                       "against the N-1 bound, starvation, Jain indices");
    parser.addDoubleFlag("fairness-window", 50.0,
                         "fairness window width, transaction units");
    parser.addIntFlag("bypass-bound", 0,
                      "audited bypass bound per grant (0 = the paper's "
                      "RR guarantee, N-1)",
                      0, kIntMax);
    parser.addStringFlag("snapshot-out", "",
                         "write fairness/health snapshots (JSONL) to "
                         "this file; requires --snapshot-every and/or "
                         "--health");
    parser.addDoubleFlag("snapshot-every", 0.0,
                         "fairness snapshot interval, transaction units");
    parser.addBoolFlag("health", false,
                       "attach the run-health monitor: batch-means "
                       "convergence verdict per run (health.* metrics)");
    parser.addBoolFlag("health-strict", false,
                       "like --health, but exit 3 unless every run "
                       "converged");
    parser.addDoubleFlag("health-rel-hw", 0.05,
                         "relative CI half-width target (the paper's "
                         "\"within 5%\")");
    parser.addDoubleFlag("health-lag1", 0.3,
                         "|lag-1| autocorrelation threshold for "
                         "batch-mean independence");
}

SweepTuning
observerTuningOrExit(const std::string &program, const ArgParser &parser)
{
    // Artifact destinations are validated before the run: a missing
    // parent directory fails in seconds, not after the simulation.
    for (const char *flag : {"trace-out", "metrics-out", "snapshot-out"})
        requireParentDirOrExit(program, flag, parser.getString(flag));

    SweepTuning tuning;
    tuning.captureTrace = !parser.getString("trace-out").empty();
    tuning.fairnessWindow = parser.getDouble("fairness-window");
    tuning.bypassBound = static_cast<int>(parser.getInt("bypass-bound"));
    tuning.health =
        parser.getBool("health") || parser.getBool("health-strict");
    tuning.healthRelHw = parser.getDouble("health-rel-hw");
    tuning.healthLag1 = parser.getDouble("health-lag1");
    tuning.snapshotEvery = parser.getDouble("snapshot-every");
    const auto fail = [&](const std::string &message) {
        std::cerr << program << ": --" << message << "\n";
        std::exit(2);
    };
    const std::string error = tuningError(tuning);
    if (!error.empty())
        fail(error);
    const bool snapshots_out = !parser.getString("snapshot-out").empty();
    if (!snapshots_out && tuning.snapshotEvery > 0.0)
        fail("snapshot-every requires --snapshot-out");
    if (snapshots_out && tuning.snapshotEvery <= 0.0 && !tuning.health)
        fail("snapshot-out requires --snapshot-every and/or --health");
    tuning.fairness =
        parser.getBool("fairness") || tuning.snapshotEvery > 0.0;
    tuning.healthSnapshots = tuning.health && snapshots_out;
    return tuning;
}

bool
writeObserverOutputs(const ArgParser &parser,
                     const std::vector<ScenarioResult> &results,
                     const std::vector<std::string> &labels,
                     const std::string &scenario_text)
{
    const auto written = [](const std::ofstream &out,
                            const std::string &path) {
        if (!out)
            std::cerr << "cannot write " << path << "\n";
        return static_cast<bool>(out);
    };
    const std::string trace_path = parser.getString("trace-out");
    if (!trace_path.empty()) {
        std::ofstream out(trace_path, std::ios::binary);
        std::size_t bytes = 0;
        for (const auto &r : results) {
            out.write(reinterpret_cast<const char *>(r.binaryTrace.data()),
                      static_cast<std::streamsize>(r.binaryTrace.size()));
            bytes += r.binaryTrace.size();
        }
        if (!written(out, trace_path))
            return false;
        std::cout << "wrote binary trace (" << results.size()
                  << " chunk(s), " << bytes << " bytes) to " << trace_path
                  << "\n";
    }
    const std::string snapshot_path = parser.getString("snapshot-out");
    if (!snapshot_path.empty()) {
        std::ofstream out(snapshot_path, std::ios::binary);
        std::size_t lines = 0;
        for (const auto &r : results) {
            for (const std::string *s :
                 {&r.fairnessSnapshots, &r.healthSnapshots}) {
                out << *s;
                lines += static_cast<std::size_t>(
                    std::count(s->begin(), s->end(), '\n'));
            }
        }
        if (!written(out, snapshot_path))
            return false;
        std::cout << "wrote " << lines << " snapshot line(s) to "
                  << snapshot_path << "\n";
    }
    const std::string metrics_path = parser.getString("metrics-out");
    if (!metrics_path.empty()) {
        MetricsRegistry merged;
        for (std::size_t i = 0; i < results.size(); ++i)
            merged.mergeFrom(results[i].metrics, labels[i] + ".");
        // Canonical provenance: the same annotation text whether the
        // run came from flags or from a scenario file.
        merged.setAnnotation("scenario.spec", scenario_text);
        if (!merged.writeFile(metrics_path)) {
            std::cerr << "cannot write " << metrics_path << "\n";
            return false;
        }
        std::cout << "wrote metrics to " << metrics_path << "\n";
    }
    return true;
}

int
healthStrictExitCode(const std::string &program, const ArgParser &parser,
                     const std::vector<ScenarioResult> &results,
                     const std::vector<std::string> &labels)
{
    if (!parser.getBool("health-strict"))
        return 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunHealthReport &health = results[i].health;
        if (health.verdict != ConvergenceVerdict::kConverged) {
            std::cerr << program << ": run " << labels[i] << " is "
                      << health.verdictLabel() << " (--health-strict)\n";
            return 3;
        }
    }
    return 0;
}

} // namespace busarb
