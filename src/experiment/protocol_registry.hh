/**
 * @file
 * The protocol registry: one construction seam from the protocol
 * libraries (src/core, src/baseline) to the tools.
 *
 * Every protocol registers a descriptor — key, one-line summary, paper
 * section, and a typed parameter schema with defaults and ranges — and
 * a build function that turns validated parameter values into a
 * ProtocolFactory. Spec strings like
 *
 *   rr:impl=3
 *   fcfs:strategy=increment_on_lose,counter_bits=8
 *   wrr:weights=4/1/1/1
 *
 * are parsed against the schema, so unknown keys, unknown options,
 * malformed values and out-of-range values are all rejected with a
 * message naming the offending token (and a did-you-mean hint), before
 * any protocol is constructed. Adding a protocol means registering a
 * descriptor; the tools, the runner, --list-protocols and the scenario
 * files pick it up without further edits.
 */

#ifndef BUSARB_EXPERIMENT_PROTOCOL_REGISTRY_HH
#define BUSARB_EXPERIMENT_PROTOCOL_REGISTRY_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "experiment/runner.hh"
#include "experiment/spec_schema.hh"

namespace busarb {

/** Everything the registry knows about one protocol. */
struct ProtocolDescriptor
{
    /** Spec-string key ("rr1", "fcfs", "wrr", ...). */
    std::string key;

    /** One-line summary for --list-protocols. */
    std::string summary;

    /** Paper section ("§3.1"), or a citation for non-paper protocols. */
    std::string paperSection;

    /** Declared parameters, in canonical (display and format) order. */
    std::vector<ParamSpec> params;

    /** Bare-token sugar accepted in spec strings. */
    std::vector<SpecSugar> sugar;

    /**
     * True for parameterized family aliases ("rr", "fcfs") that expose
     * an existing protocol under a canonical schema; aliases are shown
     * by --list-protocols, and callers enumerating distinct protocols
     * skip them.
     */
    bool isAlias = false;

    /** Turn validated values into a factory. */
    std::function<ProtocolFactory(const ParamValues &)> build;

    /**
     * Optional cross-parameter validation; returns an error message, or
     * "" when the combination is legal.
     */
    std::function<std::string(const ParamValues &)> validate;
};

/**
 * A parsed, validated protocol spec — the shared canonical
 * key-plus-params shape from the schema engine.
 */
using ProtocolSpec = SpecInstance;

/**
 * The registry itself: descriptors in registration order, looked up by
 * key. builtin() holds every protocol in the library.
 */
class ProtocolRegistry
{
  public:
    ProtocolRegistry() = default;

    /** Register a descriptor; fatal if the key is already taken. */
    void add(ProtocolDescriptor desc);

    /** @return The descriptor for `key`, or nullptr. */
    const ProtocolDescriptor *find(const std::string &key) const;

    /** @return All descriptors, in registration order. */
    const std::vector<ProtocolDescriptor> &all() const
    {
        return protocols_;
    }

    /**
     * Parse and validate a spec string against the registered schemas.
     *
     * @param text The spec string ("fcfs2:window=0.05,bits=3,wrap").
     * @param out Receives the canonicalized spec on success.
     * @param error Receives a message naming the offending token (with
     *        a did-you-mean hint where one is close) on failure.
     * @retval false The spec did not validate.
     */
    bool parseSpec(const std::string &text, ProtocolSpec &out,
                   std::string &error) const;

    /**
     * Build the factory a validated spec describes.
     *
     * @param spec A spec from parseSpec (a hand-built spec that does
     *        not validate is a fatal error).
     * @return The protocol factory.
     */
    ProtocolFactory instantiate(const ProtocolSpec &spec) const;

    /**
     * Parse + instantiate, fatal on error (library convenience; tools
     * should use protocolFactoryOrExit for the exit-2 convention).
     */
    ProtocolFactory fromSpec(const std::string &text) const;

    /**
     * Print the registry as a table — key, paper section, summary, and
     * every parameter with type, default and range — generated entirely
     * from the descriptors (--list-protocols).
     */
    void printTable(std::ostream &os) const;

    /** @return The registry holding every built-in protocol. */
    static const ProtocolRegistry &builtin();

  private:
    std::vector<ProtocolDescriptor> protocols_;

    /** Resolve defaults + spec params into build-ready values. */
    ParamValues resolveValues(const ProtocolDescriptor &desc,
                              const ProtocolSpec &spec) const;
};

/**
 * Register every protocol in src/core and src/baseline (plus the
 * canonical `rr`/`fcfs` family aliases). Called once by builtin();
 * exposed so tests can build registries of their own.
 */
void registerBuiltinProtocols(ProtocolRegistry &registry);

/**
 * Register the weighted round-robin protocol (`wrr:weights=4/1/1/1`).
 * Its own registration unit: nothing else in the tools or the runner
 * knows wrr exists.
 */
void registerWeightedRoundRobin(ProtocolRegistry &registry);

/**
 * Tool-facing spec parser: parse `text` against the builtin registry,
 * or print `program: <error>` to stderr and exit 2 (the CLI usage-error
 * convention).
 */
ProtocolFactory protocolFactoryOrExit(const std::string &program,
                                      const std::string &text);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_PROTOCOL_REGISTRY_HH
