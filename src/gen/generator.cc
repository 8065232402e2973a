#include "gen/generator.h"

#include <sstream>
#include <utility>

#include "cfsm/embed.h"
#include "fo/formula.h"
#include "fo/term.h"
#include "gen/rng.h"
#include "spec/composition.h"
#include "spec/parser.h"
#include "spec/printer.h"

namespace wsv::gen {
namespace {

using fo::Formula;
using fo::FormulaPtr;
using fo::Term;
using spec::Composition;
using spec::Peer;
using spec::QueueKind;
using spec::RuleKind;

constexpr const char* kRegimeNames[kNumRegimes] = {
    "core", "perfect", "recency", "detflat", "external", "cfsm",
};

std::string PeerName(size_t i) { return "P" + std::to_string(i); }
std::string StateName(size_t i) { return "s" + std::to_string(i); }
std::string ChannelName(size_t i) { return "q" + std::to_string(i); }
std::string ConstName(size_t i) { return "c" + std::to_string(i); }

FormulaPtr VarAtom(const std::string& rel, const std::string& var) {
  return Formula::Atom(rel, {Term::Variable(var)});
}

/// x = "c0" or x = "c1" or ... over the first `count` pool constants.
FormulaPtr ConstantDisjunction(const std::string& var, size_t count) {
  std::vector<FormulaPtr> alts;
  for (size_t i = 0; i < count; ++i) {
    alts.push_back(
        Formula::Equality(Term::Variable(var), Term::Constant(ConstName(i))));
  }
  return Formula::Or(std::move(alts));
}

std::string QualState(size_t peer, size_t state) {
  return Composition::Qualify(PeerName(peer), StateName(state));
}

/// Everything the chain builder decides before peers are materialized, so
/// the draw order stays independent of how peers are assembled.
struct ChainPlan {
  size_t num_peers = 2;
  size_t nested_from = static_cast<size_t>(-1);  // first nested channel index
  bool filter_options = false;    // constant filter on the source options
  size_t filter_width = 1;        // disjuncts in the filter
  bool guard_hop = false;         // "and not x = c0" on one hop insert
  size_t guard_index = 1;         // which hop
  bool delete_hop = false;        // oscillating delete rule on one hop
  size_t delete_index = 1;
  bool sink_action = false;       // action rule on the sink
  bool ack_ring = false;          // sink -> source acknowledgement channel
};

bool ChannelNested(const ChainPlan& plan, size_t channel) {
  return channel >= plan.nested_from;
}

QueueKind KindOf(const ChainPlan& plan, size_t channel) {
  return ChannelNested(plan, channel) ? QueueKind::kNested : QueueKind::kFlat;
}

ChainPlan DrawChainPlan(Rng& rng, Regime regime, const Dials& dials) {
  ChainPlan plan;
  plan.num_peers = dials.num_peers < 2 ? 2 : dials.num_peers;
  // Nested-channel suffix: once a hop forwards from a nested in-queue its
  // send rule is a nested-send rule (a flat send from a nested atom with a
  // free variable is not existential-ground), so nestedness is monotone
  // along the chain. detflat stays flat (Theorem 3.8 is about flat sends);
  // external stays flat (Theorem 5.4 specs constrain flat env queues).
  bool may_nest = regime == Regime::kCore || regime == Regime::kPerfect ||
                  regime == Regime::kRecency;
  if (may_nest && rng.Chance(30)) {
    plan.nested_from = rng.Below(plan.num_peers - 1);
  }
  size_t budget = dials.max_extra_rules;
  bool closed = regime != Regime::kExternal;
  auto take = [&](bool want) {
    if (!want || budget == 0) return false;
    --budget;
    return true;
  };
  if (closed && dials.num_constants > 0) {
    plan.filter_options = take(rng.Chance(50));
    plan.filter_width = rng.Between(1, dials.num_constants);
  }
  if (plan.num_peers >= 2 && dials.num_constants > 0) {
    plan.guard_hop = take(rng.Chance(50));
    plan.guard_index = rng.Between(1, plan.num_peers - 1);
  }
  plan.delete_hop = take(rng.Chance(50));
  plan.delete_index = rng.Between(1, plan.num_peers - 1);
  plan.sink_action = take(rng.Chance(50));
  // The acknowledgement ring needs a flat last channel: the source's done
  // rule quantifies through the ack atom, and only flat queue atoms are
  // input-bounded quantification guards.
  plan.ack_ring =
      take(closed && rng.Chance(40) && !ChannelNested(plan, plan.num_peers - 2));
  return plan;
}

/// Builds the source peer P0: database d0, input go, options + send.
Status BuildSource(const ChainPlan& plan, Regime regime, Peer* peer) {
  WSV_RETURN_IF_ERROR(peer->AddDatabaseRelation("d0", {"a0"}));
  WSV_RETURN_IF_ERROR(peer->AddInputRelation("go", {"v0"}));
  WSV_RETURN_IF_ERROR(
      peer->AddOutQueue(ChannelName(0), KindOf(plan, 0), {"m0"}));
  FormulaPtr options_body = VarAtom("d0", "x");
  if (plan.filter_options) {
    options_body = Formula::And(options_body,
                                ConstantDisjunction("x", plan.filter_width));
  }
  WSV_RETURN_IF_ERROR(peer->AddRule(RuleKind::kInputOptions, "go", {"x"},
                                    std::move(options_body)));
  // Theorem 3.8 scenarios send straight from the database: several tuples
  // may satisfy the body, so the deterministic-flat-send semantics (no send
  // + error flag) actually differs from the nondeterministic-pick default.
  FormulaPtr send_body = regime == Regime::kDetFlat ? VarAtom("d0", "x")
                                                    : VarAtom("go", "x");
  WSV_RETURN_IF_ERROR(peer->AddRule(RuleKind::kSend, ChannelName(0), {"x"},
                                    std::move(send_body)));
  if (plan.ack_ring) {
    WSV_RETURN_IF_ERROR(peer->AddInQueue("ack", QueueKind::kFlat, {"m0"}));
    WSV_RETURN_IF_ERROR(peer->AddStateRelation("done", {}));
    WSV_RETURN_IF_ERROR(peer->AddRule(
        RuleKind::kStateInsert, "done", {},
        Formula::Exists({"x"}, VarAtom("ack", "x"))));
  }
  return Status::Ok();
}

/// Builds hop/sink peer P<i> (i >= 1): consumes q<i-1> into s<i>, forwards
/// to q<i> unless it is the sink. `env_guard_db` adds the external-regime
/// allowlist database d<i> and guards the insert with it.
Status BuildHop(const ChainPlan& plan, size_t i, bool is_sink,
                bool env_guard_db, Peer* peer) {
  const std::string in = ChannelName(i - 1);
  WSV_RETURN_IF_ERROR(peer->AddInQueue(in, KindOf(plan, i - 1), {"m0"}));
  WSV_RETURN_IF_ERROR(peer->AddStateRelation(StateName(i), {"a0"}));
  FormulaPtr insert_body = VarAtom(in, "x");
  if (env_guard_db) {
    const std::string db = "d" + std::to_string(i);
    WSV_RETURN_IF_ERROR(peer->AddDatabaseRelation(db, {"a0"}));
    insert_body = Formula::And(std::move(insert_body), VarAtom(db, "x"));
  }
  if (plan.guard_hop && plan.guard_index == i) {
    insert_body = Formula::And(
        std::move(insert_body),
        Formula::Not(Formula::Equality(Term::Variable("x"),
                                       Term::Constant(ConstName(0)))));
  }
  WSV_RETURN_IF_ERROR(peer->AddRule(RuleKind::kStateInsert, StateName(i),
                                    {"x"}, std::move(insert_body)));
  if (plan.delete_hop && plan.delete_index == i) {
    WSV_RETURN_IF_ERROR(peer->AddRule(RuleKind::kStateDelete, StateName(i),
                                      {"x"}, VarAtom(StateName(i), "x")));
  }
  if (!is_sink) {
    WSV_RETURN_IF_ERROR(
        peer->AddOutQueue(ChannelName(i), KindOf(plan, i), {"m0"}));
    WSV_RETURN_IF_ERROR(peer->AddRule(RuleKind::kSend, ChannelName(i), {"x"},
                                      VarAtom(in, "x")));
  } else {
    if (plan.sink_action) {
      WSV_RETURN_IF_ERROR(peer->AddActionRelation("out", {"a0"}));
      WSV_RETURN_IF_ERROR(
          peer->AddRule(RuleKind::kAction, "out", {"x"}, VarAtom(in, "x")));
    }
    if (plan.ack_ring) {
      WSV_RETURN_IF_ERROR(peer->AddOutQueue("ack", QueueKind::kFlat, {"m0"}));
      WSV_RETURN_IF_ERROR(
          peer->AddRule(RuleKind::kSend, "ack", {"x"}, VarAtom(in, "x")));
    }
  }
  return Status::Ok();
}

/// Property templates for closed chain scenarios. All reference relations
/// that exist by construction; verdicts are free to differ per scenario —
/// the differential contract is only that every leg agrees.
std::string DrawChainProperty(Rng& rng, const ChainPlan& plan,
                              const Dials& dials) {
  const size_t sink = plan.num_peers - 1;
  const std::string sink_state = QualState(sink, sink);
  const std::string src_db = PeerName(0) + ".d0";
  std::vector<std::string> templates;
  // Provenance: everything the sink records came from the source database.
  templates.push_back("forall x: G(" + sink_state + "(x) -> " + src_db +
                      "(x))");
  // Unreachability of the sink state (usually violated — exercises witness
  // index agreement across legs).
  templates.push_back("forall x: G(not " + sink_state + "(x))");
  if (dials.num_constants > 0) {
    templates.push_back("G(not " + sink_state + "(\"" + ConstName(0) +
                        "\"))");
  }
  // Two closure variables: a 2-dimensional valuation space, so the engine's
  // search memo has valuations with equal leaf signatures to share.
  templates.push_back("forall x, y: G(not (" + QualState(1, 1) + "(x) and " +
                      sink_state + "(y) and not x = y))");
  // Response shape the prefilter cannot discharge.
  templates.push_back("forall x: G(" + QualState(1, 1) + "(x) -> F " +
                      sink_state + "(x))");
  return rng.Pick(templates);
}

Result<Scenario> GenerateChainScenario(Rng& rng, const GenOptions& options) {
  const Dials& dials = options.dials;
  ChainPlan plan = DrawChainPlan(rng, options.regime, dials);

  Scenario scenario;
  scenario.options = options;
  scenario.fresh = dials.fresh < 1 ? 1 : dials.fresh;

  const bool external = options.regime == Regime::kExternal;
  Composition comp("Gen");
  const size_t first = external ? 1 : 0;
  for (size_t i = first; i < plan.num_peers; ++i) {
    Peer peer(PeerName(i));
    Status status =
        i == 0 ? BuildSource(plan, options.regime, &peer)
               : BuildHop(plan, i, /*is_sink=*/i + 1 == plan.num_peers,
                          /*env_guard_db=*/external && i == first, &peer);
    WSV_RETURN_IF_ERROR(status);
    if (external && i + 1 == plan.num_peers) {
      // The sink reports to the environment so the composition is open on
      // both sides (q0 flows in from the environment, final flows out).
      WSV_RETURN_IF_ERROR(peer.AddOutQueue("final", QueueKind::kFlat, {"m0"}));
      WSV_RETURN_IF_ERROR(peer.AddRule(RuleKind::kSend, "final", {"x"},
                                       VarAtom(ChannelName(i - 1), "x")));
    }
    WSV_RETURN_IF_ERROR(comp.AddPeer(std::move(peer)));
  }

  // Communication semantics per regime.
  switch (options.regime) {
    case Regime::kCore:
      scenario.run.queue_bound = dials.queue_bound < 1 ? 1 : dials.queue_bound;
      scenario.run.lossy = true;
      if (plan.nested_from != static_cast<size_t>(-1)) {
        scenario.run.perfect_nested = rng.Chance(30);
      }
      break;
    case Regime::kPerfect:
      scenario.run.queue_bound = rng.Between(1, 2);
      scenario.run.lossy = false;
      break;
    case Regime::kRecency:
      // Recency bound R >= 2: the newest R messages survive, older ones may
      // be lost — approximated by lossy R-bounded queues.
      scenario.run.queue_bound = rng.Between(2, 3);
      scenario.run.lossy = true;
      break;
    case Regime::kDetFlat:
      scenario.run.queue_bound = dials.queue_bound < 1 ? 1 : dials.queue_bound;
      scenario.run.lossy = true;
      scenario.run.deterministic_flat_sends = true;
      break;
    case Regime::kExternal:
      scenario.run.queue_bound = 1;
      scenario.run.lossy = true;
      scenario.run.allow_env_moves = true;
      break;
    case Regime::kCfsm:
      return Status(StatusCode::kInternal, "cfsm handled separately");
  }

  if (external) {
    scenario.use_modular = true;
    const size_t sink = plan.num_peers - 1;
    const std::string sink_state = QualState(sink, sink);
    const size_t candidates =
        dials.num_constants < 2 ? dials.num_constants + 1 : 2;
    std::vector<std::vector<std::string>> tuples;
    for (size_t i = 0; i < candidates; ++i) tuples.push_back({ConstName(i)});
    scenario.env_messages.emplace_back(ChannelName(0), tuples);
    for (size_t i = 0; i < candidates; ++i) {
      scenario.env_domain.push_back(ConstName(i));
    }
    // The spec either pins the environment to the first candidate or merely
    // restates the candidate set; the property sometimes asks exactly the
    // question the spec answers and sometimes a reachability question.
    const size_t allowed = rng.Chance(50) ? 1 : candidates;
    std::string alts;
    for (size_t i = 0; i < allowed; ++i) {
      if (i > 0) alts += " or ";
      alts += "x = \"" + ConstName(i) + "\"";
    }
    scenario.env_spec =
        "G (forall x: env." + ChannelName(0) + "(x) -> (" + alts + "))";
    std::vector<std::string> templates;
    templates.push_back("forall x: G(" + sink_state + "(x) -> (" + alts +
                        "))");
    templates.push_back("forall x: G(not " + sink_state + "(x))");
    if (candidates > 1) {
      templates.push_back("G(not " + sink_state + "(\"" +
                          ConstName(candidates - 1) + "\"))");
    }
    scenario.property = rng.Pick(templates);
  } else {
    scenario.property = DrawChainProperty(rng, plan, dials);
    // Sometimes pin the source database instead of sweeping: the engine
    // then shards the valuation space, which is the other merge leg.
    if (dials.num_constants > 0 && rng.Chance(40)) {
      const size_t count = rng.Between(1, dials.num_constants);
      std::string flag = PeerName(0) + ".d0=";
      for (size_t i = 0; i < count; ++i) {
        if (i > 0) flag += ";";
        flag += ConstName(i);
      }
      scenario.pinned_dbs.push_back(flag);
    }
  }

  WSV_RETURN_IF_ERROR(comp.Validate());
  WSV_RETURN_IF_ERROR(comp.CheckInputBounded());
  scenario.spec_text = spec::PrintComposition(comp);
  return scenario;
}

/// Random two-machine CFSM system: M0 sends on c0 / receives on c1, M1 the
/// reverse. Receive-deterministic by construction: per (state, channel) each
/// letter is used by at most one receive transition, and each machine owns a
/// single in-channel, so at most one receive is enabled per configuration.
Result<Scenario> GenerateCfsmScenario(Rng& rng, const GenOptions& options) {
  static const std::vector<std::string> kLetters = {"a", "b"};
  cfsm::CfsmSystem system;
  system.channels.push_back({"c0", 0, 1});
  system.channels.push_back({"c1", 1, 0});
  for (size_t m = 0; m < 2; ++m) {
    cfsm::CfsmMachine machine;
    machine.name = "M" + std::to_string(m);
    machine.num_states = rng.Between(2, 3);
    machine.initial = 0;
    const size_t send_channel = m;     // c0 for M0, c1 for M1
    const size_t receive_channel = 1 - m;
    for (size_t s = 0; s < machine.num_states; ++s) {
      std::vector<std::string> unused_receive_letters = kLetters;
      size_t count = rng.Between(s == 0 && m == 0 ? 1 : 0, 2);
      for (size_t t = 0; t < count; ++t) {
        cfsm::CfsmTransition tr;
        tr.from = s;
        tr.to = rng.Below(machine.num_states);
        bool receive = rng.Chance(m == 0 ? 35 : 65) &&
                       !unused_receive_letters.empty();
        if (receive) {
          tr.kind = cfsm::CfsmTransition::Kind::kReceive;
          tr.channel = receive_channel;
          size_t pick = rng.Below(unused_receive_letters.size());
          tr.letter = unused_receive_letters[pick];
          unused_receive_letters.erase(unused_receive_letters.begin() + pick);
        } else {
          tr.kind = cfsm::CfsmTransition::Kind::kSend;
          tr.channel = send_channel;
          tr.letter = rng.Pick(kLetters);
        }
        machine.transitions.push_back(std::move(tr));
      }
    }
    system.machines.push_back(std::move(machine));
  }
  WSV_RETURN_IF_ERROR(system.Validate());

  Scenario scenario;
  scenario.options = options;
  scenario.fresh = 1;
  scenario.run.queue_bound = rng.Between(1, 2);
  scenario.run.lossy = true;
  scenario.has_cfsm = true;

  // Target control pair: prefer non-initial states so reachability is a
  // real question, not "are we at the start".
  for (const cfsm::CfsmMachine& machine : system.machines) {
    scenario.cfsm_target.push_back(machine.num_states > 1
                                       ? rng.Between(1, machine.num_states - 1)
                                       : 0);
  }

  // Engine property: the target control pair is never reached. AtStateFormula
  // gives unqualified atoms; qualify them against the machine peers.
  std::vector<std::string> parts;
  for (size_t m = 0; m < system.machines.size(); ++m) {
    const cfsm::CfsmMachine& machine = system.machines[m];
    const size_t target = scenario.cfsm_target[m];
    if (target != machine.initial) {
      parts.push_back(machine.name + "." +
                      cfsm::StateRelationName(target) + "()");
    } else {
      for (size_t s = 0; s < machine.num_states; ++s) {
        if (s == machine.initial) continue;
        parts.push_back("not " + machine.name + "." +
                        cfsm::StateRelationName(s) + "()");
      }
    }
  }
  std::string conj;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) conj += " and ";
    conj += parts[i];
  }
  scenario.property = "G(not (" + conj + "))";
  // Protocol leg: LTL over channel names, data-agnostic (Example 4.1 shape).
  static const std::vector<std::string> kProtocols = {
      "G(c0 -> F c1)", "G(c1 -> F c0)", "not F c1", "F c0"};
  scenario.protocol_ltl = rng.Pick(kProtocols);

  Result<spec::Composition> embedded = cfsm::EmbedAsComposition(system);
  WSV_RETURN_IF_ERROR(embedded.status());
  scenario.spec_text = spec::PrintComposition(embedded.value());
  scenario.cfsm_system = std::move(system);
  return scenario;
}

}  // namespace

const char* RegimeName(Regime regime) {
  return kRegimeNames[static_cast<size_t>(regime)];
}

std::optional<Regime> RegimeFromName(const std::string& name) {
  for (size_t i = 0; i < kNumRegimes; ++i) {
    if (name == kRegimeNames[i]) return static_cast<Regime>(i);
  }
  return std::nullopt;
}

std::vector<Regime> AllRegimes() {
  std::vector<Regime> regimes;
  for (size_t i = 0; i < kNumRegimes; ++i) {
    regimes.push_back(static_cast<Regime>(i));
  }
  return regimes;
}

std::string Dials::ToString() const {
  std::ostringstream out;
  out << "peers=" << num_peers << " consts=" << num_constants
      << " rules=" << max_extra_rules << " fresh=" << fresh
      << " qb=" << queue_bound;
  return out.str();
}

Result<Scenario> GenerateScenario(const GenOptions& options) {
  Rng rng(Rng::DeriveSeed(options.seed,
                          static_cast<uint64_t>(options.regime) + 1));
  Result<Scenario> generated =
      options.regime == Regime::kCfsm ? GenerateCfsmScenario(rng, options)
                                      : GenerateChainScenario(rng, options);
  WSV_RETURN_IF_ERROR(generated.status());
  Scenario scenario = std::move(generated).value();

  std::ostringstream name;
  name << "fuzz_" << RegimeName(options.regime) << "_" << options.seed;
  scenario.name = name.str();

  // The printer is the generator's only output path: every leg re-parses
  // spec_text, so parse(print(comp)) must be a fixpoint. A mismatch is a
  // printer/parser asymmetry, i.e. a bug worth failing loudly over.
  Result<Composition> reparsed = spec::ParseComposition(scenario.spec_text);
  if (!reparsed.ok()) {
    return Status(StatusCode::kInternal,
                  "generated spec does not re-parse: " +
                      reparsed.status().message() + "\n" + scenario.spec_text);
  }
  std::string reprinted = spec::PrintComposition(reparsed.value());
  if (reprinted != scenario.spec_text) {
    return Status(StatusCode::kInternal,
                  "print/parse round-trip not a fixpoint:\n--- printed\n" +
                      scenario.spec_text + "\n--- reprinted\n" + reprinted);
  }
  return scenario;
}

}  // namespace wsv::gen
