/**
 * @file
 * The built-in invariant rules (see DESIGN.md "Invariant checking layer"):
 *
 *  - privilege:        Hyp-only registers touched only from Hyp mode
 *  - ws-pairing:       world-switch save/restore ledger symmetry (Table 1)
 *  - stage2-isolation: no cross-VM or hyp-region Stage-2 mappings
 *  - trap-config:      guest entry trap set + Stage-2 enable discipline
 *  - vgic:             list-register uniqueness, genuine maintenance IRQs
 *  - ring-order:       gapless, monotonic inter-VM ring message order
 *
 * To add a rule: subclass InvariantRule, override the hooks you need, and
 * either append it in builtinRules() or install it at runtime with
 * InvariantEngine::addRule(). The engine sends a rule only the events of
 * the hooks it overrides.
 */

#ifndef KVMARM_CHECK_RULES_HH
#define KVMARM_CHECK_RULES_HH

#include <memory>
#include <vector>

#include "check/invariants.hh"

namespace kvmarm::check {

/** Construct one instance of every built-in rule. */
std::vector<std::unique_ptr<InvariantRule>> builtinRules();

} // namespace kvmarm::check

#endif // KVMARM_CHECK_RULES_HH
