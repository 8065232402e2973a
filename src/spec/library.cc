#include "spec/library.h"

#include "spec/library_specs.h"
#include "spec/parser.h"

namespace wsv::spec::library {

Result<Composition> LoanComposition() { return ParseComposition(kLoanSource); }

std::string LoanProperty11() {
  return "forall id, l, name, ssn: "
         "G[(Officer.apply(id, l) and Officer.customer(id, ssn, name)) -> "
         "F(Officer.letter(id, name, l, \"denied\") or "
         "Officer.letter(id, name, l, \"approved\"))]";
}

std::string LoanPropertyPolicy() {
  // Causal form of the bank policy (Example 3.2): a *fresh* approval letter
  // at the next snapshot requires, now, either an excellent rating at the
  // head of the rating queue or an approved manager decision at the head of
  // the decision queue. (The paper displays this with the B operator over
  // out-queue views; under the formal queue semantics the consumed message
  // is no longer visible in l(q) when the letter appears, so the displayed
  // form is violated by every approving run — see EXPERIMENTS.md.)
  return "forall id, name, loan: "
         "G[(X Officer.letter(id, name, loan, \"approved\")) -> "
         "(Officer.letter(id, name, loan, \"approved\") "
         "or Officer.decision(id, \"approved\") "
         "or (exists s: Officer.rating(s, \"excellent\")))]";
}

Result<Composition> OfficerOnlyComposition() {
  return ParseComposition(kOfficerOnlySource);
}

std::string OfficerEnvironmentSpec() {
  return "G forall ssn: env.getRating(ssn) -> "
         "(env.rating(ssn, \"poor\") or env.rating(ssn, \"fair\") or "
         "env.rating(ssn, \"good\") or env.rating(ssn, \"excellent\"))";
}

Result<Composition> ShopComposition(int lookback) {
  WSV_ASSIGN_OR_RETURN(Composition comp, ParseComposition(kShopSource));
  if (lookback > 1) {
    // Rebuild with the requested lookback window (peers with k-lookback,
    // Section 3.1 / Lemma 3.5).
    Composition rebuilt(comp.name());
    for (const Peer& p : comp.peers()) {
      Peer copy = p;
      copy.SetLookback(lookback);
      WSV_RETURN_IF_ERROR(rebuilt.AddPeer(std::move(copy)));
    }
    WSV_RETURN_IF_ERROR(rebuilt.Validate());
    return rebuilt;
  }
  return comp;
}

Result<Composition> BookstoreComposition() {
  return ParseComposition(kBookstoreSource);
}

Result<Composition> AirlineComposition() {
  return ParseComposition(kAirlineSource);
}

Result<Composition> MotoGpComposition() {
  return ParseComposition(kMotoGpSource);
}

}  // namespace wsv::spec::library
