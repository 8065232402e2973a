#ifndef WSVERIFY_SPEC_LIBRARY_H_
#define WSVERIFY_SPEC_LIBRARY_H_

#include <string>

#include "common/status.h"
#include "spec/composition.h"

namespace wsv::spec::library {

/// The paper's running example (Figure 1, Example 2.2): the bank loan
/// application composition with peers Customer, Officer, Manager and
/// CreditAgency, communicating over the channels apply, getRating, rating,
/// getHistory, history, recommend and decision. The Officer's rules are the
/// paper's rules (1)-(10); the other peers are reconstructed from the
/// prose (their specifications are not given in the paper) under the
/// input-boundedness discipline of Section 3.1.
Result<Composition> LoanComposition();

/// Property (11): every received application from a known customer
/// eventually results in an approval or denial letter.
std::string LoanProperty11();

/// The safety side of the bank policy (Example 3.2, second property):
/// approval letters only after an excellent rating or a manager approval.
std::string LoanPropertyPolicy();

/// The officer peer alone, as an *open* composition (Section 5): channels
/// apply, getRating/rating, getHistory/history, recommend/decision face the
/// environment.
Result<Composition> OfficerOnlyComposition();

/// Example 5.1's environment specification: the credit agency answers
/// rating requests with one of the four categories.
std::string OfficerEnvironmentSpec();

/// A single-peer e-commerce site in the spirit of the Dell-like computer
/// shop modeled with WAVE [11]: catalog browsing, cart, order placement and
/// shipment actions. No queues — the degenerate case of Lemma 3.5.
Result<Composition> ShopComposition(int lookback = 1);

/// An online bookstore composition (Barnes&Noble-like, per Section 3.1's
/// modeling claims): a storefront peer and a warehouse peer exchanging
/// order / pickList / shipped messages.
Result<Composition> BookstoreComposition();

/// An airline-reservation composition (Expedia-like, per Section 3.1's
/// modeling claims): a travel front-end searching flights and holding
/// seats against an airline inventory peer.
Result<Composition> AirlineComposition();

/// The Motorcycle Grand Prix fan site (the fourth WAVE-modeled site,
/// Section 3.1): a single peer with race browsing, rider following and a
/// previous-input-driven poll.
Result<Composition> MotoGpComposition();

}  // namespace wsv::spec::library

#endif  // WSVERIFY_SPEC_LIBRARY_H_
