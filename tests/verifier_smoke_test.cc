#include <gtest/gtest.h>

#include "ltl/property.h"
#include "spec/parser.h"
#include "verifier/validate.h"
#include "verifier/verifier.h"

namespace wsv::verifier {
namespace {

constexpr char kShopSpec[] = R"(
peer Shop {
  database { item(id); }
  input    { pick(id); }
  state    { chosen(id); }
  action   { ship(id); }
  rules {
    options pick(x) :- item(x);
    insert chosen(x) :- pick(x);
    action ship(x) :- pick(x);
  }
}
)";

class ShopVerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto comp = spec::ParseComposition(kShopSpec);
    ASSERT_TRUE(comp.ok()) << comp.status();
    comp_ = std::make_unique<spec::Composition>(std::move(*comp));
  }

  VerificationResult Check(const std::string& property_text,
                           size_t fresh_domain = 1) {
    auto property = ltl::Property::Parse(property_text);
    EXPECT_TRUE(property.ok()) << property.status();
    VerifierOptions options;
    options.fresh_domain_size = fresh_domain;
    Verifier verifier(comp_.get(), options);
    auto result = verifier.Verify(*property);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(*result);
  }

  std::unique_ptr<spec::Composition> comp_;
};

TEST_F(ShopVerifyTest, RegimeIsDecidable) {
  auto property = ltl::Property::Parse("G true");
  ASSERT_TRUE(property.ok());
  Verifier verifier(comp_.get());
  EXPECT_TRUE(verifier.CheckDecidableRegime(*property).ok());
}

TEST_F(ShopVerifyTest, PickLeadsToChosenNextStep) {
  VerificationResult r =
      Check("forall x: G(Shop.pick(x) -> X Shop.chosen(x))");
  EXPECT_TRUE(r.holds) << (r.counterexample.has_value() ? "found cex" : "");
  EXPECT_TRUE(r.regime.ok()) << r.regime;
}

TEST_F(ShopVerifyTest, ChosenPersistsForever) {
  VerificationResult r =
      Check("forall x: G(Shop.chosen(x) -> G Shop.chosen(x))");
  EXPECT_TRUE(r.holds);
}

TEST_F(ShopVerifyTest, ChosenComesOnlyFromItems) {
  VerificationResult r = Check(
      "forall x: G(Shop.chosen(x) -> exists y: Shop.item(y) and x = y)");
  EXPECT_TRUE(r.holds);
}

TEST_F(ShopVerifyTest, SomethingCanBeChosen) {
  // "Nothing is ever chosen" must be refuted: some database and run chooses.
  VerificationResult r = Check("forall x: G(not Shop.chosen(x))");
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_FALSE(r.counterexample->lasso.prefix.empty());
  EXPECT_FALSE(r.counterexample->lasso.cycle.empty());
}

TEST_F(ShopVerifyTest, NoLivenessWithoutUserCooperation) {
  // The user may never pick an available item: eventuality fails.
  VerificationResult r = Check("forall x: G(Shop.item(x) -> F Shop.pick(x))");
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
}

TEST_F(ShopVerifyTest, UnboundPropertyVariableIsRejectedUpFront) {
  // `x` is free in the leaf but not a closure variable: rejected by the
  // property check, before any database is enumerated.
  auto unbound = ltl::Property::Parse("G(not Shop.chosen(x))");
  ASSERT_TRUE(unbound.ok()) << unbound.status();
  Status status = ValidateProperty(*comp_, *unbound);
  EXPECT_EQ(status.code(), StatusCode::kInvalidSpec) << status;
  EXPECT_NE(status.message().find("'x'"), std::string::npos) << status;
  EXPECT_NE(status.message().find("forall x: "), std::string::npos) << status;

  Verifier verifier(comp_.get());
  auto result = verifier.Verify(*unbound);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidSpec);

  auto closed = ltl::Property::Parse("forall x: G(not Shop.chosen(x))");
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_TRUE(ValidateProperty(*comp_, *closed).ok());
}

TEST_F(ShopVerifyTest, ShipHappensExactlyAfterPick) {
  VerificationResult r =
      Check("forall x: G(Shop.pick(x) -> X Shop.ship(x))");
  EXPECT_TRUE(r.holds);
}

TEST_F(ShopVerifyTest, ShipRequiresPriorPick) {
  // ship is recomputed each step, so ship(x) without a pick(x) in the
  // previous configuration is impossible; approximate with: ship implies
  // chosen (both derive from the same pick).
  VerificationResult r = Check("forall x: G(Shop.ship(x) -> Shop.chosen(x))");
  EXPECT_TRUE(r.holds);
}

constexpr char kPipelineSpec[] = R"(
peer Sender {
  database { msg(v); }
  input    { go(v); }
  outqueue flat { chan(v); }
  rules {
    options go(v) :- msg(v);
    send chan(v) :- go(v);
  }
}
peer Receiver {
  state { got(v); }
  inqueue flat { chan(v); }
  rules {
    insert got(v) :- ?chan(v);
  }
}
)";

class PipelineVerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto comp = spec::ParseComposition(kPipelineSpec);
    ASSERT_TRUE(comp.ok()) << comp.status();
    comp_ = std::make_unique<spec::Composition>(std::move(*comp));
  }

  VerificationResult Check(const std::string& property_text) {
    auto property = ltl::Property::Parse(property_text);
    EXPECT_TRUE(property.ok()) << property.status();
    VerifierOptions options;
    options.fresh_domain_size = 1;
    Verifier verifier(comp_.get(), options);
    auto result = verifier.Verify(*property);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(*result);
  }

  std::unique_ptr<spec::Composition> comp_;
};

TEST_F(PipelineVerifyTest, CompositionIsClosed) {
  EXPECT_TRUE(comp_->IsClosed());
  ASSERT_EQ(comp_->channels().size(), 1u);
  EXPECT_EQ(comp_->channels()[0].name, "chan");
}

TEST_F(PipelineVerifyTest, ReceivedValuesComeFromSenderDatabase) {
  VerificationResult r = Check(
      "forall v: G(Receiver.got(v) -> exists w: Sender.msg(w) and v = w)");
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.regime.ok()) << r.regime;
}

TEST_F(PipelineVerifyTest, MessageCanArrive) {
  VerificationResult r = Check("forall v: G(not Receiver.got(v))");
  EXPECT_FALSE(r.holds);
  ASSERT_TRUE(r.counterexample.has_value());
}

TEST_F(PipelineVerifyTest, NoDeliveryGuaranteeUnderLossAndNoFairness) {
  // Serialized runs have no fairness: the receiver may never be scheduled,
  // and lossy channels may drop everything (cf. the discussion of lossy
  // semantics, Section 2).
  VerificationResult r =
      Check("forall v: G(Sender.chan(v) -> F Receiver.got(v))");
  EXPECT_FALSE(r.holds);
}

TEST_F(PipelineVerifyTest, QueueStateReflectsChannel) {
  // Whenever the queue is non-empty, its head was a sender message value.
  VerificationResult r = Check(
      "G(not Receiver.empty_chan -> exists v: Receiver.chan(v) and "
      "(exists w: Sender.msg(w) and v = w))");
  EXPECT_TRUE(r.holds);
}

}  // namespace
}  // namespace wsv::verifier
