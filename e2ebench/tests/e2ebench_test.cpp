// Tests of the benchmark's own code: seeded inputs, output checks, the
// counting allocator, span self time and the host-speed reference task.
#include <gtest/gtest.h>

#include <memory>

#include "checks.hpp"
#include "inputs.hpp"
#include "probe.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace escape::e2e {
namespace {

TEST(Inputs, SameSeedSameInputs) {
  EXPECT_EQ(fwd_inputs(7), fwd_inputs(7));
  EXPECT_EQ(churn_inputs(7), churn_inputs(7));
  for (auto w : kWorkloads) {
    EXPECT_EQ(inputs_digest(w, 7), inputs_digest(w, 7)) << w;
    EXPECT_NE(inputs_digest(w, 7), inputs_digest(w, 8)) << w;
  }
}

TEST(Inputs, FixedWorkPerSeed) {
  // The amount of work must not depend on the seed, only its shape.
  EXPECT_EQ(fwd_inputs(1).chains.size(), 7u);
  EXPECT_EQ(fwd_inputs(1).packets_per_chain, fwd_inputs(2).packets_per_chain);
  EXPECT_EQ(churn_inputs(1).lifecycles.size(), churn_inputs(2).lifecycles.size());
  EXPECT_EQ(mix_inputs(1).plan.arrivals.size(), mix_inputs(2).plan.arrivals.size());
  const MixInputs mix = mix_inputs(3);
  for (const auto& fa : mix.plan.arrivals) EXPECT_LE(fa.packets, mix.max_flow_packets);
  for (const auto& lc : churn_inputs(5).lifecycles) {
    EXPECT_GE(lc.vnf_types.size(), 1u);
    EXPECT_LE(lc.vnf_types.size(), 3u);
    if (lc.scale) {
      EXPECT_EQ(lc.vnf_types, std::vector<std::string>{"flow_nat"});
    }
  }
}

ChainCount good_chain() {
  return ChainCount{"c0", 100, 100, {{"v0 in0", 100}, {"v0 out0", 100}}};
}

TEST(Checks, ChainFwdAcceptsExactCounts) { EXPECT_TRUE(check_chain_fwd({good_chain()}).empty()); }

TEST(Checks, ChainFwdRejectsDoctoredCounts) {
  auto lost = good_chain();
  lost.delivered = 99;
  EXPECT_EQ(check_chain_fwd({lost}).size(), 1u);
  auto click = good_chain();
  click.click[1].second = 101;
  EXPECT_EQ(check_chain_fwd({click}).size(), 1u);
  auto unread = good_chain();
  unread.click.clear();
  EXPECT_EQ(check_chain_fwd({unread}).size(), 1u);
  EXPECT_FALSE(check_chain_fwd({}).empty());
}

TEST(Checks, FattreeMixAccounting) {
  Accounting acc{1000, 300, 5, 690, 5};
  EXPECT_EQ(acc.unattributed(), 0);
  EXPECT_TRUE(check_fattree_mix(acc, 0).empty());

  Accounting doubled = acc;
  doubled.delivered += 1;  // one packet counted twice
  EXPECT_EQ(doubled.unattributed(), -1);
  EXPECT_EQ(check_fattree_mix(doubled, 0).size(), 1u);

  Accounting lost = acc;
  lost.packet_ins -= 2;  // two packets nobody counted
  EXPECT_EQ(lost.unattributed(), 2);
  EXPECT_EQ(check_fattree_mix(lost, 0).size(), 1u);
  EXPECT_TRUE(check_fattree_mix(lost, 2).empty());
}

TEST(Checks, DigestMustMatch) {
  EXPECT_TRUE(check_digest(42, 42).empty());
  EXPECT_EQ(check_digest(42, 43).size(), 1u);
}

TEST(Checks, ChurnEndState) {
  EXPECT_TRUE(check_chain_churn(32, 32, {}).empty());
  EXPECT_EQ(check_chain_churn(32, 31, {}).size(), 1u);
  EXPECT_EQ(check_chain_churn(32, 32, TeardownState{1, 0, {}}).size(), 1u);
  EXPECT_EQ(check_chain_churn(32, 32, TeardownState{0, 1, {}}).size(), 1u);
  EXPECT_EQ(check_chain_churn(32, 32, TeardownState{0, 0, {"c1 cpu"}}).size(), 1u);
}

TEST(Probe, CountingAllocatorCountsOnlyWhenOn) {
  const AllocCounts a = alloc_counts();
  auto p = std::make_unique<int>(1);
  EXPECT_EQ(alloc_counts().calls, a.calls);
  set_alloc_counting(true);
  auto q = std::make_unique<std::uint64_t[]>(16);
  set_alloc_counting(false);
  const AllocCounts b = alloc_counts();
  EXPECT_EQ(b.calls, a.calls + 1);
  EXPECT_GE(b.bytes, a.bytes + 16 * sizeof(std::uint64_t));
}

TEST(Probe, SpanSelfTimeExcludesChildren) {
  SpanRecorder rec(true);
  {
    ScopedSpan parent(rec, "parent", 3);
    ScopedSpan child(rec, "child");
  }
  const auto spans = rec.to_json();
  ASSERT_EQ(spans.as_array().size(), 2u);
  const auto& parent = spans[std::size_t{0}];
  const auto& child = spans[std::size_t{1}];
  EXPECT_EQ(child["parent"].as_int(), 0);
  EXPECT_EQ(child["lifecycle"].as_int(), 3);  // inherited from the parent
  EXPECT_EQ(parent["self_ns"].as_int(), parent["dur_ns"].as_int() - child["dur_ns"].as_int());
  EXPECT_TRUE(SpanRecorder(false).to_json().as_array().empty());
}

TEST(Probe, NearestRankPercentile) {
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(percentile({5, 1, 3}, 50), 3.0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 50), 2.0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 100), 4.0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 0), 1.0);
}

TEST(Workloads, FattreeMixWhoseChurnOutrunsItsTraffic) {
  // Deploys pump virtual time; plan 815's churn leaves the clock past
  // the planned end of its traffic. The drain must not run to a wrapped
  // end time.
  const auto doc = run_rep(RepOptions{"fattree_mix", 815, false, {}});
  EXPECT_TRUE(doc["failures"].as_array().empty());
  EXPECT_GT(doc["sent"].as_int(), 0);
}

TEST(Reference, SameWorkOnEveryRun) {
  const ReferenceResult a = run_reference();
  const ReferenceResult b = run_reference();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, 0u);
  EXPECT_GT(a.seconds, 0.0);
  // The task allocates nothing while timed, so the emulator's allocator
  // cannot speed it up or slow it down.
  set_alloc_counting(true);
  const AllocCounts before = alloc_counts();
  run_reference();
  const AllocCounts after = alloc_counts();
  set_alloc_counting(false);
  // Set-up fills a 4096-entry flow table; the 200 000 events add nothing.
  EXPECT_LT(after.calls - before.calls, 4200u);
}

}  // namespace
}  // namespace escape::e2e
