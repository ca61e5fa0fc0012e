// The fault plane and the robustness machinery it exercises: flaky
// NETCONF transports, RPC timeouts/retries, circuit breaking, session
// close/rebind, scripted fault injection and health monitoring.
#include <gtest/gtest.h>

#include <sstream>

#include "fault/fault_plane.hpp"
#include "netconf/vnf_agent.hpp"
#include "obs/metrics.hpp"

namespace escape {
namespace {

using netconf::CircuitBreakerOptions;
using netconf::NetconfClient;
using netconf::NetconfServer;
using netconf::RpcOptions;
using netconf::TransportFaults;
using netconf::make_pipe;

// --- raw client/server robustness -----------------------------------------------

struct RobustSessionFixture : ::testing::Test {
  EventScheduler sched;
  std::shared_ptr<netconf::TransportEndpoint> server_end, client_end;
  std::unique_ptr<NetconfServer> server;
  std::unique_ptr<NetconfClient> client;

  void SetUp() override {
    auto [s, c] = make_pipe(sched, 100 * timeunit::kMicrosecond);
    server_end = s;
    client_end = c;
    server = std::make_unique<NetconfServer>(server_end);
    client = std::make_unique<NetconfClient>(client_end);
    server->register_rpc("echo",
                         [](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
                           auto reply = std::make_unique<xml::Element>("echoed");
                           reply->set_text(op.child_text("value"));
                           return reply;
                         });
    sched.run();  // hello exchange
    ASSERT_TRUE(client->established());
  }
};

TEST_F(RobustSessionFixture, RpcTimeoutNeverHangs) {
  // Outgoing frames vanish: the RPC can only end via its timeout.
  client_end->set_faults({.drop_prob = 1.0});
  Error got{"", ""};
  RpcOptions opts;
  opts.timeout = 5 * timeunit::kMillisecond;
  auto op = std::make_unique<xml::Element>("echo");
  client->rpc(std::move(op), opts, [&](Result<std::unique_ptr<xml::Element>> r) {
    ASSERT_FALSE(r.ok());
    got = r.error();
  });
  const SimTime before = sched.now();
  sched.run();
  EXPECT_EQ(got.code, "netconf.rpc.timeout");
  EXPECT_EQ(client->rpc_timeouts(), 1u);
  EXPECT_EQ(client->pending_rpcs(), 0u);
  // The failure arrived exactly at the timeout, not "eventually".
  EXPECT_LE(sched.now() - before, 6 * timeunit::kMillisecond);
}

TEST_F(RobustSessionFixture, FlakyTransportRetriesUntilSuccess) {
  // 40% loss in both directions: with 6 attempts per RPC, all of them
  // should still complete -- this is the retry/backoff envelope working.
  client_end->set_faults({.drop_prob = 0.4, .seed = 11});
  server_end->set_faults({.drop_prob = 0.4, .seed = 12});
  RpcOptions opts;
  opts.timeout = 5 * timeunit::kMillisecond;
  opts.max_attempts = 6;
  opts.backoff_base = timeunit::kMillisecond;

  int ok = 0;
  constexpr int kRpcs = 20;
  for (int i = 0; i < kRpcs; ++i) {
    auto op = std::make_unique<xml::Element>("echo");
    op->add_leaf("value", std::to_string(i));
    client->rpc(std::move(op), opts, [&ok, i](Result<std::unique_ptr<xml::Element>> r) {
      ASSERT_TRUE(r.ok()) << "rpc " << i << ": " << r.error().to_string();
      EXPECT_EQ((*r)->child("echoed")->text(), std::to_string(i));
      ++ok;
    });
  }
  sched.run();
  EXPECT_EQ(ok, kRpcs);
  EXPECT_GT(client->rpc_retries(), 0u);  // the loss rate guarantees some
  EXPECT_GT(client_end->frames_dropped() + server_end->frames_dropped(), 0u);
  EXPECT_EQ(client->pending_rpcs(), 0u);
}

TEST_F(RobustSessionFixture, CorruptedFramesAreRetried) {
  client_end->set_faults({.corrupt_prob = 1.0});
  RpcOptions opts;
  opts.timeout = 2 * timeunit::kMillisecond;
  opts.max_attempts = 3;
  opts.backoff_base = timeunit::kMillisecond;
  Error got{"", ""};
  client->rpc(std::make_unique<xml::Element>("echo"), opts,
              [&](Result<std::unique_ptr<xml::Element>> r) {
                if (!r.ok()) got = r.error();
              });
  sched.run();
  // Every attempt was mangled in flight; the client gave up cleanly
  // after its attempt budget instead of hanging.
  EXPECT_EQ(got.code, "netconf.rpc.timeout");
  EXPECT_GE(client_end->frames_corrupted(), 3u);
  EXPECT_EQ(client->rpc_retries(), 2u);
}

TEST_F(RobustSessionFixture, SessionCloseFailsPendingAndFiresCallback) {
  int closed_events = 0;
  client->on_closed([&](const Error&) { ++closed_events; });
  // Park an RPC the server will never answer (agent "hangs" then dies).
  server->register_rpc("hang", [](const xml::Element&) -> Result<std::unique_ptr<xml::Element>> {
    return make_error("unreachable", "never sent");
  });
  server_end->set_faults({.drop_prob = 1.0});  // swallow the reply
  Error got{"", ""};
  client->rpc(std::make_unique<xml::Element>("hang"),
              [&](Result<std::unique_ptr<xml::Element>> r) {
                ASSERT_FALSE(r.ok());
                got = r.error();
              });
  sched.run_for(timeunit::kMillisecond);
  ASSERT_EQ(client->pending_rpcs(), 1u);

  server_end->close();  // the agent process dies
  sched.run();
  EXPECT_EQ(got.code, "netconf.session.closed");
  EXPECT_TRUE(client->session_closed());
  EXPECT_EQ(client->state(), netconf::SessionState::kClosed);
  EXPECT_EQ(closed_events, 1);
  EXPECT_EQ(client->pending_rpcs(), 0u);
}

TEST_F(RobustSessionFixture, RetryingRpcResendsAcrossRebind) {
  RpcOptions opts;
  opts.max_attempts = 10;
  opts.backoff_base = 5 * timeunit::kMillisecond;
  opts.jitter = 0.0;
  server_end->set_faults({.drop_prob = 1.0});
  opts.timeout = 2 * timeunit::kMillisecond;
  std::string got;
  auto op = std::make_unique<xml::Element>("echo");
  op->add_leaf("value", "survivor");
  client->rpc(std::move(op), opts, [&](Result<std::unique_ptr<xml::Element>> r) {
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    got = (*r)->child("echoed")->text();
  });
  sched.run_for(3 * timeunit::kMillisecond);  // first attempt times out

  // Agent crashes; a replacement comes up on a fresh pipe and the client
  // rebinds -- the pending RPC must re-send on the new session.
  server_end->close();
  auto [s2, c2] = make_pipe(sched, 100 * timeunit::kMicrosecond);
  auto server2 = std::make_unique<NetconfServer>(s2);
  server2->register_rpc("echo",
                        [](const xml::Element& op) -> Result<std::unique_ptr<xml::Element>> {
                          auto reply = std::make_unique<xml::Element>("echoed");
                          reply->set_text(op.child_text("value"));
                          return reply;
                        });
  client->rebind(c2);
  sched.run();
  EXPECT_TRUE(client->established());
  EXPECT_EQ(got, "survivor");
}

TEST_F(RobustSessionFixture, CircuitBreakerOpensThenRecovers) {
  client->set_circuit_breaker({.failure_threshold = 3, .open_for = 50 * timeunit::kMillisecond});
  client_end->set_faults({.drop_prob = 1.0});
  RpcOptions opts;
  opts.timeout = 2 * timeunit::kMillisecond;

  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    client->rpc(std::make_unique<xml::Element>("echo"), opts,
                [&](Result<std::unique_ptr<xml::Element>> r) { failures += !r.ok(); });
    sched.run();
  }
  EXPECT_EQ(failures, 3);
  EXPECT_TRUE(client->circuit_open());

  // While open: immediate fail-fast, no frame even attempted.
  const std::uint64_t sent_before = client_end->bytes_sent();
  Error fast{"", ""};
  client->rpc(std::make_unique<xml::Element>("echo"), opts,
              [&](Result<std::unique_ptr<xml::Element>> r) { fast = r.error(); });
  EXPECT_EQ(fast.code, "netconf.circuit-open");
  EXPECT_EQ(client_end->bytes_sent(), sent_before);

  // After the cooldown the transport is healthy again: the half-open
  // probe goes through and closes the breaker.
  client_end->clear_faults();
  sched.run_for(60 * timeunit::kMillisecond);
  bool probed = false;
  client->rpc(std::make_unique<xml::Element>("echo"), opts,
              [&](Result<std::unique_ptr<xml::Element>> r) { probed = r.ok(); });
  sched.run();
  EXPECT_TRUE(probed);
  EXPECT_FALSE(client->circuit_open());
}

// --- environment fixture for plane-level tests ----------------------------------

fault::FaultEvent simple_event(std::string action, std::string target) {
  fault::FaultEvent e;
  e.action = std::move(action);
  e.target = std::move(target);
  return e;
}

sg::ServiceGraph monitor_graph() {
  sg::ServiceGraph g("mon");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("mon", "monitor", {}, 0.1);
  g.add_link("sap1", "mon").add_link("mon", "sap2");
  return g;
}

/// sap1 - s1 - s2 - sap2 with containers c1@s1 and c2@s2: a topology
/// with a spare container the recovery loop can re-embed onto.
void build_dual_topology(Environment& env) {
  auto& net = env.network();
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_switch("s2");
  net.add_container("c1", 1.0, 8);
  net.add_container("c2", 1.0, 8);
  netemu::LinkConfig link;
  link.bandwidth_bps = 1'000'000'000;
  link.delay = 50 * timeunit::kMicrosecond;
  ASSERT_TRUE(net.add_link("sap1", 0, "s1", 1, link).ok());
  ASSERT_TRUE(net.add_link("sap2", 0, "s2", 1, link).ok());
  ASSERT_TRUE(net.add_link("s1", 2, "s2", 2, link).ok());
  ASSERT_TRUE(net.add_link("c1", 0, "s1", 3, link).ok());
  ASSERT_TRUE(net.add_link("c2", 0, "s2", 3, link).ok());
}

// --- FaultPlane -----------------------------------------------------------------

TEST(FaultPlane, RejectsMalformedScripts) {
  Environment env;
  fault::FaultPlane plane{env};
  EXPECT_EQ(plane.load_json("[]").error().code, "fault.bad-script");
  EXPECT_EQ(plane.load_json(R"({"events": 3})").error().code, "fault.bad-script");
  EXPECT_EQ(
      plane.load_json(R"({"events": [{"at_ms": 1, "action": "explode", "target": "c1"}]})")
          .error()
          .code,
      "fault.unknown-action");
  EXPECT_EQ(
      plane.load_json(R"({"events": [{"at_ms": 1, "action": "link-down", "a": "s1"}]})")
          .error()
          .code,
      "fault.bad-event");
  EXPECT_EQ(plane.load_json(R"({"events": [{"at_ms": 1, "action": "kill-container",
                                            "target": "c1", "prob": 1.5}]})")
                .error()
                .code,
            "fault.bad-event");
  EXPECT_EQ(plane
                .load_json(
                    R"({"events": [{"at_ms": 1, "action": "of-channel-flap", "target": "s1"}]})")
                .error()
                .code,
            "fault.bad-event");  // flap needs down_ms > 0
  EXPECT_EQ(plane.load_json(R"({"events": [{"at_ms": 1, "action": "of-channel-down"}]})")
                .error()
                .code,
            "fault.bad-event");  // of-channel-* needs a target
  // A bad event anywhere rejects the whole script: nothing was armed.
  EXPECT_EQ(plane.scheduled(), 0u);
  EXPECT_EQ(plane.injections(), 0u);
}

TEST(FaultPlane, OfChannelActionsRejectUnknownSwitch) {
  Environment env;
  build_dual_topology(env);
  ASSERT_TRUE(env.start().ok());
  fault::FaultPlane plane{env};
  fault::FaultEvent event;
  event.action = "of-channel-down";
  event.target = "nope";
  auto s = plane.apply(event);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "escape.unknown-switch");
  EXPECT_EQ(plane.injections(), 0u);
}

TEST(FaultPlane, ScriptedOfChannelActionsDriveControlPlane) {
  Environment env;
  build_dual_topology(env);
  ASSERT_TRUE(env.start().ok());
  const auto dpid1 = env.network().switch_node("s1")->dpid();
  const auto dpid2 = env.network().switch_node("s2")->dpid();
  fault::FaultPlane plane{env};
  ASSERT_TRUE(plane
                  .load_json(R"({"events": [
                    {"at_ms": 5, "action": "of-channel-down", "target": "s1"},
                    {"at_ms": 10, "action": "of-channel-up", "target": "s1"},
                    {"at_ms": 15, "action": "of-channel-flap", "target": "s2",
                     "down_ms": 10},
                    {"at_ms": 20, "action": "of-channel-faults", "target": "s1",
                     "drop_prob": 0.5, "extra_delay_ms": 1, "fault_seed": 7},
                    {"at_ms": 30, "action": "of-channel-faults-clear", "target": "s1"},
                    {"at_ms": 35, "action": "switch-restart", "target": "s2"}
                  ]})")
                  .ok());

  env.run_for(7 * timeunit::kMillisecond);  // t = 7 ms
  EXPECT_FALSE(env.controller().channel_admin_up(dpid1));
  EXPECT_TRUE(env.controller().channel_admin_up(dpid2));

  env.run_for(5 * timeunit::kMillisecond);  // t = 12 ms
  EXPECT_TRUE(env.controller().channel_admin_up(dpid1));

  env.run_for(8 * timeunit::kMillisecond);  // t = 20 ms: mid-flap on s2
  EXPECT_FALSE(env.controller().channel_admin_up(dpid2));

  env.run_for(10 * timeunit::kMillisecond);  // t = 30 ms: flap restored
  EXPECT_TRUE(env.controller().channel_admin_up(dpid2));

  env.run_for(10 * timeunit::kMillisecond);  // t = 40 ms: restart fired
  EXPECT_EQ(plane.injections(), 6u);
}

TEST(FaultPlane, ScriptedKillAndLinkFlapFireAtVirtualTime) {
  Environment env;
  build_dual_topology(env);
  ASSERT_TRUE(env.start().ok());
  fault::FaultPlane plane{env};
  ASSERT_TRUE(plane
                  .load_json(R"({"events": [
                    {"at_ms": 10, "action": "kill-container", "target": "c1"},
                    {"at_ms": 15, "action": "link-down", "a": "s1", "b": "s2"},
                    {"at_ms": 25, "action": "link-up", "a": "s1", "b": "s2"}
                  ]})")
                  .ok());
  env.run_for(5 * timeunit::kMillisecond);
  EXPECT_TRUE(env.container("c1")->alive());  // not yet

  env.run_for(7 * timeunit::kMillisecond);  // t = 12 ms
  EXPECT_FALSE(env.container("c1")->alive());
  EXPECT_TRUE(env.network().find_link("s1", "s2")->up());

  env.run_for(8 * timeunit::kMillisecond);  // t = 20 ms
  EXPECT_FALSE(env.network().find_link("s1", "s2")->up());

  env.run_for(10 * timeunit::kMillisecond);  // t = 30 ms
  EXPECT_TRUE(env.network().find_link("s1", "s2")->up());
  EXPECT_EQ(plane.injections(), 3u);
}

TEST(FaultPlane, ProbabilityGateIsDeterministic) {
  Environment env;
  build_dual_topology(env);
  ASSERT_TRUE(env.start().ok());
  fault::FaultPlane plane{env, /*seed=*/7};
  fault::FaultEvent flap;
  flap.at = timeunit::kMillisecond;
  flap.action = "link-down";
  flap.a = "s1";
  flap.b = "s2";
  flap.prob = 0.5;
  flap.repeat = timeunit::kMillisecond;
  flap.count = 16;
  ASSERT_TRUE(plane.schedule(flap).ok());
  env.run_for(20 * timeunit::kMillisecond);
  // With p=0.5 over 16 occurrences, some fire and some are gated; the
  // seeded RNG makes the exact count stable run to run.
  EXPECT_GT(plane.injections(), 0u);
  EXPECT_LT(plane.injections(), 16u);
}

TEST(FaultPlane, RestoreContainerRespawnsAgentAndSession) {
  Environment env;
  build_dual_topology(env);
  ASSERT_TRUE(env.start().ok());
  fault::FaultPlane plane{env};
  ASSERT_TRUE(plane.apply(simple_event("kill-container", "c1")).ok());
  env.run_for(timeunit::kMillisecond);
  EXPECT_FALSE(env.container("c1")->alive());
  EXPECT_TRUE(env.agent_client("c1")->session().session_closed());

  ASSERT_TRUE(plane.apply(simple_event("restore-container", "c1")).ok());
  env.run_for(timeunit::kMillisecond);
  EXPECT_TRUE(env.container("c1")->alive());
  EXPECT_TRUE(env.agent_client("c1")->session().established());
  // The restored (empty) container is manageable again end to end.
  bool ok = false;
  env.agent_client("c1")->initiate_vnf("v", "monitor", "cnt :: Counter;", 0.1,
                                       [&](Status s) { ok = s.ok(); });
  env.run_for(timeunit::kMillisecond);
  EXPECT_TRUE(ok);
}

TEST(FaultPlane, NetconfFaultProfileCountsFrames) {
  Environment env;
  build_dual_topology(env);
  ASSERT_TRUE(env.start().ok());
  fault::FaultPlane plane{env};
  fault::FaultEvent ev;
  ev.action = "netconf-faults";
  ev.target = "c1";
  ev.faults.drop_prob = 1.0;
  ASSERT_TRUE(plane.apply(ev).ok());

  // Probing the faulted agent with a timeout fails instead of hanging.
  auto* client = env.agent_client("c1");
  netconf::RpcOptions opts;
  opts.timeout = 5 * timeunit::kMillisecond;
  Error got{"", ""};
  client->session().rpc(std::make_unique<xml::Element>("get"), opts,
                        [&](Result<std::unique_ptr<xml::Element>> r) {
                          if (!r.ok()) got = r.error();
                        });
  env.run_for(10 * timeunit::kMillisecond);
  EXPECT_EQ(got.code, "netconf.rpc.timeout");

  ASSERT_TRUE(plane.apply(simple_event("netconf-faults-clear", "c1")).ok());
  bool ok = false;
  client->session().rpc(std::make_unique<xml::Element>("get"), opts,
                        [&](Result<std::unique_ptr<xml::Element>> r) { ok = r.ok(); });
  env.run_for(10 * timeunit::kMillisecond);
  EXPECT_TRUE(ok);
}

// --- health monitor + self-healing ----------------------------------------------

TEST(SelfHealing, HealthMonitorMarksCrashedAgentDownThenUp) {
  Environment env;
  build_dual_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());
  auto* health = env.health_monitor();
  ASSERT_NE(health, nullptr);
  EXPECT_TRUE(health->agent_healthy("c1"));

  ASSERT_TRUE(env.crash_agent("c1").ok());
  env.run_for(5 * timeunit::kMillisecond);  // session close propagates
  EXPECT_FALSE(health->agent_healthy("c1"));
  EXPECT_EQ(health->agents_down(), 1u);

  ASSERT_TRUE(env.respawn_agent("c1").ok());
  env.run_for(200 * timeunit::kMillisecond);  // next probe succeeds
  EXPECT_TRUE(health->agent_healthy("c1"));
  EXPECT_EQ(health->agents_down(), 0u);
}

TEST(SelfHealing, KilledContainerChainIsReembedded) {
  Environment env;
  build_dual_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  ASSERT_EQ(env.deployment(*chain)->record.mapping.placements.at("mon"), "c1");

  auto& histogram = obs::MetricsRegistry::global().histogram("escape_recovery_latency_ms");
  const std::size_t recoveries_before = histogram.count();

  const SimTime killed_at = env.scheduler().now();
  ASSERT_TRUE(env.kill_container("c1").ok());
  env.run_for(500 * timeunit::kMillisecond);

  // The chain went DEGRADED -> RECOVERING -> ACTIVE on the survivor.
  ASSERT_TRUE(env.chain_state(*chain).ok());
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  EXPECT_EQ(env.deployment(*chain)->record.mapping.placements.at("mon"), "c2");

  // Recovery latency is observable and bounded (well under the window).
  ASSERT_EQ(histogram.count(), recoveries_before + 1);
  EXPECT_GT(histogram.max(), 0.0);
  EXPECT_LT(histogram.max(),
            static_cast<double>(env.scheduler().now() - killed_at) / timeunit::kMillisecond);
  EXPECT_LT(histogram.max(), 200.0);
  EXPECT_GE(
      obs::MetricsRegistry::global().counter("escape_recovery_total", {{"result", "ok"}}).value(),
      1u);
}

// Regression: a multi-VNF chain re-embeds cleanly. The recovery path
// hands the engine a temporary rendered-config vector; the second VNF's
// bring-up runs from a scheduler callback after that temporary is gone,
// which once dereferenced a dangling pointer (caught by ASan).
TEST(SelfHealing, KilledContainerMultiVnfChainIsReembedded) {
  Environment env;
  build_dual_topology(env);
  ASSERT_TRUE(env.start().ok());
  ASSERT_TRUE(env.enable_self_healing().ok());

  sg::ServiceGraph g("mon-fw");
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("mon", "monitor", {}, 0.1);
  g.add_vnf("fw", "firewall", {}, 0.2);
  g.add_link("sap1", "mon").add_link("mon", "fw").add_link("fw", "sap2");
  auto chain = env.deploy(g);
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  const auto& placements = env.deployment(*chain)->record.mapping.placements;
  ASSERT_EQ(placements.at("mon"), "c1");
  ASSERT_EQ(placements.at("fw"), "c1");

  ASSERT_TRUE(env.kill_container("c1").ok());
  env.run_for(500 * timeunit::kMillisecond);

  ASSERT_TRUE(env.chain_state(*chain).ok());
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
  const auto& moved = env.deployment(*chain)->record.mapping.placements;
  EXPECT_EQ(moved.at("mon"), "c2");
  EXPECT_EQ(moved.at("fw"), "c2");
}

/// The rendered value of one series ("" when it is not exported).
std::string rendered(const std::string& series) {
  std::istringstream lines(obs::MetricsRegistry::global().render_text());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(series + " ", 0) == 0) return line.substr(series.size() + 1);
  }
  return "";
}

/// One container behind one switch: killing c1 leaves a chain nowhere
/// to go.
void build_single_container(Environment& env) {
  auto& net = env.network();
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_container("c1", 1.0, 8);
  netemu::LinkConfig link;
  link.bandwidth_bps = 1'000'000'000;
  link.delay = 50 * timeunit::kMicrosecond;
  ASSERT_TRUE(net.add_link("sap1", 0, "s1", 1, link).ok());
  ASSERT_TRUE(net.add_link("sap2", 0, "s1", 2, link).ok());
  ASSERT_TRUE(net.add_link("c1", 0, "s1", 3, link).ok());
  ASSERT_TRUE(env.start().ok());
}

TEST(SelfHealing, RecoveryFailsCleanlyWithNoSpareCapacity) {
  Environment env;
  build_single_container(env);
  RecoveryOptions recovery;
  recovery.max_recovery_attempts = 2;
  recovery.retry_delay = 20 * timeunit::kMillisecond;
  ASSERT_TRUE(env.enable_self_healing(recovery).ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();

  ASSERT_TRUE(env.kill_container("c1").ok());
  env.run_for(timeunit::kSecond);
  // Nowhere to go: the chain ends FAILED after its attempt budget, and
  // the environment is still responsive (no hang, no crash).
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kFailed);
  EXPECT_GE(obs::MetricsRegistry::global()
                .counter("escape_recovery_total", {{"result", "failed"}})
                .value(),
            1u);

  // Restoring the container brings fresh capacity: the failed chain is
  // re-queued and comes back without operator intervention.
  ASSERT_TRUE(env.restore_container("c1").ok());
  env.run_for(timeunit::kSecond);
  EXPECT_EQ(*env.chain_state(*chain), ChainState::kActive);
}

// The degraded gauge is computed from the chain states, so a FAILED
// chain stops counting the moment it is undeployed.
TEST(SelfHealing, UndeployingAFailedChainClearsTheDegradedGauge) {
  Environment env;
  build_single_container(env);
  RecoveryOptions recovery;
  recovery.max_recovery_attempts = 2;
  recovery.retry_delay = 20 * timeunit::kMillisecond;
  ASSERT_TRUE(env.enable_self_healing(recovery).ok());
  auto chain = env.deploy(monitor_graph());
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  EXPECT_EQ(rendered("escape_chains_degraded"), "0");

  ASSERT_TRUE(env.kill_container("c1").ok());
  env.run_for(timeunit::kSecond);
  ASSERT_EQ(*env.chain_state(*chain), ChainState::kFailed);
  EXPECT_EQ(rendered("escape_chains_degraded"), "1");

  ASSERT_TRUE(env.undeploy(*chain).ok());
  EXPECT_EQ(rendered("escape_chains_degraded"), "0");
}

}  // namespace
}  // namespace escape
