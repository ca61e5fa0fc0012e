// The chaos exploration machinery: fault-point recording and injection,
// the lifecycle explorer (determinism across thread counts, capped
// sweeps), pinned regression schedules for bugs the explorer found, and
// robustness corners the explorer exercises (idempotent teardown over a
// dead container, circuit-breaker half-open probe expiry).
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "chaos/explorer.hpp"
#include "chaos/scenario.hpp"
#include "net/headers.hpp"
#include "netconf/session.hpp"
#include "util/sharded_event.hpp"

namespace escape {
namespace {

using chaos::ChaosExplorer;
using chaos::Episode;
using chaos::ExplorerOptions;
using chaos::FaultInjector;
using chaos::FaultKind;
using chaos::FaultSchedule;
using chaos::FaultSpec;
using chaos::LifecycleScenarioOptions;
using chaos::SiteContext;
using chaos::TraceEntry;

// --- fault points ---------------------------------------------------------------

TEST(FaultPoint, NoActiveInjectorIsANoOp) {
  ASSERT_EQ(FaultInjector::active(), nullptr);
  const chaos::Decision d = chaos::hit("any.site", chaos::kCanDrop, {});
  EXPECT_TRUE(d.none());
}

TEST(FaultPoint, RecordModeCountsPerSiteOccurrences) {
  FaultInjector rec;
  rec.start_recording();
  FaultInjector* prev = FaultInjector::activate(&rec);
  chaos::hit("alpha", chaos::kCanDrop, {});
  chaos::hit("alpha", chaos::kCanDrop | chaos::kCanDelay, {});
  chaos::hit("beta", chaos::kCanCrash, SiteContext::of_container("c1", 7));
  FaultInjector::activate(prev);

  const std::vector<TraceEntry>& trace = rec.trace();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].site, "alpha");
  EXPECT_EQ(trace[0].occurrence, 0u);
  EXPECT_EQ(trace[1].site, "alpha");
  EXPECT_EQ(trace[1].occurrence, 1u);
  EXPECT_EQ(trace[1].caps, chaos::kCanDrop | chaos::kCanDelay);
  EXPECT_EQ(trace[2].site, "beta");
  EXPECT_EQ(trace[2].occurrence, 0u);
  EXPECT_EQ(trace[2].container, "c1");
  EXPECT_EQ(trace[2].chain_id, 7u);
  EXPECT_EQ(rec.hits(), 3u);
}

TEST(FaultPoint, ArmedSpecFiresOnceAtItsOccurrence) {
  FaultInjector inj;
  inj.arm({FaultSpec{"alpha", 1, FaultKind::kDrop, 0}});
  FaultInjector* prev = FaultInjector::activate(&inj);
  EXPECT_TRUE(chaos::hit("alpha", chaos::kCanDrop, {}).none());
  EXPECT_TRUE(chaos::hit("alpha", chaos::kCanDrop, {}).drop());
  EXPECT_TRUE(chaos::hit("alpha", chaos::kCanDrop, {}).none());  // one-shot
  FaultInjector::activate(prev);
  EXPECT_EQ(inj.fired(), 1u);
}

TEST(FaultPoint, ScheduleJsonRoundTrips) {
  FaultSchedule schedule;
  schedule.push_back({"deploy.rpc", 3, FaultKind::kCrash, 0});
  schedule.push_back({"steering.install", 0, FaultKind::kDelay, 3 * timeunit::kMillisecond});
  const std::string json = chaos::schedule_to_json(schedule, "note with \"quotes\"");
  auto parsed = chaos::schedule_from_json(json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].site, "deploy.rpc");
  EXPECT_EQ((*parsed)[0].occurrence, 3u);
  EXPECT_EQ((*parsed)[0].kind, FaultKind::kCrash);
  EXPECT_EQ((*parsed)[1].site, "steering.install");
  EXPECT_EQ((*parsed)[1].kind, FaultKind::kDelay);
  EXPECT_EQ((*parsed)[1].delay, 3 * timeunit::kMillisecond);
}

// --- pinned regression schedules ------------------------------------------------

std::string read_data_file(const std::string& name) {
  std::ifstream in(std::string(CHAOS_DATA_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Schedules under tests/data/chaos/ are minimized reproducers of real
/// bugs the explorer found (and this PR fixed): a reservation leak when
/// a crash interrupts the recovery re-embed, a scheduler clock-drift
/// abort on post-crash re-deploys, and steering rules stranded by a
/// dropped old-generation teardown whose id a recovery later reclaims,
/// and a NAT pool polluted by a migrated-in foreign-range port (a
/// depth-2 pair find). Each must replay with zero invariant violations
/// forever after.
TEST(ChaosRegression, PinnedSchedulesReplayClean) {
  const char* pinned[] = {
      "nat-foreign-port-pool-pair.json",
      "recovery-ledger-leak-deploy-crash.json",
      "scheduler-clamp-deploy-crash.json",
      "steering-strand-teardown-drop.json",
  };
  ChaosExplorer explorer(chaos::lifecycle_scenario(), ExplorerOptions{});
  for (const char* name : pinned) {
    const std::string text = read_data_file(name);
    ASSERT_FALSE(text.empty()) << name;
    auto schedule = chaos::schedule_from_json(text);
    ASSERT_TRUE(schedule.ok()) << name << ": " << schedule.error().to_string();
    Episode episode = explorer.run_schedule(*schedule);
    EXPECT_GE(episode.faults_fired, 1u) << name << " no longer reaches its fault site";
    for (const auto& v : episode.violations) {
      ADD_FAILURE() << name << ": " << chaos::to_string(v);
    }
  }
}

// --- explorer -------------------------------------------------------------------

TEST(ChaosExplorerTest, CappedDepthOneSweepIsCleanAndReportsDrops) {
  ExplorerOptions options;
  options.max_schedules = 12;
  ChaosExplorer explorer(chaos::lifecycle_scenario(), options);
  chaos::ExploreReport report = explorer.explore();
  EXPECT_TRUE(report.clean_violations.empty());
  EXPECT_FALSE(report.trace.empty());
  EXPECT_EQ(report.episodes.size(), 12u);
  EXPECT_GT(report.schedules_dropped, 0u);  // the cap must be visible, not silent
  for (const auto& episode : report.episodes) {
    for (const auto& v : episode.violations) {
      ADD_FAILURE() << chaos::to_string(v);
    }
  }
}

/// The acceptance-criterion determinism check: the same seed yields the
/// same schedule set, and each schedule replays to the same order digest
/// whether the engine runs on 1 worker thread or 4 (the scenario pins
/// shard_by = kSwitch, so the partition fixes ordering).
TEST(ChaosExplorerTest, SameSeedSameSchedulesSameDigestsAcrossThreadCounts) {
  ExplorerOptions options;
  options.seed = 42;
  LifecycleScenarioOptions seq;
  seq.threads = 1;
  LifecycleScenarioOptions par;
  par.threads = 4;
  ChaosExplorer e1(chaos::lifecycle_scenario(seq), options);
  ChaosExplorer e4(chaos::lifecycle_scenario(par), options);

  std::uint64_t digest1 = 0, digest4 = 0;
  const std::vector<TraceEntry> t1 = e1.record(&digest1);
  const std::vector<TraceEntry> t4 = e4.record(&digest4);
  EXPECT_EQ(digest1, digest4);
  ASSERT_EQ(t1.size(), t4.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].site, t4[i].site) << "trace diverges at hit " << i;
    EXPECT_EQ(t1[i].occurrence, t4[i].occurrence) << "trace diverges at hit " << i;
  }

  const std::vector<FaultSchedule> s1 = e1.enumerate(t1);
  const std::vector<FaultSchedule> s4 = e4.enumerate(t4);
  ASSERT_EQ(s1.size(), s4.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    ASSERT_EQ(s1[i].size(), s4[i].size()) << "schedule " << i;
    for (std::size_t j = 0; j < s1[i].size(); ++j) {
      EXPECT_EQ(s1[i][j].site, s4[i][j].site);
      EXPECT_EQ(s1[i][j].occurrence, s4[i][j].occurrence);
      EXPECT_EQ(s1[i][j].kind, s4[i][j].kind);
    }
  }

  // Replaying a slice of the sweep must agree episode by episode.
  const std::size_t episodes = std::min<std::size_t>(6, s1.size());
  for (std::size_t i = 0; i < episodes; ++i) {
    Episode ep1 = e1.run_schedule(s1[i]);
    Episode ep4 = e4.run_schedule(s4[i]);
    EXPECT_EQ(ep1.digest, ep4.digest) << "schedule " << i;
    EXPECT_EQ(ep1.faults_fired, ep4.faults_fired) << "schedule " << i;
    EXPECT_EQ(ep1.failed(), ep4.failed()) << "schedule " << i;
  }
}

/// FNV-1a over every recorded hit's full identity: site, per-site
/// occurrence, caps and crash target. A changed site, order, capability
/// or context moves it.
std::uint64_t trace_digest(const std::vector<TraceEntry>& trace) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::string_view bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ull;
  };
  for (const TraceEntry& e : trace) {
    mix(e.site);
    mix(std::to_string(e.occurrence));
    mix(std::to_string(e.caps));
    mix(std::to_string(static_cast<unsigned>(e.target_kind)));
    mix(e.container);
    mix(std::to_string(e.dpid));
    mix(std::to_string(e.chain_id));
  }
  return h;
}

/// The lifecycle scenario's fault-point surface: which sites it hits,
/// how often, with which capabilities and targets, and the clean run's
/// event order. Refactors of the orchestration layer must leave all of
/// it unchanged; a deliberate change to the surface updates these
/// constants together with the explorer's schedule counts.
TEST(ChaosExplorerTest, LifecycleFaultPointsArePinned) {
  LifecycleScenarioOptions seq;
  seq.threads = 1;
  ChaosExplorer explorer(chaos::lifecycle_scenario(seq), ExplorerOptions{});
  std::uint64_t digest = 0;
  const std::vector<TraceEntry> trace = explorer.record(&digest);

  std::map<std::string, std::size_t> per_site;
  for (const TraceEntry& e : trace) ++per_site[e.site];
  const std::map<std::string, std::size_t> expected = {
      {"deploy.rpc", 16},
      {"scale.rpc", 26},
      {"teardown.rpc.stop", 9},
      {"teardown.rpc.remove", 9},
      {"scale.export", 2},
      {"scale.import", 2},
      {"scale.release-hold", 2},
      {"deploy.steering.install", 4},
      {"steering.install", 6},
      {"steering.install.barrier", 12},
      {"teardown.steering", 5},
      {"scale.cutover", 2},
      {"scale.commit", 2},
      {"scale.reserve", 2},
      {"recover.teardown", 2},
      {"recover.redeploy", 2},
  };
  EXPECT_EQ(trace.size(), 103u);
  EXPECT_EQ(per_site, expected);
  EXPECT_EQ(trace_digest(trace), 7463875406289240010ull);
  EXPECT_EQ(digest, 7772529799566972030ull);
}

// --- idempotent teardown under explorer-induced errors (satellite) --------------

sg::ServiceGraph nat_graph(const std::string& name) {
  sg::ServiceGraph g(name);
  g.add_sap("sap1").add_sap("sap2");
  g.add_vnf("nat", "flow_nat",
            {{"capacity", "64"}, {"timeout_ms", "30000"}, {"port_count", "16"}}, 0.1);
  g.add_link("sap1", "nat").add_link("nat", "sap2");
  return g;
}

std::unique_ptr<Environment> small_env() {
  auto env = std::make_unique<Environment>();
  auto& net = env->network();
  net.add_host("sap1");
  net.add_host("sap2");
  net.add_switch("s1");
  net.add_switch("s2");
  net.add_container("c1", 2.0, 8);
  net.add_container("c2", 2.0, 8);
  netemu::LinkConfig link;
  link.bandwidth_bps = 1'000'000'000;
  link.delay = 50 * timeunit::kMicrosecond;
  (void)net.add_link("sap1", 0, "s1", 1, link);
  (void)net.add_link("sap2", 0, "s2", 1, link);
  (void)net.add_link("s1", 2, "s2", 2, link);
  (void)net.add_link("c1", 0, "s1", 3, link);
  (void)net.add_link("c2", 0, "s2", 3, link);
  return env;
}

/// The benign-error set of the idempotent teardown, audited against what
/// the explorer induces: killing the VNF's container mid-flight makes
/// every teardown RPC fail with container death / session loss, and the
/// teardown must still succeed (the instances are gone with the
/// container; only the steering flows and bookkeeping remain to clean).
TEST(TeardownIdempotence, UndeploySucceedsAfterContainerDeath) {
  auto env = small_env();
  ASSERT_TRUE(env->start().ok());
  openflow::Match match;
  match.dl_type(net::ethertype::kIpv4).nw_dst(env->host("sap2")->ip());
  auto chain = env->deploy(nat_graph("benign"), match);
  ASSERT_TRUE(chain.ok()) << chain.error().to_string();
  ASSERT_EQ(*env->chain_state(*chain), ChainState::kActive);

  const ChainDeployment* dep = env->deployment(*chain);
  ASSERT_NE(dep, nullptr);
  ASSERT_FALSE(dep->record.vnfs.empty());
  const std::string host = dep->record.vnfs.front().container;
  ASSERT_TRUE(env->kill_container(host).ok());
  env->run_for(10 * timeunit::kMillisecond);

  // Every per-VNF RPC now fails (netconf.session.closed / container
  // dead) -- all benign: the chain must still come down cleanly.
  EXPECT_TRUE(env->undeploy(*chain).ok());
  EXPECT_TRUE(env->deployed_chains().empty());
  EXPECT_EQ(env->steering().installed_count(), 0u);
}

// --- circuit breaker half-open probe expiry under shards (satellite) ------------

/// A wedged half-open probe (sent into a lossy transport with no
/// per-attempt timeout) must not hold the breaker shut forever: after a
/// full cooldown window a fresh probe is allowed. Runs on a 4-thread
/// sharded scheduler with the client and server on different shards, so
/// the breaker's clock reads cross-shard virtual time.
TEST(CircuitBreaker, HalfOpenProbeExpiryUnderShardedScheduler) {
  ShardedScheduler sched{4, 4};
  const SimDuration hop = 100 * timeunit::kMicrosecond;
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      if (a != b) sched.add_lookahead_edge(a, b, hop);
    }
  }
  auto [server_end, client_end] = netconf::make_pipe(sched.shard(1), sched.shard(0), hop);
  auto server = std::make_unique<netconf::NetconfServer>(server_end);
  auto client = std::make_unique<netconf::NetconfClient>(client_end);
  server->register_rpc("echo",
                       [](const xml::Element&) -> Result<std::unique_ptr<xml::Element>> {
                         return std::make_unique<xml::Element>("echoed");
                       });
  sched.run();  // hello exchange
  ASSERT_TRUE(client->established());

  client->set_circuit_breaker(
      {.failure_threshold = 3, .open_for = 50 * timeunit::kMillisecond});
  client_end->set_faults({.drop_prob = 1.0});
  netconf::RpcOptions opts;
  opts.timeout = 2 * timeunit::kMillisecond;
  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    client->rpc(std::make_unique<xml::Element>("echo"), opts,
                [&](Result<std::unique_ptr<xml::Element>> r) { failures += !r.ok(); });
    sched.run();
  }
  ASSERT_EQ(failures, 3);
  ASSERT_TRUE(client->circuit_open());

  // Cooldown elapses; the half-open probe goes out with no timeout and
  // its frame is silently dropped: it can never resolve.
  sched.run_for(60 * timeunit::kMillisecond);
  netconf::RpcOptions forever;  // timeout = 0: waits for a reply indefinitely
  bool probe_resolved = false;
  client->rpc(std::make_unique<xml::Element>("echo"), forever,
              [&](Result<std::unique_ptr<xml::Element>>) { probe_resolved = true; });
  sched.run();
  EXPECT_FALSE(probe_resolved);

  // While the wedged probe is within its expiry window, everything else
  // fails fast -- exactly one probe may be outstanding.
  Error fast{"", ""};
  client->rpc(std::make_unique<xml::Element>("echo"), opts,
              [&](Result<std::unique_ptr<xml::Element>> r) { fast = r.error(); });
  EXPECT_EQ(fast.code, "netconf.circuit-open");

  // One full cooldown later the wedged probe is considered lost; with
  // the transport healed the fresh probe closes the breaker.
  client_end->clear_faults();
  sched.run_for(60 * timeunit::kMillisecond);
  bool probed = false;
  client->rpc(std::make_unique<xml::Element>("echo"), opts,
              [&](Result<std::unique_ptr<xml::Element>> r) { probed = r.ok(); });
  sched.run();
  EXPECT_TRUE(probed);
  EXPECT_FALSE(client->circuit_open());
}

}  // namespace
}  // namespace escape
