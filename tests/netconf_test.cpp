// Tests for the NETCONF management plane: framing, sessions, YANG-lite
// validation and the VNF agent RPCs end to end (over the virtual-time
// control network).
#include <gtest/gtest.h>

#include "netconf/vnf_agent.hpp"
#include "support/netconf_wire_script.hpp"

namespace escape::netconf {
namespace {

constexpr const char* kMonitorConfig =
    "from :: FromDevice(DEVNAME in0);\n"
    "cnt :: Counter;\n"
    "to :: ToDevice(DEVNAME out0);\n"
    "from -> cnt -> to;\n";

// --- framing --------------------------------------------------------------------

TEST(FrameReader, SplitsOnDelimiter) {
  FrameReader reader;
  auto msgs = reader.feed("<a/>]]>]]><b/>]]>]]>");
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0], "<a/>");
  EXPECT_EQ(msgs[1], "<b/>");
}

TEST(FrameReader, HandlesPartialDelivery) {
  FrameReader reader;
  EXPECT_TRUE(reader.feed("<hello>").empty());
  EXPECT_TRUE(reader.feed("</hello>]]>").empty());
  auto msgs = reader.feed("]]><next/>");
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0], "<hello></hello>");
  msgs = reader.feed("]]>]]>");
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0], "<next/>");
}

TEST(FrameReader, FrameAppendsDelimiter) {
  EXPECT_EQ(FrameReader::frame("<x/>"), "<x/>]]>]]>");
}

/// FrameReader::feed as it was before a chunk of exactly one frame
/// skipped the buffer: the framing oracle.
struct ReferenceFrameReader {
  std::string buffer;
  std::vector<std::string> feed(std::string_view bytes) {
    buffer.append(bytes);
    std::vector<std::string> messages;
    std::size_t pos;
    while ((pos = buffer.find(FrameReader::kDelimiter)) != std::string::npos) {
      messages.push_back(buffer.substr(0, pos));
      buffer.erase(0, pos + FrameReader::kDelimiter.size());
    }
    return messages;
  }
};

// Two frames of the scripted agent session, concatenated and cut at
// every point, and each direction's whole stream fed one byte at a
// time: the reader yields, feed by feed, what the reference reader does.
TEST(FrameReader, MatchesTheReferenceReaderAtEverySplit) {
  const auto frames = testsupport::record_wire_script().frames;
  auto same_feeds = [](const std::vector<std::string_view>& chunks) {
    FrameReader reader;
    ReferenceFrameReader reference;
    for (std::string_view chunk : chunks) {
      if (reader.feed(std::string(chunk)) != reference.feed(chunk)) return false;
    }
    return true;
  };
  // Pairs: the hellos, the largest frame with its neighbour, and a
  // notification with the reply after it.
  std::size_t largest = 0;
  std::size_t notification = 0;
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    if (frames[i].bytes.size() > frames[largest].bytes.size()) largest = i;
    if (frames[i].bytes.starts_with("<notification")) notification = i;
  }
  ASSERT_GT(notification, 0u);
  std::size_t splits = 0;
  for (std::size_t first : {std::size_t{0}, largest, notification}) {
    const std::string both = frames[first].bytes + frames[first + 1].bytes;
    const std::string_view view = both;
    for (std::size_t cut = 0; cut <= both.size(); ++cut) {
      ASSERT_TRUE(same_feeds({view.substr(0, cut), view.substr(cut)})) << first << " @" << cut;
      ++splits;
    }
    ASSERT_TRUE(same_feeds({view}));
  }
  EXPECT_GT(splits, 4000u);

  for (char from : {'m', 'a'}) {
    std::string stream;
    for (const auto& f : frames) {
      if (f.from == from) stream += f.bytes;
    }
    std::vector<std::string_view> bytes;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      bytes.push_back(std::string_view(stream).substr(i, 1));
    }
    EXPECT_TRUE(same_feeds(bytes)) << from;
  }
}

// --- transport --------------------------------------------------------------------

TEST(Transport, PipeDeliversWithDelay) {
  EventScheduler sched;
  auto [a, b] = make_pipe(sched, milliseconds(1));
  std::string got;
  b->set_on_bytes([&](std::string bytes) { got = std::move(bytes); });
  a->send("ping");
  sched.run_for(microseconds(500));
  EXPECT_TRUE(got.empty());
  sched.run_for(milliseconds(1));
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(a->bytes_sent(), 4u);
  EXPECT_EQ(b->bytes_received(), 4u);
}

TEST(Transport, SurvivesPeerDestruction) {
  EventScheduler sched;
  auto [a, b] = make_pipe(sched, 0);
  b.reset();
  a->send("into the void");  // must not crash
  sched.run();
  EXPECT_FALSE(a->connected());
}

// --- YANG-lite ---------------------------------------------------------------------

TEST(Yang, ValidDocumentAccepted) {
  auto doc = xml::parse(R"(
    <vnfs>
      <vnf>
        <id>v1</id>
        <type>firewall</type>
        <cpu-share>0.25</cpu-share>
        <status>RUNNING</status>
        <connection><device>in0</device><port>3</port></connection>
        <handler><name>fw.accepted</name><value>10</value></handler>
      </vnf>
    </vnfs>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(validate(**doc, vnf_module_schema()).ok());
}

TEST(Yang, UnknownElementRejected) {
  auto doc = xml::parse("<vnfs><vnf><id>v</id><bogus>1</bogus></vnf></vnfs>");
  auto s = validate(**doc, vnf_module_schema());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "yang.unknown-element");
}

TEST(Yang, MissingListKeyRejected) {
  auto doc = xml::parse("<vnfs><vnf><type>x</type></vnf></vnfs>");
  auto s = validate(**doc, vnf_module_schema());
  ASSERT_FALSE(s.ok());
  // id is both mandatory and the list key.
  EXPECT_TRUE(s.error().code == "yang.missing-element" ||
              s.error().code == "yang.missing-key");
}

TEST(Yang, TypeViolationsRejected) {
  auto bad_enum = xml::parse("<vnfs><vnf><id>v</id><status>FLYING</status></vnf></vnfs>");
  EXPECT_EQ(validate(**bad_enum, vnf_module_schema()).error().code, "yang.bad-value");
  auto bad_uint = xml::parse(
      "<vnfs><vnf><id>v</id><connection><device>d</device><port>x</port>"
      "</connection></vnf></vnfs>");
  EXPECT_EQ(validate(**bad_uint, vnf_module_schema()).error().code, "yang.bad-value");
  auto bad_decimal =
      xml::parse("<vnfs><vnf><id>v</id><cpu-share>fast</cpu-share></vnf></vnfs>");
  EXPECT_EQ(validate(**bad_decimal, vnf_module_schema()).error().code, "yang.bad-value");
}

TEST(Yang, WrongRootRejected) {
  auto doc = xml::parse("<stuff/>");
  EXPECT_EQ(validate(**doc, vnf_module_schema()).error().code, "yang.wrong-root");
}

TEST(Yang, DuplicateNonListChildRejected) {
  SchemaNode schema = SchemaNode::container(
      "c", {SchemaNode::leaf("x", LeafType::kString)});
  auto doc = xml::parse("<c><x>1</x><x>2</x></c>");
  EXPECT_EQ(validate(**doc, schema).error().code, "yang.duplicate");
}

TEST(Yang, SourceTextAvailable) {
  EXPECT_NE(vnf_yang_source().find("module escape-vnf"), std::string_view::npos);
  EXPECT_NE(vnf_yang_source().find("rpc initiateVNF"), std::string_view::npos);
}

// --- sessions -------------------------------------------------------------------------

struct SessionFixture : ::testing::Test {
  EventScheduler sched;
  std::shared_ptr<TransportEndpoint> server_end, client_end;
  std::unique_ptr<NetconfServer> server;
  std::unique_ptr<NetconfClient> client;

  void SetUp() override {
    auto [s, c] = make_pipe(sched, microseconds(100));
    server_end = s;
    client_end = c;
    server = std::make_unique<NetconfServer>(
        server_end,
        std::vector<std::string>{std::string(kBaseCapability), std::string(kVnfCapability)});
    client = std::make_unique<NetconfClient>(client_end);
  }
};

TEST_F(SessionFixture, HelloExchangeEstablishesSession) {
  EXPECT_FALSE(client->established());
  sched.run();
  EXPECT_TRUE(client->established());
  EXPECT_TRUE(server->hello_received());
  ASSERT_EQ(client->server_capabilities().size(), 2u);
  EXPECT_EQ(client->server_capabilities()[1], kVnfCapability);
}

TEST_F(SessionFixture, OnEstablishedCallbackFires) {
  int fired = 0;
  client->on_established([&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  client->on_established([&] { ++fired; });  // already up: immediate
  EXPECT_EQ(fired, 2);
}

TEST_F(SessionFixture, RpcRoundTripWithReplyBody) {
  server->register_rpc("echo", [](const xml::Element& op)
                                   -> Result<std::unique_ptr<xml::Element>> {
    auto reply = std::make_unique<xml::Element>("echoed");
    reply->set_text(op.child_text("value"));
    return reply;
  });
  std::string got;
  auto op = std::make_unique<xml::Element>("echo");
  op->add_leaf("value", "marco");
  client->rpc(std::move(op), [&](Result<std::unique_ptr<xml::Element>> r) {
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    got = (*r)->child("echoed")->text();
  });
  sched.run();
  EXPECT_EQ(got, "marco");
  EXPECT_EQ(server->rpcs_handled(), 1u);
  EXPECT_EQ(client->pending_rpcs(), 0u);
}

TEST_F(SessionFixture, RpcErrorPropagates) {
  server->register_rpc("fail", [](const xml::Element&) -> Result<std::unique_ptr<xml::Element>> {
    return make_error("resource-denied", "nope");
  });
  Error got{"", ""};
  client->rpc(std::make_unique<xml::Element>("fail"),
              [&](Result<std::unique_ptr<xml::Element>> r) {
                ASSERT_FALSE(r.ok());
                got = r.error();
              });
  sched.run();
  EXPECT_EQ(got.code, "resource-denied");
  EXPECT_EQ(got.message, "nope");
  EXPECT_EQ(server->rpc_errors(), 1u);
}

TEST_F(SessionFixture, UnknownOperationRejected) {
  bool errored = false;
  client->rpc(std::make_unique<xml::Element>("who-knows"),
              [&](Result<std::unique_ptr<xml::Element>> r) {
                errored = !r.ok() && r.error().code == "operation-not-supported";
              });
  sched.run();
  EXPECT_TRUE(errored);
}

TEST_F(SessionFixture, ConcurrentRpcsCorrelateByMessageId) {
  server->register_rpc("id", [](const xml::Element& op)
                                 -> Result<std::unique_ptr<xml::Element>> {
    auto reply = std::make_unique<xml::Element>("got");
    reply->set_text(op.child_text("n"));
    return reply;
  });
  std::vector<std::string> replies;
  for (int i = 0; i < 5; ++i) {
    auto op = std::make_unique<xml::Element>("id");
    op->add_leaf("n", std::to_string(i));
    client->rpc(std::move(op), [&](Result<std::unique_ptr<xml::Element>> r) {
      ASSERT_TRUE(r.ok());
      replies.push_back((*r)->child("got")->text());
    });
  }
  EXPECT_EQ(client->pending_rpcs(), 5u);
  sched.run();
  EXPECT_EQ(replies, (std::vector<std::string>{"0", "1", "2", "3", "4"}));
}

// --- VNF agent end-to-end ----------------------------------------------------------------

struct AgentFixture : ::testing::Test {
  EventScheduler sched;
  netemu::VnfContainer container{"c1", sched, 1.0, 8};
  std::unique_ptr<VnfAgent> agent;
  std::unique_ptr<VnfAgentClient> client;

  void SetUp() override {
    auto [s, c] = make_pipe(sched, microseconds(200));
    agent = std::make_unique<VnfAgent>(s, container);
    client = std::make_unique<VnfAgentClient>(c);
    sched.run();
  }

  Status do_call(std::function<void(VnfAgentClient::StatusCallback)> call) {
    Status out = make_error("test.pending", "no reply");
    call([&](Status s) { out = std::move(s); });
    sched.run();
    return out;
  }
};

TEST_F(AgentFixture, FullVnfLifecycleOverNetconf) {
  EXPECT_TRUE(do_call([&](auto cb) {
                client->initiate_vnf("v1", "monitor", kMonitorConfig, 0.25, cb);
              }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->start_vnf("v1", cb); }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->connect_vnf("v1", "in0", 0, cb); }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->connect_vnf("v1", "out0", 1, cb); }).ok());
  EXPECT_DOUBLE_EQ(container.cpu_in_use(), 0.25);

  Result<netemu::VnfInfo> info = make_error("test.pending", "");
  client->get_vnf_info("v1", [&](Result<netemu::VnfInfo> r) { info = std::move(r); });
  sched.run();
  ASSERT_TRUE(info.ok()) << info.error().to_string();
  EXPECT_EQ(info->status, netemu::VnfStatus::kRunning);
  EXPECT_EQ(info->vnf_type, "monitor");
  EXPECT_DOUBLE_EQ(info->cpu_share, 0.25);
  EXPECT_TRUE(info->handlers.count("cnt.count"));
  EXPECT_EQ(info->devices.size(), 2u);

  EXPECT_TRUE(do_call([&](auto cb) { client->disconnect_vnf("v1", "in0", cb); }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->stop_vnf("v1", cb); }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->remove_vnf("v1", cb); }).ok());
  EXPECT_TRUE(container.vnf_ids().empty());
}

TEST_F(AgentFixture, ErrorsTravelAsRpcErrors) {
  auto s = do_call([&](auto cb) { client->start_vnf("ghost", cb); });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "container.unknown-vnf");

  // Malformed click config is rejected at start time through the RPC.
  EXPECT_TRUE(do_call([&](auto cb) {
                client->initiate_vnf("bad", "x", "nonsense ->;", 0.1, cb);
              }).ok());
  s = do_call([&](auto cb) { client->start_vnf("bad", cb); });
  ASSERT_FALSE(s.ok());

  // CPU overcommit surfaces the container error code.
  EXPECT_TRUE(do_call([&](auto cb) {
                client->initiate_vnf("big", "m", kMonitorConfig, 0.9, cb);
              }).ok());
  EXPECT_TRUE(do_call([&](auto cb) {
                client->initiate_vnf("big2", "m", kMonitorConfig, 0.9, cb);
              }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->start_vnf("big", cb); }).ok());
  s = do_call([&](auto cb) { client->start_vnf("big2", cb); });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "container.cpu-exhausted");
}

TEST_F(AgentFixture, GetReturnsSchemaValidState) {
  EXPECT_TRUE(do_call([&](auto cb) {
                client->initiate_vnf("v1", "monitor", kMonitorConfig, 0.25, cb);
              }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->start_vnf("v1", cb); }).ok());

  // Issue a raw <get> through the generic client API.
  std::unique_ptr<xml::Element> reply;
  client->session().rpc(std::make_unique<xml::Element>("get"),
                        [&](Result<std::unique_ptr<xml::Element>> r) {
                          ASSERT_TRUE(r.ok()) << r.error().to_string();
                          reply = std::move(*r);
                        });
  sched.run();
  ASSERT_NE(reply, nullptr);
  const xml::Element* vnfs = reply->find("data/vnfs");
  ASSERT_NE(vnfs, nullptr);
  // The agent validates its own output against the YANG module; validate
  // again here as an independent check.
  EXPECT_TRUE(validate(*vnfs, vnf_module_schema()).ok());
  auto entries = vnfs->children_named("vnf");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->child_text("id"), "v1");
  EXPECT_EQ(entries[0]->child_text("status"), "RUNNING");
}

// The escape-vnf module makes a connection's port mandatory, and <get>
// validates its own reply, so a connected VNF must report its ports.
TEST_F(AgentFixture, GetOnConnectedVnfIsSchemaValid) {
  EXPECT_TRUE(do_call([&](auto cb) {
                client->initiate_vnf("v1", "monitor", kMonitorConfig, 0.25, cb);
              }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->start_vnf("v1", cb); }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->connect_vnf("v1", "in0", 4, cb); }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->connect_vnf("v1", "out0", 5, cb); }).ok());

  std::unique_ptr<xml::Element> reply;
  client->session().rpc(std::make_unique<xml::Element>("get"),
                        [&](Result<std::unique_ptr<xml::Element>> r) {
                          ASSERT_TRUE(r.ok()) << r.error().to_string();
                          reply = std::move(*r);
                        });
  sched.run();
  ASSERT_NE(reply, nullptr);
  const xml::Element* vnf = reply->find("data/vnfs/vnf");
  ASSERT_NE(vnf, nullptr);
  EXPECT_TRUE(validate(*reply->find("data/vnfs"), vnf_module_schema()).ok());
  auto connections = vnf->children_named("connection");
  ASSERT_EQ(connections.size(), 2u);
  EXPECT_EQ(connections[0]->child_text("device"), "in0");
  EXPECT_EQ(connections[0]->child_text("port"), "4");
  EXPECT_EQ(connections[1]->child_text("device"), "out0");
  EXPECT_EQ(connections[1]->child_text("port"), "5");
}

TEST_F(AgentFixture, GetSchemaReturnsYangSource) {
  std::string schema_text;
  client->session().rpc(std::make_unique<xml::Element>("get-schema"),
                        [&](Result<std::unique_ptr<xml::Element>> r) {
                          ASSERT_TRUE(r.ok());
                          schema_text = (*r)->child("data")->text();
                        });
  sched.run();
  EXPECT_NE(schema_text.find("module escape-vnf"), std::string::npos);
}

TEST_F(AgentFixture, MissingMandatoryLeafRejected) {
  // connectVNF without <port> must produce a missing-element error.
  auto op = std::make_unique<xml::Element>("connectVNF");
  op->add_leaf("id", "v1");
  op->add_leaf("device", "in0");
  Error got{"", ""};
  client->session().rpc(std::move(op), [&](Result<std::unique_ptr<xml::Element>> r) {
    ASSERT_FALSE(r.ok());
    got = r.error();
  });
  sched.run();
  EXPECT_EQ(got.code, "missing-element");
}

TEST_F(AgentFixture, ManagementBytesActuallyFlow) {
  // The management plane is a real byte stream: the client's transport
  // counters grow with each RPC.
  auto before = agent->server().rpcs_handled();
  EXPECT_TRUE(do_call([&](auto cb) {
                client->initiate_vnf("v1", "monitor", kMonitorConfig, 0.25, cb);
              }).ok());
  EXPECT_EQ(agent->server().rpcs_handled(), before + 1);
}


TEST_F(AgentFixture, EditConfigCreatesAndDeletesVnfs) {
  // Declaratively provision two VNFs in one edit-config.
  auto op = std::make_unique<xml::Element>("edit-config");
  op->add_child("target").add_child("running");
  auto& config = op->add_child("config");
  auto& vnfs = config.add_child("vnfs");
  for (const char* id : {"va", "vb"}) {
    auto& vnf = vnfs.add_child("vnf");
    vnf.add_leaf("id", id);
    vnf.add_leaf("type", "monitor");
    vnf.add_leaf("click-config", kMonitorConfig);
    vnf.add_leaf("cpu-share", "0.100");
  }
  Status outcome = make_error("test.pending", "");
  client->session().rpc(std::move(op), [&](Result<std::unique_ptr<xml::Element>> r) {
    outcome = r.ok() ? ok_status() : Status(r.error());
  });
  sched.run();
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(container.vnf_ids().size(), 2u);

  // The provisioned VNFs start through the imperative RPC.
  EXPECT_TRUE(do_call([&](auto cb) { client->start_vnf("va", cb); }).ok());

  // Delete one entry via operation="delete".
  auto del = std::make_unique<xml::Element>("edit-config");
  auto& dconfig = del->add_child("config");
  auto& dvnfs = dconfig.add_child("vnfs");
  auto& dvnf = dvnfs.add_child("vnf");
  dvnf.set_attr("operation", "delete");
  dvnf.add_leaf("id", "vb");
  outcome = make_error("test.pending", "");
  client->session().rpc(std::move(del), [&](Result<std::unique_ptr<xml::Element>> r) {
    outcome = r.ok() ? ok_status() : Status(r.error());
  });
  sched.run();
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_EQ(container.vnf_ids(), std::vector<std::string>{"va"});
}

TEST_F(AgentFixture, EditConfigRejectsInvalidPayload) {
  // Schema violation: <bogus> is not in the escape-vnf module.
  auto op = std::make_unique<xml::Element>("edit-config");
  auto& config = op->add_child("config");
  auto& vnfs = config.add_child("vnfs");
  auto& vnf = vnfs.add_child("vnf");
  vnf.add_leaf("id", "x");
  vnf.add_leaf("bogus", "1");
  Error got{"", ""};
  client->session().rpc(std::move(op), [&](Result<std::unique_ptr<xml::Element>> r) {
    ASSERT_FALSE(r.ok());
    got = r.error();
  });
  sched.run();
  EXPECT_EQ(got.code, "yang.unknown-element");
  EXPECT_TRUE(container.vnf_ids().empty());

  // Missing <config>.
  Error got2{"", ""};
  client->session().rpc(std::make_unique<xml::Element>("edit-config"),
                        [&](Result<std::unique_ptr<xml::Element>> r) {
                          ASSERT_FALSE(r.ok());
                          got2 = r.error();
                        });
  sched.run();
  EXPECT_EQ(got2.code, "missing-element");
}


TEST_F(AgentFixture, SubscriptionPushesLifecycleEvents) {
  std::vector<std::pair<std::string, netemu::VnfStatus>> events;
  Status sub = make_error("test.pending", "");
  client->subscribe_events(
      [&](const std::string& id, netemu::VnfStatus s) { events.emplace_back(id, s); },
      [&](Status s) { sub = std::move(s); });
  sched.run();
  ASSERT_TRUE(sub.ok()) << sub.error().to_string();
  EXPECT_TRUE(agent->subscribed());

  EXPECT_TRUE(do_call([&](auto cb) {
                client->initiate_vnf("v1", "monitor", kMonitorConfig, 0.1, cb);
              }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->start_vnf("v1", cb); }).ok());
  EXPECT_TRUE(do_call([&](auto cb) { client->stop_vnf("v1", cb); }).ok());

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (std::pair<std::string, netemu::VnfStatus>{
                           "v1", netemu::VnfStatus::kInitialized}));
  EXPECT_EQ(events[1].second, netemu::VnfStatus::kRunning);
  EXPECT_EQ(events[2].second, netemu::VnfStatus::kStopped);
  EXPECT_EQ(client->session().notifications_received(), 3u);
}

TEST_F(AgentFixture, NoEventsWithoutSubscription) {
  EXPECT_TRUE(do_call([&](auto cb) {
                client->initiate_vnf("v1", "monitor", kMonitorConfig, 0.1, cb);
              }).ok());
  sched.run();
  EXPECT_EQ(client->session().notifications_received(), 0u);
}

// --- wire oracle ---------------------------------------------------------------------

// The bytes a scripted agent session puts on the wire, pinned: frame
// count, total size and a 64-bit FNV-1a digest over (sender, frame).
// The encoding and the framing may be rewritten, the bytes may not move:
// the corrupt fault mangles frames by position, so a changed byte would
// also move chaos outcomes. A deliberate encoding change updates the
// pins together with the reason.
TEST(WireOracle, ScriptedAgentSessionIsByteIdentical) {
  const testsupport::WireScript script = testsupport::record_wire_script();

  // initiate+start x5, get, connect x10, getVNFInfo x5, two handler
  // writes, export, import, get-config.
  std::vector<std::string> want;
  for (int i = 0; i < 10 + 1 + 10 + 5 + 2 + 2 + 1; ++i) want.emplace_back("ok");
  want.emplace_back("operation-not-supported");
  want.emplace_back("container.unknown-vnf");
  for (int i = 0; i < 1 + 5 * 3; ++i) want.emplace_back("ok");
  EXPECT_EQ(script.outcomes, want);
  // getVNFInfo handler counts: monitor, firewall, dpi, flow_nat, tcp_ids.
  EXPECT_EQ(script.handler_counts, (std::vector<std::size_t>{8, 13, 7, 33, 32}));

  std::size_t bytes = 0;
  std::size_t notifications = 0;
  for (const auto& f : script.frames) {
    bytes += f.bytes.size();
    EXPECT_TRUE(f.bytes.ends_with(FrameReader::kDelimiter));
    if (f.bytes.starts_with("<notification")) ++notifications;
  }
  EXPECT_EQ(notifications, 5u);
  EXPECT_EQ(script.frames.size(), 105u);
  EXPECT_EQ(bytes, 30'073u);
  EXPECT_EQ(testsupport::wire_digest(script.frames), 0xc6e2b137cfbdc349ULL);
}

}  // namespace
}  // namespace escape::netconf
