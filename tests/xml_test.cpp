// Unit tests for the XML document model, parser and serializer.
#include <gtest/gtest.h>

#include "support/netconf_wire_script.hpp"
#include "support/reference_xml_parser.hpp"
#include "util/random.hpp"
#include "xml/xml.hpp"

namespace escape::xml {
namespace {

TEST(XmlParse, SimpleElementWithText) {
  auto doc = parse("<id>fw1</id>");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ((*doc)->name(), "id");
  EXPECT_EQ((*doc)->text(), "fw1");
}

TEST(XmlParse, NestedChildren) {
  auto doc = parse("<rpc><startVNF><id>v1</id></startVNF></rpc>");
  ASSERT_TRUE(doc.ok());
  const Element* op = (*doc)->child("startVNF");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->child_text("id"), "v1");
}

TEST(XmlParse, Attributes) {
  auto doc = parse(R"(<rpc message-id="42" xmlns="urn:x"><get/></rpc>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->attr("message-id"), "42");
  EXPECT_EQ((*doc)->attr("xmlns"), "urn:x");
  EXPECT_TRUE((*doc)->has_attr("xmlns"));
  EXPECT_FALSE((*doc)->has_attr("missing"));
  EXPECT_EQ((*doc)->attr("missing"), "");
}

TEST(XmlParse, SelfClosingElement) {
  auto doc = parse("<ok/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->name(), "ok");
  EXPECT_TRUE((*doc)->children().empty());
  EXPECT_TRUE((*doc)->text().empty());
}

TEST(XmlParse, EntityUnescaping) {
  auto doc = parse("<t>a &lt;b&gt; &amp; &quot;c&quot; &apos;d&apos;</t>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->text(), "a <b> & \"c\" 'd'");
}

TEST(XmlParse, AttributeEntityUnescaping) {
  auto doc = parse(R"(<t v="a&amp;b"/>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->attr("v"), "a&b");
}

TEST(XmlParse, SkipsDeclarationAndComments) {
  auto doc = parse("<?xml version=\"1.0\"?><!-- hi --><root><!-- inner --><x/></root>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->name(), "root");
  EXPECT_EQ((*doc)->children().size(), 1u);
}

TEST(XmlParse, NamespacePrefixStripping) {
  auto doc = parse("<nc:rpc><nc:get/></nc:rpc>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->name(), "nc:rpc");
  EXPECT_EQ((*doc)->local_name(), "rpc");
  EXPECT_NE((*doc)->child("get"), nullptr);  // child() matches local names
}

TEST(XmlParse, MismatchedTagsRejected) {
  EXPECT_FALSE(parse("<a><b></a></b>").ok());
  EXPECT_FALSE(parse("<a>").ok());
  EXPECT_FALSE(parse("<a></b>").ok());
}

TEST(XmlParse, TrailingGarbageRejected) {
  EXPECT_FALSE(parse("<a/><b/>").ok());
  EXPECT_FALSE(parse("<a/>junk").ok());
}

TEST(XmlParse, MalformedAttributesRejected) {
  EXPECT_FALSE(parse("<a x></a>").ok());
  EXPECT_FALSE(parse("<a x=y></a>").ok());
  EXPECT_FALSE(parse(R"(<a x="unterminated></a>)").ok());
}

TEST(XmlParse, WhitespaceOnlyTextIsTrimmedAway) {
  auto doc = parse("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->text(), "");
}

TEST(XmlFind, PathNavigation) {
  auto doc = parse("<data><vnfs><vnf><id>a</id></vnf></vnfs></data>");
  ASSERT_TRUE(doc.ok());
  const Element* vnf = (*doc)->find("vnfs/vnf");
  ASSERT_NE(vnf, nullptr);
  EXPECT_EQ(vnf->child_text("id"), "a");
  EXPECT_EQ((*doc)->find("vnfs/nope"), nullptr);
}

TEST(XmlChildrenNamed, FiltersByLocalName) {
  auto doc = parse("<l><i>1</i><x/><i>2</i></l>");
  ASSERT_TRUE(doc.ok());
  auto items = (*doc)->children_named("i");
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0]->text(), "1");
  EXPECT_EQ(items[1]->text(), "2");
}

TEST(XmlSerialize, RoundTripCompact) {
  Element root("rpc-reply");
  root.set_attr("message-id", "7");
  root.add_child("ok");
  auto& data = root.add_child("data");
  data.add_leaf("count", "42");

  std::string text = root.to_string();
  auto doc = parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->attr("message-id"), "7");
  EXPECT_NE((*doc)->child("ok"), nullptr);
  EXPECT_EQ((*doc)->find("data/count")->text(), "42");
}

TEST(XmlSerialize, EscapesSpecialCharacters) {
  Element e("t");
  e.set_text("a<b & \"c\"");
  std::string text = e.to_string();
  EXPECT_EQ(text.find('<', 3), text.find("</t>"));  // no raw '<' in content
  auto doc = parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->text(), "a<b & \"c\"");
}

TEST(XmlSerialize, PrettyPrintingParsesBack) {
  Element root("a");
  root.add_child("b").add_leaf("c", "1");
  auto doc = parse(root.to_string(2));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->find("b/c")->text(), "1");
}

TEST(XmlClone, DeepCopyIsIndependent) {
  Element root("a");
  root.set_attr("k", "v");
  root.add_leaf("b", "1");
  auto copy = root.clone();
  copy->add_leaf("c", "2");
  EXPECT_EQ(root.children().size(), 1u);
  EXPECT_EQ(copy->children().size(), 2u);
  EXPECT_EQ(copy->attr("k"), "v");
}

/// Round-trip sweep over text payloads with tricky characters.
class XmlRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(XmlRoundTrip, TextSurvives) {
  Element e("payload");
  e.set_text(GetParam());
  auto doc = parse(e.to_string());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->text(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Payloads, XmlRoundTrip,
                         ::testing::Values("plain", "<tag>", "a&b", "quote\"inside",
                                           "apos'inside", "deny udp && dst port 53",
                                           "multi\nline"));

// --- differential mutation test ------------------------------------------------------

/// Element-by-element equality: name, text, attributes in order and
/// children, recursively.
bool same_tree(const Element& a, const Element& b) {
  if (a.name() != b.name() || a.text() != b.text() || a.attributes() != b.attributes() ||
      a.children().size() != b.children().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.children().size(); ++i) {
    if (!same_tree(a.children()[i], b.children()[i])) return false;
  }
  return true;
}

/// The corpus: every message of the scripted agent session (the wire
/// oracle's frames, delimiter stripped) and a few hand-written documents
/// for what the session does not send: a prolog, comments, prefixes,
/// single quotes, entities split by a comment, pretty printing.
std::vector<std::string> seed_corpus() {
  std::vector<std::string> corpus;
  for (const auto& frame : testsupport::record_wire_script().frames) {
    corpus.push_back(
        frame.bytes.substr(0, frame.bytes.size() - std::string_view("]]>]]>").size()));
  }
  corpus.insert(corpus.end(),
                {"<?xml version=\"1.0\"?><!-- c --><nc:rpc a='1' b=\"&quot;x&apos;\">"
                 "<nc:get/><!--in-->text &amp;<x>&lt;y&gt;</x> tail</nc:rpc><!-- after -->",
                 "<t>a&am<!-- split -->p;b &bogus; &#38; &amp &;</t>",
                 "<a>\n  <b k=\"v\" k=\"w\">  padded  </b>\n  <c/>\n</a>\n",
                 "<d x = \"1\"y=\"2\" ><e></e ></d>"});
  return corpus;
}

/// Derives `count` inputs from the corpus by seeded byte flips,
/// truncations, splices and inserted markup fragments.
std::vector<std::string> mutate(const std::vector<std::string>& corpus, std::size_t count) {
  static constexpr std::string_view kFragments[] = {
      "&", "&amp;", "&lt;", "&quot", ";", "<", ">", "</", "/>", "<!--", "-->", "<?", "?>",
      "\"", "'", "=", " ", "\n", "]]>]]>", "nc:", "<x>", "</x>"};
  static constexpr std::string_view kBytes = "<>/&;\"'=!-? \t\nax:_.0\x01\xff";
  Rng rng(0x786d6cULL);
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string s = corpus[rng.next_below(corpus.size())];
    auto at = [&](std::size_t size) { return static_cast<std::size_t>(rng.next_below(size + 1)); };
    switch (i % 4) {
      case 0:  // flips
        for (std::uint64_t n = 1 + rng.next_below(3); n > 0 && !s.empty(); --n) {
          s[rng.next_below(s.size())] = kBytes[rng.next_below(kBytes.size())];
        }
        break;
      case 1:  // truncation
        s.resize(at(s.size()));
        break;
      case 2: {  // splice: a prefix of one document, a suffix of another
        const std::string& other = corpus[rng.next_below(corpus.size())];
        s = s.substr(0, at(s.size())) + other.substr(at(other.size()));
        break;
      }
      default:  // an inserted fragment of markup or an escape
        s.insert(at(s.size()), kFragments[rng.next_below(std::size(kFragments))]);
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

// The one-pass parser against the parser it replaced: on every input
// they accept or reject alike, with the same error text (offsets
// included), and build the same tree. An accepted tree also survives
// serialize + parse.
TEST(XmlDifferential, OnePassParserMatchesTheReferenceParser) {
  const std::vector<std::string> corpus = seed_corpus();
  std::vector<std::string> inputs = mutate(corpus, 4000);
  inputs.insert(inputs.end(), corpus.begin(), corpus.end());
  std::size_t accepted = 0;
  std::size_t with_escapes = 0;
  for (const std::string& input : inputs) {
    auto got = parse(input);
    auto want = testsupport::reference_parse(input);
    ASSERT_EQ(got.ok(), want.ok()) << input;
    if (!want.ok()) {
      EXPECT_EQ(got.error().code, want.error().code) << input;
      EXPECT_EQ(got.error().message, want.error().message) << input;
      continue;
    }
    ++accepted;
    if (input.find('&') != std::string::npos) ++with_escapes;
    ASSERT_TRUE(same_tree(**got, **want)) << input;
    auto again = parse((*got)->to_string());
    ASSERT_TRUE(again.ok()) << (*got)->to_string();
    EXPECT_TRUE(same_tree(**again, **got)) << input;
  }
  // Neither side of the comparison may be empty.
  EXPECT_GT(accepted, inputs.size() / 10);
  EXPECT_LT(accepted, inputs.size() - inputs.size() / 10);
  EXPECT_GT(with_escapes, 100u);
}

}  // namespace
}  // namespace escape::xml
