#include "util/config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hacc::util {
namespace {

TEST(Config, ParsesKeyValuePairs) {
  Config c;
  ASSERT_TRUE(c.parse("np = 32\nbox_mpc = 177.0\nkernel = upGeo\n"));
  EXPECT_EQ(c.get_int("np", 0), 32);
  EXPECT_DOUBLE_EQ(c.get_double("box_mpc", 0.0), 177.0);
  EXPECT_EQ(c.get_string("kernel", ""), "upGeo");
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  Config c;
  ASSERT_TRUE(c.parse("# header comment\n\n  a = 1  # trailing\n\n#only comment\n"));
  EXPECT_EQ(c.get_int("a", 0), 1);
  EXPECT_EQ(c.values().size(), 1u);
}

TEST(Config, MalformedLineFails) {
  Config c;
  EXPECT_FALSE(c.parse("this is not a pair\n"));
  EXPECT_NE(c.error().find("line 1"), std::string::npos);
}

TEST(Config, EmptyKeyFails) {
  Config c;
  EXPECT_FALSE(c.parse(" = 3\n"));
}

TEST(Config, FallbacksWhenMissing) {
  Config c;
  ASSERT_TRUE(c.parse(""));
  EXPECT_EQ(c.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(c.get_string("missing", "dflt"), "dflt");
  EXPECT_TRUE(c.get_bool("missing", true));
}

TEST(Config, BoolParsing) {
  Config c;
  ASSERT_TRUE(c.parse("a = true\nb = 0\nc = yes\nd = off\n"));
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
}

TEST(Config, LaterValuesOverrideEarlier) {
  Config c;
  ASSERT_TRUE(c.parse("x = 1\nx = 2\n"));
  EXPECT_EQ(c.get_int("x", 0), 2);
}

TEST(Config, CommandLineOverrides) {
  Config c;
  ASSERT_TRUE(c.parse("np = 16\n"));
  const char* argv[] = {"np=64", "variant=select", "notakv", "=bad"};
  c.apply_overrides(4, argv);
  EXPECT_EQ(c.get_int("np", 0), 64);
  EXPECT_EQ(c.get_string("variant", ""), "select");
  EXPECT_FALSE(c.has("notakv"));
}

TEST(Config, NonNumericFallsBack) {
  Config c;
  ASSERT_TRUE(c.parse("word = hello\n"));
  EXPECT_EQ(c.get_int("word", -3), -3);
}

TEST(Config, TrailingGarbageRejected) {
  Config c;
  ASSERT_TRUE(c.parse("steps = 10abc\nbox = 3.5mpc\nneg = -2x\n"));
  EXPECT_EQ(c.get_int("steps", -1), -1);
  EXPECT_DOUBLE_EQ(c.get_double("box", -1.0), -1.0);
  EXPECT_EQ(c.get_int("neg", -1), -1);
}

TEST(Config, OutOfRangeRejected) {
  Config c;
  ASSERT_TRUE(c.parse("big = 99999999999999999999999\nhuge = 1e999\n"));
  EXPECT_EQ(c.get_int("big", -1), -1);
  EXPECT_DOUBLE_EQ(c.get_double("huge", -1.0), -1.0);
}

TEST(Config, CleanNumbersStillParse) {
  Config c;
  ASSERT_TRUE(c.parse("steps = 10\nbox = 3.5\nexp = 1e3\nneg = -7\n"));
  EXPECT_EQ(c.get_int("steps", -1), 10);
  EXPECT_DOUBLE_EQ(c.get_double("box", -1.0), 3.5);
  EXPECT_DOUBLE_EQ(c.get_double("exp", -1.0), 1000.0);
  EXPECT_EQ(c.get_int("neg", 0), -7);
  // set() stores verbatim; surrounding whitespace must still parse.
  c.set("padded", " 10 ");
  EXPECT_EQ(c.get_int("padded", -1), 10);
  EXPECT_DOUBLE_EQ(c.get_double("padded", -1.0), 10.0);
}

TEST(Config, ProgramPathWithEqualsNotIngested) {
  Config c;
  // Full argv including argv[0]: a program path containing '=' must not
  // become a config override, while real key=value arguments still apply.
  const char* argv[] = {"./out/run=prod/standalone_kernel", "np=8"};
  c.apply_overrides(2, argv);
  EXPECT_FALSE(c.has("./out/run"));
  EXPECT_EQ(c.values().size(), 1u);
  EXPECT_EQ(c.get_int("np", 0), 8);
}

TEST(Config, DottedKeysRoundTrip) {
  // Namespaced keys like gravity.backend flow through file parsing and
  // command-line overrides unchanged.
  Config c;
  ASSERT_TRUE(c.parse("gravity.backend = fmm\ngravity.theta = 0.5\n"));
  EXPECT_EQ(c.get_string("gravity.backend", ""), "fmm");
  EXPECT_DOUBLE_EQ(c.get_double("gravity.theta", 0.0), 0.5);
  const char* argv[] = {"gravity.backend=treepm"};
  c.apply_overrides(1, argv);
  EXPECT_EQ(c.get_string("gravity.backend", ""), "treepm");
}

TEST(Config, UnreadKeysAreThoseNoAccessorRead) {
  Config c;
  ASSERT_TRUE(c.parse("np = 8\nbox = 25\nflag = on\nname = x\ntypo = 1\n"));
  EXPECT_EQ(c.unread_keys(),
            (std::vector<std::string>{"box", "flag", "name", "np", "typo"}));
  c.get_int("np", 0);
  c.get_double("box", 0.0);
  c.get_bool("flag", false);
  EXPECT_TRUE(c.has("name"));
  // Reading an absent key records nothing that could be reported.
  EXPECT_FALSE(c.has("missing"));
  EXPECT_EQ(c.get_string("absent", "d"), "d");
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"typo"}));
  // A value that failed to parse was still read: it is invalid, not unknown.
  c.get_int("typo", 0);
  EXPECT_TRUE(c.unread_keys().empty());
  // A key set after it was read counts as read.
  c.set("np", "16");
  EXPECT_TRUE(c.unread_keys().empty());
  c.set("later", "1");
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"later"}));
}

}  // namespace
}  // namespace hacc::util
