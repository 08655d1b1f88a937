// Unit tests for CLI option parsing (util/options.hpp).
#include "util/options.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace km {
namespace {

Options parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Options(static_cast<int>(args.size()),
                 const_cast<char**>(args.data()));
}

TEST(Options, EqualsForm) {
  const auto o = parse({"--n=100", "--eps=0.25", "--name=web"});
  EXPECT_EQ(o.get_uint("n", 0), 100u);
  EXPECT_DOUBLE_EQ(o.get_double("eps", 0.0), 0.25);
  EXPECT_EQ(o.get_string("name", ""), "web");
}

TEST(Options, SpaceForm) {
  const auto o = parse({"--n", "42", "--mode", "fast"});
  EXPECT_EQ(o.get_int("n", 0), 42);
  EXPECT_EQ(o.get_string("mode", ""), "fast");
}

TEST(Options, FlagWithoutValue) {
  const auto o = parse({"--verbose", "--n=5"});
  EXPECT_TRUE(o.has("verbose"));
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_FALSE(o.get_bool("quiet", false));
  EXPECT_TRUE(o.get_bool("quiet", true));
}

TEST(Options, BoolValues) {
  const auto o = parse({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(o.get_bool("a", false));
  EXPECT_FALSE(o.get_bool("b", true));
  EXPECT_TRUE(o.get_bool("c", false));
  EXPECT_FALSE(o.get_bool("d", true));
}

TEST(Options, FallbacksWhenAbsent) {
  const auto o = parse({});
  EXPECT_EQ(o.get_int("missing", -7), -7);
  EXPECT_EQ(o.get_uint("missing", 7), 7u);
  EXPECT_DOUBLE_EQ(o.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(o.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(o.has("missing"));
}

TEST(Options, UintOrKeyword) {
  const auto o = parse({"--a=auto", "--b=12", "--c=autox", "--d"});
  EXPECT_EQ(o.get_uint_or("a", "auto", 99, 7), 99u);
  EXPECT_EQ(o.get_uint_or("b", "auto", 99, 7), 12u);
  EXPECT_EQ(o.get_uint_or("missing", "auto", 99, 7), 7u);
  EXPECT_THROW(o.get_uint_or("c", "auto", 99, 7), OptionsError);
  EXPECT_THROW(o.get_uint_or("d", "auto", 99, 7), OptionsError);
}

TEST(Options, PositionalArguments) {
  const auto o = parse({"input.txt", "--n=3", "output.txt"});
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "input.txt");
  EXPECT_EQ(o.positional()[1], "output.txt");
}

TEST(Options, NegativeNumbers) {
  const auto o = parse({"--x=-5", "--y=-2.5"});
  EXPECT_EQ(o.get_int("x", 0), -5);
  EXPECT_DOUBLE_EQ(o.get_double("y", 0.0), -2.5);
}

// ---- Negative paths: CLI misuse must fail loudly with a clear message ----

TEST(Options, DuplicateFlagThrows) {
  try {
    parse({"--n=1", "--n=2"});
    FAIL() << "expected OptionsError";
  } catch (const OptionsError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate flag --n"),
              std::string::npos);
  }
}

TEST(Options, DuplicateAcrossFormsThrows) {
  EXPECT_THROW(parse({"--n", "1", "--n=2"}), OptionsError);
}

TEST(Options, EmptyFlagNameThrows) {
  EXPECT_THROW(parse({"--=5"}), OptionsError);
  EXPECT_THROW(parse({"--", "x"}), OptionsError);
}

TEST(Options, MalformedIntThrows) {
  const auto o = parse({"--n=abc", "--m=12x"});
  try {
    o.get_int("n", 0);
    FAIL() << "expected OptionsError";
  } catch (const OptionsError& e) {
    EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'abc'"), std::string::npos);
  }
  EXPECT_THROW(o.get_int("m", 0), OptionsError);  // trailing garbage
}

TEST(Options, MalformedUintRejectsSigns) {
  const auto o = parse({"--k=-5", "--j=+5"});
  EXPECT_THROW(o.get_uint("k", 0), OptionsError);
  EXPECT_THROW(o.get_uint("j", 0), OptionsError);
}

TEST(Options, MalformedDoubleThrows) {
  const auto o = parse({"--eps=fast"});
  EXPECT_THROW(o.get_double("eps", 0.0), OptionsError);
}

TEST(Options, MalformedBoolThrows) {
  const auto o = parse({"--flag=maybe"});
  EXPECT_THROW(o.get_bool("flag", false), OptionsError);
}

TEST(Options, MissingValueThrows) {
  // "--n --k=2": --n swallows no value (next token is a flag), so a
  // numeric getter on it must complain rather than return the fallback.
  const auto o = parse({"--n", "--k=2"});
  try {
    o.get_uint("n", 7);
    FAIL() << "expected OptionsError";
  } catch (const OptionsError& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
  EXPECT_EQ(o.get_uint("k", 0), 2u);
}

TEST(Options, RejectUnknown) {
  const auto o = parse({"--n=1", "--typo=2"});
  EXPECT_NO_THROW(o.reject_unknown({"n", "typo"}));
  try {
    o.reject_unknown({"n", "k"});
    FAIL() << "expected OptionsError";
  } catch (const OptionsError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown flag --typo"), std::string::npos);
    EXPECT_NE(msg.find("--k"), std::string::npos);  // lists the accepted set
  }
}

TEST(Options, OutOfRangeIntThrows) {
  const auto o = parse({"--big=99999999999999999999999999"});
  EXPECT_THROW(o.get_int("big", 0), OptionsError);
  EXPECT_THROW(o.get_uint("big", 0), OptionsError);
}

}  // namespace
}  // namespace km
