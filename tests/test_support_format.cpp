#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/assert.h"
#include "support/csv.h"
#include "support/string_util.h"
#include "support/table.h"

namespace fjs {
namespace {

TEST(StringUtil, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(3.14, 4), "3.14");
  EXPECT_EQ(format_double(2.0, 4), "2");
  EXPECT_EQ(format_double(-0.0, 4), "0");
  EXPECT_EQ(format_double(0.5, 1), "0.5");
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
}

TEST(StringUtil, FormatFixedKeepsDecimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 3), "2.000");
}

TEST(StringUtil, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, Pad) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("batch+", "batch"));
  EXPECT_FALSE(starts_with("bat", "batch"));
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numeric cells right-align: "22" should be preceded by spaces.
  EXPECT_NE(out.find(" 22"), std::string::npos);
}

TEST(Table, NumericRowFormatting) {
  Table t({"a", "b"});
  t.add_row_numeric({1.0, 2.5}, 3);
  EXPECT_EQ(t.row_count(), 1u);
  const std::string csv = t.render_csv();
  EXPECT_EQ(csv, "a,b\n1,2.5\n");
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), AssertionError);
}

TEST(Csv, WritesQuotedCells) {
  const std::string path = ::testing::TempDir() + "fjs_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "note"});
    csv.write_row({"1", "has,comma"});
    csv.write_row({"2", "has\"quote"});
    ASSERT_TRUE(csv.ok());
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_NE(content.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"has\"\"quote\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatch) {
  const std::string path = ::testing::TempDir() + "fjs_csv_test2.csv";
  CsvWriter csv(path, {"x"});
  EXPECT_THROW(csv.write_row({"1", "2"}), AssertionError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fjs
