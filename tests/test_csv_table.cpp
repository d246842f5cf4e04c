// Unit tests for CSV output and console table rendering.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "common/error.h"
#include "common/table.h"

namespace burstq {
namespace {

TEST(CsvEscape, PlainPassthrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesCommasNewlines) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("he said \"hi\""), "\"he said \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line1\nline2"), "\"line1\nline2\"");
}

TEST(CsvFormat, RoundTripsDoubles) {
  EXPECT_EQ(csv_format(1.5), "1.5");
  EXPECT_EQ(csv_format(0.0), "0");
  const double v = 0.1234567890123;
  EXPECT_DOUBLE_EQ(std::stod(csv_format(v)), v);
}

TEST(CsvFormat, SpecialValues) {
  EXPECT_EQ(csv_format(std::nan("")), "nan");
  EXPECT_EQ(csv_format(1.0 / 0.0), "inf");
}

/// Per-test temp path: ctest runs each test as its own process, possibly
/// concurrently, so fixtures must not share one file.
std::string temp_path(const std::string& stem, const std::string& ext) {
  return ::testing::TempDir() + "/" + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ext;
}

class CsvWriterTest : public ::testing::Test {
 protected:
  std::string path_ = temp_path("burstq_csv_test", ".csv");
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_back() {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(CsvWriterTest, WritesRows) {
  {
    CsvWriter w(path_);
    w.row({"a", "b,c"});
    w.begin_row();
    w.field(1.5).field(std::size_t{7}).field("x");
    w.end_row();
    w.flush();
  }
  EXPECT_EQ(read_back(), "a,\"b,c\"\n1.5,7,x\n");
}

TEST_F(CsvWriterTest, RowProtocolEnforced) {
  CsvWriter w(path_);
  EXPECT_THROW(w.end_row(), InvalidArgument);
  EXPECT_THROW(w.field("x"), InvalidArgument);
  w.begin_row();
  EXPECT_THROW(w.begin_row(), InvalidArgument);
}

TEST(CsvWriterError, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), InvalidArgument);
}

TEST(ConsoleTable, RendersAlignedColumns) {
  ConsoleTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(ConsoleTable, TitleBanner) {
  ConsoleTable t({"x"});
  t.set_title("Figure 5");
  std::ostringstream oss;
  t.print(oss);
  EXPECT_EQ(oss.str().rfind("Figure 5", 0), 0u);
}

TEST(ConsoleTable, ArityMismatchThrows) {
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(ConsoleTable, EmptyHeaderThrows) {
  EXPECT_THROW(ConsoleTable({}), InvalidArgument);
}

TEST(ConsoleTable, NumericFormatters) {
  EXPECT_EQ(ConsoleTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(ConsoleTable::num(std::size_t{42}), "42");
  EXPECT_EQ(ConsoleTable::percent(0.456, 1), "45.6%");
}

}  // namespace
}  // namespace burstq
