#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.h"

namespace laps {
namespace {

TEST(Table, AsciiAlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{1});
  t.row().cell("b").cell(std::int64_t{12345});
  const std::string out = t.ascii();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 12345 |"), std::string::npos);
}

TEST(Table, DoubleFormatting) {
  Table t({"x"});
  t.row().cell(3.14159, 2);
  EXPECT_NE(t.ascii().find("3.14"), std::string::npos);
  Table t4({"x"});
  t4.row().cell(3.14159, 4);
  EXPECT_NE(t4.ascii().find("3.1416"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.row().cell("plain").cell("with,comma");
  t.row().cell("with\"quote").cell("x");
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
  EXPECT_EQ(csv.find("plain\""), std::string::npos);
}

TEST(Table, CsvHasHeaderAndRows) {
  Table t({"h1", "h2"});
  t.row().cell("r1c1").cell("r1c2");
  std::istringstream in(t.csv());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h1,h2");
  std::getline(in, line);
  EXPECT_EQ(line, "r1c1,r1c2");
}

TEST(Table, RejectsEmptyHeaders) {
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, RejectsCellWithoutRow) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), Error);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"a"});
  t.row().cell("1");
  EXPECT_THROW(t.cell("2"), Error);
}

TEST(Table, RejectsIncompleteRowOnNewRow) {
  Table t({"a", "b"});
  t.row().cell("only-one");
  EXPECT_THROW(t.row(), Error);
}

TEST(Table, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.rowCount(), 0u);
  t.row().cell("1");
  t.row().cell("2");
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(PercentImprovement, Basic) {
  EXPECT_DOUBLE_EQ(percentImprovement(100.0, 75.0), 25.0);
  EXPECT_DOUBLE_EQ(percentImprovement(100.0, 125.0), -25.0);
  EXPECT_DOUBLE_EQ(percentImprovement(100.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(percentImprovement(0.0, 10.0), 0.0);
}

}  // namespace
}  // namespace laps
