#include <gtest/gtest.h>

#include <cstdint>

#include "storage/column.h"
#include "storage/table.h"
#include "storage/value.h"

namespace stetho::storage {
namespace {

// --- Value ---

TEST(ValueTest, NullValue) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Oid(9).AsOid(), 9u);
}

TEST(ValueTest, ToStringLiterals) {
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Value::Oid(7).ToString(), "7@0");
}

TEST(ValueTest, NumericConversions) {
  auto d = Value::Int(4).ToDouble();
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value(), 4.0);
  auto i = Value::Bool(true).ToInt();
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i.value(), 1);
  EXPECT_FALSE(Value::String("x").ToDouble().ok());
  EXPECT_FALSE(Value::Double(1.5).ToInt().ok());
}

TEST(ValueTest, CompareNumericCrossType) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(3.0).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, IntegersCompareExactlyAboveTwoTo53) {
  const int64_t big = int64_t{1} << 53;
  // Both sides round to 2^53 as doubles.
  EXPECT_FALSE(Value::Int(big) == Value::Int(big + 1));
  EXPECT_LT(Value::Int(big).Compare(Value::Int(big + 1)), 0);
  EXPECT_GT(Value::Int(-big).Compare(Value::Int(-big - 1)), 0);
  EXPECT_GT(Value::Int(INT64_MAX).Compare(Value::Int(INT64_MAX - 1)), 0);
  EXPECT_LT(Value::Int(INT64_MIN).Compare(Value::Int(INT64_MIN + 1)), 0);
  EXPECT_LT(Value::Oid(big).Compare(Value::Oid(big + 1)), 0);
  EXPECT_LT(Value::Oid(big).Compare(Value::Int(big + 1)), 0);
  EXPECT_LT(Value::Bool(true).Compare(Value::Int(2)), 0);
  // A :dbl side still compares by double value: 2^53 + 1 rounds to 2^53.
  EXPECT_EQ(Value::Int(big + 1).Compare(Value::Double(static_cast<double>(big))),
            0);
}

TEST(ValueTest, CompareNullsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_GT(Value::Int(0).Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, CompareStrings) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, EqualityRequiresSameType) {
  EXPECT_TRUE(Value::Int(2) == Value::Int(2));
  // 2 and 2.0 compare equal but are not the same typed value.
  EXPECT_FALSE(Value::Int(2) == Value::Double(2.0));
}

// --- Column ---

TEST(ColumnTest, AppendAndGet) {
  ColumnPtr col = Column::Make(DataType::kInt64);
  col->AppendInt(1);
  col->AppendInt(2);
  col->AppendInt(3);
  EXPECT_EQ(col->size(), 3u);
  EXPECT_EQ(col->IntAt(1), 2);
  EXPECT_EQ(col->GetValue(2), Value::Int(3));
}

TEST(ColumnTest, StringColumn) {
  ColumnPtr col = Column::Make(DataType::kString);
  col->AppendString("a");
  col->AppendString("b");
  EXPECT_EQ(col->StringAt(0), "a");
  EXPECT_EQ(col->GetValue(1), Value::String("b"));
}

TEST(ColumnTest, NullsBackfill) {
  ColumnPtr col = Column::Make(DataType::kDouble);
  col->AppendDouble(1.0);
  EXPECT_FALSE(col->has_nulls());
  col->AppendNull();
  EXPECT_TRUE(col->has_nulls());
  EXPECT_FALSE(col->IsNull(0));
  EXPECT_TRUE(col->IsNull(1));
  EXPECT_TRUE(col->GetValue(1).is_null());
}

TEST(ColumnTest, OidRange) {
  ColumnPtr col = Column::MakeOidRange(10, 4);
  ASSERT_EQ(col->size(), 4u);
  EXPECT_EQ(col->OidAt(0), 10u);
  EXPECT_EQ(col->OidAt(3), 13u);
  EXPECT_EQ(col->type(), DataType::kOid);
}

TEST(ColumnTest, AppendValueCoercion) {
  ColumnPtr col = Column::Make(DataType::kDouble);
  EXPECT_TRUE(col->AppendValue(Value::Int(2)).ok());
  EXPECT_DOUBLE_EQ(col->DoubleAt(0), 2.0);
  ColumnPtr s = Column::Make(DataType::kString);
  EXPECT_FALSE(s->AppendValue(Value::Int(2)).ok());
}

TEST(ColumnTest, Slice) {
  ColumnPtr col = Column::Make(DataType::kInt64);
  for (int i = 0; i < 10; ++i) col->AppendInt(i);
  ColumnPtr s = col->Slice(3, 6);
  ASSERT_EQ(s->size(), 3u);
  EXPECT_EQ(s->IntAt(0), 3);
  EXPECT_EQ(s->IntAt(2), 5);
}

TEST(ColumnTest, SliceClampsAndEmpty) {
  ColumnPtr col = Column::Make(DataType::kInt64);
  col->AppendInt(1);
  EXPECT_EQ(col->Slice(0, 100)->size(), 1u);
  EXPECT_EQ(col->Slice(5, 9)->size(), 0u);
}

TEST(ColumnTest, SlicePreservesNulls) {
  ColumnPtr col = Column::Make(DataType::kInt64);
  col->AppendInt(1);
  col->AppendNull();
  col->AppendInt(3);
  ColumnPtr s = col->Slice(1, 3);
  ASSERT_EQ(s->size(), 2u);
  EXPECT_TRUE(s->IsNull(0));
  EXPECT_FALSE(s->IsNull(1));
}

TEST(ColumnTest, Gather) {
  ColumnPtr col = Column::Make(DataType::kString);
  col->AppendString("a");
  col->AppendString("b");
  col->AppendString("c");
  auto r = col->Gather({2, 0, 2});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value()->size(), 3u);
  EXPECT_EQ(r.value()->StringAt(0), "c");
  EXPECT_EQ(r.value()->StringAt(1), "a");
  EXPECT_EQ(r.value()->StringAt(2), "c");
}

TEST(ColumnTest, GatherOutOfRange) {
  ColumnPtr col = Column::Make(DataType::kInt64);
  col->AppendInt(1);
  EXPECT_FALSE(col->Gather({1}).ok());
  EXPECT_FALSE(col->Gather({-1}).ok());
}

TEST(ColumnTest, MemoryBytesGrows) {
  ColumnPtr col = Column::Make(DataType::kInt64);
  size_t before = col->MemoryBytes();
  for (int i = 0; i < 1000; ++i) col->AppendInt(i);
  EXPECT_GT(col->MemoryBytes(), before);
  EXPECT_GE(col->MemoryBytes(), 1000 * sizeof(int64_t));
}

// --- Schema / Table / Catalog ---

Schema LineitemMini() {
  return Schema({{"l_partkey", DataType::kInt64},
                 {"l_tax", DataType::kDouble},
                 {"l_comment", DataType::kString}});
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s = LineitemMini();
  EXPECT_EQ(s.FindColumn("L_TAX"), 1);
  EXPECT_EQ(s.FindColumn("nope"), -1);
}

TEST(SchemaTest, ToString) {
  Schema s({{"a", DataType::kInt64}});
  EXPECT_EQ(s.ToString(), "(a:lng)");
}

TEST(TableTest, AppendRowAndColumnLookup) {
  TablePtr t = Table::Make("lineitem", LineitemMini());
  ASSERT_TRUE(
      t->AppendRow({Value::Int(1), Value::Double(0.06), Value::String("x")}).ok());
  ASSERT_TRUE(
      t->AppendRow({Value::Int(2), Value::Double(0.02), Value::String("y")}).ok());
  EXPECT_EQ(t->num_rows(), 2u);
  auto col = t->GetColumn("l_tax");
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ(col.value()->DoubleAt(1), 0.02);
  EXPECT_FALSE(t->GetColumn("bogus").ok());
}

TEST(TableTest, AppendRowArityMismatch) {
  TablePtr t = Table::Make("t", LineitemMini());
  EXPECT_FALSE(t->AppendRow({Value::Int(1)}).ok());
}

TEST(CatalogTest, AddAndLookup) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable(Table::Make("lineitem", LineitemMini())).ok());
  EXPECT_TRUE(cat.GetTable("LINEITEM").ok());
  EXPECT_FALSE(cat.GetTable("orders").ok());
  EXPECT_EQ(cat.num_tables(), 1u);
}

TEST(CatalogTest, DuplicateRejected) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable(Table::Make("t", LineitemMini())).ok());
  EXPECT_EQ(cat.AddTable(Table::Make("T", LineitemMini())).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace stetho::storage
