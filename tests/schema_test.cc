#include <gtest/gtest.h>

#include "storage/schema.h"

namespace dbfa {
namespace {

TableSchema CustomerSchema() {
  TableSchema s;
  s.name = "Customer";
  s.columns = {{"id", ColumnType::kInt, 0, false},
               {"name", ColumnType::kVarchar, 32, true},
               {"city", ColumnType::kVarchar, 24, true},
               {"balance", ColumnType::kDouble, 0, true}};
  s.primary_key = {"id"};
  s.foreign_keys = {{"city", "City", "name"}};
  return s;
}

TEST(SchemaTest, ColumnIndexIsCaseInsensitive) {
  TableSchema s = CustomerSchema();
  EXPECT_EQ(s.ColumnIndex("name"), 1);
  EXPECT_EQ(s.ColumnIndex("NAME"), 1);
  EXPECT_EQ(s.ColumnIndex("missing"), -1);
}

TEST(SchemaTest, NumericColumnCount) {
  EXPECT_EQ(CustomerSchema().NumericColumnCount(), 2u);
}

TEST(SchemaTest, TypeCheck) {
  TableSchema s = CustomerSchema();
  EXPECT_TRUE(s.TypeCheck(
      {Value::Int(1), Value::Str("Joe"), Value::Str("NY"), Value::Real(1.0)}));
  EXPECT_TRUE(s.TypeCheck(
      {Value::Int(1), Value::Null(), Value::Null(), Value::Int(2)}))
      << "ints acceptable in DOUBLE columns; NULL acceptable anywhere";
  EXPECT_FALSE(s.TypeCheck({Value::Str("1"), Value::Str("Joe"),
                            Value::Str("NY"), Value::Real(1.0)}));
  EXPECT_FALSE(s.TypeCheck({Value::Int(1)})) << "arity mismatch";
}

TEST(SchemaTest, SerializeDeserializeRoundTrip) {
  TableSchema s = CustomerSchema();
  auto parsed = TableSchema::Deserialize(s.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, "Customer");
  ASSERT_EQ(parsed->columns.size(), 4u);
  EXPECT_EQ(parsed->columns[0].name, "id");
  EXPECT_EQ(parsed->columns[0].type, ColumnType::kInt);
  EXPECT_FALSE(parsed->columns[0].nullable);
  EXPECT_EQ(parsed->columns[1].max_length, 32u);
  EXPECT_EQ(parsed->primary_key, std::vector<std::string>{"id"});
  ASSERT_EQ(parsed->foreign_keys.size(), 1u);
  EXPECT_EQ(parsed->foreign_keys[0].column, "city");
  EXPECT_EQ(parsed->foreign_keys[0].ref_table, "City");
  EXPECT_EQ(parsed->foreign_keys[0].ref_column, "name");
}

TEST(SchemaTest, RoundTripWithoutPkOrFk) {
  TableSchema s;
  s.name = "T";
  s.columns = {{"a", ColumnType::kInt, 0, true}};
  auto parsed = TableSchema::Deserialize(s.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->primary_key.empty());
  EXPECT_TRUE(parsed->foreign_keys.empty());
}

TEST(SchemaTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(TableSchema::Deserialize("").ok());
  EXPECT_FALSE(TableSchema::Deserialize("just text").ok());
  EXPECT_FALSE(TableSchema::Deserialize("T|a,BOGUS,0,1||").ok());
  EXPECT_FALSE(TableSchema::Deserialize("T|||").ok()) << "no columns";
  EXPECT_FALSE(TableSchema::Deserialize("|a,INT,0,1||").ok()) << "no name";
  EXPECT_FALSE(TableSchema::Deserialize("T|a,INT,0,1||fk-broken").ok());
}

}  // namespace
}  // namespace dbfa
