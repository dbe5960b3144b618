// Parameterized page-format tests: every behaviour must hold for all eight
// dialect parameter sets (the paper's central generalization claim).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/dialects.h"
#include "storage/page_formatter.h"

namespace dbfa {
namespace {

TableSchema TestSchema() {
  TableSchema s;
  s.name = "Customer";
  s.columns = {{"id", ColumnType::kInt, 0, false},
               {"name", ColumnType::kVarchar, 32, true},
               {"city", ColumnType::kVarchar, 24, true},
               {"balance", ColumnType::kDouble, 0, true}};
  s.primary_key = {"id"};
  return s;
}

Record MakeRow(int64_t id, const std::string& name, const std::string& city,
               double balance) {
  return {Value::Int(id), Value::Str(name), Value::Str(city),
          Value::Real(balance)};
}

class PageFormatterTest : public ::testing::TestWithParam<std::string> {
 protected:
  PageFormatterTest()
      : params_(GetDialect(GetParam()).value()),
        fmt_(params_),
        page_(params_.page_size, 0xCD) {}

  uint8_t* page() { return page_.data(); }
  ByteView view() const { return ByteView(page_.data(), page_.size()); }

  /// Inserts a typed record; returns its slot.
  uint16_t Insert(const Record& r, uint64_t row_id) {
    auto enc = fmt_.EncodeRecord(TestSchema(), r, row_id);
    EXPECT_TRUE(enc.ok()) << enc.status().ToString();
    auto slot = fmt_.InsertRecordBytes(page(), *enc);
    EXPECT_TRUE(slot.ok()) << slot.status().ToString();
    return *slot;
  }

  /// Parses the record in `slot` and returns (record, deleted).
  std::pair<Record, bool> ReadSlot(uint16_t slot) {
    auto info = fmt_.GetSlot(page(), slot);
    EXPECT_TRUE(info.has_value());
    auto parsed = fmt_.ParseRecordAt(view(), info->offset);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto rec = fmt_.DecodeTyped(*parsed, TestSchema());
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    return {*rec, fmt_.IsDeleted(*parsed, info->tombstoned)};
  }

  PageLayoutParams params_;
  PageFormatter fmt_;
  Bytes page_;
};

TEST_P(PageFormatterTest, InitPageWritesHeader) {
  fmt_.InitPage(page(), 7, 42, PageType::kData);
  EXPECT_TRUE(fmt_.HasMagic(page()));
  EXPECT_EQ(fmt_.PageId(page()), 7u);
  EXPECT_EQ(fmt_.ObjectId(page()), 42u);
  EXPECT_EQ(fmt_.TypeOf(page()), PageType::kData);
  EXPECT_EQ(fmt_.RecordCount(page()), 0u);
  EXPECT_EQ(fmt_.NextPage(page()), 0u);
  EXPECT_EQ(fmt_.Lsn(page()), 0u);
  EXPECT_TRUE(fmt_.VerifyChecksum(page()));
}

TEST_P(PageFormatterTest, ChecksumDetectsCorruption) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  Insert(MakeRow(1, "Joe", "Chicago", 10.5), 1);
  fmt_.UpdateChecksum(page());
  ASSERT_TRUE(fmt_.VerifyChecksum(page()));
  if (params_.checksum_kind == ChecksumKind::kNone) {
    GTEST_SKIP() << "dialect has no page checksum";
  }
  // += 1 rather than ^= 0xFF: Fletcher-16 works mod 255, so 0x00 -> 0xFF is
  // an undetectable change by construction.
  page()[params_.header_size + 100] += 1;
  EXPECT_FALSE(fmt_.VerifyChecksum(page()));
}

TEST_P(PageFormatterTest, HeaderSettersRoundTrip) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  fmt_.SetNextPage(page(), 99);
  fmt_.SetLsn(page(), 0x1122334455667788ull);
  fmt_.SetType(page(), PageType::kIndexLeaf);
  EXPECT_EQ(fmt_.NextPage(page()), 99u);
  EXPECT_EQ(fmt_.Lsn(page()), 0x1122334455667788ull);
  EXPECT_EQ(fmt_.TypeOf(page()), PageType::kIndexLeaf);
}

TEST_P(PageFormatterTest, RecordRoundTrip) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  Record r1 = MakeRow(101, "Joe", "Chicago", 12.25);
  Record r2 = MakeRow(102, "Jane", "Seattle", -3.5);
  uint16_t s1 = Insert(r1, 1);
  uint16_t s2 = Insert(r2, 2);
  EXPECT_EQ(fmt_.RecordCount(page()), 2u);
  auto [got1, del1] = ReadSlot(s1);
  auto [got2, del2] = ReadSlot(s2);
  EXPECT_EQ(got1, r1);
  EXPECT_EQ(got2, r2);
  EXPECT_FALSE(del1);
  EXPECT_FALSE(del2);
}

TEST_P(PageFormatterTest, NullValuesRoundTrip) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  Record r = {Value::Int(5), Value::Null(), Value::Str(""), Value::Null()};
  uint16_t s = Insert(r, 1);
  auto [got, deleted] = ReadSlot(s);
  EXPECT_EQ(got, r);
  EXPECT_TRUE(got[1].is_null());
  EXPECT_FALSE(got[2].is_null()) << "empty string is distinct from NULL";
  EXPECT_FALSE(deleted);
}

TEST_P(PageFormatterTest, RowIdPreservedWhenDialectStoresIt) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  uint16_t s = Insert(MakeRow(1, "A", "B", 0.0), 777);
  auto info = fmt_.GetSlot(page(), s);
  auto parsed = fmt_.ParseRecordAt(view(), info->offset);
  ASSERT_TRUE(parsed.ok());
  if (params_.stores_row_id) {
    EXPECT_EQ(parsed->row_id, 777u);
  } else {
    EXPECT_EQ(parsed->row_id, 0u);
  }
}

TEST_P(PageFormatterTest, DeleteMarksPerDialectStrategyAndPreservesData) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  Record victim = MakeRow(102, "Jane", "Seattle", 7.0);
  uint16_t s1 = Insert(MakeRow(101, "Joe", "Chicago", 1.0), 1);
  uint16_t s2 = Insert(victim, 2);
  uint16_t s3 = Insert(MakeRow(103, "Jim", "Austin", 2.0), 3);
  ASSERT_TRUE(fmt_.MarkDeleted(page(), s2).ok());

  auto [got2, del2] = ReadSlot(s2);
  EXPECT_TRUE(del2);
  // The forensic essence of Figure 1: deletion marks metadata, the values
  // survive (for the row-identifier strategy the row id is destroyed but
  // the user data still decodes).
  EXPECT_EQ(got2[1], Value::Str("Jane"));
  EXPECT_EQ(got2[2], Value::Str("Seattle"));

  auto [got1, del1] = ReadSlot(s1);
  auto [got3, del3] = ReadSlot(s3);
  EXPECT_FALSE(del1);
  EXPECT_FALSE(del3);
  EXPECT_EQ(got1[1], Value::Str("Joe"));
  EXPECT_EQ(got3[1], Value::Str("Jim"));
}

TEST_P(PageFormatterTest, DeleteStrategyTouchesExpectedField) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  uint16_t s = Insert(MakeRow(1, "Jane", "X", 0.0), 42);
  auto info_before = fmt_.GetSlot(page(), s);
  auto parsed_before = fmt_.ParseRecordAt(view(), info_before->offset);
  ASSERT_TRUE(parsed_before.ok());
  ASSERT_TRUE(fmt_.MarkDeleted(page(), s).ok());
  auto info = fmt_.GetSlot(page(), s);
  auto parsed = fmt_.ParseRecordAt(view(), info->offset);
  ASSERT_TRUE(parsed.ok());
  switch (params_.delete_strategy) {
    case DeleteStrategy::kRowMarker:
      EXPECT_TRUE(parsed->row_marker_deleted);
      EXPECT_FALSE(info->tombstoned);
      break;
    case DeleteStrategy::kDataMarker:
      EXPECT_TRUE(parsed->data_marker_deleted);
      EXPECT_FALSE(parsed->row_marker_deleted);
      break;
    case DeleteStrategy::kRowIdentifier:
      EXPECT_EQ(parsed->row_id, 0u);
      EXPECT_EQ(parsed_before->row_id, 42u);
      break;
    case DeleteStrategy::kSlotTombstone:
      EXPECT_TRUE(info->tombstoned);
      EXPECT_FALSE(parsed->row_marker_deleted);
      EXPECT_FALSE(parsed->data_marker_deleted);
      break;
  }
}

TEST_P(PageFormatterTest, FreeSpaceShrinksAndInsertFailsWhenFull) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  size_t before = fmt_.FreeSpace(page());
  ASSERT_GT(before, 0u);
  auto enc =
      fmt_.EncodeRecord(TestSchema(), MakeRow(1, "AAAA", "BBBB", 1.0), 1);
  ASSERT_TRUE(enc.ok());
  size_t inserted = 0;
  while (true) {
    auto slot = fmt_.InsertRecordBytes(page(), *enc);
    if (!slot.ok()) {
      EXPECT_EQ(slot.status().code(), StatusCode::kOutOfRange);
      break;
    }
    ++inserted;
    ASSERT_LT(inserted, 10000u) << "page never filled";
  }
  EXPECT_GT(inserted, 10u);
  EXPECT_LT(fmt_.FreeSpace(page()), enc->size() + params_.SlotEntrySize());
  // All inserted records still readable.
  for (uint16_t i = 0; i < inserted; ++i) {
    auto info = fmt_.GetSlot(page(), i);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(fmt_.ParseRecordAt(view(), info->offset).ok());
  }
}

TEST_P(PageFormatterTest, SlotOutOfRangeReturnsNullopt) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  EXPECT_FALSE(fmt_.GetSlot(page(), 0).has_value());
  EXPECT_FALSE(fmt_.MarkDeleted(page(), 3).ok());
}

TEST_P(PageFormatterTest, ScanRecordsRawFindsAllRecordsWithoutSlots) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  for (int i = 0; i < 20; ++i) {
    Insert(MakeRow(i, "Name" + std::to_string(i), "City", i * 1.5), i + 1);
  }
  auto found = fmt_.ScanRecordsRaw(view());
  EXPECT_GE(found.size(), 20u);
  // Every planted id must be recovered by the raw scan.
  std::vector<bool> seen(20, false);
  for (const ParsedRecord& r : found) {
    auto rec = fmt_.DecodeTyped(r, TestSchema());
    if (!rec.ok()) continue;
    int64_t id = (*rec)[0].as_int();
    if (id >= 0 && id < 20) seen[static_cast<size_t>(id)] = true;
  }
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(seen[i]) << "missing id " << i;
}

TEST_P(PageFormatterTest, ParseRejectsGarbageOffsets) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  Rng rng(99);
  for (size_t i = 0; i < page_.size(); ++i) {
    page_[i] = static_cast<uint8_t>(rng.NextU64());
  }
  // Random bytes must never crash; most offsets must fail to parse.
  size_t parsed_ok = 0;
  for (uint32_t off = 0; off + 16 < params_.page_size; off += 7) {
    if (fmt_.ParseRecordAt(view(), static_cast<uint16_t>(off)).ok()) {
      ++parsed_ok;
    }
  }
  EXPECT_LT(parsed_ok, 20u);
}

TEST_P(PageFormatterTest, IndexLeafEntryRoundTrip) {
  fmt_.InitPage(page(), 3, 9, PageType::kIndexLeaf);
  std::vector<Value> keys = {Value::Int(12345), Value::Str("abc")};
  RowPointer ptr{77, 5};
  Bytes entry = fmt_.EncodeLeafEntry(keys, ptr);
  auto slot = fmt_.InsertRecordBytes(page(), entry, 0);
  ASSERT_TRUE(slot.ok());
  auto info = fmt_.GetSlot(page(), *slot);
  auto parsed = fmt_.ParseIndexEntryAt(view(), info->offset);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->pointer, ptr);
  ASSERT_EQ(parsed->keys.size(), 2u);
  EXPECT_EQ(parsed->keys[0], Value::Int(12345));
  EXPECT_EQ(parsed->keys[1], Value::Str("abc"));
}

TEST_P(PageFormatterTest, IndexEntryWithNullAndDoubleKeys) {
  fmt_.InitPage(page(), 3, 9, PageType::kIndexLeaf);
  std::vector<Value> keys = {Value::Null(), Value::Real(2.5)};
  Bytes entry = fmt_.EncodeLeafEntry(keys, RowPointer{1, 0});
  auto slot = fmt_.InsertRecordBytes(page(), entry, 0);
  ASSERT_TRUE(slot.ok());
  auto info = fmt_.GetSlot(page(), *slot);
  auto parsed = fmt_.ParseIndexEntryAt(view(), info->offset);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->keys[0].is_null());
  EXPECT_EQ(parsed->keys[1], Value::Real(2.5));
}

TEST_P(PageFormatterTest, SlotInsertPositionOrdersEntries) {
  // Index pages insert slots at sort positions; verify the slot array
  // shifts correctly in both placements.
  fmt_.InitPage(page(), 1, 9, PageType::kIndexLeaf);
  // Insert keys 2, 0, 1 at positions 0, 0, 1 -> order should be 0, 1, 2.
  auto ins = [&](int64_t k, int pos) {
    Bytes e = fmt_.EncodeLeafEntry({Value::Int(k)},
                                   RowPointer{static_cast<uint32_t>(k), 0});
    auto s = fmt_.InsertRecordBytes(page(), e, pos);
    ASSERT_TRUE(s.ok());
  };
  ins(2, 0);
  ins(0, 0);
  ins(1, 1);
  std::vector<int64_t> got;
  for (uint16_t i = 0; i < fmt_.RecordCount(page()); ++i) {
    auto info = fmt_.GetSlot(page(), i);
    auto parsed = fmt_.ParseIndexEntryAt(view(), info->offset);
    ASSERT_TRUE(parsed.ok());
    got.push_back(parsed->keys[0].as_int());
  }
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2}));
}

TEST_P(PageFormatterTest, PointerCodecRoundTrip) {
  for (RowPointer ptr :
       {RowPointer{0, 0}, RowPointer{1, 5}, RowPointer{0xFFFFFF, 0x7FFF},
        RowPointer{123456, 42}}) {
    Bytes buf;
    fmt_.AppendPointer(&buf, ptr);
    size_t consumed = 0;
    auto got = fmt_.DecodePointer(buf, 0, &consumed);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, ptr);
    EXPECT_EQ(consumed, buf.size());
  }
}

TEST_P(PageFormatterTest, UntypedDecodeRecoversShapes) {
  fmt_.InitPage(page(), 1, 1, PageType::kData);
  uint16_t s = Insert(MakeRow(42, "Christine", "Chicago", 3.25), 1);
  auto info = fmt_.GetSlot(page(), s);
  auto parsed = fmt_.ParseRecordAt(view(), info->offset);
  ASSERT_TRUE(parsed.ok());
  Record untyped = fmt_.DecodeUntyped(*parsed);
  ASSERT_EQ(untyped.size(), 4u);
  EXPECT_EQ(untyped[0], Value::Int(42));
  EXPECT_EQ(untyped[1], Value::Str("Christine"));
  EXPECT_EQ(untyped[2], Value::Str("Chicago"));
}

INSTANTIATE_TEST_SUITE_P(
    AllDialects, PageFormatterTest, ::testing::ValuesIn(BuiltinDialectNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      return param_info.param;
    });

TEST(DialectRegistryTest, AllBuiltinsValidateAndAreDistinct) {
  auto all = AllDialects();
  ASSERT_EQ(all.size(), 8u);
  for (const auto& p : all) {
    EXPECT_TRUE(p.Validate().ok()) << p.dialect;
  }
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_FALSE(all[i] == all[j])
          << all[i].dialect << " vs " << all[j].dialect;
    }
  }
}

TEST(DialectRegistryTest, UnknownNameIsNotFound) {
  EXPECT_EQ(GetDialect("no_such").status().code(), StatusCode::kNotFound);
}

TEST(DialectRegistryTest, Figure1DeleteStrategies) {
  // The delete-marking strategies documented in Figure 1 of the paper.
  EXPECT_EQ(GetDialect("mysql_like")->delete_strategy,
            DeleteStrategy::kRowMarker);
  EXPECT_EQ(GetDialect("oracle_like")->delete_strategy,
            DeleteStrategy::kRowMarker);
  EXPECT_EQ(GetDialect("postgres_like")->delete_strategy,
            DeleteStrategy::kDataMarker);
  EXPECT_EQ(GetDialect("sqlite_like")->delete_strategy,
            DeleteStrategy::kRowIdentifier);
  EXPECT_EQ(GetDialect("db2_like")->delete_strategy,
            DeleteStrategy::kSlotTombstone);
  EXPECT_EQ(GetDialect("sqlserver_like")->delete_strategy,
            DeleteStrategy::kSlotTombstone);
}

}  // namespace
}  // namespace dbfa
