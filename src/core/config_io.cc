#include "core/config_io.h"

#include <cstdlib>
#include <map>
#include <set>

#include "common/file_io.h"
#include "common/strings.h"

namespace dbfa {
namespace {

const char* BoolText(bool b) { return b ? "1" : "0"; }

// Strict decimal parse (ParseU64): config files may come from hostile
// evidence bundles.
Result<uint64_t> ParseUint(const std::string& v, const std::string& key) {
  uint64_t n = 0;
  if (!ParseU64(v, &n)) {
    return Status::InvalidArgument("bad integer for " + key + ": '" + v +
                                   "'");
  }
  return n;
}

// Strict hex byte: 1-2 hex digits, nothing else.
Result<uint8_t> ParseHexByte(const std::string& v, const std::string& key) {
  if (v.empty() || v.size() > 2) {
    return Status::InvalidArgument("bad hex byte for " + key + ": " + v);
  }
  uint32_t n = 0;
  for (char c : v) {
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint32_t>(c - 'A') + 10;
    } else {
      return Status::InvalidArgument("bad hex byte for " + key + ": " + v);
    }
    n = n * 16 + digit;
  }
  return static_cast<uint8_t>(n);
}

}  // namespace

bool CarverConfig::ForensicallyEquivalent(const CarverConfig& other) const {
  const PageLayoutParams& a = params;
  const PageLayoutParams& b = other.params;
  bool base = a.page_size == b.page_size && a.big_endian == b.big_endian &&
              a.magic_offset == b.magic_offset && a.magic == b.magic &&
              a.page_id_offset == b.page_id_offset &&
              a.object_id_offset == b.object_id_offset &&
              a.page_type_offset == b.page_type_offset &&
              a.record_count_offset == b.record_count_offset &&
              a.free_space_offset == b.free_space_offset &&
              a.next_page_offset == b.next_page_offset &&
              a.lsn_offset == b.lsn_offset &&
              a.checksum_kind == b.checksum_kind &&
              (a.checksum_kind == ChecksumKind::kNone ||
               a.checksum_offset == b.checksum_offset) &&
              a.header_size == b.header_size &&
              a.slot_placement == b.slot_placement &&
              a.slot_has_length == b.slot_has_length &&
              a.stores_row_id == b.stores_row_id &&
              (!a.stores_row_id || a.row_id_varint == b.row_id_varint) &&
              a.string_mode == b.string_mode &&
              a.delete_strategy == b.delete_strategy &&
              a.active_marker == b.active_marker &&
              a.data_marker_active == b.data_marker_active &&
              a.pointer_format == b.pointer_format &&
              a.index_entry_marker == b.index_entry_marker &&
              catalog_object_id == other.catalog_object_id;
  if (!base) return false;
  // Deleted-marker values are observable only for the strategy in use.
  switch (a.delete_strategy) {
    case DeleteStrategy::kRowMarker:
      return a.deleted_marker == b.deleted_marker;
    case DeleteStrategy::kDataMarker:
      return a.data_marker_deleted == b.data_marker_deleted;
    case DeleteStrategy::kRowIdentifier:
    case DeleteStrategy::kSlotTombstone:
      return true;
  }
  return true;
}

std::string ConfigToText(const CarverConfig& config) {
  const PageLayoutParams& p = config.params;
  std::string out;
  out += "# DBCarver page-layout configuration\n";
  out += StrFormat("dialect = %s\n", p.dialect.c_str());
  out += StrFormat("page_size = %u\n", p.page_size);
  out += StrFormat("big_endian = %s\n", BoolText(p.big_endian));
  out += StrFormat("magic_offset = %u\n", p.magic_offset);
  out += "magic =";
  for (uint8_t b : p.magic) out += StrFormat(" %02X", b);
  out += "\n";
  out += StrFormat("page_id_offset = %u\n", p.page_id_offset);
  out += StrFormat("object_id_offset = %u\n", p.object_id_offset);
  out += StrFormat("page_type_offset = %u\n", p.page_type_offset);
  out += StrFormat("record_count_offset = %u\n", p.record_count_offset);
  out += StrFormat("free_space_offset = %u\n", p.free_space_offset);
  out += StrFormat("next_page_offset = %u\n", p.next_page_offset);
  out += StrFormat("lsn_offset = %u\n", p.lsn_offset);
  out += StrFormat("checksum_kind = %s\n",
                   ChecksumKindName(p.checksum_kind));
  out += StrFormat("checksum_offset = %u\n", p.checksum_offset);
  out += StrFormat("header_size = %u\n", p.header_size);
  out += StrFormat("slot_placement = %s\n",
                   SlotPlacementName(p.slot_placement));
  out += StrFormat("slot_has_length = %s\n", BoolText(p.slot_has_length));
  out += StrFormat("stores_row_id = %s\n", BoolText(p.stores_row_id));
  out += StrFormat("row_id_varint = %s\n", BoolText(p.row_id_varint));
  out += StrFormat("string_mode = %s\n", StringModeName(p.string_mode));
  out += StrFormat("delete_strategy = %s\n",
                   DeleteStrategyName(p.delete_strategy));
  out += StrFormat("active_marker = %02X\n", p.active_marker);
  out += StrFormat("deleted_marker = %02X\n", p.deleted_marker);
  out += StrFormat("data_marker_active = %02X\n", p.data_marker_active);
  out += StrFormat("data_marker_deleted = %02X\n", p.data_marker_deleted);
  out += StrFormat("pointer_format = %s\n",
                   PointerFormatName(p.pointer_format));
  out += StrFormat("index_entry_marker = %02X\n", p.index_entry_marker);
  out += StrFormat("catalog_object_id = %u\n", config.catalog_object_id);
  return out;
}

// GCC 12's -Wmaybe-uninitialized misfires on the Result<std::string>
// returned by the `get` lambda below: it models the moved-from
// std::optional's string storage as possibly-uninitialized even though
// Result's value is only read after ok(). Clang and clang-tidy check this
// function with no suppression.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

Result<CarverConfig> ConfigFromText(const std::string& text) {
  std::map<std::string, std::string> kv;
  for (const std::string& raw_line : Split(text, '\n')) {
    std::string_view line = Trim(raw_line);
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("bad config line: " +
                                     std::string(line));
    }
    std::string key(Trim(line.substr(0, eq)));
    std::string value(Trim(line.substr(eq + 1)));
    if (key.empty()) {
      return Status::InvalidArgument("bad config line: " +
                                     std::string(line));
    }
    if (!kv.emplace(ToLower(key), value).second) {
      return Status::InvalidArgument("duplicate config key: " + key);
    }
  }
  std::set<std::string> used;
  auto get = [&](const char* key) -> Result<std::string> {
    auto it = kv.find(key);
    if (it == kv.end()) {
      return Status::InvalidArgument(std::string("missing key: ") + key);
    }
    used.insert(key);
    return it->second;
  };
  auto get_uint = [&](const char* key) -> Result<uint64_t> {
    DBFA_ASSIGN_OR_RETURN(std::string v, get(key));
    return ParseUint(v, key);
  };
  auto get_bool = [&](const char* key) -> Result<bool> {
    DBFA_ASSIGN_OR_RETURN(std::string v, get(key));
    if (v != "0" && v != "1") {
      return Status::InvalidArgument(std::string("bad bool for ") + key +
                                     ": " + v);
    }
    return v == "1";
  };
  auto get_hex_byte = [&](const char* key) -> Result<uint8_t> {
    DBFA_ASSIGN_OR_RETURN(std::string v, get(key));
    return ParseHexByte(v, key);
  };

  CarverConfig config;
  PageLayoutParams& p = config.params;
  DBFA_ASSIGN_OR_RETURN(p.dialect, get("dialect"));
  DBFA_ASSIGN_OR_RETURN(uint64_t page_size, get_uint("page_size"));
  if (page_size > UINT32_MAX) {
    // Truncating here could alias a hostile value onto a valid page size
    // and let the rest of the config parse into a half-sane state.
    return Status::InvalidArgument(
        StrFormat("page_size out of range: %llu",
                  static_cast<unsigned long long>(page_size)));
  }
  p.page_size = static_cast<uint32_t>(page_size);
  DBFA_ASSIGN_OR_RETURN(p.big_endian, get_bool("big_endian"));
  auto u16_field = [&](const char* key, uint16_t* out) -> Status {
    DBFA_ASSIGN_OR_RETURN(uint64_t v, get_uint(key));
    if (v > UINT16_MAX) {
      return Status::InvalidArgument(
          StrFormat("%s out of range: %llu", key,
                    static_cast<unsigned long long>(v)));
    }
    *out = static_cast<uint16_t>(v);
    return Status::Ok();
  };
  DBFA_RETURN_IF_ERROR(u16_field("magic_offset", &p.magic_offset));
  {
    DBFA_ASSIGN_OR_RETURN(std::string magic_text, get("magic"));
    p.magic.clear();
    for (const std::string& tok : Split(magic_text, ' ')) {
      std::string t(Trim(tok));
      if (t.empty()) continue;
      DBFA_ASSIGN_OR_RETURN(uint8_t b, ParseHexByte(t, "magic"));
      p.magic.push_back(b);
    }
  }
  DBFA_RETURN_IF_ERROR(u16_field("page_id_offset", &p.page_id_offset));
  DBFA_RETURN_IF_ERROR(u16_field("object_id_offset", &p.object_id_offset));
  DBFA_RETURN_IF_ERROR(u16_field("page_type_offset", &p.page_type_offset));
  DBFA_RETURN_IF_ERROR(
      u16_field("record_count_offset", &p.record_count_offset));
  DBFA_RETURN_IF_ERROR(u16_field("free_space_offset", &p.free_space_offset));
  DBFA_RETURN_IF_ERROR(u16_field("next_page_offset", &p.next_page_offset));
  DBFA_RETURN_IF_ERROR(u16_field("lsn_offset", &p.lsn_offset));
  {
    DBFA_ASSIGN_OR_RETURN(std::string kind, get("checksum_kind"));
    if (kind == "none") {
      p.checksum_kind = ChecksumKind::kNone;
    } else if (kind == "crc32") {
      p.checksum_kind = ChecksumKind::kCrc32;
    } else if (kind == "fletcher16") {
      p.checksum_kind = ChecksumKind::kFletcher16;
    } else if (kind == "xor8") {
      p.checksum_kind = ChecksumKind::kXor8;
    } else {
      return Status::InvalidArgument("bad checksum_kind: " + kind);
    }
  }
  DBFA_RETURN_IF_ERROR(u16_field("checksum_offset", &p.checksum_offset));
  DBFA_RETURN_IF_ERROR(u16_field("header_size", &p.header_size));
  {
    DBFA_ASSIGN_OR_RETURN(std::string v, get("slot_placement"));
    if (v == "front_slots_back_data") {
      p.slot_placement = SlotPlacement::kFrontSlotsBackData;
    } else if (v == "back_slots_front_data") {
      p.slot_placement = SlotPlacement::kBackSlotsFrontData;
    } else {
      return Status::InvalidArgument("bad slot_placement: " + v);
    }
  }
  DBFA_ASSIGN_OR_RETURN(p.slot_has_length, get_bool("slot_has_length"));
  DBFA_ASSIGN_OR_RETURN(p.stores_row_id, get_bool("stores_row_id"));
  DBFA_ASSIGN_OR_RETURN(p.row_id_varint, get_bool("row_id_varint"));
  {
    DBFA_ASSIGN_OR_RETURN(std::string v, get("string_mode"));
    if (v == "inline_sizes") {
      p.string_mode = StringMode::kInlineSizes;
    } else if (v == "column_directory") {
      p.string_mode = StringMode::kColumnDirectory;
    } else {
      return Status::InvalidArgument("bad string_mode: " + v);
    }
  }
  {
    DBFA_ASSIGN_OR_RETURN(std::string v, get("delete_strategy"));
    if (v == "row_marker") {
      p.delete_strategy = DeleteStrategy::kRowMarker;
    } else if (v == "data_marker") {
      p.delete_strategy = DeleteStrategy::kDataMarker;
    } else if (v == "row_identifier") {
      p.delete_strategy = DeleteStrategy::kRowIdentifier;
    } else if (v == "slot_tombstone") {
      p.delete_strategy = DeleteStrategy::kSlotTombstone;
    } else {
      return Status::InvalidArgument("bad delete_strategy: " + v);
    }
  }
  DBFA_ASSIGN_OR_RETURN(p.active_marker, get_hex_byte("active_marker"));
  DBFA_ASSIGN_OR_RETURN(p.deleted_marker, get_hex_byte("deleted_marker"));
  DBFA_ASSIGN_OR_RETURN(p.data_marker_active,
                        get_hex_byte("data_marker_active"));
  DBFA_ASSIGN_OR_RETURN(p.data_marker_deleted,
                        get_hex_byte("data_marker_deleted"));
  {
    DBFA_ASSIGN_OR_RETURN(std::string v, get("pointer_format"));
    if (v == "u32page_u16slot") {
      p.pointer_format = PointerFormat::kU32PageU16Slot;
    } else if (v == "u32page_u16slot_be") {
      p.pointer_format = PointerFormat::kU32PageU16SlotBE;
    } else if (v == "varint_page_slot") {
      p.pointer_format = PointerFormat::kVarintPageSlot;
    } else if (v == "u48_packed") {
      p.pointer_format = PointerFormat::kU48Packed;
    } else {
      return Status::InvalidArgument("bad pointer_format: " + v);
    }
  }
  DBFA_ASSIGN_OR_RETURN(p.index_entry_marker,
                        get_hex_byte("index_entry_marker"));
  DBFA_ASSIGN_OR_RETURN(uint64_t cat, get_uint("catalog_object_id"));
  if (cat > UINT32_MAX) {
    return Status::InvalidArgument(
        StrFormat("catalog_object_id out of range: %llu",
                  static_cast<unsigned long long>(cat)));
  }
  config.catalog_object_id = static_cast<uint32_t>(cat);
  // Every recognized key has been consumed above; anything left is a typo
  // or an injection attempt, and silently ignoring it would carve with a
  // different configuration than the analyst believes they loaded.
  for (const auto& [key, value] : kv) {
    if (used.find(key) == used.end()) {
      return Status::InvalidArgument("unknown config key: " + key);
    }
  }
  DBFA_RETURN_IF_ERROR(p.Validate());
  return config;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

Status SaveConfig(const std::string& path, const CarverConfig& config) {
  return WriteFile(path, ConfigToText(config));
}

Result<CarverConfig> LoadConfig(const std::string& path) {
  DBFA_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ConfigFromText(text);
}

}  // namespace dbfa
