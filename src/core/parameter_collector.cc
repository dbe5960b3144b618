#include "core/parameter_collector.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "common/strings.h"

namespace dbfa {
namespace {

constexpr const char* kTableA = "CarvProbeA";
constexpr const char* kTableB = "CarvProbeB";
constexpr const char* kMarkerA = "CARVPA";  // first column of every A row
constexpr const char* kMarkerB = "CARVQB";
constexpr int64_t kPbBase = 100000;   // A.pb = kPbBase + i
constexpr int64_t kPdValue = 424242;  // A.pd constant
constexpr uint32_t kMaxPlausibleId = 1u << 24;

std::string MarkerA(int i) { return StrFormat("%s%06d", kMarkerA, i); }
std::string MarkerB(int i) { return StrFormat("%s%06d", kMarkerB, i); }

/// All positions where `needle` occurs in [begin, end) of `hay`.
std::vector<size_t> FindAll(ByteView hay, size_t begin, size_t end,
                            std::string_view needle) {
  std::vector<size_t> out;
  if (needle.empty() || end > hay.size()) return out;
  const uint8_t* base = hay.data();
  for (size_t i = begin; i + needle.size() <= end; ++i) {
    if (std::memcmp(base + i, needle.data(), needle.size()) == 0) {
      out.push_back(i);
    }
  }
  return out;
}

uint16_t RdU16(ByteView b, size_t off, bool be) {
  return ReadU16(b.data() + off, be);
}
uint32_t RdU32(ByteView b, size_t off, bool be) {
  return ReadU32(b.data() + off, be);
}
uint64_t RdU64(ByteView b, size_t off, bool be) {
  return ReadU64(b.data() + off, be);
}

/// Working state threaded through the inference steps.
struct Context {
  ParameterCollector::Options options;
  Bytes cap1, cap2, cap3;

  PageLayoutParams p;           // fields filled as steps complete
  uint32_t catalog_object_id = 0;

  // Page boundaries in cap1 (all multiples of page_size).
  std::vector<size_t> pages;
  // Per page: planted-marker hit counts and marker positions (page-rel).
  std::vector<int> a_count, b_count, cat_count;
  std::vector<std::vector<size_t>> a_marker_pos;  // page-relative offsets
  std::vector<size_t> a_pages, b_pages, cat_pages, other_pages;

  // Byte ranges already attributed to header fields.
  std::vector<std::pair<uint16_t, uint16_t>> assigned;  // (offset, width)

  // Pages whose bytes changed across the probe captures:
  // (offset in earlier capture, offset in later capture).
  std::vector<std::pair<size_t, size_t>> changed12, changed23;

  // Geometry interpretations that survive step 1+2. Small page ids and
  // record counts read identically under both byte orders (zero padding),
  // so several combos can be plausible; the full pipeline is run per
  // candidate and the first complete success wins.
  struct Geometry {
    bool be;
    uint16_t record_count_offset;
    uint16_t page_id_offset;
  };
  std::vector<Geometry> geometry_candidates;

  ByteView Page(size_t page_index) const {
    return ByteView(cap1.data() + pages[page_index], p.page_size);
  }

  bool Overlaps(uint16_t offset, uint16_t width) const {
    for (auto [o, w] : assigned) {
      if (offset < o + w && o < offset + width) return true;
    }
    return false;
  }
  void Assign(uint16_t offset, uint16_t width) {
    assigned.emplace_back(offset, width);
  }
};

/// Walks a record's header at page-relative `off` using the already
/// inferred framing flags; returns field positions (page-relative).
struct RecordWalk {
  size_t row_id_pos = 0;
  size_t row_id_len = 0;
  uint64_t row_id = 0;
  size_t cc_pos = 0;
  uint8_t cc = 0;
  uint8_t nc = 0;
  size_t data_marker_pos = 0;
  size_t record_len_pos = 0;
  uint16_t record_len = 0;
  size_t payload_pos = 0;
};

bool WalkRecord(const Context& ctx, ByteView page, size_t off,
                RecordWalk* w) {
  const PageLayoutParams& p = ctx.p;
  size_t pos = off + 2;  // marker + flags
  if (p.stores_row_id) {
    w->row_id_pos = pos;
    if (p.row_id_varint) {
      size_t consumed = 0;
      auto v = DecodeVarint(page, pos, &consumed);
      if (!v.has_value()) return false;
      w->row_id = *v;
      w->row_id_len = consumed;
    } else {
      if (pos + 4 > page.size()) return false;
      w->row_id = RdU32(page, pos, p.big_endian);
      w->row_id_len = 4;
    }
    pos += w->row_id_len;
  }
  if (pos + 2 > page.size()) return false;
  w->cc_pos = pos;
  w->cc = page[pos];
  w->nc = page[pos + 1];
  if (w->cc == 0 || w->nc > w->cc) return false;
  pos += 2;
  size_t bitmap_len = (w->cc + 7) / 8;
  pos += bitmap_len;  // null bitmap
  if (p.string_mode == StringMode::kColumnDirectory) pos += bitmap_len;
  if (pos + 3 > page.size()) return false;
  w->data_marker_pos = pos;
  w->record_len_pos = pos + 1;
  w->record_len = RdU16(page, pos + 1, p.big_endian);
  w->payload_pos = pos + 3;
  if (off + w->record_len > page.size() || w->record_len < 8) return false;
  return true;
}

// ---- step 1+2: page size, page-id field, record-count field, endian -------

Status InferPageGeometry(Context* ctx) {
  struct Candidate {
    uint32_t size;
    bool be;
    uint16_t offset;
    size_t score;
  };
  std::vector<Candidate> candidates;
  size_t best_score = 0;
  for (uint32_t size : {1024u, 2048u, 4096u, 8192u, 16384u, 32768u}) {
    size_t num_pages = ctx->cap1.size() / size;
    if (num_pages < 4) continue;
    for (bool be : {false, true}) {
      for (uint16_t o = 0; o + 4 <= 96; ++o) {
        size_t score = 0;
        uint32_t prev = 0;
        for (size_t k = 0; k < num_pages; ++k) {
          uint32_t v = RdU32(ctx->cap1, k * size + o, be);
          if (k > 0 && v == prev + 1 && v >= 2 && v < kMaxPlausibleId) {
            ++score;
          }
          prev = v;
        }
        if (score >= 3 && score * 2 >= num_pages) {
          candidates.push_back({size, be, o, score});
          best_score = std::max(best_score, score);
        }
      }
    }
  }
  if (candidates.empty()) {
    return Status::NotFound("no page-id progression found at any page size");
  }
  // Keep only top-scoring page size (the true size maximizes +1 steps).
  uint32_t size = 0;
  for (const Candidate& c : candidates) {
    if (c.score == best_score) size = c.size;
  }
  ctx->p.page_size = size;
  ctx->pages.clear();
  for (size_t o = 0; o + size <= ctx->cap1.size(); o += size) {
    ctx->pages.push_back(o);
  }

  // Group pages by planted markers.
  std::string schema_marker_a = std::string(kTableA) + "|";
  std::string schema_marker_b = std::string(kTableB) + "|";
  size_t n = ctx->pages.size();
  ctx->a_count.assign(n, 0);
  ctx->b_count.assign(n, 0);
  ctx->cat_count.assign(n, 0);
  ctx->a_marker_pos.assign(n, {});
  for (size_t i = 0; i < n; ++i) {
    size_t begin = ctx->pages[i];
    size_t end = begin + size;
    auto a_hits = FindAll(ctx->cap1, begin, end, kMarkerA);
    ctx->a_count[i] = static_cast<int>(a_hits.size());
    for (size_t pos : a_hits) ctx->a_marker_pos[i].push_back(pos - begin);
    ctx->b_count[i] =
        static_cast<int>(FindAll(ctx->cap1, begin, end, kMarkerB).size());
    ctx->cat_count[i] = static_cast<int>(
        FindAll(ctx->cap1, begin, end, schema_marker_a).size() +
        FindAll(ctx->cap1, begin, end, schema_marker_b).size());
    if (ctx->a_count[i] > 0) {
      ctx->a_pages.push_back(i);
    } else if (ctx->b_count[i] > 0) {
      ctx->b_pages.push_back(i);
    } else if (ctx->cat_count[i] > 0) {
      ctx->cat_pages.push_back(i);
    } else {
      ctx->other_pages.push_back(i);
    }
  }
  if (ctx->a_pages.size() < 2 || ctx->b_pages.empty() ||
      ctx->cat_pages.empty()) {
    return Status::Internal(StrFormat(
        "probe produced too few pages (A=%zu B=%zu cat=%zu); increase "
        "probe_rows",
        ctx->a_pages.size(), ctx->b_pages.size(), ctx->cat_pages.size()));
  }

  // Record-count field: u16 equal to the known marker count on every probe
  // page. A symmetric byte order can also match (a small count with a zero
  // neighbour reads the same both ways at shifted offsets), so collect all
  // (endianness, offset) candidates and pick the one whose byte order also
  // yields a page-id field.
  struct CountCandidate {
    bool be;
    uint16_t offset;
  };
  std::vector<CountCandidate> count_candidates;
  for (bool be : {false, true}) {
    for (uint16_t o = 0; o + 2 <= 96; ++o) {
      bool ok = true;
      for (size_t i : ctx->a_pages) {
        if (RdU16(ctx->Page(i), o, be) !=
            static_cast<uint16_t>(ctx->a_count[i])) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      for (size_t i : ctx->b_pages) {
        if (RdU16(ctx->Page(i), o, be) !=
            static_cast<uint16_t>(ctx->b_count[i])) {
          ok = false;
          break;
        }
      }
      if (ok) count_candidates.push_back({be, o});
    }
  }
  if (count_candidates.empty()) {
    return Status::NotFound("no record-count field matched planted counts");
  }
  for (const CountCandidate& cc : count_candidates) {
    size_t best = 0;
    uint16_t best_offset = 0;
    bool have = false;
    for (const Candidate& c : candidates) {
      if (c.size != size || c.be != cc.be) continue;
      // The fields may not overlap each other.
      if (c.offset + 4 > cc.offset && cc.offset + 2 > c.offset) continue;
      // Exact field: the first page of the image must read id 1.
      if (RdU32(ctx->cap1, c.offset, c.be) != 1) continue;
      if (!have || c.score > best) {
        best = c.score;
        best_offset = c.offset;
        have = true;
      }
    }
    if (have) {
      ctx->geometry_candidates.push_back({cc.be, cc.offset, best_offset});
    }
  }
  if (ctx->geometry_candidates.empty()) {
    return Status::NotFound("page-id field lost after byte-order fixing");
  }
  return Status::Ok();
}

// ---- step 3: magic ----------------------------------------------------------

Status InferMagic(Context* ctx) {
  const size_t limit = 96;
  std::vector<bool> constant(limit, true);
  std::vector<uint8_t> value(limit, 0);
  ByteView first = ctx->Page(0);
  for (size_t o = 0; o < limit; ++o) value[o] = first[o];
  for (size_t i = 1; i < ctx->pages.size(); ++i) {
    ByteView page = ctx->Page(i);
    for (size_t o = 0; o < limit; ++o) {
      if (page[o] != value[o]) constant[o] = false;
    }
  }
  // Longest run of constant bytes containing a non-zero byte; trim zero
  // padding from both ends; lowest offset wins ties.
  size_t best_len = 0;
  size_t best_off = 0;
  size_t o = 0;
  while (o < limit) {
    if (!constant[o]) {
      ++o;
      continue;
    }
    size_t start = o;
    while (o < limit && constant[o]) ++o;
    size_t end = o;  // [start, end)
    while (start < end && value[start] == 0) ++start;
    while (end > start && value[end - 1] == 0) --end;
    // Magic bytes are a contiguous non-zero stamp; a zero inside the run
    // is padding that happens to be followed by another constant byte.
    for (size_t i = start; i < end; ++i) {
      if (value[i] == 0) {
        end = i;
        break;
      }
    }
    size_t len = end - start;
    if (len > 4) len = 4;  // magics are short; keep the leading bytes
    if (len > best_len) {
      best_len = len;
      best_off = start;
    }
  }
  if (best_len == 0) {
    return Status::NotFound("no constant non-zero bytes for a page magic");
  }
  ctx->p.magic_offset = static_cast<uint16_t>(best_off);
  ctx->p.magic.assign(value.begin() + best_off,
                      value.begin() + best_off + best_len);
  ctx->Assign(ctx->p.magic_offset, static_cast<uint16_t>(best_len));
  return Status::Ok();
}

// ---- step 4: object id -----------------------------------------------------

Status InferObjectId(Context* ctx) {
  auto group_value = [&](const std::vector<size_t>& group, uint16_t o,
                         uint32_t* out) {
    uint32_t v = RdU32(ctx->Page(group[0]), o, ctx->p.big_endian);
    for (size_t i : group) {
      if (RdU32(ctx->Page(i), o, ctx->p.big_endian) != v) return false;
    }
    *out = v;
    return true;
  };
  for (uint16_t o = 0; o + 4 <= 96; ++o) {
    if (ctx->Overlaps(o, 4)) continue;
    uint32_t va = 0;
    uint32_t vb = 0;
    uint32_t vc = 0;
    if (!group_value(ctx->a_pages, o, &va) ||
        !group_value(ctx->b_pages, o, &vb) ||
        !group_value(ctx->cat_pages, o, &vc)) {
      continue;
    }
    if (va == 0 || vb == 0 || vc == 0) continue;
    if (va == vb || va == vc || vb == vc) continue;
    // Object ids are small and dense.
    uint32_t max_seen = 0;
    bool sane = true;
    for (size_t i = 0; i < ctx->pages.size(); ++i) {
      uint32_t v = RdU32(ctx->Page(i), o, ctx->p.big_endian);
      if (v == 0 || v > 64) {
        sane = false;
        break;
      }
      max_seen = std::max(max_seen, v);
    }
    if (!sane) continue;
    ctx->p.object_id_offset = o;
    ctx->catalog_object_id = vc;
    ctx->Assign(o, 4);
    return Status::Ok();
  }
  return Status::NotFound("no object-id field distinguishing probe tables");
}

// ---- step 5: page type ------------------------------------------------------

Status InferPageType(Context* ctx) {
  std::vector<size_t> data_pages = ctx->a_pages;
  data_pages.insert(data_pages.end(), ctx->b_pages.begin(),
                    ctx->b_pages.end());
  data_pages.insert(data_pages.end(), ctx->cat_pages.begin(),
                    ctx->cat_pages.end());
  if (ctx->other_pages.empty()) {
    return Status::Internal("no index pages in probe capture");
  }
  for (uint16_t o = 0; o < 96; ++o) {
    if (ctx->Overlaps(o, 1)) continue;
    uint8_t data_value = ctx->Page(data_pages[0])[o];
    bool ok = true;
    for (size_t i : data_pages) {
      if (ctx->Page(i)[o] != data_value) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    std::set<uint8_t> other_values;
    for (size_t i : ctx->other_pages) other_values.insert(ctx->Page(i)[o]);
    if (other_values.count(data_value) != 0) continue;  // must differ
    if (other_values.empty() || other_values.size() > 2) continue;
    ctx->p.page_type_offset = o;
    ctx->Assign(o, 1);
    return Status::Ok();
  }
  return Status::NotFound("no page-type field separating data/index pages");
}

// ---- step 6: page LSN -------------------------------------------------------

/// Locates a page with (object_id, page_id) in an arbitrary capture using
/// the already-known geometry fields.
std::optional<size_t> FindPageIn(const Context& ctx, const Bytes& capture,
                                 uint32_t object_id, uint32_t page_id) {
  for (size_t off = 0; off + ctx.p.page_size <= capture.size();
       off += ctx.p.page_size) {
    if (RdU32(capture, off + ctx.p.object_id_offset, ctx.p.big_endian) ==
            object_id &&
        RdU32(capture, off + ctx.p.page_id_offset, ctx.p.big_endian) ==
            page_id) {
      return off;
    }
  }
  return std::nullopt;
}

Status ComputeChangedPages(Context* ctx) {
  auto diff = [&](const Bytes& a, const Bytes& b,
                  std::vector<std::pair<size_t, size_t>>* out) {
    for (size_t off = 0; off + ctx->p.page_size <= a.size();
         off += ctx->p.page_size) {
      uint32_t object_id = ReadU32(a.data() + off + ctx->p.object_id_offset,
                                   ctx->p.big_endian);
      uint32_t page_id = ReadU32(a.data() + off + ctx->p.page_id_offset,
                                 ctx->p.big_endian);
      auto off_b = FindPageIn(*ctx, b, object_id, page_id);
      if (!off_b.has_value()) continue;
      if (std::memcmp(a.data() + off, b.data() + *off_b,
                      ctx->p.page_size) != 0) {
        out->emplace_back(off, *off_b);
      }
    }
  };
  diff(ctx->cap1, ctx->cap2, &ctx->changed12);
  diff(ctx->cap2, ctx->cap3, &ctx->changed23);
  if (ctx->changed12.empty() || ctx->changed23.empty()) {
    return Status::Internal("probe mutations changed no page");
  }
  return Status::Ok();
}

Status InferLsn(Context* ctx) {
  // Global modification counter properties pin the field exactly:
  //  (a) unique per page, (b) small magnitude, (c) its low-order byte
  //  varies (kills byte-shifted reads, whose low byte is padding),
  //  (d,e) pages modified by a probe receive stamps larger than every
  //  stamp in the previous capture (kills checksum bytes, which change
  //  but not monotonically above the global maximum).
  uint64_t best_max = UINT64_MAX;
  int best_offset = -1;
  for (uint16_t o = 0; o + 8 <= 96; ++o) {
    if (ctx->Overlaps(o, 8)) continue;
    std::set<uint64_t> seen;
    bool ok = true;
    uint64_t max1 = 0;
    uint8_t first_low = 0;
    bool low_varies = false;
    size_t low_pos = ctx->p.big_endian ? o + 7 : o;
    for (size_t i = 0; i < ctx->pages.size(); ++i) {
      ByteView page = ctx->Page(i);
      uint64_t v = RdU64(page, o, ctx->p.big_endian);
      if (v == 0 || v >= (1ull << 24) || !seen.insert(v).second) {
        ok = false;
        break;
      }
      max1 = std::max(max1, v);
      if (i == 0) {
        first_low = page[low_pos];
      } else if (page[low_pos] != first_low) {
        low_varies = true;
      }
    }
    if (!ok || !low_varies) continue;
    uint64_t max2 = max1;
    for (auto [off1, off2] : ctx->changed12) {
      uint64_t v2 = ReadU64(ctx->cap2.data() + off2 + o, ctx->p.big_endian);
      if (v2 <= max1 || v2 >= (1ull << 24)) {
        ok = false;
        break;
      }
      max2 = std::max(max2, v2);
    }
    if (!ok) continue;
    for (auto [off2, off3] : ctx->changed23) {
      uint64_t v3 = ReadU64(ctx->cap3.data() + off3 + o, ctx->p.big_endian);
      if (v3 <= max2 || v3 >= (1ull << 24)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    if (max1 < best_max) {
      best_max = max1;
      best_offset = o;
    }
  }
  if (best_offset < 0) {
    return Status::NotFound("no page-LSN field found");
  }
  ctx->p.lsn_offset = static_cast<uint16_t>(best_offset);
  ctx->Assign(ctx->p.lsn_offset, 8);
  return Status::Ok();
}

// ---- step 7: checksum -------------------------------------------------------

Status InferChecksum(Context* ctx) {
  // Runs last among the header steps: XOR-style folds make the whole page
  // XOR to zero, so *every* byte satisfies "field == checksum of the
  // rest". Exactness comes from (a) restricting to unattributed header
  // bytes and (b) requiring the field to have visibly changed on a page
  // modified by the insert probe.
  for (ChecksumKind kind : {ChecksumKind::kCrc32, ChecksumKind::kFletcher16,
                            ChecksumKind::kXor8}) {
    size_t width = ChecksumWidth(kind);
    for (uint16_t o = 0; o + width <= ctx->p.header_size; ++o) {
      if (ctx->Overlaps(o, static_cast<uint16_t>(width))) continue;
      bool ok = true;
      for (size_t i = 0; i < ctx->pages.size() && ok; ++i) {
        ByteView page = ctx->Page(i);
        ChecksumStream stream(kind);
        stream.Update(ByteView(page.data(), o));
        stream.Update(ByteView(page.data() + o + width,
                               ctx->p.page_size - o - width));
        uint32_t expected = stream.Final();
        uint32_t stored = 0;
        for (size_t b = 0; b < width; ++b) {
          size_t shift = ctx->p.big_endian ? (width - 1 - b) * 8 : b * 8;
          stored |= static_cast<uint32_t>(page[o + b]) << shift;
        }
        ok = stored == expected;
      }
      if (!ok) continue;
      bool observed_change = false;
      for (auto [off1, off2] : ctx->changed12) {
        if (std::memcmp(ctx->cap1.data() + off1 + o,
                        ctx->cap2.data() + off2 + o, width) != 0) {
          observed_change = true;
          break;
        }
      }
      for (auto [off2, off3] : ctx->changed23) {
        if (observed_change) break;
        if (std::memcmp(ctx->cap2.data() + off2 + o,
                        ctx->cap3.data() + off3 + o, width) != 0) {
          observed_change = true;
        }
      }
      if (!observed_change) continue;
      ctx->p.checksum_kind = kind;
      ctx->p.checksum_offset = o;
      ctx->Assign(o, static_cast<uint16_t>(width));
      return Status::Ok();
    }
  }
  ctx->p.checksum_kind = ChecksumKind::kNone;
  ctx->p.checksum_offset = 0;
  return Status::Ok();
}

// ---- step 8: slot directory -------------------------------------------------

Status InferSlots(Context* ctx) {
  auto validate = [&](SlotPlacement placement, uint16_t entry_size,
                      uint16_t base) {
    for (size_t i : ctx->a_pages) {
      ByteView page = ctx->Page(i);
      int count = ctx->a_count[i];
      const std::vector<size_t>& markers = ctx->a_marker_pos[i];
      std::set<size_t> covered;
      std::set<uint16_t> offsets;
      for (int s = 0; s < count; ++s) {
        size_t entry =
            placement == SlotPlacement::kFrontSlotsBackData
                ? base + static_cast<size_t>(s) * entry_size
                : ctx->p.page_size - static_cast<size_t>(s + 1) * entry_size;
        if (entry + entry_size > ctx->p.page_size) return false;
        uint16_t off = RdU16(page, entry, ctx->p.big_endian);
        if (off == 0 || off >= ctx->p.page_size) return false;
        if (!offsets.insert(off).second) return false;
        bool matched = false;
        for (size_t m : markers) {
          if (m > off && m - off <= 64) {
            covered.insert(m);
            matched = true;
          }
        }
        if (!matched) return false;
        if (entry_size == 4) {
          uint16_t len = RdU16(page, entry + 2, ctx->p.big_endian);
          if (len < 16 || len > 4096 || off + len > ctx->p.page_size) {
            return false;
          }
        }
      }
      if (covered.size() != markers.size()) return false;
    }
    return true;
  };

  // Back placement first (fixed base), then front with a base search.
  for (uint16_t entry_size : {uint16_t{4}, uint16_t{2}}) {
    if (validate(SlotPlacement::kBackSlotsFrontData, entry_size, 0)) {
      ctx->p.slot_placement = SlotPlacement::kBackSlotsFrontData;
      ctx->p.slot_has_length = entry_size == 4;
      // Data grows from the header; the first record sits at header_size.
      uint16_t min_offset = 0xFFFF;
      for (size_t i : ctx->a_pages) {
        ByteView page = ctx->Page(i);
        for (int s = 0; s < ctx->a_count[i]; ++s) {
          size_t entry =
              ctx->p.page_size - static_cast<size_t>(s + 1) * entry_size;
          min_offset = std::min(
              min_offset, RdU16(page, entry, ctx->p.big_endian));
        }
      }
      ctx->p.header_size = min_offset;
      return Status::Ok();
    }
  }
  uint16_t search_base = 16;
  for (auto [o, w] : ctx->assigned) {
    search_base = std::max<uint16_t>(search_base, o + w);
  }
  for (uint16_t entry_size : {uint16_t{4}, uint16_t{2}}) {
    for (uint16_t base = search_base; base <= 256; ++base) {
      if (validate(SlotPlacement::kFrontSlotsBackData, entry_size, base)) {
        ctx->p.slot_placement = SlotPlacement::kFrontSlotsBackData;
        ctx->p.slot_has_length = entry_size == 4;
        ctx->p.header_size = base;
        return Status::Ok();
      }
    }
  }
  return Status::NotFound("no slot directory found");
}

std::vector<uint16_t> SlotOffsets(const Context& ctx, ByteView page,
                                  int count) {
  std::vector<uint16_t> out;
  uint16_t entry_size = ctx.p.SlotEntrySize();
  for (int s = 0; s < count; ++s) {
    size_t entry = ctx.p.slot_placement == SlotPlacement::kFrontSlotsBackData
                       ? ctx.p.header_size + static_cast<size_t>(s) * entry_size
                       : ctx.p.page_size -
                             static_cast<size_t>(s + 1) * entry_size;
    out.push_back(static_cast<uint16_t>(RdU16(page, entry, ctx.p.big_endian) &
                                        0x7FFF));
  }
  return out;
}

// ---- step 9: record framing -------------------------------------------------

Status InferRecordShape(Context* ctx) {
  // Gather record starts from slot offsets on A pages.
  struct Rec {
    size_t page;
    uint16_t off;
  };
  std::vector<Rec> recs;
  for (size_t i : ctx->a_pages) {
    for (uint16_t off : SlotOffsets(*ctx, ctx->Page(i), ctx->a_count[i])) {
      recs.push_back({i, off});
    }
  }
  if (recs.size() < 16) return Status::Internal("too few probe records");

  // Row delimiter: first record byte, constant.
  uint8_t marker = ctx->Page(recs[0].page)[recs[0].off];
  for (const Rec& r : recs) {
    if (ctx->Page(r.page)[r.off] != marker) {
      return Status::NotFound("row delimiter byte is not constant");
    }
  }
  ctx->p.active_marker = marker;

  // Row identifier: find the (column_count=4, numeric_count=2) pair.
  size_t support_none = 0;
  size_t support_u32 = 0;
  size_t support_varint = 0;
  for (const Rec& r : recs) {
    ByteView page = ctx->Page(r.page);
    size_t base = r.off + 2;
    if (page[base] == 4 && page[base + 1] == 2) ++support_none;
    if (page[base + 4] == 4 && page[base + 5] == 2) ++support_u32;
    size_t consumed = 0;
    auto v = DecodeVarint(page, base, &consumed);
    if (v.has_value() && *v >= 1 && *v < (1u << 24) &&
        page[base + consumed] == 4 && page[base + consumed + 1] == 2) {
      ++support_varint;
    }
  }
  size_t full = recs.size();
  if (support_none == full) {
    ctx->p.stores_row_id = false;
    ctx->p.row_id_varint = false;
  } else if (support_u32 == full && support_varint != full) {
    ctx->p.stores_row_id = true;
    ctx->p.row_id_varint = false;
  } else if (support_varint == full) {
    ctx->p.stores_row_id = true;
    ctx->p.row_id_varint = true;
  } else if (support_u32 == full) {
    // Four-byte varints would need row ids >= 2^21; ours are small, so a
    // constant 4-byte gap means a fixed u32 field.
    ctx->p.stores_row_id = true;
    ctx->p.row_id_varint = false;
  } else {
    return Status::NotFound("row-identifier framing is inconsistent");
  }

  // String mode: test both hypotheses against the known first column
  // (marker string) and known numeric values.
  auto test_mode = [&](StringMode mode) {
    ctx->p.string_mode = mode;
    size_t support = 0;
    for (const Rec& r : recs) {
      ByteView page = ctx->Page(r.page);
      RecordWalk w;
      if (!WalkRecord(*ctx, page, r.off, &w)) continue;
      if (w.cc != 4 || w.nc != 2) continue;
      if (mode == StringMode::kInlineSizes) {
        // payload: len u16 (=12) + "CARVPA....."
        if (w.payload_pos + 2 + 6 > page.size()) continue;
        if (RdU16(page, w.payload_pos, ctx->p.big_endian) != 12) continue;
        if (std::memcmp(page.data() + w.payload_pos + 2, kMarkerA, 6) != 0) {
          continue;
        }
      } else {
        // payload: numeric section [pb][pd]
        if (w.payload_pos + 16 > page.size()) continue;
        uint64_t pb = RdU64(page, w.payload_pos, ctx->p.big_endian);
        uint64_t pd = RdU64(page, w.payload_pos + 8, ctx->p.big_endian);
        if (pb < static_cast<uint64_t>(kPbBase) ||
            pb >= static_cast<uint64_t>(kPbBase + 1'000'000)) {
          continue;
        }
        if (pd != static_cast<uint64_t>(kPdValue)) continue;
      }
      ++support;
    }
    return support;
  };
  size_t inline_support = test_mode(StringMode::kInlineSizes);
  size_t dir_support = test_mode(StringMode::kColumnDirectory);
  if (inline_support == full && dir_support != full) {
    ctx->p.string_mode = StringMode::kInlineSizes;
  } else if (dir_support == full && inline_support != full) {
    ctx->p.string_mode = StringMode::kColumnDirectory;
  } else {
    return Status::NotFound(StrFormat(
        "string mode ambiguous (inline=%zu directory=%zu of %zu)",
        inline_support, dir_support, full));
  }

  // Data delimiter value.
  {
    RecordWalk w;
    ByteView page = ctx->Page(recs[0].page);
    if (!WalkRecord(*ctx, page, recs[0].off, &w)) {
      return Status::Internal("record walk failed after framing");
    }
    ctx->p.data_marker_active = page[w.data_marker_pos];
    for (const Rec& r : recs) {
      RecordWalk wi;
      ByteView pg = ctx->Page(r.page);
      if (!WalkRecord(*ctx, pg, r.off, &wi) ||
          pg[wi.data_marker_pos] != ctx->p.data_marker_active) {
        return Status::NotFound("data delimiter byte is not constant");
      }
    }
  }
  return Status::Ok();
}

// ---- step 10+11: free-space and next-page fields ----------------------------

Status InferFreeSpaceAndChain(Context* ctx) {
  // Expected boundary per A page.
  std::map<size_t, uint16_t> expected;
  for (size_t i : ctx->a_pages) {
    ByteView page = ctx->Page(i);
    auto offsets = SlotOffsets(*ctx, page, ctx->a_count[i]);
    if (ctx->p.slot_placement == SlotPlacement::kFrontSlotsBackData) {
      expected[i] = *std::min_element(offsets.begin(), offsets.end());
    } else {
      uint16_t max_end = 0;
      for (uint16_t off : offsets) {
        RecordWalk w;
        if (!WalkRecord(*ctx, page, off, &w)) {
          return Status::Internal("record walk failed for boundary");
        }
        max_end = std::max<uint16_t>(max_end,
                                     static_cast<uint16_t>(off + w.record_len));
      }
      expected[i] = max_end;
    }
  }
  bool found = false;
  for (uint16_t o = 0; o + 2 <= 96 && !found; ++o) {
    if (ctx->Overlaps(o, 2)) continue;
    bool ok = true;
    for (size_t i : ctx->a_pages) {
      if (RdU16(ctx->Page(i), o, ctx->p.big_endian) != expected[i]) {
        ok = false;
        break;
      }
    }
    if (ok) {
      ctx->p.free_space_offset = o;
      ctx->Assign(o, 2);
      found = true;
    }
  }
  if (!found) return Status::NotFound("no free-space boundary field");

  // Next-page chain across A pages.
  std::map<uint32_t, size_t> by_id;
  uint32_t max_id = 0;
  for (size_t i : ctx->a_pages) {
    uint32_t id =
        RdU32(ctx->Page(i), ctx->p.page_id_offset, ctx->p.big_endian);
    by_id[id] = i;
    max_id = std::max(max_id, id);
  }
  for (uint16_t o = 0; o + 4 <= 96; ++o) {
    if (ctx->Overlaps(o, 4)) continue;
    bool ok = true;
    for (auto [id, i] : by_id) {
      uint32_t v = RdU32(ctx->Page(i), o, ctx->p.big_endian);
      uint32_t want = id == max_id ? 0 : id + 1;
      if (v != want) {
        ok = false;
        break;
      }
    }
    if (ok) {
      ctx->p.next_page_offset = o;
      ctx->Assign(o, 4);
      return Status::Ok();
    }
  }
  return Status::NotFound("no next-page chain field");
}

// ---- step 12: delete strategy -----------------------------------------------

Status InferDeleteStrategy(Context* ctx) {
  std::string victim = MarkerA(ctx->options.delete_victim);
  // Locate the victim's page/slot in capture 2.
  auto hits = FindAll(ctx->cap2, 0, ctx->cap2.size(), victim);
  if (hits.size() != 1) {
    return Status::Internal("victim marker not unique in capture 2");
  }
  size_t page_off2 = hits[0] - hits[0] % ctx->p.page_size;
  ByteView page2(ctx->cap2.data() + page_off2, ctx->p.page_size);
  uint32_t object_id = RdU32(page2, ctx->p.object_id_offset,
                             ctx->p.big_endian);
  uint32_t page_id = RdU32(page2, ctx->p.page_id_offset, ctx->p.big_endian);
  auto page_off3 = FindPageIn(*ctx, ctx->cap3, object_id, page_id);
  if (!page_off3.has_value()) {
    return Status::Internal("victim page missing from capture 3");
  }
  ByteView page3(ctx->cap3.data() + *page_off3, ctx->p.page_size);

  // Victim record + slot on the capture-2 page.
  uint16_t count = RdU16(page2, ctx->p.record_count_offset,
                         ctx->p.big_endian);
  auto offsets = SlotOffsets(*ctx, page2, count);
  int victim_slot = -1;
  RecordWalk victim_walk;
  for (size_t s = 0; s < offsets.size(); ++s) {
    RecordWalk w;
    if (!WalkRecord(*ctx, page2, offsets[s], &w)) continue;
    size_t rec_end = offsets[s] + w.record_len;
    if (hits[0] - page_off2 > offsets[s] &&
        hits[0] - page_off2 < rec_end) {
      victim_slot = static_cast<int>(s);
      victim_walk = w;
      break;
    }
  }
  if (victim_slot < 0) {
    return Status::Internal("victim record not found via slot directory");
  }
  uint16_t victim_off = offsets[victim_slot];

  // Classify the byte difference.
  std::vector<size_t> diffs;
  for (size_t o = 0; o < ctx->p.page_size; ++o) {
    if (page2[o] != page3[o]) diffs.push_back(o);
  }
  auto in_field = [&](size_t o, size_t base, size_t width) {
    return o >= base && o < base + width;
  };
  size_t entry_size = ctx->p.SlotEntrySize();
  size_t slot_entry =
      ctx->p.slot_placement == SlotPlacement::kFrontSlotsBackData
          ? ctx->p.header_size + victim_slot * entry_size
          : ctx->p.page_size - (victim_slot + 1) * entry_size;
  for (size_t o : diffs) {
    if (in_field(o, ctx->p.lsn_offset, 8)) continue;
    if (ctx->p.checksum_kind != ChecksumKind::kNone &&
        in_field(o, ctx->p.checksum_offset,
                 ChecksumWidth(ctx->p.checksum_kind))) {
      continue;
    }
    if (o == victim_off) {
      ctx->p.delete_strategy = DeleteStrategy::kRowMarker;
      ctx->p.deleted_marker = page3[o];
      return Status::Ok();
    }
    if (ctx->p.stores_row_id &&
        in_field(o, victim_walk.row_id_pos, victim_walk.row_id_len)) {
      ctx->p.delete_strategy = DeleteStrategy::kRowIdentifier;
      ctx->p.deleted_marker = ctx->p.active_marker;
      return Status::Ok();
    }
    if (o == victim_walk.data_marker_pos) {
      ctx->p.delete_strategy = DeleteStrategy::kDataMarker;
      ctx->p.data_marker_deleted = page3[o];
      ctx->p.deleted_marker = ctx->p.active_marker;
      return Status::Ok();
    }
    if (in_field(o, slot_entry, entry_size)) {
      ctx->p.delete_strategy = DeleteStrategy::kSlotTombstone;
      ctx->p.deleted_marker = ctx->p.active_marker;
      return Status::Ok();
    }
  }
  return Status::NotFound("delete probe changed no classifiable byte");
}

// ---- step 13: index entries -------------------------------------------------

Status InferIndexFormat(Context* ctx) {
  // Leaf pages: non-data pages that contain many plausible key values.
  struct Entry {
    size_t page;
    uint16_t off;
    uint16_t len;
    uint64_t key;
  };
  std::vector<Entry> entries;
  uint8_t marker = 0;
  bool marker_set = false;
  for (size_t i : ctx->other_pages) {
    ByteView page = ctx->Page(i);
    uint16_t count = RdU16(page, ctx->p.record_count_offset,
                           ctx->p.big_endian);
    if (count == 0 || count > ctx->p.page_size / 8) continue;
    auto offsets = SlotOffsets(*ctx, page, count);
    for (uint16_t off : offsets) {
      if (off == 0 || static_cast<uint32_t>(off) + 16 >= ctx->p.page_size) {
        continue;
      }
      uint16_t len = RdU16(page, off + 2, ctx->p.big_endian);
      if (len < 16 || off + len > ctx->p.page_size) continue;
      // Tail structure: key_count=1, type=int(1), len=8, key bytes.
      size_t tail = off + len - 12;
      if (page[tail] != 1 || page[tail + 1] != 1) continue;
      if (RdU16(page, tail + 2, ctx->p.big_endian) != 8) continue;
      uint64_t key = RdU64(page, tail + 4, ctx->p.big_endian);
      if (key < static_cast<uint64_t>(kPbBase) ||
          key >= static_cast<uint64_t>(kPbBase) + 1'000'000) {
        continue;
      }
      if (!marker_set) {
        marker = page[off];
        marker_set = true;
      } else if (page[off] != marker) {
        continue;
      }
      entries.push_back({i, off, len, key});
    }
  }
  if (entries.size() < 32) {
    return Status::NotFound("too few index leaf entries recognized");
  }
  ctx->p.index_entry_marker = marker;

  // Pointer bytes occupy [off+4, off+len-12). Try each candidate format and
  // verify that the pointed-to record actually carries the key as its pb.
  std::map<uint32_t, size_t> a_by_id;  // heap page id -> page index
  for (size_t i : ctx->a_pages) {
    a_by_id[RdU32(ctx->Page(i), ctx->p.page_id_offset, ctx->p.big_endian)] =
        i;
  }
  auto pb_of_record = [&](uint32_t page_id, uint16_t slot,
                          uint64_t* pb) -> bool {
    auto it = a_by_id.find(page_id);
    if (it == a_by_id.end()) return false;
    ByteView page = ctx->Page(it->second);
    uint16_t count = RdU16(page, ctx->p.record_count_offset,
                           ctx->p.big_endian);
    if (slot >= count) return false;
    auto offsets = SlotOffsets(*ctx, page, count);
    RecordWalk w;
    if (!WalkRecord(*ctx, page, offsets[slot], &w)) return false;
    if (ctx->p.string_mode == StringMode::kColumnDirectory) {
      *pb = RdU64(page, w.payload_pos, ctx->p.big_endian);
    } else {
      // inline: skip [len=12][12 bytes], then [len=8][pb].
      size_t pos = w.payload_pos;
      uint16_t l1 = RdU16(page, pos, ctx->p.big_endian);
      pos += 2 + l1;
      uint16_t l2 = RdU16(page, pos, ctx->p.big_endian);
      if (l2 != 8) return false;
      *pb = RdU64(page, pos + 2, ctx->p.big_endian);
    }
    return true;
  };

  for (PointerFormat format :
       {PointerFormat::kU32PageU16Slot, PointerFormat::kU32PageU16SlotBE,
        PointerFormat::kU48Packed, PointerFormat::kVarintPageSlot}) {
    PageLayoutParams trial = ctx->p;
    trial.pointer_format = format;
    PageFormatter trial_fmt(trial);
    size_t checked = 0;
    size_t matched = 0;
    for (const Entry& e : entries) {
      if (checked >= 200) break;
      ByteView page = ctx->Page(e.page);
      size_t consumed = 0;
      auto ptr = trial_fmt.DecodePointer(page, e.off + 4, &consumed);
      if (!ptr.has_value()) continue;
      size_t expected_len = 4 + consumed + 12;
      if (expected_len != e.len) continue;
      ++checked;
      uint64_t pb = 0;
      if (pb_of_record(ptr->page_id, ptr->slot, &pb) && pb == e.key) {
        ++matched;
      }
    }
    // A handful of internal-node separator entries sneak into the sample
    // (their pointers reference index pages, not heap records), so accept
    // a near-perfect match rate rather than exactness.
    if (checked >= 32 && matched * 10 >= checked * 9) {
      ctx->p.pointer_format = format;
      return Status::Ok();
    }
  }
  return Status::NotFound("no pointer format verified against records");
}

}  // namespace

Result<CarverConfig> ParameterCollector::Collect(BlackBoxDbms* dbms) const {
  Context ctx;
  ctx.options = options_;

  // ---- probe workload (B in Figure 2) ----
  DBFA_RETURN_IF_ERROR(dbms->Execute(StrFormat(
      "CREATE TABLE %s (pa VARCHAR(40), pb INT, pc VARCHAR(40), pd INT)",
      kTableA)));
  for (int i = 0; i < options_.probe_rows_a; ++i) {
    std::string pc =
        StrFormat("CARVPC%s%04d", std::string(i % 5 + 1, 'Q').c_str(), i);
    DBFA_RETURN_IF_ERROR(dbms->Execute(StrFormat(
        "INSERT INTO %s VALUES ('%s', %lld, '%s', %lld)", kTableA,
        MarkerA(i).c_str(), static_cast<long long>(kPbBase + i), pc.c_str(),
        static_cast<long long>(kPdValue))));
  }
  DBFA_RETURN_IF_ERROR(dbms->Execute(StrFormat(
      "CREATE TABLE %s (qa VARCHAR(40), qb INT)", kTableB)));
  for (int i = 0; i < options_.probe_rows_b; ++i) {
    DBFA_RETURN_IF_ERROR(dbms->Execute(
        StrFormat("INSERT INTO %s VALUES ('%s', %d)", kTableB,
                  MarkerB(i).c_str(), 5000 + i)));
  }
  DBFA_RETURN_IF_ERROR(dbms->Execute(
      StrFormat("CREATE INDEX carv_probe_idx ON %s (pb)", kTableA)));
  DBFA_ASSIGN_OR_RETURN(ctx.cap1, dbms->CaptureStorage());

  // Insert probe (free-space / LSN movement).
  DBFA_RETURN_IF_ERROR(dbms->Execute(StrFormat(
      "INSERT INTO %s VALUES ('CARVNEWROW99', %lld, 'CARVPCNEW', %lld)",
      kTableA, static_cast<long long>(kPbBase + 999999),
      static_cast<long long>(kPdValue))));
  DBFA_ASSIGN_OR_RETURN(ctx.cap2, dbms->CaptureStorage());

  // Delete probe (delete-strategy classification).
  DBFA_RETURN_IF_ERROR(dbms->Execute(
      StrFormat("DELETE FROM %s WHERE pa = '%s'", kTableA,
                MarkerA(options_.delete_victim).c_str())));
  DBFA_ASSIGN_OR_RETURN(ctx.cap3, dbms->CaptureStorage());

  // ---- inference ----
  DBFA_RETURN_IF_ERROR(InferPageGeometry(&ctx));
  // Try every surviving geometry interpretation: an incorrect byte order
  // passes the local checks of step 1+2 but fails one of the later steps
  // (typically LSN or slot inference), so the pipeline self-validates.
  Status last_error = Status::Internal("no geometry candidate");
  uint32_t page_size = ctx.p.page_size;
  for (const Context::Geometry& geometry : ctx.geometry_candidates) {
    ctx.p = PageLayoutParams();
    ctx.p.page_size = page_size;
    ctx.p.big_endian = geometry.be;
    ctx.p.record_count_offset = geometry.record_count_offset;
    ctx.p.page_id_offset = geometry.page_id_offset;
    ctx.assigned.clear();
    ctx.Assign(geometry.record_count_offset, 2);
    ctx.Assign(geometry.page_id_offset, 4);
    ctx.changed12.clear();
    ctx.changed23.clear();

    Status attempt = [&]() -> Status {
      DBFA_RETURN_IF_ERROR(InferMagic(&ctx));
      DBFA_RETURN_IF_ERROR(InferObjectId(&ctx));
      DBFA_RETURN_IF_ERROR(InferPageType(&ctx));
      DBFA_RETURN_IF_ERROR(ComputeChangedPages(&ctx));
      DBFA_RETURN_IF_ERROR(InferLsn(&ctx));
      DBFA_RETURN_IF_ERROR(InferSlots(&ctx));
      DBFA_RETURN_IF_ERROR(InferRecordShape(&ctx));
      DBFA_RETURN_IF_ERROR(InferFreeSpaceAndChain(&ctx));
      DBFA_RETURN_IF_ERROR(InferChecksum(&ctx));
      DBFA_RETURN_IF_ERROR(InferDeleteStrategy(&ctx));
      DBFA_RETURN_IF_ERROR(InferIndexFormat(&ctx));
      return Status::Ok();
    }();
    if (!attempt.ok()) {
      last_error = attempt;
      continue;
    }
    ctx.p.dialect = dbms->VendorName();
    DBFA_RETURN_IF_ERROR(ctx.p.Validate());
    CarverConfig config;
    config.params = ctx.p;
    config.catalog_object_id = ctx.catalog_object_id;
    return config;
  }
  return last_error;
}

}  // namespace dbfa
