#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "engine/catalog.h"
#include "storage/dialects.h"

namespace perfbench {

using dbfa::AuditEntry;
using dbfa::AuditLog;
using dbfa::Bytes;

dbfa::CarverConfig BenchConfig() {
  dbfa::CarverConfig config;
  config.params = dbfa::GetDialect("postgres_like").value();
  config.catalog_object_id = dbfa::kCatalogObjectId;
  return config;
}

AuditLog PrefixLog(const std::vector<AuditEntry>& entries, size_t n) {
  AuditLog log;
  ExtendLog(entries, n, &log);
  return log;
}

void ExtendLog(const std::vector<AuditEntry>& entries, size_t n,
               AuditLog* log) {
  for (size_t k = log->entries().size(); k < n && k < entries.size(); ++k) {
    log->Append(entries[k].timestamp, entries[k].sql);
  }
}

int64_t CellChecksum(const dbfa::Value& v) {
  switch (v.type()) {
    case dbfa::ValueType::kInt:
      return v.as_int();
    case dbfa::ValueType::kDouble:
      return std::llround(v.as_double() * 100.0);
    default:
      return 0;
  }
}

namespace {

constexpr size_t kDiffBlock = 64;

void PutU64(uint64_t v, Bytes* out) {
  out->resize(out->size() + sizeof v);
  std::memcpy(out->data() + out->size() - sizeof v, &v, sizeof v);
}

bool GetU64(dbfa::ByteView in, size_t* pos, uint64_t* v) {
  if (in.size() - *pos < sizeof *v) return false;
  std::memcpy(v, in.data() + *pos, sizeof *v);
  *pos += sizeof *v;
  return true;
}

}  // namespace

// Layout: new size, then (offset, length, bytes) runs until the end.
Bytes DiffImage(const Bytes& prev, const Bytes& next) {
  Bytes out;
  PutU64(next.size(), &out);
  size_t pos = 0;
  while (pos < next.size()) {
    auto differs = [&](size_t at) {
      size_t len = std::min(kDiffBlock, next.size() - at);
      return at + len > prev.size() ||
             std::memcmp(prev.data() + at, next.data() + at, len) != 0;
    };
    if (!differs(pos)) {
      pos += kDiffBlock;
      continue;
    }
    size_t end = pos;
    while (end < next.size() && differs(end)) end += kDiffBlock;
    end = std::min(end, next.size());
    PutU64(pos, &out);
    PutU64(end - pos, &out);
    out.insert(out.end(), next.begin() + static_cast<ptrdiff_t>(pos),
               next.begin() + static_cast<ptrdiff_t>(end));
    pos = end;
  }
  return out;
}

bool ApplyDiff(dbfa::ByteView diff, Bytes* image) {
  size_t pos = 0;
  uint64_t size = 0;
  if (!GetU64(diff, &pos, &size) || size > (uint64_t{1} << 30)) return false;
  image->resize(static_cast<size_t>(size));
  while (pos < diff.size()) {
    uint64_t offset = 0;
    uint64_t len = 0;
    if (!GetU64(diff, &pos, &offset) || !GetU64(diff, &pos, &len) ||
        offset > size || len > size - offset || len > diff.size() - pos) {
      return false;
    }
    std::memcpy(image->data() + offset, diff.data() + pos,
                static_cast<size_t>(len));
    pos += static_cast<size_t>(len);
  }
  return true;
}

namespace {

void SaveLog(const std::vector<AuditEntry>& log, BlobWriter* w) {
  w->U64(log.size());
  for (const AuditEntry& e : log) {
    w->I64(e.timestamp);
    w->Str(e.sql);
  }
}

void LoadLog(BlobReader* r, std::vector<AuditEntry>* log) {
  uint64_t n = r->U64();
  for (uint64_t k = 0; k < n && r->ok(); ++k) {
    AuditEntry e;
    e.seq = k + 1;
    e.timestamp = r->I64();
    e.sql = r->Str();
    log->push_back(std::move(e));
  }
}

void SaveU64s(const std::vector<uint64_t>& v, BlobWriter* w) {
  w->U64(v.size());
  for (uint64_t x : v) w->U64(x);
}

void LoadU64s(BlobReader* r, std::vector<uint64_t>* v) {
  uint64_t n = r->U64();
  for (uint64_t k = 0; k < n && r->ok(); ++k) v->push_back(r->U64());
}

void SaveStrs(const std::vector<std::string>& v, BlobWriter* w) {
  w->U64(v.size());
  for (const std::string& s : v) w->Str(s);
}

void LoadStrs(BlobReader* r, std::vector<std::string>* v) {
  uint64_t n = r->U64();
  for (uint64_t k = 0; k < n && r->ok(); ++k) v->push_back(r->Str());
}

void SaveBlobs(const std::vector<Bytes>& v, BlobWriter* w) {
  w->U64(v.size());
  for (const Bytes& b : v) w->Blob(b);
}

void LoadBlobs(BlobReader* r, std::vector<Bytes>* v) {
  uint64_t n = r->U64();
  for (uint64_t k = 0; k < n && r->ok(); ++k) v->push_back(r->Blob());
}

void SaveQueries(const std::vector<MetaQuery>& qs, BlobWriter* w) {
  w->U64(qs.size());
  for (const MetaQuery& q : qs) {
    w->Str(q.name);
    w->Str(q.sql);
    w->U64(q.rows);
    w->I64(q.checksum);
  }
}

void LoadQueries(BlobReader* r, std::vector<MetaQuery>* qs) {
  uint64_t n = r->U64();
  for (uint64_t k = 0; k < n && r->ok(); ++k) {
    MetaQuery q;
    q.name = r->Str();
    q.sql = r->Str();
    q.rows = r->U64();
    q.checksum = r->I64();
    qs->push_back(std::move(q));
  }
}

}  // namespace

void Save(const InvestigateInputs& in, BlobWriter* w) {
  w->Blob(in.disk);
  w->Blob(in.ram);
  SaveLog(in.log, w);
  SaveStrs(in.expected, w);
}

bool Load(BlobReader* r, InvestigateInputs* in) {
  in->disk = r->Blob();
  in->ram = r->Blob();
  LoadLog(r, &in->log);
  LoadStrs(r, &in->expected);
  return r->ok();
}

void Save(const SnapshotInputs& in, BlobWriter* w) {
  SaveBlobs(in.captures, w);
  SaveLog(in.log, w);
  SaveU64s(in.log_len, w);
  SaveU64s(in.bulk, w);
  w->U64(in.expected.size());
  for (const auto& keys : in.expected) SaveStrs(keys, w);
}

bool Load(BlobReader* r, SnapshotInputs* in) {
  LoadBlobs(r, &in->captures);
  LoadLog(r, &in->log);
  LoadU64s(r, &in->log_len);
  LoadU64s(r, &in->bulk);
  uint64_t n = r->U64();
  for (uint64_t k = 0; k < n && r->ok(); ++k) {
    in->expected.emplace_back();
    LoadStrs(r, &in->expected.back());
  }
  size_t captures = in->captures.size();
  return r->ok() && captures >= 2 && in->log_len.size() == captures &&
         in->bulk.size() == captures && in->expected.size() == captures;
}

void Save(const ServeInputs& in, BlobWriter* w) {
  w->U64(in.instances);
  w->U64(in.ticks);
  SaveBlobs(in.captures, w);
  SaveU64s(in.log_len, w);
  SaveU64s(in.attacks, w);
  w->U64(in.logs.size());
  for (const auto& log : in.logs) SaveLog(log, w);
}

bool Load(BlobReader* r, ServeInputs* in) {
  in->instances = r->U64();
  in->ticks = r->U64();
  LoadBlobs(r, &in->captures);
  LoadU64s(r, &in->log_len);
  LoadU64s(r, &in->attacks);
  uint64_t n = r->U64();
  for (uint64_t k = 0; k < n && r->ok(); ++k) {
    in->logs.emplace_back();
    LoadLog(r, &in->logs.back());
  }
  size_t total = in->instances * in->ticks;
  return r->ok() && in->ticks >= 2 && in->captures.size() == total &&
         in->log_len.size() == total && in->attacks.size() == total &&
         in->logs.size() == in->instances;
}

void Save(const MetaqueryInputs& in, BlobWriter* w) {
  w->Blob(in.disk);
  w->Blob(in.ram);
  SaveQueries(in.setup_queries, w);
  SaveQueries(in.queries, w);
}

bool Load(BlobReader* r, MetaqueryInputs* in) {
  in->disk = r->Blob();
  in->ram = r->Blob();
  LoadQueries(r, &in->setup_queries);
  LoadQueries(r, &in->queries);
  return r->ok() && !in->queries.empty();
}

}  // namespace perfbench
