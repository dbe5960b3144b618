#include "storage/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "common/strings.h"

namespace dbfa {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "VARCHAR";
  }
  return "?";
}

int Value::Compare(const Value& a, const Value& b) {
  const bool a_num =
      a.type() == ValueType::kInt || a.type() == ValueType::kDouble;
  const bool b_num =
      b.type() == ValueType::kInt || b.type() == ValueType::kDouble;
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? -1 : 1;
  }
  if (a_num && b_num) {
    if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
      int64_t x = a.as_int();
      int64_t y = b.as_int();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = a.NumericValue();
    double y = b.NumericValue();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a_num != b_num) return a_num ? -1 : 1;  // numbers before strings
  if (a.is_interned() && b.is_interned()) {
    const StringRef& ra = a.interned_ref();
    const StringRef& rb = b.interned_ref();
    // Same pool + same id means the exact same interned string.
    if (ra.pool_id != 0 && ra.pool_id == rb.pool_id && ra.id == rb.id) {
      return 0;
    }
  }
  std::string_view sa = a.as_string();
  std::string_view sb = b.as_string();
  int c = sa.compare(sb);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

void Value::AppendDisplayTo(std::string* out) const {
  switch (type()) {
    case ValueType::kNull:
      out->append("NULL");
      return;
    case ValueType::kInt: {
      char buf[24];
      int n = std::snprintf(buf, sizeof(buf), "%lld",
                            static_cast<long long>(as_int()));
      out->append(buf, static_cast<size_t>(n));
      return;
    }
    case ValueType::kDouble: {
      char buf[32];
      int n = std::snprintf(buf, sizeof(buf), "%.6g", as_double());
      out->append(buf, static_cast<size_t>(n));
      return;
    }
    case ValueType::kString:
      out->append(as_string());
      return;
  }
  out->append("?");
}

size_t Value::DisplayWidth() const {
  switch (type()) {
    case ValueType::kNull:
      return 4;
    case ValueType::kInt:
      return static_cast<size_t>(std::snprintf(
          nullptr, 0, "%lld", static_cast<long long>(as_int())));
    case ValueType::kDouble:
      return static_cast<size_t>(
          std::snprintf(nullptr, 0, "%.6g", as_double()));
    case ValueType::kString:
      return as_string().size();
  }
  return 1;
}

std::string Value::ToString() const {
  std::string out;
  out.reserve(DisplayWidth());
  AppendDisplayTo(&out);
  return out;
}

std::string Value::ToSqlLiteral() const {
  if (type() == ValueType::kString) return SqlQuote(as_string());
  return ToString();
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9E3779B9u;
    case ValueType::kInt:
      return std::hash<int64_t>{}(as_int());
    case ValueType::kDouble: {
      double d = as_double();
      // Make integral doubles hash like the equivalent int so hash joins
      // across int/double columns agree with Compare().
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      return std::hash<double>{}(d);
    }
    case ValueType::kString:
      // Interned refs cache HashStringContent(content) at intern time, so
      // both branches hash identical content identically — the invariant
      // HashRecord/CompareRecords compatibility rests on.
      if (is_interned()) return interned_ref().hash;
      return HashStringContent(as_string());
  }
  return 0;
}

int CompareRecords(const Record& a, const Record& b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    int c = Value::Compare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

size_t HashRecord(const Record& r) {
  size_t h = 0x9E3779B97F4A7C15ull ^ r.size();
  for (const Value& v : r) {
    h ^= v.Hash() + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
  return h;
}

std::string RecordToString(const Record& r) {
  std::string out;
  size_t width = 2;  // parens
  for (size_t i = 0; i < r.size(); ++i) {
    if (i != 0) width += 2;  // ", "
    width += r[i].DisplayWidth();
  }
  out.reserve(width);
  out += "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i != 0) out += ", ";
    r[i].AppendDisplayTo(&out);
  }
  out += ")";
  return out;
}

}  // namespace dbfa
