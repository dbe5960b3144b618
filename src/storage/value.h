// Typed values and records. MiniDB (and carved output) uses a deliberately
// small type system — NULL, 64-bit integers, doubles, and variable-length
// strings — which covers every workload in the paper (SSBM keys are
// integers, descriptive columns are VARCHARs).
//
// Strings come in two representations with identical semantics: an owning
// std::string, and a non-owning StringRef into an arena-backed StringPool
// (used by the carvers so repeated cell values are stored once; see
// docs/columnar_memory.md). type() reports kString for both; Compare/Hash/
// ToString never distinguish them.
#ifndef DBFA_STORAGE_VALUE_H_
#define DBFA_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/string_ref.h"

namespace dbfa {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
};

const char* ValueTypeName(ValueType t);

/// A dynamically typed SQL value.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : v_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }
  /// A string interned in a StringPool. The pool must outlive the value:
  /// a carve holds its CarveResult::string_pool, and every result built
  /// from carved values holds a StringPoolSet.
  static Value InternedStr(const StringRef& r) { return Value(r); }

  ValueType type() const {
    switch (v_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kInt;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;  // owned or interned
    }
  }

  bool is_null() const { return v_.index() == 0; }
  int64_t as_int() const { return std::get<int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  /// String content regardless of representation; valid while the value
  /// (and, for interned strings, the owning pool) is alive.
  std::string_view as_string() const {
    if (const StringRef* r = std::get_if<StringRef>(&v_)) return r->view();
    return std::get<std::string>(v_);
  }

  bool is_interned() const { return std::holds_alternative<StringRef>(v_); }
  /// Only valid when is_interned().
  const StringRef& interned_ref() const { return std::get<StringRef>(v_); }

  /// Numeric view: ints promote to double; only valid for kInt/kDouble.
  double NumericValue() const {
    return type() == ValueType::kInt ? static_cast<double>(as_int())
                                     : as_double();
  }

  /// Three-way comparison used for B-Tree ordering and predicate evaluation.
  /// NULL sorts before everything; numbers compare numerically across
  /// int/double; numbers sort before strings. Two interned strings from the
  /// same pool short-circuit on id equality (same id == same content).
  static int Compare(const Value& a, const Value& b);

  bool operator==(const Value& other) const {
    return Compare(*this, other) == 0;
  }
  bool operator<(const Value& other) const {
    return Compare(*this, other) < 0;
  }

  /// Display form: NULL, 42, 3.14, abc (unquoted).
  std::string ToString() const;
  /// Appends the display form to *out without temporary allocations
  /// (numerics render through a stack buffer).
  void AppendDisplayTo(std::string* out) const;
  /// Exact length AppendDisplayTo would append, without allocating.
  size_t DisplayWidth() const;
  /// SQL literal form: NULL, 42, 3.14, 'abc' (quoted/escaped).
  std::string ToSqlLiteral() const;

  /// Stable hash for hash joins and duplicate detection. Strings hash by
  /// content via HashStringContent regardless of representation; interned
  /// refs return their cached hash, so HashRecord stays compatible with
  /// CompareRecords equality (tested in string_pool_test).
  size_t Hash() const;

 private:
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}
  explicit Value(const StringRef& r) : v_(r) {}

  std::variant<std::monostate, int64_t, double, std::string, StringRef> v_;
};

/// One row of values, in schema column order.
using Record = std::vector<Value>;

/// Lexicographic comparison of records (for composite keys).
int CompareRecords(const Record& a, const Record& b);

/// Combined hash over a record's values, compatible with CompareRecords
/// equality: records with CompareRecords(a, b) == 0 hash identically
/// (Value::Hash already makes integral doubles hash like the equal int, and
/// owned vs interned strings of equal content hash identically).
size_t HashRecord(const Record& r);

/// Renders "(v1, v2, ...)" into one exactly-reserved buffer.
std::string RecordToString(const Record& r);

}  // namespace dbfa

#endif  // DBFA_STORAGE_VALUE_H_
