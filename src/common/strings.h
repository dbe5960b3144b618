// Small string helpers used across the library (no locale dependence).
#ifndef DBFA_COMMON_STRINGS_H_
#define DBFA_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dbfa {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing (SQL keywords, identifiers).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Strict unsigned decimal parse of all of `s`: digits only (no sign, no
/// whitespace, no trailing junk, not empty), overflow rejected. For numbers
/// read from files and command lines, where strtoull's silent 0 on junk
/// and wrapped negatives would be wrong.
bool ParseU64(std::string_view s, uint64_t* out);

/// Strict signed decimal parse of all of `s`: an optional leading '-' then
/// digits, nothing else; overflow rejected.
bool ParseI64(std::string_view s, int64_t* out);

/// Strict decimal floating-point parse of all of `s`, same rules.
bool ParseDouble(std::string_view s, double* out);

/// SQL LIKE matching with % (any run) and _ (any one char), case sensitive.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// Escapes a string for embedding in single-quoted SQL ('' doubling).
std::string SqlQuote(std::string_view s);

}  // namespace dbfa

#endif  // DBFA_COMMON_STRINGS_H_
