// dbfa-lint-fixture: path=src/metaquery/kernel.cc rule=hot-loop-string expect=4
// Known-bad input for dbfa_lint --self-test: std::string construction
// inside an audited hot-loop region must be flagged. Never compiled.
#include <sstream>
#include <string>

namespace dbfa {

struct Val {
  std::string ToString() const;  // OK: outside any hot-loop region.
};

// OK: constructions before the region are legal.
std::string Prologue() { return std::string("cold path"); }

// dbfa:hot-loop-begin -- fixture kernel; per-row string work forbidden
inline bool Kernel(const Val& v, const char* p) {
  std::string copy(p);                       // BAD: per-row heap string.
  std::string label = "row-" + std::to_string(7);  // BAD x2: string + to_string
  std::ostringstream oss;                    // BAD: stream buffer per row.
  std::string_view view = copy;              // OK: view, no allocation.
  // dbfa-lint: allow(hot-loop-string): error path only, leaves the loop
  std::string excused = v.ToString();        // OK: justified above.
  return !view.empty() && !excused.empty() && oss.str().empty();
}
// dbfa:hot-loop-end

// OK again: the region is closed.
std::string Epilogue(const Val& v) { return v.ToString(); }

}  // namespace dbfa
