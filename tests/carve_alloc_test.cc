// E15's allocation guard (EXPERIMENTS.md): the interned carve of the
// 4000-row string-heavy image may make at most a fifth of the 313
// allocations per page the retired owned-string decode made.
#include <gtest/gtest.h>

#include "carve_alloc_counter.h"
#include "workload/synthetic.h"

namespace dbfa {
namespace {

constexpr double kOwnedAllocsPerPage = 313;  // EXPERIMENTS.md E15

TEST(CarveAllocTest, InternedCarveStaysUnderAFifthOfOwnedAllocations) {
  auto image = StringHeavyOrdersImage(4000);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  AllocSample sample = MeasureCarveAllocs(*image);
  ASSERT_GT(sample.allocs_per_page, 0);
  EXPECT_LE(sample.allocs_per_page, kOwnedAllocsPerPage / 5);
}

}  // namespace
}  // namespace dbfa
