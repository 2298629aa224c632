// The benchmark's correctness checks, kept apart from the driver so that
// a self-test can show each one rejects a deliberately wrong input.
#ifndef TLCBENCH_CHECKS_H_
#define TLCBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "types/tuple.h"

namespace tlcbench {

/// Relative tolerance for doubles: bounded and full-scan evaluation may
/// sum the same values in different orders.
constexpr double kDoubleRelTol = 1e-9;

/// True when `a` and `b` hold the same rows as bags (row order ignored),
/// with doubles equal within kDoubleRelTol; otherwise false and `why` says
/// where they first differ.
bool SameBag(std::vector<beas::Row> a, std::vector<beas::Row> b,
             std::string* why);

/// Projects `rows` onto `columns`.
std::vector<beas::Row> Project(const std::vector<beas::Row>& rows,
                               const std::vector<size_t>& columns);

/// The bound property of one bounded execution: the tuples it fetched do
/// not exceed the access bound the checker deduced before running it.
bool WithinBound(uint64_t tuples_fetched, uint64_t deduced_bound,
                 std::string* why);

/// Runs every check on a deliberately wrong input (a perturbed row, a
/// double outside the tolerance, a dropped acknowledged row, a fetched
/// count above its bound) and on the matching right input. Returns the
/// number of checks that failed to tell them apart; `report` lists each.
int SelfTest(std::string* report);

}  // namespace tlcbench

#endif  // TLCBENCH_CHECKS_H_
