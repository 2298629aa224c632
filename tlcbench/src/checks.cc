#include "checks.h"

#include <algorithm>
#include <cmath>

#include "types/value.h"

namespace tlcbench {

using beas::Row;
using beas::TypeId;
using beas::Value;

namespace {

bool IsNumeric(const Value& v) {
  return v.type() == TypeId::kInt64 || v.type() == TypeId::kDouble;
}

int TypeClass(const Value& v) {
  if (v.is_null()) return 0;
  if (IsNumeric(v)) return 1;
  return v.type() == TypeId::kString ? 2 : 3;
}

/// Total order used only to line the two bags up: numbers by value, so
/// an int and a double of the same value (or doubles a rounding apart)
/// sort next to each other.
int Order(const Value& a, const Value& b) {
  int ca = TypeClass(a), cb = TypeClass(b);
  if (ca != cb) return ca < cb ? -1 : 1;
  switch (ca) {
    case 0: return 0;
    case 1: {
      double x = a.AsDouble(), y = b.AsDouble();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case 2: return a.AsString().compare(b.AsString());
    default: return a.AsDate() < b.AsDate() ? -1 : (a.AsDate() > b.AsDate() ? 1 : 0);
  }
}

bool RowLess(const Row& a, const Row& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    int c = Order(a[i], b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool SameValue(const Value& a, const Value& b) {
  if (IsNumeric(a) && IsNumeric(b)) {
    if (a.type() == TypeId::kInt64 && b.type() == TypeId::kInt64) {
      return a.AsInt64() == b.AsInt64();
    }
    double x = a.AsDouble(), y = b.AsDouble();
    return x == y || std::fabs(x - y) <= kDoubleRelTol * std::max(std::fabs(x), std::fabs(y));
  }
  return TypeClass(a) == TypeClass(b) && Order(a, b) == 0;
}

std::string RowText(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

}  // namespace

bool SameBag(std::vector<Row> a, std::vector<Row> b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "row counts differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t r = 0; r < a.size(); ++r) {
    bool same = a[r].size() == b[r].size();
    for (size_t i = 0; same && i < a[r].size(); ++i) {
      same = SameValue(a[r][i], b[r][i]);
    }
    if (!same) {
      *why = "row " + std::to_string(r) + " differs: " + RowText(a[r]) +
             " vs " + RowText(b[r]);
      return false;
    }
  }
  return true;
}

std::vector<Row> Project(const std::vector<Row>& rows,
                         const std::vector<size_t>& columns) {
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    Row p;
    for (size_t c : columns) p.push_back(row[c]);
    out.push_back(std::move(p));
  }
  return out;
}

bool WithinBound(uint64_t tuples_fetched, uint64_t deduced_bound,
                 std::string* why) {
  if (tuples_fetched <= deduced_bound) return true;
  *why = "fetched " + std::to_string(tuples_fetched) +
         " tuples, above the deduced bound " + std::to_string(deduced_bound);
  return false;
}

int SelfTest(std::string* report) {
  int failures = 0;
  auto expect = [&](const char* name, bool accepted_right, bool rejected_wrong) {
    bool ok = accepted_right && rejected_wrong;
    if (!ok) ++failures;
    *report += std::string("selftest ") + name + ": " +
               (ok ? "rejects the wrong input" : "FAILED") + "\n";
  };
  std::string why;
  const std::vector<Row> rows = {
      {Value::Int64(10001), Value::String("R1"), Value::Double(12.5)},
      {Value::Int64(10002), Value::String("R2"), Value::Double(1e6 / 3)},
      {Value::Int64(10002), Value::String("R2"), Value::Double(1e6 / 3)},
  };
  std::vector<Row> shuffled = {rows[2], rows[0], rows[1]};

  // A perturbed row: one string cell changed.
  std::vector<Row> perturbed = shuffled;
  perturbed[1][1] = Value::String("R3");
  expect("perturbed row", SameBag(rows, shuffled, &why),
         !SameBag(rows, perturbed, &why));

  // A double outside the tolerance, next to one inside it.
  std::vector<Row> near = rows, far = rows;
  near[0][2] = Value::Double(12.5 * (1 + kDoubleRelTol / 4));
  far[0][2] = Value::Double(12.5 * (1 + kDoubleRelTol * 4));
  expect("double tolerance", SameBag(rows, near, &why),
         !SameBag(rows, far, &why));

  // A dropped acknowledged row: the readback lost one of two duplicates.
  std::vector<Row> dropped = {rows[0], rows[1]};
  expect("dropped acknowledged row", SameBag(rows, shuffled, &why),
         !SameBag(rows, dropped, &why));

  // A fetched count above its bound.
  expect("fetched above bound", WithinBound(24, 24, &why),
         !WithinBound(25, 24, &why));
  return failures;
}

}  // namespace tlcbench
