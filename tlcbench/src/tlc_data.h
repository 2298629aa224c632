// The benchmark's own inputs: a seeded TLC-shaped dataset (12 tables,
// the parameter domains of the TLC workload), its access constraints, and
// the request generators of every workload.
//
// Nothing here reads src/workload: a change there must not silently
// change what the benchmark loads or asks.
#ifndef TLCBENCH_TLC_DATA_H_
#define TLCBENCH_TLC_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "asx/access_constraint.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace tlcbench {

/// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Real(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  bool Chance(double p) { return Real(0, 1) < p; }

 private:
  uint64_t state_;
};

/// Mixes a seed with stream ids into an independent seed.
uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/// \name Dataset shape (the TLC parameter domains).
/// @{
constexpr int kDays = 28;          ///< 2016-03-01 .. 2016-03-28 (bulk load)
constexpr int kRegions = 8;        ///< R1 .. R8
constexpr int kPids = 20;          ///< packages 1 .. 20
constexpr int kTypes = 6;          ///< business types
constexpr int kTowersPerRegion = 25;
constexpr int64_t kFirstPnum = 10001;
constexpr double kBusinessShare = 0.3;
extern const char* const kTypeNames[kTypes];
/// @}

/// Subscribers at scale factor `sf` (400 per SF, as in the TLC workload).
size_t SubscribersAt(double sf);

std::string RegionName(int index);  ///< 0-based → "R1".."R8"
int HomeRegion(int64_t pnum);       ///< 0-based home region of a subscriber
std::string DateLiteral(int month, int day);  ///< "2016-MM-DD"
beas::Value DateValue(int month, int day);

/// One table of the dataset: its name, schema and generated rows.
struct TableData {
  std::string name;
  beas::Schema schema;
  std::vector<beas::Row> rows;
};

/// Generates the 12 TLC tables for `subscribers` subscribers from `seed`.
std::vector<TableData> GenerateTables(uint64_t seed, size_t subscribers);

/// The access schema the benchmark declares (A_TLC).
std::vector<beas::AccessConstraint> AccessConstraints();

/// \brief A query as its parts, so that one query can be spelled several
/// equivalent ways (conjunct order, FROM order, `? = col` orientation).
struct QuerySpec {
  int template_id = 0;
  std::string select;              ///< "SELECT ..." up to FROM
  std::vector<std::string> from;   ///< table names
  struct Conjunct {
    std::string text;              ///< rendered "lhs op rhs"
    std::string column, literal;   ///< set for `column = literal` only
  };
  std::vector<Conjunct> where;
  std::string tail;                ///< GROUP BY / ORDER BY / LIMIT, or ""
};

/// The canonical spelling.
std::string Render(const QuerySpec& spec);
/// A random equivalent spelling: permuted FROM list and conjuncts, and
/// some `column = literal` equalities written `literal = column`.
std::string Respell(const QuerySpec& spec, Rng* rng);

/// Number of point templates (TLC Q1..Q10 shapes) and cohort templates.
constexpr int kPointTemplates = 10;
constexpr int kCohortTemplates = 4;
/// Template names for reports ("Q1".."Q10", "C1".."C4").
std::string TemplateName(int template_id);

/// Point template `tid` (0-based, Q1..Q10) with parameters drawn from the
/// whole domains by `param_seed`.
QuerySpec PointQuery(int tid, uint64_t param_seed, size_t subscribers);
/// Cohort template `tid` (0-based, C1..C4) with IN-lists over types,
/// regions and dates drawn by `param_seed`.
QuerySpec CohortQuery(int tid, uint64_t param_seed);

/// \brief Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// \name The durable-ingest workload's CDR writes.
/// Connection `conn` of `conns` owns every subscriber whose index is
/// `conn` modulo `conns`, on April dates that the bulk load never writes,
/// so the rows it acknowledged are the only rows of those subscriber-days.
/// @{
enum class CdrTable { kCall = 0, kMessage = 1, kDataUsage = 2 };
constexpr int kCdrTables = 3;
const char* CdrTableName(CdrTable t);
/// One generated CDR row for (pnum, April `day`).
beas::Row MakeCdrRow(CdrTable t, int64_t pnum, int day, Rng* rng);
/// The covered read of one subscriber-day of `t`; its columns are
/// CdrProjection(t) of the table's rows.
std::string CdrKeyQuery(CdrTable t, int64_t pnum, int month, int day);
/// Column indexes CdrKeyQuery projects.
std::vector<size_t> CdrProjection(CdrTable t);
/// The ψ bound of `t`'s (pnum, date) constraint.
size_t CdrKeyBound(CdrTable t);
/// @}

}  // namespace tlcbench

#endif  // TLCBENCH_TLC_DATA_H_
