#include "tlc_data.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tlcbench {

using beas::Row;
using beas::Value;
using T = beas::TypeId;

const char* const kTypeNames[kTypes] = {"bank",   "hospital",   "school",
                                        "retail", "restaurant", "pharmacy"};

namespace {

const char* const kCountries[] = {"US", "UK", "DE", "FR", "JP", "CN", "BR"};
const char* const kMethods[] = {"card", "cash", "transfer"};
const char* const kCategories[] = {"billing", "network", "service", "roaming"};
const char* const kPlans[] = {"basic", "plus", "pro"};
const char* const kOperators[] = {"north-op", "south-op", "east-op"};
constexpr int64_t kYear = 2016;

std::string Quote(const std::string& s) { return "'" + s + "'"; }

std::string InList(const std::vector<std::string>& items) {
  std::string out = "(";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + ")";
}

QuerySpec::Conjunct Eq(const std::string& column, const std::string& literal) {
  return {column + " = " + literal, column, literal};
}

QuerySpec::Conjunct Cond(const std::string& text) { return {text, "", ""}; }

/// `k` distinct indexes of [0, n), in increasing order.
std::vector<int> Subset(int n, int k, Rng* rng) {
  std::vector<int> all(n);
  for (int i = 0; i < n; ++i) all[i] = i;
  for (int i = 0; i < k; ++i) {
    std::swap(all[i], all[static_cast<size_t>(rng->Uniform(i, n - 1))]);
  }
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

template <typename V>
void Shuffle(std::vector<V>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Next() % i]);
  }
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  Rng rng(seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full));
  rng.Next();
  return rng.Next();
}

size_t SubscribersAt(double sf) {
  return std::max<size_t>(100, static_cast<size_t>(400.0 * sf));
}

std::string RegionName(int index) { return "R" + std::to_string(index + 1); }

int HomeRegion(int64_t pnum) { return static_cast<int>(pnum % kRegions); }

std::string DateLiteral(int month, int day) {
  char buf[32];  // room for any two ints: keeps -Wformat-truncation quiet
  std::snprintf(buf, sizeof(buf), "2016-%02d-%02d", month, day);
  return buf;
}

Value DateValue(int month, int day) {
  return Value::Date(20160000 + month * 100 + day);
}

std::vector<TableData> GenerateTables(uint64_t seed, size_t subscribers) {
  Rng rng(MixSeed(seed, 0xDA7A));
  std::vector<TableData> t(12);
  auto table = [&](size_t i, const char* name, beas::Schema schema) {
    t[i].name = name;
    t[i].schema = std::move(schema);
    return &t[i].rows;
  };
  auto* call = table(0, "call",
                     beas::Schema({{"pnum", T::kInt64},
                                   {"recnum", T::kInt64},
                                   {"date", T::kDate},
                                   {"region", T::kString},
                                   {"duration", T::kInt64},
                                   {"cost", T::kDouble},
                                   {"cell_id", T::kInt64},
                                   {"imei", T::kInt64}}));
  auto* package = table(1, "package",
                        beas::Schema({{"pnum", T::kInt64},
                                      {"pid", T::kInt64},
                                      {"start", T::kDate},
                                      {"end", T::kDate},
                                      {"year", T::kInt64},
                                      {"fee", T::kDouble}}));
  auto* business = table(2, "business",
                         beas::Schema({{"pnum", T::kInt64},
                                       {"type", T::kString},
                                       {"region", T::kString},
                                       {"name", T::kString}}));
  auto* customer = table(3, "customer",
                         beas::Schema({{"pnum", T::kInt64},
                                       {"cid", T::kInt64},
                                       {"age", T::kInt64},
                                       {"gender", T::kString},
                                       {"city", T::kString},
                                       {"plan_type", T::kString}}));
  auto* message = table(4, "message",
                        beas::Schema({{"pnum", T::kInt64},
                                      {"recnum", T::kInt64},
                                      {"date", T::kDate},
                                      {"region", T::kString},
                                      {"length", T::kInt64}}));
  auto* data_usage = table(5, "data_usage",
                           beas::Schema({{"pnum", T::kInt64},
                                         {"date", T::kDate},
                                         {"mb_used", T::kDouble},
                                         {"region", T::kString}}));
  auto* tower = table(6, "tower",
                      beas::Schema({{"tid", T::kInt64},
                                    {"region", T::kString},
                                    {"capacity", T::kInt64},
                                    {"operator", T::kString}}));
  auto* handoff = table(7, "handoff",
                        beas::Schema({{"pnum", T::kInt64},
                                      {"date", T::kDate},
                                      {"tid", T::kInt64},
                                      {"count", T::kInt64}}));
  auto* complaint = table(8, "complaint",
                          beas::Schema({{"cid", T::kInt64},
                                        {"date", T::kDate},
                                        {"category", T::kString},
                                        {"severity", T::kInt64}}));
  auto* payment = table(9, "payment",
                        beas::Schema({{"cid", T::kInt64},
                                      {"month", T::kInt64},
                                      {"year", T::kInt64},
                                      {"amount", T::kDouble},
                                      {"method", T::kString}}));
  auto* roaming = table(10, "roaming",
                        beas::Schema({{"pnum", T::kInt64},
                                      {"date", T::kDate},
                                      {"country", T::kString},
                                      {"minutes", T::kInt64}}));
  auto* promotion = table(11, "promotion",
                          beas::Schema({{"pid", T::kInt64},
                                        {"region", T::kString},
                                        {"month", T::kInt64},
                                        {"discount", T::kDouble}}));

  const int64_t n = static_cast<int64_t>(subscribers);
  auto any_pnum = [&] { return kFirstPnum + rng.Uniform(0, n - 1); };
  auto region_of = [](int64_t pnum) {
    return Value::String(RegionName(HomeRegion(pnum)));
  };

  for (int64_t i = 0; i < n; ++i) {
    const int64_t pnum = kFirstPnum + i;
    const int64_t cid = pnum + 90000;
    if (rng.Chance(kBusinessShare)) {
      business->push_back({Value::Int64(pnum),
                           Value::String(kTypeNames[rng.Uniform(0, kTypes - 1)]),
                           region_of(pnum),
                           Value::String("biz_" + std::to_string(pnum))});
    }
    // Packages: 1-3 per subscriber in 2016 (ψ2/ψ13: N = 12).
    for (int k = static_cast<int>(rng.Uniform(1, 3)); k > 0; --k) {
      int m1 = static_cast<int>(rng.Uniform(1, 6));
      int m2 = static_cast<int>(rng.Uniform(m1 + 2, 12));
      package->push_back({Value::Int64(pnum), Value::Int64(rng.Uniform(1, kPids)),
                          DateValue(m1, 1), DateValue(m2, 28),
                          Value::Int64(kYear),
                          Value::Double(5.0 + rng.Real(0, 55))});
    }
    customer->push_back({Value::Int64(pnum), Value::Int64(cid),
                         Value::Int64(rng.Uniform(18, 80)),
                         Value::String(rng.Chance(0.5) ? "M" : "F"),
                         Value::String("C" + std::to_string(rng.Uniform(1, 12))),
                         Value::String(kPlans[rng.Uniform(0, 2)])});
    for (int day = 1; day <= kDays; ++day) {
      // Calls: half the subscriber-days, 1-6 each (ψ1: N = 500).
      if (rng.Chance(0.5)) {
        for (int k = static_cast<int>(rng.Uniform(1, 6)); k > 0; --k) {
          call->push_back({Value::Int64(pnum), Value::Int64(any_pnum()),
                           DateValue(3, day), region_of(pnum),
                           Value::Int64(rng.Uniform(10, 600)),
                           Value::Double(rng.Real(0.05, 9.5)),
                           Value::Int64(rng.Uniform(1, 500)),
                           Value::Int64(pnum * 10 + 1)});
        }
      }
      // Messages: 30% of subscriber-days, 1-4 each (ψ5: N = 1000).
      if (rng.Chance(0.3)) {
        for (int k = static_cast<int>(rng.Uniform(1, 4)); k > 0; --k) {
          message->push_back({Value::Int64(pnum), Value::Int64(any_pnum()),
                              DateValue(3, day), region_of(pnum),
                              Value::Int64(rng.Uniform(1, 160))});
        }
      }
      // Data usage: 80% of subscriber-days, one row each (ψ6: N = 24).
      if (rng.Chance(0.8)) {
        data_usage->push_back({Value::Int64(pnum), DateValue(3, day),
                               Value::Double(rng.Real(1, 2048)),
                               region_of(pnum)});
      }
      // Handoffs: 30% of subscriber-days, 1-3 towers of the home region.
      if (rng.Chance(0.3)) {
        for (int k = static_cast<int>(rng.Uniform(1, 3)); k > 0; --k) {
          int64_t tid = 1 + HomeRegion(pnum) * kTowersPerRegion +
                        rng.Uniform(0, kTowersPerRegion - 1);
          handoff->push_back({Value::Int64(pnum), DateValue(3, day),
                              Value::Int64(tid),
                              Value::Int64(rng.Uniform(1, 20))});
        }
      }
    }
    if (rng.Chance(0.4)) {
      for (int k = static_cast<int>(rng.Uniform(1, 3)); k > 0; --k) {
        complaint->push_back({Value::Int64(cid),
                              DateValue(3, static_cast<int>(rng.Uniform(1, kDays))),
                              Value::String(kCategories[rng.Uniform(0, 3)]),
                              Value::Int64(rng.Uniform(1, 5))});
      }
    }
    for (int month = 1; month <= 6; ++month) {
      payment->push_back({Value::Int64(cid), Value::Int64(month),
                          Value::Int64(kYear),
                          Value::Double(rng.Real(10, 200)),
                          Value::String(kMethods[rng.Uniform(0, 2)])});
    }
    if (rng.Chance(0.1)) {
      for (int k = static_cast<int>(rng.Uniform(1, 5)); k > 0; --k) {
        roaming->push_back({Value::Int64(pnum),
                            DateValue(3, static_cast<int>(rng.Uniform(1, kDays))),
                            Value::String(kCountries[rng.Uniform(0, 6)]),
                            Value::Int64(rng.Uniform(1, 120))});
      }
    }
  }
  // Towers and promotions do not scale with the subscriber count.
  for (int r = 0; r < kRegions; ++r) {
    for (int k = 0; k < kTowersPerRegion; ++k) {
      tower->push_back({Value::Int64(1 + r * kTowersPerRegion + k),
                        Value::String(RegionName(r)),
                        Value::Int64(rng.Uniform(100, 5000)),
                        Value::String(kOperators[rng.Uniform(0, 2)])});
    }
  }
  for (int64_t pid = 1; pid <= kPids; ++pid) {
    for (int r = 0; r < kRegions; ++r) {
      for (int month = 1; month <= 12; ++month) {
        if (!rng.Chance(0.3)) continue;
        promotion->push_back({Value::Int64(pid), Value::String(RegionName(r)),
                              Value::Int64(month),
                              Value::Double(rng.Real(0.05, 0.5))});
      }
    }
  }
  return t;
}

std::vector<beas::AccessConstraint> AccessConstraints() {
  return {
      {"psi1", "call", {"pnum", "date"}, {"recnum", "region"}, 500},
      {"psi2", "package", {"pnum", "year"}, {"pid", "start", "end"}, 12},
      {"psi3", "business", {"type", "region"}, {"pnum"}, 2000},
      {"psi4", "customer", {"pnum"}, {"cid", "age", "gender", "city", "plan_type"}, 1},
      {"psi5", "message", {"pnum", "date"}, {"recnum", "region", "length"}, 1000},
      {"psi6", "data_usage", {"pnum", "date"}, {"mb_used", "region"}, 24},
      {"psi7", "handoff", {"pnum", "date"}, {"tid", "count"}, 100},
      {"psi8", "complaint", {"cid"}, {"date", "category", "severity"}, 50},
      {"psi9", "payment", {"cid", "year"}, {"month", "amount", "method"}, 12},
      {"psi10", "roaming", {"pnum", "date"}, {"country", "minutes"}, 5},
      {"psi11", "promotion", {"pid", "region"}, {"month", "discount"}, 12},
      {"psi12", "tower", {"tid"}, {"region", "capacity", "operator"}, 1},
      {"psi13", "package", {"pnum", "year"}, {"pid", "fee"}, 12},
      {"psi14", "business", {"pnum"}, {"type", "region", "name"}, 1},
      {"psi15", "promotion", {"pid"}, {"region", "month", "discount"}, 96},
      {"psi16", "roaming", {"pnum"}, {"date", "country", "minutes"}, 140},
  };
}

std::string Render(const QuerySpec& spec) {
  std::string sql = spec.select + " FROM ";
  for (size_t i = 0; i < spec.from.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += spec.from[i];
  }
  for (size_t i = 0; i < spec.where.size(); ++i) {
    sql += i == 0 ? " WHERE " : " AND ";
    sql += spec.where[i].text;
  }
  if (!spec.tail.empty()) sql += " " + spec.tail;
  return sql;
}

std::string Respell(const QuerySpec& spec, Rng* rng) {
  QuerySpec out = spec;
  Shuffle(&out.from, rng);
  Shuffle(&out.where, rng);
  for (QuerySpec::Conjunct& c : out.where) {
    if (!c.column.empty() && rng->Chance(0.5)) c.text = c.literal + " = " + c.column;
  }
  return Render(out);
}

std::string TemplateName(int template_id) {
  return template_id < kPointTemplates
             ? "Q" + std::to_string(template_id + 1)
             : "C" + std::to_string(template_id - kPointTemplates + 1);
}

QuerySpec PointQuery(int tid, uint64_t param_seed, size_t subscribers) {
  Rng r(param_seed);
  const std::string pnum = std::to_string(
      kFirstPnum + r.Uniform(0, static_cast<int64_t>(subscribers) - 1));
  const int day = static_cast<int>(r.Uniform(1, kDays));
  const std::string date = Quote(DateLiteral(3, day));
  const std::string type = Quote(kTypeNames[r.Uniform(0, kTypes - 1)]);
  const std::string region = Quote(RegionName(static_cast<int>(r.Uniform(0, kRegions - 1))));
  const std::string pid = std::to_string(r.Uniform(1, kPids));
  QuerySpec q;
  q.template_id = tid;
  switch (tid) {
    case 0:  // Q1, paper Example 2.
      q.select = "SELECT call.region";
      q.from = {"call", "package", "business"};
      q.where = {Eq("business.type", type), Eq("business.region", region),
                 Cond("business.pnum = call.pnum"), Eq("call.date", date),
                 Cond("call.pnum = package.pnum"), Eq("package.year", "2016"),
                 Cond("package.start <= " + date), Cond("package.end >= " + date),
                 Eq("package.pid", pid)};
      break;
    case 1:  // Q2: distinct numbers called on a day.
      q.select = "SELECT DISTINCT call.recnum";
      q.from = {"call"};
      q.where = {Eq("call.pnum", pnum), Eq("call.date", date)};
      break;
    case 2: {  // Q3: roaming across three days.
      int d = std::min(day, kDays - 2);
      q.select = "SELECT count(*) AS trips, sum(roaming.minutes) AS total_minutes";
      q.from = {"roaming"};
      q.where = {Eq("roaming.pnum", pnum),
                 Cond("roaming.date IN " +
                      InList({Quote(DateLiteral(3, d)), Quote(DateLiteral(3, d + 1)),
                              Quote(DateLiteral(3, d + 2))}))};
      break;
    }
    case 3:  // Q4: yearly payments of a number's customer.
      q.select = "SELECT sum(payment.amount) AS total";
      q.from = {"customer", "payment"};
      q.where = {Eq("customer.pnum", pnum), Cond("customer.cid = payment.cid"),
                 Eq("payment.year", "2016")};
      break;
    case 4:  // Q5: call volume by destination region (top 3).
      q.select = "SELECT call.region, count(*) AS calls";
      q.from = {"call"};
      q.where = {Eq("call.pnum", pnum), Eq("call.date", date)};
      q.tail = "GROUP BY call.region ORDER BY calls DESC, call.region LIMIT 3";
      break;
    case 5: {  // Q6: average daily data usage over a week.
      int d = std::min(day, kDays - 6);
      std::vector<std::string> dates;
      for (int k = 0; k < 7; ++k) dates.push_back(Quote(DateLiteral(3, d + k)));
      q.select = "SELECT avg(data_usage.mb_used) AS avg_mb";
      q.from = {"data_usage"};
      q.where = {Eq("data_usage.pnum", pnum), Cond("data_usage.date IN " + InList(dates))};
      break;
    }
    case 6:  // Q7: severe complaints of a business cohort.
      q.select = "SELECT complaint.category, complaint.severity";
      q.from = {"business", "customer", "complaint"};
      q.where = {Eq("business.type", type), Eq("business.region", region),
                 Cond("business.pnum = customer.pnum"),
                 Cond("customer.cid = complaint.cid"),
                 Cond("complaint.severity >= " + std::to_string(r.Uniform(2, 5)))};
      break;
    case 7:  // Q8: premium packages of a subscriber.
      q.select = "SELECT package.pid, package.fee";
      q.from = {"package"};
      q.where = {Eq("package.pnum", pnum), Eq("package.year", "2016"),
                 Cond("package.fee > " + std::to_string(r.Uniform(1, 5) * 10) + ".0")};
      break;
    case 8:  // Q9: towers of a subscriber's handoffs on a day.
      q.select = "SELECT handoff.tid, tower.capacity";
      q.from = {"handoff", "tower"};
      q.where = {Eq("handoff.pnum", pnum), Eq("handoff.date", date),
                 Cond("handoff.tid = tower.tid")};
      break;
    default: {  // Q10: promotions of a package over a quarter.
      int m = static_cast<int>(r.Uniform(1, 10));
      q.select = "SELECT promotion.region, promotion.month, promotion.discount";
      q.from = {"promotion"};
      q.where = {Eq("promotion.pid", pid),
                 Cond("promotion.month BETWEEN " + std::to_string(m) + " AND " +
                      std::to_string(m + 2))};
      q.tail = "ORDER BY promotion.region, promotion.month";
      break;
    }
  }
  return q;
}

QuerySpec CohortQuery(int tid, uint64_t param_seed) {
  Rng r(param_seed);
  std::vector<std::string> types, regions, dates;
  // All types, or a random half of them.
  for (int i : Subset(kTypes, r.Chance(0.5) ? kTypes : kTypes / 2, &r)) {
    types.push_back(Quote(kTypeNames[i]));
  }
  for (int i : Subset(kRegions, static_cast<int>(r.Uniform(2, 4)), &r)) {
    regions.push_back(Quote(RegionName(i)));
  }
  // 7, 14 or 21 of the month's days, not a contiguous window: with
  // windows, the all-types cohorts had a few thousand parameter
  // combinations, so the result cache's hit share grew all through a run
  // (26% after 50 s) and so did the throughput.
  for (int i : Subset(kDays, 7 * static_cast<int>(r.Uniform(1, 3)), &r)) {
    dates.push_back(Quote(DateLiteral(3, i + 1)));
  }

  static const char* const kFact[] = {"data_usage", "call", "message", "handoff"};
  const std::string fact = kFact[tid];
  QuerySpec q;
  q.template_id = kPointTemplates + tid;
  q.from = {"business", fact};
  q.where = {Cond("business.type IN " + InList(types)),
             Cond("business.region IN " + InList(regions)),
             Cond("business.pnum = " + fact + ".pnum"),
             Cond(fact + ".date IN " + InList(dates))};
  switch (tid) {
    case 0:  // C1: daily data usage of business cohorts, per region.
      q.select = "SELECT business.region, count(*) AS days, "
                 "sum(data_usage.mb_used) AS mb";
      q.tail = "GROUP BY business.region";
      break;
    case 1:  // C2: call volume of business cohorts, per type.
      q.select = "SELECT business.type, count(*) AS calls";
      q.tail = "GROUP BY business.type";
      break;
    case 2:  // C3: message volume and length, per region.
      q.select = "SELECT message.region, count(*) AS msgs, "
                 "sum(message.length) AS total_len";
      q.tail = "GROUP BY message.region";
      break;
    default:  // C4: busiest towers of business cohorts.
      q.select = "SELECT handoff.tid, sum(handoff.count) AS handoffs";
      q.tail = "GROUP BY handoff.tid ORDER BY handoffs DESC, handoff.tid LIMIT 20";
      break;
  }
  return q;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  double u = rng->Real(0, 1);
  size_t k = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                 cdf_.begin());
  return std::min(k, cdf_.size() - 1);
}

const char* CdrTableName(CdrTable t) {
  switch (t) {
    case CdrTable::kCall: return "call";
    case CdrTable::kMessage: return "message";
    default: return "data_usage";
  }
}

Row MakeCdrRow(CdrTable t, int64_t pnum, int day, Rng* rng) {
  Value region = Value::String(RegionName(HomeRegion(pnum)));
  switch (t) {
    case CdrTable::kCall:
      return {Value::Int64(pnum), Value::Int64(kFirstPnum + rng->Uniform(0, 9999)),
              DateValue(4, day), region, Value::Int64(rng->Uniform(10, 600)),
              Value::Double(rng->Real(0.05, 9.5)), Value::Int64(rng->Uniform(1, 500)),
              Value::Int64(pnum * 10 + 1)};
    case CdrTable::kMessage:
      return {Value::Int64(pnum), Value::Int64(kFirstPnum + rng->Uniform(0, 9999)),
              DateValue(4, day), region, Value::Int64(rng->Uniform(1, 160))};
    default:
      return {Value::Int64(pnum), DateValue(4, day),
              Value::Double(rng->Real(1, 2048)), region};
  }
}

std::string CdrKeyQuery(CdrTable t, int64_t pnum, int month, int day) {
  const std::string name = CdrTableName(t);
  std::string cols;
  switch (t) {
    case CdrTable::kCall: cols = "call.recnum, call.region"; break;
    case CdrTable::kMessage:
      cols = "message.recnum, message.region, message.length";
      break;
    default: cols = "data_usage.mb_used, data_usage.region"; break;
  }
  return "SELECT " + cols + " FROM " + name + " WHERE " + name +
         ".pnum = " + std::to_string(pnum) + " AND " + name + ".date = '" +
         DateLiteral(month, day) + "'";
}

std::vector<size_t> CdrProjection(CdrTable t) {
  switch (t) {
    case CdrTable::kCall: return {1, 3};
    case CdrTable::kMessage: return {1, 3, 4};
    default: return {2, 3};
  }
}

size_t CdrKeyBound(CdrTable t) {
  switch (t) {
    case CdrTable::kCall: return 500;
    case CdrTable::kMessage: return 1000;
    default: return 24;
  }
}

}  // namespace tlcbench
