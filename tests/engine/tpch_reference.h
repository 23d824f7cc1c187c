// Single-node reference computations of the benchmark queries: plain loops
// over the unpartitioned generated tables, sharing nothing with the stage
// plans but the query parameters. They are the independent oracle that
// QueryRunner and the FaultTolerantExecutor, both driving the same stage
// plans, are checked against.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "datagen/tpch_gen.h"
#include "engine/stage_plan.h"
#include "exec/batch.h"

namespace xdbft::engine {

// Column positions in the generated tables (datagen/tpch_gen.h).
// LINEITEM: 0 orderkey, 3 suppkey, 4 quantity, 5 extendedprice,
// 6 discount, 8 returnflag, 9 linestatus, 10 shipdate.

using GroupKey = std::pair<std::string, std::string>;

/// Q1: per (returnflag, linestatus) of the rows passing the shipdate
/// filter, (sum qty, sum price, count).
inline std::map<GroupKey, std::tuple<double, double, int64_t>> ReferenceQ1(
    const datagen::TpchDatabase& db) {
  std::map<GroupKey, std::tuple<double, double, int64_t>> groups;
  for (const auto& row : db.lineitem.rows) {
    if (row[10].AsInt64() > params::kQ1ShipdateCutoff) continue;
    auto& [qty, price, cnt] =
        groups[{row[8].AsString(), row[9].AsString()}];
    qty += row[4].AsDouble();
    price += row[5].AsDouble();
    ++cnt;
  }
  return groups;
}

/// Q3: revenue and orderdate per qualifying order (segment customer,
/// ordered before kQ3Date, lineitems shipped after it).
struct Q3Order {
  int64_t orderdate = 0;
  double revenue = 0.0;
};

inline std::map<int64_t, Q3Order> ReferenceQ3(
    const datagen::TpchDatabase& db) {
  std::set<int64_t> segment_customers;
  for (const auto& row : db.customer.rows) {
    if (row[3].AsString() == params::kQ3Segment) {
      segment_customers.insert(row[0].AsInt64());
    }
  }
  std::map<int64_t, int64_t> qualifying;  // orderkey -> orderdate
  for (const auto& row : db.orders.rows) {
    if (row[2].AsInt64() < params::kQ3Date &&
        segment_customers.count(row[1].AsInt64()) > 0) {
      qualifying[row[0].AsInt64()] = row[2].AsInt64();
    }
  }
  std::map<int64_t, Q3Order> orders;
  for (const auto& row : db.lineitem.rows) {
    const auto it = qualifying.find(row[0].AsInt64());
    if (it == qualifying.end()) continue;
    if (row[10].AsInt64() <= params::kQ3Date) continue;
    Q3Order& o = orders[it->first];
    o.orderdate = it->second;
    o.revenue += row[5].AsDouble() * (1.0 - row[6].AsDouble());
  }
  return orders;
}

/// Q5: revenue per nation name.
inline std::map<std::string, double> ReferenceQ5(
    const datagen::TpchDatabase& db) {
  std::map<int64_t, int64_t> cust_nation;
  for (const auto& row : db.customer.rows) {
    cust_nation[row[0].AsInt64()] = row[2].AsInt64();
  }
  std::map<int64_t, int64_t> supp_nation;
  for (const auto& row : db.supplier.rows) {
    supp_nation[row[0].AsInt64()] = row[2].AsInt64();
  }
  std::map<int64_t, std::string> nation_name;
  std::set<int64_t> region_nations;
  for (const auto& row : db.nation.rows) {
    nation_name[row[0].AsInt64()] = row[1].AsString();
    if (row[2].AsInt64() == params::kQ5Region) {
      region_nations.insert(row[0].AsInt64());
    }
  }
  std::map<int64_t, std::pair<int64_t, bool>> order_info;  // cust, in-range
  for (const auto& row : db.orders.rows) {
    const int64_t d = row[2].AsInt64();
    order_info[row[0].AsInt64()] = {
        row[1].AsInt64(),
        d >= params::kQ5YearStart && d < params::kQ5YearEnd};
  }
  std::map<std::string, double> revenue;
  for (const auto& row : db.lineitem.rows) {
    const auto& [cust, in_range] = order_info[row[0].AsInt64()];
    if (!in_range) continue;
    const int64_t cnat = cust_nation[cust];
    if (!region_nations.count(cnat)) continue;
    if (supp_nation[row[3].AsInt64()] != cnat) continue;
    revenue[nation_name[cnat]] +=
        row[5].AsDouble() * (1.0 - row[6].AsDouble());
  }
  return revenue;
}

/// Q1C: per (returnflag, linestatus), the number of items priced above
/// the group's average extended price (within the shipdate window).
inline std::map<GroupKey, int64_t> ReferenceQ1C(
    const datagen::TpchDatabase& db) {
  std::map<GroupKey, std::pair<double, int64_t>> sums;
  for (const auto& row : db.lineitem.rows) {
    if (row[10].AsInt64() > params::kQ1ShipdateCutoff) continue;
    auto& [sum, cnt] = sums[{row[8].AsString(), row[9].AsString()}];
    sum += row[5].AsDouble();
    ++cnt;
  }
  std::map<GroupKey, int64_t> counts;
  for (const auto& row : db.lineitem.rows) {
    if (row[10].AsInt64() > params::kQ1ShipdateCutoff) continue;
    const auto key = std::make_pair(row[8].AsString(), row[9].AsString());
    const auto& [sum, cnt] = sums[key];
    if (row[5].AsDouble() > sum / static_cast<double>(cnt)) ++counts[key];
  }
  return counts;
}

/// Q2C: min supplycost per part of the filtered type; outer i keeps the
/// (partkey, suppkey) pairs achieving the min, split by retail price.
struct Q2CReference {
  std::set<std::pair<int64_t, int64_t>> outer1;
  std::set<std::pair<int64_t, int64_t>> outer2;
};

inline Q2CReference ReferenceQ2C(const datagen::TpchDatabase& db) {
  std::map<int64_t, std::pair<std::string, double>> part_info;
  for (const auto& row : db.part.rows) {
    part_info[row[0].AsInt64()] = {row[2].AsString(), row[3].AsDouble()};
  }
  std::map<int64_t, double> min_cost;
  for (const auto& row : db.partsupp.rows) {
    const auto& [type, price] = part_info[row[0].AsInt64()];
    if (type < "STANDARD" || type >= "STANDARE") continue;
    auto it = min_cost.find(row[0].AsInt64());
    if (it == min_cost.end() || row[2].AsDouble() < it->second) {
      min_cost[row[0].AsInt64()] = row[2].AsDouble();
    }
  }
  Q2CReference ref;
  for (const auto& row : db.partsupp.rows) {
    const auto it = min_cost.find(row[0].AsInt64());
    if (it == min_cost.end() || row[2].AsDouble() != it->second) continue;
    const double price = part_info[row[0].AsInt64()].second;
    auto& target = price < 1400.0 ? ref.outer1 : ref.outer2;
    target.insert({row[0].AsInt64(), row[1].AsInt64()});
  }
  return ref;
}

// ---- result checks against the references ----

inline void ExpectMatchesReferenceQ1(const exec::Table& result,
                                     const datagen::TpchDatabase& db) {
  const auto ref = ReferenceQ1(db);
  ASSERT_EQ(result.num_rows(), ref.size());
  for (const auto& row : result.rows) {
    const auto it = ref.find({row[0].AsString(), row[1].AsString()});
    ASSERT_NE(it, ref.end());
    const auto& [qty, price, cnt] = it->second;
    EXPECT_NEAR(row[2].AsDouble(), qty, std::fabs(qty) * 1e-9);
    EXPECT_NEAR(row[3].AsDouble(), price, std::fabs(price) * 1e-9);
    // The merge phase sums partial counts with SUM, which is double-typed.
    EXPECT_DOUBLE_EQ(row[4].AsDouble(), static_cast<double>(cnt));
  }
}

/// The result is the reference's ten highest-revenue orders, (o_orderkey,
/// o_orderdate, revenue), sorted descending by revenue.
inline void ExpectMatchesReferenceQ3(const exec::Table& result,
                                     const datagen::TpchDatabase& db) {
  const auto ref = ReferenceQ3(db);
  std::vector<double> revenues;
  for (const auto& [key, o] : ref) revenues.push_back(o.revenue);
  std::sort(revenues.begin(), revenues.end(), std::greater<>());
  ASSERT_EQ(result.num_rows(), std::min<size_t>(10, ref.size()));
  for (size_t i = 0; i < result.num_rows(); ++i) {
    const auto& row = result.rows[i];
    const auto it = ref.find(row[0].AsInt64());
    ASSERT_NE(it, ref.end()) << "order " << row[0].AsInt64();
    EXPECT_EQ(row[1].AsInt64(), it->second.orderdate) << i;
    const double rev = row[2].AsDouble();
    EXPECT_NEAR(rev, it->second.revenue, std::fabs(rev) * 1e-9) << i;
    EXPECT_NEAR(rev, revenues[i], std::fabs(rev) * 1e-9) << i;
  }
}

inline void ExpectMatchesReferenceQ5(const exec::Table& result,
                                     const datagen::TpchDatabase& db) {
  const auto ref = ReferenceQ5(db);
  ASSERT_EQ(result.num_rows(), ref.size());
  for (const auto& row : result.rows) {
    const auto it = ref.find(row[0].AsString());
    ASSERT_NE(it, ref.end()) << row[0].AsString();
    EXPECT_NEAR(row[1].AsDouble(), it->second,
                std::fabs(it->second) * 1e-9);
  }
}

inline void ExpectMatchesReferenceQ1C(const exec::Table& result,
                                      const datagen::TpchDatabase& db) {
  const auto ref = ReferenceQ1C(db);
  ASSERT_EQ(result.num_rows(), ref.size());
  for (const auto& row : result.rows) {
    const auto it = ref.find({row[0].AsString(), row[1].AsString()});
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(row[2].AsInt64(), it->second);
  }
}

}  // namespace xdbft::engine
