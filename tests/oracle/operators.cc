#include "oracle/operators.h"

#include <algorithm>

#include "common/logging.h"

namespace xdbft::exec {

namespace {

class ScanOperator final : public Operator {
 public:
  explicit ScanOperator(const Table* table) : table_(table) {}

  Status Open() override {
    if (table_ == nullptr) return Status::InvalidArgument("null table");
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= table_->rows.size()) return false;
    *out = table_->rows[pos_++];
    return true;
  }

  void Close() override {}
  const Schema& schema() const override {
    // The table is only validated in Open; a null scan must still answer
    // schema queries (parents concatenate schemas at construction time).
    static const Schema kEmpty;
    return table_ == nullptr ? kEmpty : table_->schema;
  }

 private:
  const Table* table_;
  size_t pos_ = 0;
};

class FilterOperator final : public Operator {
 public:
  FilterOperator(OperatorPtr input, Expr::Ptr predicate)
      : input_(std::move(input)), predicate_(std::move(predicate)) {}

  Status Open() override {
    if (predicate_ == nullptr) {
      return Status::InvalidArgument("null predicate");
    }
    return input_->Open();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, input_->Next(out));
      if (!more) return false;
      if (predicate_->EvalBool(*out)) return true;
    }
  }

  void Close() override { input_->Close(); }
  const Schema& schema() const override { return input_->schema(); }

 private:
  OperatorPtr input_;
  Expr::Ptr predicate_;
};

class ProjectOperator final : public Operator {
 public:
  ProjectOperator(OperatorPtr input, std::vector<Expr::Ptr> exprs,
                  std::vector<std::string> names)
      : input_(std::move(input)), exprs_(std::move(exprs)) {
    std::vector<Column> cols;
    cols.reserve(names.size());
    for (auto& n : names) cols.push_back({std::move(n), ValueType::kNull});
    schema_ = Schema(std::move(cols));
  }

  Status Open() override {
    if (exprs_.size() != schema_.num_columns()) {
      return Status::InvalidArgument("project: exprs/names size mismatch");
    }
    return input_->Open();
  }

  Result<bool> Next(Row* out) override {
    Row in;
    XDBFT_ASSIGN_OR_RETURN(const bool more, input_->Next(&in));
    if (!more) return false;
    out->clear();
    out->reserve(exprs_.size());
    for (const auto& e : exprs_) out->push_back(e->Eval(in));
    return true;
  }

  void Close() override { input_->Close(); }
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr input_;
  std::vector<Expr::Ptr> exprs_;
  Schema schema_;
};

class HashJoinOperator final : public Operator {
 public:
  HashJoinOperator(OperatorPtr build, OperatorPtr probe,
                   std::vector<int> build_keys, std::vector<int> probe_keys)
      : build_(std::move(build)),
        probe_(std::move(probe)),
        build_keys_(std::move(build_keys)),
        probe_keys_(std::move(probe_keys)) {
    schema_ = Schema::Concat(probe_->schema(), build_->schema());
  }

  Status Open() override {
    if (build_keys_.size() != probe_keys_.size() || build_keys_.empty()) {
      return Status::InvalidArgument("join: bad key columns");
    }
    // Re-Open without Close must not duplicate build rows (recovery
    // replays re-open operator trees).
    table_.clear();
    XDBFT_RETURN_NOT_OK(build_->Open());
    Row row;
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, build_->Next(&row));
      if (!more) break;
      table_[ExtractKey(row, build_keys_)].push_back(row);
    }
    build_->Close();
    XDBFT_RETURN_NOT_OK(probe_->Open());
    matches_ = nullptr;
    match_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        *out = probe_row_;
        const Row& b = (*matches_)[match_pos_++];
        out->insert(out->end(), b.begin(), b.end());
        return true;
      }
      XDBFT_ASSIGN_OR_RETURN(const bool more, probe_->Next(&probe_row_));
      if (!more) return false;
      const auto it = table_.find(ExtractKey(probe_row_, probe_keys_));
      matches_ = it == table_.end() ? nullptr : &it->second;
      match_pos_ = 0;
    }
  }

  void Close() override {
    probe_->Close();
    table_.clear();
  }
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr build_;
  OperatorPtr probe_;
  std::vector<int> build_keys_;
  std::vector<int> probe_keys_;
  Schema schema_;
  std::unordered_map<Row, std::vector<Row>, RowHash, RowEq> table_;
  Row probe_row_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

class HashAggregateOperator final : public Operator {
 public:
  HashAggregateOperator(OperatorPtr input, std::vector<int> group_by,
                        std::vector<AggSpec> aggs)
      : input_(std::move(input)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {
    std::vector<Column> cols;
    for (int g : group_by_) cols.push_back(input_->schema().column(g));
    for (const auto& a : aggs_) cols.push_back({a.name, ValueType::kNull});
    schema_ = Schema(std::move(cols));
  }

  Status Open() override {
    XDBFT_RETURN_NOT_OK(ValidateAggSpecs(aggs_));
    XDBFT_RETURN_NOT_OK(input_->Open());
    index_.clear();
    keys_.clear();
    states_.clear();
    Row row;
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, input_->Next(&row));
      if (!more) break;
      Row key = ExtractKey(row, group_by_);
      const auto [it, inserted] = index_.try_emplace(std::move(key),
                                                     keys_.size());
      if (inserted) {
        keys_.push_back(it->first);
        states_.emplace_back(aggs_.size());
      }
      auto& states = states_[it->second];
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (aggs_[i].arg == nullptr) {
          AccumulateStar(&states[i]);  // COUNT(*)
        } else {
          AccumulateValue(aggs_[i].func, aggs_[i].arg->Eval(row),
                          &states[i]);
        }
      }
    }
    // An empty input with no group columns still yields one global row.
    if (keys_.empty() && group_by_.empty()) {
      keys_.push_back(Row{});
      states_.emplace_back(aggs_.size());
    }
    input_->Close();
    emit_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (emit_pos_ >= keys_.size()) return false;
    const Row& key = keys_[emit_pos_];
    out->clear();
    out->insert(out->end(), key.begin(), key.end());
    for (size_t i = 0; i < aggs_.size(); ++i) {
      out->push_back(FinalizeAgg(aggs_[i].func, states_[emit_pos_][i]));
    }
    ++emit_pos_;
    return true;
  }

  void Close() override {
    index_.clear();
    keys_.clear();
    states_.clear();
  }
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr input_;
  std::vector<int> group_by_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  // Groups are emitted in first-occurrence order: index_ maps a key to its
  // slot in keys_/states_ (the unordered_map's own order is never used, so
  // output order is deterministic and matches the vectorized sink).
  std::unordered_map<Row, size_t, RowHash, RowEq> index_;
  std::vector<Row> keys_;
  std::vector<std::vector<AggState>> states_;
  size_t emit_pos_ = 0;
};

class SortOperator final : public Operator {
 public:
  SortOperator(OperatorPtr input, std::vector<int> keys,
               std::vector<bool> ascending, int64_t limit)
      : input_(std::move(input)),
        keys_(std::move(keys)),
        ascending_(std::move(ascending)),
        limit_(limit) {}

  Status Open() override {
    if (keys_.size() != ascending_.size()) {
      return Status::InvalidArgument("sort: keys/direction size mismatch");
    }
    XDBFT_RETURN_NOT_OK(input_->Open());
    rows_.clear();
    Row row;
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, input_->Next(&row));
      if (!more) break;
      rows_.push_back(row);
    }
    input_->Close();
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Row& a, const Row& b) {
                       for (size_t i = 0; i < keys_.size(); ++i) {
                         const int c = a[static_cast<size_t>(keys_[i])]
                                           .Compare(
                                               b[static_cast<size_t>(
                                                   keys_[i])]);
                         if (c != 0) return ascending_[i] ? c < 0 : c > 0;
                       }
                       return false;
                     });
    if (limit_ >= 0 && rows_.size() > static_cast<size_t>(limit_)) {
      rows_.resize(static_cast<size_t>(limit_));
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }

  void Close() override { rows_.clear(); }
  const Schema& schema() const override { return input_->schema(); }

 private:
  OperatorPtr input_;
  std::vector<int> keys_;
  std::vector<bool> ascending_;
  int64_t limit_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class LimitOperator final : public Operator {
 public:
  LimitOperator(OperatorPtr input, int64_t limit)
      : input_(std::move(input)), limit_(limit) {}

  Status Open() override {
    if (limit_ < 0) return Status::InvalidArgument("negative limit");
    produced_ = 0;
    return input_->Open();
  }

  Result<bool> Next(Row* out) override {
    if (produced_ >= limit_) return false;
    XDBFT_ASSIGN_OR_RETURN(const bool more, input_->Next(out));
    if (!more) return false;
    ++produced_;
    return true;
  }

  void Close() override { input_->Close(); }
  const Schema& schema() const override { return input_->schema(); }

 private:
  OperatorPtr input_;
  int64_t limit_;
  int64_t produced_ = 0;
};

class UnionAllOperator final : public Operator {
 public:
  explicit UnionAllOperator(std::vector<OperatorPtr> inputs)
      : inputs_(std::move(inputs)) {}

  Status Open() override {
    if (inputs_.empty()) return Status::InvalidArgument("empty union");
    XDBFT_RETURN_NOT_OK(CheckSchemasCompatible());
    for (auto& in : inputs_) XDBFT_RETURN_NOT_OK(in->Open());
    current_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (current_ < inputs_.size()) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, inputs_[current_]->Next(out));
      if (more) return true;
      ++current_;
    }
    return false;
  }

  void Close() override {
    for (auto& in : inputs_) in->Close();
  }
  const Schema& schema() const override { return inputs_[0]->schema(); }

 private:
  Status CheckSchemasCompatible() const {
    const Schema& first = inputs_[0]->schema();
    for (size_t i = 1; i < inputs_.size(); ++i) {
      const Schema& s = inputs_[i]->schema();
      if (s.num_columns() != first.num_columns()) {
        return Status::InvalidArgument(
            "union: input " + std::to_string(i) + " has " +
            std::to_string(s.num_columns()) + " columns, expected " +
            std::to_string(first.num_columns()));
      }
      for (size_t c = 0; c < first.num_columns(); ++c) {
        const Column& a = first.column(static_cast<int>(c));
        const Column& b = s.column(static_cast<int>(c));
        // kNull is a wildcard: project/aggregate outputs carry it.
        const bool type_ok = a.type == b.type ||
                             a.type == ValueType::kNull ||
                             b.type == ValueType::kNull;
        if (a.name != b.name || !type_ok) {
          return Status::InvalidArgument(
              "union: column " + std::to_string(c) + " mismatch ('" +
              a.name + "' " + ValueTypeName(a.type) + " vs '" + b.name +
              "' " + ValueTypeName(b.type) + ")");
        }
      }
    }
    return Status::OK();
  }

  std::vector<OperatorPtr> inputs_;
  size_t current_ = 0;
};

}  // namespace

OperatorPtr MakeScan(const Table* table) {
  return std::make_unique<ScanOperator>(table);
}

OperatorPtr MakeFilter(OperatorPtr input, Expr::Ptr predicate) {
  return std::make_unique<FilterOperator>(std::move(input),
                                          std::move(predicate));
}

OperatorPtr MakeProject(OperatorPtr input, std::vector<Expr::Ptr> exprs,
                        std::vector<std::string> names) {
  return std::make_unique<ProjectOperator>(std::move(input),
                                           std::move(exprs),
                                           std::move(names));
}

OperatorPtr MakeHashJoin(OperatorPtr build, OperatorPtr probe,
                         std::vector<int> build_keys,
                         std::vector<int> probe_keys) {
  return std::make_unique<HashJoinOperator>(std::move(build),
                                            std::move(probe),
                                            std::move(build_keys),
                                            std::move(probe_keys));
}

OperatorPtr MakeHashAggregate(OperatorPtr input, std::vector<int> group_by,
                              std::vector<AggSpec> aggs) {
  return std::make_unique<HashAggregateOperator>(std::move(input),
                                                 std::move(group_by),
                                                 std::move(aggs));
}

OperatorPtr MakeSort(OperatorPtr input, std::vector<int> keys,
                     std::vector<bool> ascending, int64_t limit) {
  return std::make_unique<SortOperator>(std::move(input), std::move(keys),
                                        std::move(ascending), limit);
}

OperatorPtr MakeLimit(OperatorPtr input, int64_t limit) {
  return std::make_unique<LimitOperator>(std::move(input), limit);
}

OperatorPtr MakeUnionAll(std::vector<OperatorPtr> inputs) {
  return std::make_unique<UnionAllOperator>(std::move(inputs));
}

Result<Table> Drain(Operator* op) {
  if (op == nullptr) return Status::InvalidArgument("null operator");
  XDBFT_RETURN_NOT_OK(op->Open());
  Table out;
  out.schema = op->schema();
  Row row;
  while (true) {
    XDBFT_ASSIGN_OR_RETURN(const bool more, op->Next(&row));
    if (!more) break;
    out.rows.push_back(row);
  }
  op->Close();
  return out;
}

OperatorPtr ToOperator(const VecNodePtr& plan) {
  if (plan == nullptr) return nullptr;
  const VecNode& n = *plan;
  switch (n.op) {
    case VecOp::kScan:
      return MakeScan(n.table);
    case VecOp::kFilter:
      return MakeFilter(ToOperator(n.children[0]), n.predicate);
    case VecOp::kProject: {
      std::vector<std::string> names;
      names.reserve(n.schema.num_columns());
      for (const auto& c : n.schema.columns()) names.push_back(c.name);
      return MakeProject(ToOperator(n.children[0]), n.exprs,
                         std::move(names));
    }
    case VecOp::kHashJoin:
      return MakeHashJoin(ToOperator(n.children[0]),
                          ToOperator(n.children[1]), n.build_keys,
                          n.probe_keys);
    case VecOp::kNestedLoopJoin:
      return MakeNestedLoopJoin(ToOperator(n.children[0]),
                                ToOperator(n.children[1]), n.predicate);
    case VecOp::kMergeJoin:
      return MakeMergeJoin(ToOperator(n.children[0]),
                           ToOperator(n.children[1]), n.left_key,
                           n.right_key);
    case VecOp::kHashAggregate:
      return MakeHashAggregate(ToOperator(n.children[0]), n.group_by,
                               n.aggs);
    case VecOp::kSort:
      return MakeSort(ToOperator(n.children[0]), n.sort_keys, n.ascending,
                      n.limit);
    case VecOp::kLimit:
      return MakeLimit(ToOperator(n.children[0]), n.limit);
    case VecOp::kUnionAll: {
      std::vector<OperatorPtr> inputs;
      inputs.reserve(n.children.size());
      for (const auto& c : n.children) inputs.push_back(ToOperator(c));
      return MakeUnionAll(std::move(inputs));
    }
  }
  return nullptr;
}

}  // namespace xdbft::exec
