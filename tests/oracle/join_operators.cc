// Nested-loop (theta) join and sort-merge equi join.
#include <algorithm>

#include "common/logging.h"
#include "oracle/operators.h"

namespace xdbft::exec {

namespace {

class NestedLoopJoinOperator final : public Operator {
 public:
  NestedLoopJoinOperator(OperatorPtr left, OperatorPtr right,
                         Expr::Ptr predicate)
      : left_(std::move(left)),
        right_(std::move(right)),
        predicate_(std::move(predicate)) {
    schema_ = Schema::Concat(left_->schema(), right_->schema());
  }

  Status Open() override {
    if (predicate_ == nullptr) {
      return Status::InvalidArgument("null join predicate");
    }
    XDBFT_RETURN_NOT_OK(left_->Open());
    left_rows_.clear();
    Row row;
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, left_->Next(&row));
      if (!more) break;
      left_rows_.push_back(row);
    }
    left_->Close();
    XDBFT_RETURN_NOT_OK(right_->Open());
    left_pos_ = left_rows_.size();  // force fetching the first right row
    have_right_ = false;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      if (!have_right_ || left_pos_ >= left_rows_.size()) {
        XDBFT_ASSIGN_OR_RETURN(const bool more, right_->Next(&right_row_));
        if (!more) return false;
        have_right_ = true;
        left_pos_ = 0;
      }
      while (left_pos_ < left_rows_.size()) {
        const Row& l = left_rows_[left_pos_++];
        combined_ = l;
        combined_.insert(combined_.end(), right_row_.begin(),
                         right_row_.end());
        if (predicate_->EvalBool(combined_)) {
          *out = combined_;
          return true;
        }
      }
    }
  }

  void Close() override {
    right_->Close();
    left_rows_.clear();
  }
  const Schema& schema() const override { return schema_; }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  Expr::Ptr predicate_;
  Schema schema_;
  std::vector<Row> left_rows_;
  size_t left_pos_ = 0;
  Row right_row_;
  Row combined_;
  bool have_right_ = false;
};

class MergeJoinOperator final : public Operator {
 public:
  MergeJoinOperator(OperatorPtr left, OperatorPtr right, int left_key,
                    int right_key)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_key_(left_key),
        right_key_(right_key) {
    schema_ = Schema::Concat(left_->schema(), right_->schema());
  }

  Status Open() override {
    if (left_key_ < 0 || right_key_ < 0) {
      return Status::InvalidArgument("merge join: bad key columns");
    }
    XDBFT_RETURN_NOT_OK(Buffer(left_.get(), left_key_, &lrows_));
    XDBFT_RETURN_NOT_OK(Buffer(right_.get(), right_key_, &rrows_));
    li_ = ri_ = 0;
    group_l_end_ = group_r_end_ = 0;
    gl_ = gr_ = 0;
    in_group_ = false;
    return Status::OK();
  }

  Result<bool> Next(Row* out) override {
    while (true) {
      if (in_group_) {
        if (gr_ < group_r_end_) {
          *out = lrows_[gl_];
          out->insert(out->end(), rrows_[gr_].begin(), rrows_[gr_].end());
          ++gr_;
          return true;
        }
        // Next left row of the group.
        ++gl_;
        gr_ = ri_;
        if (gl_ >= group_l_end_) {
          in_group_ = false;
          li_ = group_l_end_;
          ri_ = group_r_end_;
        }
        continue;
      }
      if (li_ >= lrows_.size() || ri_ >= rrows_.size()) return false;
      const int c = lrows_[li_][static_cast<size_t>(left_key_)].Compare(
          rrows_[ri_][static_cast<size_t>(right_key_)]);
      if (c < 0) {
        ++li_;
      } else if (c > 0) {
        ++ri_;
      } else {
        // Key group boundaries on both sides.
        const Value& key = lrows_[li_][static_cast<size_t>(left_key_)];
        group_l_end_ = li_;
        while (group_l_end_ < lrows_.size() &&
               lrows_[group_l_end_][static_cast<size_t>(left_key_)]
                       .Compare(key) == 0) {
          ++group_l_end_;
        }
        group_r_end_ = ri_;
        while (group_r_end_ < rrows_.size() &&
               rrows_[group_r_end_][static_cast<size_t>(right_key_)]
                       .Compare(key) == 0) {
          ++group_r_end_;
        }
        gl_ = li_;
        gr_ = ri_;
        in_group_ = true;
      }
    }
  }

  void Close() override {
    lrows_.clear();
    rrows_.clear();
  }
  const Schema& schema() const override { return schema_; }

 private:
  static Status Buffer(Operator* op, int key, std::vector<Row>* rows) {
    XDBFT_RETURN_NOT_OK(op->Open());
    rows->clear();
    Row row;
    while (true) {
      XDBFT_ASSIGN_OR_RETURN(const bool more, op->Next(&row));
      if (!more) break;
      rows->push_back(row);
    }
    op->Close();
    std::stable_sort(rows->begin(), rows->end(),
                     [key](const Row& a, const Row& b) {
                       return a[static_cast<size_t>(key)].Compare(
                                  b[static_cast<size_t>(key)]) < 0;
                     });
    return Status::OK();
  }

  OperatorPtr left_;
  OperatorPtr right_;
  int left_key_;
  int right_key_;
  Schema schema_;
  std::vector<Row> lrows_, rrows_;
  size_t li_ = 0, ri_ = 0;
  size_t group_l_end_ = 0, group_r_end_ = 0;
  size_t gl_ = 0, gr_ = 0;
  bool in_group_ = false;
};

}  // namespace

OperatorPtr MakeNestedLoopJoin(OperatorPtr left, OperatorPtr right,
                               Expr::Ptr predicate) {
  return std::make_unique<NestedLoopJoinOperator>(
      std::move(left), std::move(right), std::move(predicate));
}

OperatorPtr MakeMergeJoin(OperatorPtr left, OperatorPtr right, int left_key,
                          int right_key) {
  return std::make_unique<MergeJoinOperator>(std::move(left),
                                             std::move(right), left_key,
                                             right_key);
}

}  // namespace xdbft::exec
