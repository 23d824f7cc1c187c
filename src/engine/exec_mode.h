// Engine selection for query/stage execution: the same VecNode plans run
// on the row-at-a-time Volcano engine or the morsel-driven vectorized
// engine (exec/pipeline.h), with bit-identical results.
#pragma once

#include <cstddef>

#include "exec/pipeline.h"

namespace xdbft::engine {

enum class ExecMode : int { kRow, kVectorized };

/// \brief How QueryRunner executes stage plans. A stage plan keeps its
/// builder's `mode` and `morsel_rows` for the FT executor, which runs
/// morsels serially inside its own pool (StagePlan::RunSerial).
struct ExecOptions {
  ExecMode mode = ExecMode::kRow;
  /// Worker threads per vectorized pipeline of a QueryRunner (row mode
  /// and StagePlan::RunSerial ignore it: ParallelForEach is not
  /// reentrant, so tasks inside another pool's tasks stay serial).
  int num_threads = 1;
  /// Rows per morsel/batch in vectorized mode.
  size_t morsel_rows = exec::kDefaultBatchRows;
  /// Optional per-pipeline trace lanes.
  obs::TraceRecorder* trace = nullptr;
  int trace_lane_base = 0;
  /// Collect per-operator query profiles (EXPLAIN ANALYZE): QueryRunner
  /// fills QueryExecution::stage_profiles with one merged profile tree
  /// per stage. Off by default (zero overhead when false).
  bool profile = false;
};

}  // namespace xdbft::engine
