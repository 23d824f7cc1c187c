// Execution options for query/stage execution. Every VecNode plan runs on
// the morsel-driven vectorized engine (exec/pipeline.h).
#pragma once

#include <cstddef>

#include "exec/pipeline.h"

namespace xdbft::engine {

/// \brief The engine that runs stage plans. There is one; the enum and
/// ExecOptions::mode remain only so callers that name the engine keep
/// compiling. Nothing reads the field.
enum class ExecMode : int { kVectorized };

/// \brief How QueryRunner executes stage plans. A stage plan keeps its
/// builder's `morsel_rows` for the FT executor, which runs morsels
/// serially inside its own pool (StagePlan::RunSerial).
struct ExecOptions {
  /// Unread: see ExecMode.
  ExecMode mode = ExecMode::kVectorized;
  /// Worker threads per pipeline of a QueryRunner (StagePlan::RunSerial
  /// ignores it: ParallelForEach is not reentrant, so tasks inside
  /// another pool's tasks stay serial).
  int num_threads = 1;
  /// Rows per morsel/batch.
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
