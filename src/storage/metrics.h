// Storage-path observability: process-wide counters plus their Prometheus
// mirror.
//
// Container opens, writes, and validations bump the atomics in
// StorageCounters as they happen; UpdateStorageMetrics mirrors the totals
// into a MetricsRegistry as `gqd_storage_*` families at exposition time —
// the same pull-based pattern UpdateFailpointMetrics uses, so the storage
// hot paths never touch the registry mutex.

#ifndef GQD_STORAGE_METRICS_H_
#define GQD_STORAGE_METRICS_H_

#include <atomic>
#include <cstdint>

#include "graph/sparse_relation.h"
#include "obs/metrics.h"

namespace gqd {

/// Process-wide storage counters (monotonic totals).
struct StorageCounters {
  std::atomic<std::uint64_t> containers_opened{0};
  std::atomic<std::uint64_t> open_failures{0};
  std::atomic<std::uint64_t> containers_written{0};
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> validations{0};
  std::atomic<std::uint64_t> validation_failures{0};
  std::atomic<std::uint64_t> bytes_mapped{0};   ///< summed over opens
  std::atomic<std::uint64_t> bytes_written{0};  ///< summed over writes
  std::atomic<std::uint64_t> load_micros{0};    ///< summed open latency

  static StorageCounters& Instance();
};

/// Mirrors StorageCounters into `registry`:
///   gqd_storage_container_opens_total, gqd_storage_open_failures_total,
///   gqd_storage_container_writes_total, gqd_storage_write_failures_total,
///   gqd_storage_validations_total, gqd_storage_validation_failures_total,
///   gqd_storage_mapped_bytes_total, gqd_storage_written_bytes_total,
///   gqd_storage_load_microseconds_total.
void UpdateStorageMetrics(MetricsRegistry* registry);

/// Process-wide relation-path counters (monotonic totals): container I/O
/// from storage/relation_store.cc, relation-text parse time of served
/// checks, plus backend selections and admission refusals bumped by the
/// check paths (CLI and serve).
struct RelationCounters {
  std::atomic<std::uint64_t> relations_opened{0};
  std::atomic<std::uint64_t> open_failures{0};
  std::atomic<std::uint64_t> relations_written{0};
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> pairs_loaded{0};    ///< summed over opens
  std::atomic<std::uint64_t> pairs_written{0};   ///< summed over writes
  std::atomic<std::uint64_t> load_micros{0};     ///< summed open latency
  std::atomic<std::uint64_t> builds_dense{0};    ///< backend selections
  std::atomic<std::uint64_t> builds_sparse{0};
  std::atomic<std::uint64_t> builds_blocked{0};
  std::atomic<std::uint64_t> parse_micros{0};    ///< summed text-parse latency
  std::atomic<std::uint64_t> build_micros{0};    ///< summed build latency
  std::atomic<std::uint64_t> admission_refusals{0};

  static RelationCounters& Instance();
};

/// Bumps the builds_* counter matching the backend a check selected.
void NoteRelationBackendSelected(RelationBackend backend);

/// Mirrors RelationCounters into `registry`:
///   gqd_relation_container_opens_total, gqd_relation_open_failures_total,
///   gqd_relation_container_writes_total, gqd_relation_write_failures_total,
///   gqd_relation_pairs_loaded_total, gqd_relation_pairs_written_total,
///   gqd_relation_load_microseconds_total,
///   gqd_relation_builds_total{backend="dense"|"sparse"|"blocked"},
///   gqd_relation_parse_microseconds_total,
///   gqd_relation_build_microseconds_total,
///   gqd_relation_admission_refusals_total.
void UpdateRelationMetrics(MetricsRegistry* registry);

}  // namespace gqd

#endif  // GQD_STORAGE_METRICS_H_
