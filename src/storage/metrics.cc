#include "storage/metrics.h"

namespace gqd {

StorageCounters& StorageCounters::Instance() {
  static StorageCounters counters;
  return counters;
}

void UpdateStorageMetrics(MetricsRegistry* registry) {
  const StorageCounters& c = StorageCounters::Instance();
  auto mirror = [&](const char* name,
                    const std::atomic<std::uint64_t>& value) {
    registry->GetCounter(name)->Set(value.load(std::memory_order_relaxed));
  };
  mirror("gqd_storage_container_opens_total", c.containers_opened);
  mirror("gqd_storage_open_failures_total", c.open_failures);
  mirror("gqd_storage_container_writes_total", c.containers_written);
  mirror("gqd_storage_write_failures_total", c.write_failures);
  mirror("gqd_storage_validations_total", c.validations);
  mirror("gqd_storage_validation_failures_total", c.validation_failures);
  mirror("gqd_storage_mapped_bytes_total", c.bytes_mapped);
  mirror("gqd_storage_written_bytes_total", c.bytes_written);
  mirror("gqd_storage_load_microseconds_total", c.load_micros);
}

RelationCounters& RelationCounters::Instance() {
  static RelationCounters counters;
  return counters;
}

void NoteRelationBackendSelected(RelationBackend backend) {
  RelationCounters& c = RelationCounters::Instance();
  switch (backend) {
    case RelationBackend::kDense:
      c.builds_dense.fetch_add(1, std::memory_order_relaxed);
      break;
    case RelationBackend::kSparse:
      c.builds_sparse.fetch_add(1, std::memory_order_relaxed);
      break;
    case RelationBackend::kBlocked:
      c.builds_blocked.fetch_add(1, std::memory_order_relaxed);
      break;
    case RelationBackend::kAuto:
      break;  // callers resolve kAuto before building
  }
}

void UpdateRelationMetrics(MetricsRegistry* registry) {
  const RelationCounters& c = RelationCounters::Instance();
  auto mirror = [&](const char* name,
                    const std::atomic<std::uint64_t>& value) {
    registry->GetCounter(name)->Set(value.load(std::memory_order_relaxed));
  };
  mirror("gqd_relation_container_opens_total", c.relations_opened);
  mirror("gqd_relation_open_failures_total", c.open_failures);
  mirror("gqd_relation_container_writes_total", c.relations_written);
  mirror("gqd_relation_write_failures_total", c.write_failures);
  mirror("gqd_relation_pairs_loaded_total", c.pairs_loaded);
  mirror("gqd_relation_pairs_written_total", c.pairs_written);
  mirror("gqd_relation_load_microseconds_total", c.load_micros);
  mirror("gqd_relation_parse_microseconds_total", c.parse_micros);
  mirror("gqd_relation_build_microseconds_total", c.build_micros);
  mirror("gqd_relation_admission_refusals_total", c.admission_refusals);
  auto builds = [&](const char* backend,
                    const std::atomic<std::uint64_t>& value) {
    registry->GetCounter("gqd_relation_builds_total", {{"backend", backend}})
        ->Set(value.load(std::memory_order_relaxed));
  };
  builds("dense", c.builds_dense);
  builds("sparse", c.builds_sparse);
  builds("blocked", c.builds_blocked);
}

}  // namespace gqd
