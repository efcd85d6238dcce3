#ifndef PERFBENCH_DRIVER_WORKLOAD_H_
#define PERFBENCH_DRIVER_WORKLOAD_H_

/// \file workload.h
/// The benchmark's three workloads: seed-generated statement lists plus the
/// model of the rows they create, which gives every statement its expected
/// result (the oracle). Nothing here touches the engine's query path; the
/// expected values come from the generator's own record of the data.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/query_result.h"

namespace perfbench {

enum class Kind { kRead, kWrite };

/// A statement class: the unit of per-class metrics.
struct ClassSpec {
  std::string name;
  Kind kind;
  /// Which per-class layer metrics the class has besides its execute time:
  /// `detail` adds pages per statement (and WAL bytes for writes),
  /// `examines` rows examined per row, `calls_udf` UDF calls per row.
  bool detail = true;
  bool examines = true;
  bool calls_udf = false;
};

/// What a statement must return. A SELECT is checked row by row (sorted
/// first when `ordered` is false); a write by its affected-row count.
struct Expected {
  bool ordered = true;
  std::vector<std::vector<int64_t>> rows;
  int64_t affected = -1;  ///< >= 0 for INSERT/UPDATE/DELETE.
};

struct Statement {
  int cls = 0;   ///< Index into `Workload::classes`.
  int tier = 0;  ///< Latency tier within its kind (0 = fastest).
  std::string sql;
  /// Shared: statements of one shape and state expect the same result.
  std::shared_ptr<const Expected> expect;
};

/// A table of the workload, for the per-table layer probes.
struct TableRef {
  std::string sql_name;     ///< As written in SQL ("Rel100").
  std::string metric_name;  ///< As written in metric names ("rel100").
};

struct Workload {
  std::string name;
  std::vector<ClassSpec> classes;
  jaguar::DatabaseOptions options;
  bool wire = false;  ///< Statements travel through net::Client.
  /// Schema and data, executed through SQL in order (embedded).
  std::vector<std::string> load_sql;
  /// One statement of every shape, run at the end of set-up.
  std::vector<Statement> warmup;
  /// The fixed, measured list: whole decks of fixed composition.
  std::vector<Statement> measured;
  std::vector<TableRef> tables;
  /// Argument rows for the per-design UDF probes: this table's BYTEARRAY
  /// column.
  std::string probe_table;
  std::string probe_column;
  /// Keys of the point reads, for the index probe (empty: no index).
  std::vector<int64_t> lookup_keys;
  /// Logical bytes of user data in the tables once the list has run
  /// (8 per INT, the length of each STRING and BYTEARRAY).
  double user_bytes = 0;
};

/// Names accepted by `MakeWorkload`.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed`. The measured list holds a whole
/// number of decks: each deck has a fixed class composition, shuffled by
/// the seed, and the deck count follows from `seconds` alone, so two runs
/// with the same arguments execute the identical list. Returns false for
/// an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                  Workload* out);

/// The statement list as text, one `class<TAB>sql` line per statement
/// (warm-up first); the seed-determinism self-test compares these bytes.
std::string SerializeStatements(const Workload& w);

/// Oracle: true when `result` is what `expect` describes; otherwise fills
/// `why` with the first difference.
bool CheckResult(const Expected& expect, const jaguar::QueryResult& result,
                 std::string* why);

/// Deterministic per-row seed for `randbytes`, shared by the SQL text and
/// the model.
int64_t RowSeed(uint64_t seed, int table_tag, int64_t row);

/// Sum of the bytes `randbytes(n, row_seed)` produces.
int64_t ByteSum(int64_t row_seed, size_t n);

/// The generic UDF's value with every callback echoing its argument.
int64_t GenericExpected(int64_t byte_sum, int64_t indep, int64_t dep,
                        int64_t callbacks);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOAD_H_
