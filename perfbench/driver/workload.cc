#include "workload.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/random.h"
#include "common/string_util.h"

namespace perfbench {

using jaguar::Random;
using jaguar::StringPrintf;

namespace {

int64_t Tri(int64_t k) { return k > 0 ? k * (k - 1) / 2 : 0; }

/// Decks in a list of `seconds` at `per_second` nominal decks per second,
/// never fewer than `min_decks` (the count that gives every reported
/// percentile ten samples beyond it). The rates are two thirds to three
/// quarters of a quiet 4-vCPU guest's, so that a host running up to twice
/// as slow still finishes a run in well under three minutes.
int Decks(int seconds, double per_second, int min_decks) {
  return std::max(min_decks, static_cast<int>(std::lround(seconds * per_second)));
}

template <typename T>
void Shuffle(std::vector<T>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

Statement Read(int cls, int tier, std::string sql, Expected e) {
  Statement s;
  s.cls = cls;
  s.tier = tier;
  s.sql = std::move(sql);
  s.expect = std::make_shared<const Expected>(std::move(e));
  return s;
}

Statement Write(int cls, int tier, std::string sql, int64_t affected) {
  Statement s;
  s.cls = cls;
  s.tier = tier;
  s.sql = std::move(sql);
  Expected e;
  e.affected = affected;
  s.expect = std::make_shared<const Expected>(std::move(e));
  return s;
}

/// `INSERT INTO <table> VALUES` statements of `per_stmt` rows each.
void BatchedInserts(const std::string& table, int64_t rows, int per_stmt,
                    const std::function<std::string(int64_t)>& row_sql,
                    std::vector<std::string>* out) {
  for (int64_t base = 0; base < rows; base += per_stmt) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    const int64_t end = std::min<int64_t>(rows, base + per_stmt);
    for (int64_t k = base; k < end; ++k) {
      if (k > base) sql += ", ";
      sql += row_sql(k);
    }
    out->push_back(std::move(sql));
  }
}

std::string Symbol(Random* rng) {
  std::string s(4, 'A');
  for (char& c : s) c = static_cast<char>('A' + rng->Uniform(26));
  return s;
}

// ---------------------------------------------------------------------------
// paper_udf: the paper's Section 5 generic-UDF queries as a closed loop.

void MakePaperUdf(uint64_t seed, int seconds, Workload* w) {
  struct Rel {
    const char* sql;
    const char* metric;
    size_t bytes;
  };
  const Rel rels[3] = {{"Rel1", "rel1", 1},
                       {"Rel100", "rel100", 100},
                       {"Rel10000", "rel10000", 10000}};
  const char* fns[6] = {"g_cpp", "g_bcpp", "g_sfi", "g_jni", "g_icpp", "g_ijni"};
  const char* classes[6] = {"cpp", "bcpp", "sfi_cpp", "jni", "icpp", "ijni"};
  // One point from each figure sweep: Fig 5 no-op, Fig 6 i=1000, Fig 7
  // d=1, Fig 8 c=1.
  const int64_t points[4][3] = {{0, 0, 0}, {1000, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const int64_t kRows = 10000;
  const int64_t kInProcessX = 1000;
  const int64_t kIsolatedX = 100;  // keeps IC++/IJNI crossings near a tenth

  w->name = "paper_udf";
  // The design classes differ only in the UDF crossing, so their scan and
  // page counts are reported once, workload-wide.
  for (const char* c : classes) {
    w->classes.push_back({c, Kind::kRead, /*detail=*/false,
                          /*examines=*/false});
  }
  const int kAppend = static_cast<int>(w->classes.size());
  w->classes.push_back({"rel_append", Kind::kWrite, true, /*examines=*/false});
  w->options.buffer_pool_pages = 32768;  // 256 MB: the relations fit
  w->options.wal_fsync = false;          // as in the figure benches
  for (const Rel& r : rels) w->tables.push_back({r.sql, r.metric});
  w->probe_table = "Rel100";
  w->probe_column = "ByteArray";

  for (int t = 0; t < 3; ++t) {
    w->load_sql.push_back(StringPrintf(
        "CREATE TABLE %s (id INT, ByteArray BYTEARRAY)", rels[t].sql));
    BatchedInserts(rels[t].sql, kRows, 250,
                   [&](int64_t k) {
                     return StringPrintf("(%lld, randbytes(%zu, %lld))",
                                         static_cast<long long>(k),
                                         rels[t].bytes,
                                         static_cast<long long>(
                                             RowSeed(seed, 1 + t, k)));
                   },
                   &w->load_sql);
  }

  // Model: the byte sums of the rows any read can qualify (id < 1000), and
  // the next id of each relation's appends (never qualifying).
  std::vector<int64_t> sums[3];
  for (int t = 0; t < 3; ++t) {
    for (int64_t k = 0; k < kInProcessX; ++k) {
      sums[t].push_back(ByteSum(RowSeed(seed, 1 + t, k), rels[t].bytes));
    }
  }
  int64_t next_id[3] = {kRows, kRows, kRows};
  int64_t rows[3] = {kRows, kRows, kRows};
  // Appends per deck to Rel1, Rel100 and Rel10000, and their write tier.
  // An append walks its relation's heap chain from the first page, so its
  // cost follows the chain, not the row: a Rel10000 append (~25 pages of
  // overflow stubs, then two overflow pages) takes ~0.9 ms, a Rel100 one
  // (~150 pages) 1.5 to 2.5 ms. The tiers end at 60 percent, so write p50 is
  // the 83rd percentile of the Rel10000 appends and write p90 the 75th of
  // the Rel100 ones. The host's speed for the guest flips between
  // two levels for seconds at a time, and these walks feel it most: over
  // ten runs a class median moved by up to a fifth with the share of slow
  // time, its upper quartile and above by a twentieth.
  const int kAppendsPerRel[3] = {0, 8, 12};
  const int kAppendTier[3] = {0, 1, 0};

  // Expected outputs shared by every statement of one (relation, point, X).
  auto read = [&](int d, int t, int p) {
    const int64_t x = d >= 4 ? kIsolatedX : kInProcessX;
    Expected e;
    for (int64_t k = 0; k < x; ++k) {
      e.rows.push_back({GenericExpected(sums[t][k], points[p][0],
                                        points[p][1], points[p][2])});
    }
    return Read(d, t,
                StringPrintf("SELECT %s(R.ByteArray, %lld, %lld, %lld) FROM "
                             "%s R WHERE R.id < %lld",
                             fns[d], static_cast<long long>(points[p][0]),
                             static_cast<long long>(points[p][1]),
                             static_cast<long long>(points[p][2]),
                             rels[t].sql, static_cast<long long>(x)),
                std::move(e));
  };
  auto append = [&](int t) {
    const int64_t id = next_id[t]++;
    ++rows[t];
    return Write(kAppend, kAppendTier[t],
                 StringPrintf("INSERT INTO %s VALUES (%lld, randbytes(%zu, "
                              "%lld))",
                              rels[t].sql, static_cast<long long>(id),
                              rels[t].bytes,
                              static_cast<long long>(RowSeed(seed, 11 + t, id))),
                 1);
  };

  std::vector<Statement> shapes;
  for (int d = 0; d < 6; ++d) {
    for (int t = 0; t < 3; ++t) {
      for (int p = 0; p < 4; ++p) shapes.push_back(read(d, t, p));
    }
  }
  w->warmup = shapes;
  for (int t = 0; t < 3; ++t) {
    if (kAppendsPerRel[t] > 0) w->warmup.push_back(append(t));
  }

  // A deck is all 72 read shapes plus the 20 appends. Each append directly
  // follows a scan of its own relation, so it finds that relation's pages
  // as warm as a scan leaves them. After a Rel10000 scan, which streams
  // 100 MB, a Rel100 append would start cold, and how many did so would
  // differ by seed.
  Random rng(seed);
  const int decks = Decks(seconds, 1.0, 5);  // 100 appends
  for (int i = 0; i < decks; ++i) {
    std::vector<int> order;
    for (int s = 0; s < static_cast<int>(shapes.size()); ++s) order.push_back(s);
    Shuffle(&order, &rng);
    int appends_left[3] = {kAppendsPerRel[0], kAppendsPerRel[1],
                           kAppendsPerRel[2]};
    for (int s : order) {
      w->measured.push_back(shapes[s]);
      const int t = (s / 4) % 3;  // shapes run design, relation, point
      if (appends_left[t] > 0) {
        --appends_left[t];
        w->measured.push_back(append(t));
      }
    }
  }
  for (int t = 0; t < 3; ++t) {
    w->user_bytes += rows[t] * (8.0 + rels[t].bytes);
  }
}

// ---------------------------------------------------------------------------
// analytic_parallel: vectorized morsel-parallel analytics with appends.

void MakeAnalyticParallel(uint64_t seed, int seconds, Workload* w) {
  const int64_t kEvents = 20000;
  const int64_t kDocs = 300;
  const int64_t kDims = 500;
  const int kGroups = 100;
  const size_t kPayload = 200;
  const size_t kBody = 10000;
  // An append adds 0.125% of the table, so the 168 appends of a 15-second
  // list grow it by a fifth and the run stays near steady state.
  const int64_t kAppendRows = 25;

  w->name = "analytic_parallel";
  enum {
    kAggJni, kTopkIcpp, kCountEvents, kScanDocs, kLimitScan, kFilterAgg,
    kSmallCount, kAppend
  };
  w->classes = {{"agg_jni", Kind::kRead, true, true, /*calls_udf=*/true},
                {"topk_icpp", Kind::kRead, true, true, /*calls_udf=*/true},
                {"count_events", Kind::kRead},
                {"scan_docs", Kind::kRead, true, true, /*calls_udf=*/true},
                {"limit_scan", Kind::kRead, true, true, /*calls_udf=*/true},
                {"filter_agg", Kind::kRead},
                {"small_count", Kind::kRead},
                {"append", Kind::kWrite, true, /*examines=*/false}};
  w->options.vectorized_execution = true;
  w->options.batch_size = 256;
  w->options.num_workers = 2;  // half of a 4-vCPU host: worker + executor
  w->options.buffer_pool_pages = 128;  // 1 MB: the data is ~8x larger
  w->options.wal_fsync = false;
  w->tables = {{"events", "events"}, {"docs", "docs"}};
  w->probe_table = "events";
  w->probe_column = "payload";

  Random rng(seed);
  // Model of `events`: payload byte sum per id (ids are dense) and rows per
  // group.
  std::vector<int64_t> payload_sum;
  std::vector<int64_t> group_count(kGroups, 0);
  auto new_event = [&](int64_t id) {
    const int g = static_cast<int>(rng.Uniform(kGroups));
    ++group_count[g];
    payload_sum.push_back(ByteSum(RowSeed(seed, 21, id), kPayload));
    w->user_bytes += 16 + 4 + kPayload;
    return StringPrintf("(%lld, %d, '%s', randbytes(%zu, %lld))",
                        static_cast<long long>(id), g, Symbol(&rng).c_str(),
                        kPayload,
                        static_cast<long long>(RowSeed(seed, 21, id)));
  };

  w->load_sql.push_back(
      "CREATE TABLE events (id INT, grp INT, sym STRING, payload BYTEARRAY)");
  BatchedInserts("events", kEvents, 250, new_event, &w->load_sql);
  w->load_sql.push_back("CREATE TABLE docs (id INT, body BYTEARRAY)");
  int64_t docs_sum = 0;
  BatchedInserts("docs", kDocs, 50,
                 [&](int64_t k) {
                   docs_sum += ByteSum(RowSeed(seed, 22, k), kBody);
                   w->user_bytes += 8 + kBody;
                   return StringPrintf("(%lld, randbytes(%zu, %lld))",
                                       static_cast<long long>(k), kBody,
                                       static_cast<long long>(
                                           RowSeed(seed, 22, k)));
                 },
                 &w->load_sql);
  w->load_sql.push_back("CREATE TABLE dims (id INT, label STRING)");
  BatchedInserts("dims", kDims, 250,
                 [&](int64_t k) {
                   const std::string label =
                       StringPrintf("d%lld", static_cast<long long>(k));
                   w->user_bytes += 8 + label.size();
                   return StringPrintf("(%lld, '%s')",
                                       static_cast<long long>(k), label.c_str());
                 },
                 &w->load_sql);

  // Latency tier of each class, fastest first, as measured on a 4-vCPU
  // guest: small_count; scan_docs; count_events, filter_agg and limit_scan
  // within 20% of each other; agg_jni and topk_icpp.
  const int kTier[8] = {3, 3, 2, 1, 2, 2, 0, 0};
  // `stratum` in [0, 1) places filter_agg's bound; a deck spreads its
  // filter_aggs evenly over the groups.
  auto make = [&](int cls, double stratum) -> Statement {
    switch (cls) {
      case kAggJni: {
        Expected e;
        e.ordered = false;
        for (int g = 0; g < kGroups; ++g) {
          if (group_count[g] > 0) {
            e.rows.push_back({g, group_count[g], group_count[g] * Tri(50)});
          }
        }
        return Read(cls, kTier[cls],
                    "SELECT grp, COUNT(*), SUM(g_jni(payload, 50, 0, 0)) FROM "
                    "events GROUP BY grp",
                    std::move(e));
      }
      case kTopkIcpp: {
        Expected e;
        const int64_t n = static_cast<int64_t>(payload_sum.size());
        for (int64_t id = n - 1; id >= std::max<int64_t>(0, n - 10); --id) {
          e.rows.push_back({id, GenericExpected(payload_sum[id], 0, 1, 0)});
        }
        return Read(cls, kTier[cls],
                    "SELECT id, g_icpp(payload, 0, 1, 0) FROM events ORDER BY "
                    "id DESC LIMIT 10",
                    std::move(e));
      }
      case kCountEvents: {
        Expected e;
        e.rows.push_back({static_cast<int64_t>(payload_sum.size())});
        return Read(cls, kTier[cls], "SELECT COUNT(*) FROM events", std::move(e));
      }
      case kScanDocs: {
        Expected e;
        e.rows.push_back({kDocs, docs_sum});
        return Read(cls, kTier[cls],
                    "SELECT COUNT(*), SUM(g_cpp(body, 0, 1, 0)) FROM docs",
                    std::move(e));
      }
      case kLimitScan: {
        Expected e;
        for (int64_t id = 0; id < 10; ++id) e.rows.push_back({id, 0});
        return Read(cls, kTier[cls],
                    "SELECT id, g_cpp(payload, 0, 0, 0) FROM events LIMIT 10",
                    std::move(e));
      }
      case kFilterAgg: {
        const int k = 5 + static_cast<int>(stratum * (kGroups - 10));
        Expected e;
        e.ordered = false;
        for (int g = 0; g < k; ++g) {
          if (group_count[g] > 0) e.rows.push_back({g, group_count[g]});
        }
        return Read(cls, kTier[cls],
                    StringPrintf("SELECT grp, COUNT(*) FROM events WHERE grp < "
                                 "%d GROUP BY grp",
                                 k),
                    std::move(e));
      }
      case kSmallCount: {
        Expected e;
        e.rows.push_back({kDims});
        return Read(cls, kTier[cls], "SELECT COUNT(*) FROM dims", std::move(e));
      }
      default: {
        std::string sql = "INSERT INTO events VALUES ";
        const int64_t base = static_cast<int64_t>(payload_sum.size());
        for (int64_t j = 0; j < kAppendRows; ++j) {
          if (j > 0) sql += ", ";
          sql += new_event(base + j);
        }
        return Write(kAppend, 0, std::move(sql), kAppendRows);
      }
    }
  };

  for (int c = 0; c < static_cast<int>(w->classes.size()); ++c) {
    w->warmup.push_back(make(c, 0.5));
  }
  // A deck of 27: 20 reads and 7 appends. The read tiers end at 10, 25 and
  // 75 percent, which puts read p50 25 points inside the middle tier and
  // read p90 15 points inside the top one. One topk_icpp per deck keeps the
  // IC++ crossings near a tenth of the time.
  const int per_deck[8] = {4, 1, 3, 3, 2, 5, 2, 7};
  const int decks = Decks(seconds, 1.6, 15);
  for (int i = 0; i < decks; ++i) {
    std::vector<int> order;
    for (int c = 0; c < 8; ++c) {
      for (int k = 0; k < per_deck[c]; ++k) order.push_back(c);
    }
    Shuffle(&order, &rng);
    int filters_seen = 0;
    for (int c : order) {
      double stratum = 0;
      if (c == kFilterAgg) {
        stratum = (filters_seen++ + rng.NextDouble()) / per_deck[kFilterAgg];
      }
      w->measured.push_back(make(c, stratum));
    }
  }
}

// ---------------------------------------------------------------------------
// oltp_wire: short indexed statements over TCP.

void MakeOltpWire(uint64_t seed, int seconds, Workload* w) {
  const int64_t kAccounts = 20000;
  const size_t kBlob = 100;
  const int64_t kRange = 20;
  const int64_t kReadValue = Tri(10);  // g_jni(blob, 10, 0, 0)

  w->name = "oltp_wire";
  enum { kPoint, kRangeRead, kInsert, kUpdate, kDelete };
  w->classes = {{"point_read", Kind::kRead, true, true, /*calls_udf=*/true},
                {"range_read", Kind::kRead, true, true, /*calls_udf=*/true},
                // UPDATE and DELETE walk the heap without a tuple counter,
                // so their page fetches, not rows examined, show the scan.
                {"insert1", Kind::kWrite, true, /*examines=*/false},
                {"update1", Kind::kWrite, true, /*examines=*/false},
                {"delete1", Kind::kWrite, true, /*examines=*/false}};
  w->wire = true;  // otherwise default options: tuple-at-a-time
  // Every statement still appends and commits its WAL records; only the
  // device flush is skipped. On a shared disk the flush's latency swings
  // several-fold within minutes and would set the noise of every metric.
  w->options.wal_fsync = false;
  w->tables = {{"accounts", "accounts"}};
  w->probe_table = "accounts";
  w->probe_column = "blob";

  // Model: the name length of each id (0: no such row); `live` lists the
  // ids that exist, for a uniform pick in O(1).
  std::vector<size_t> name_len;
  std::vector<int64_t> live;
  std::unordered_map<int64_t, size_t> live_pos;
  auto add = [&](int64_t id, const std::string& name) {
    if (static_cast<int64_t>(name_len.size()) <= id) name_len.resize(id + 1, 0);
    name_len[id] = name.size();
    live_pos[id] = live.size();
    live.push_back(id);
  };
  auto alive = [&](int64_t id) {
    return id < static_cast<int64_t>(name_len.size()) && name_len[id] > 0;
  };
  auto remove = [&](int64_t id) {
    name_len[id] = 0;
    const size_t pos = live_pos[id];
    live[pos] = live.back();
    live_pos[live[pos]] = pos;
    live.pop_back();
    live_pos.erase(id);
  };

  w->load_sql.push_back(
      "CREATE TABLE accounts (id INT, name STRING, blob BYTEARRAY)");
  BatchedInserts("accounts", kAccounts, 250,
                 [&](int64_t k) {
                   const std::string name =
                       StringPrintf("a%lld", static_cast<long long>(k));
                   add(k, name);
                   return StringPrintf("(%lld, '%s', randbytes(%zu, %lld))",
                                       static_cast<long long>(k), name.c_str(),
                                       kBlob,
                                       static_cast<long long>(
                                           RowSeed(seed, 31, k)));
                 },
                 &w->load_sql);
  w->load_sql.push_back("CREATE INDEX accounts_id ON accounts (id)");

  Random rng(seed);
  int64_t next_id = kAccounts;
  int64_t updates = 0;
  auto pick = [&] { return live[rng.Uniform(live.size())]; };
  // Updates and deletes hit one of the kRecent newest ids, which live in the
  // last pages of the heap chain. An insert walks the chain from its first
  // page to the first hole that fits, so a hole left early in the chain
  // would make the next inserts cheap by an amount the seed decides; holes
  // at the tail keep every insert's walk at the chain's length.
  const int64_t kRecent = 1000;
  auto pick_recent = [&] {
    while (true) {
      const int64_t id = next_id - 1 - static_cast<int64_t>(rng.Uniform(kRecent));
      if (alive(id)) return id;
    }
  };
  // `stratum` in [0, 1) places a range read's lower bound; a deck spreads
  // its range reads evenly over the id space.
  auto make = [&](int cls, double stratum) -> Statement {
    switch (cls) {
      case kPoint: {
        const int64_t id = pick();
        w->lookup_keys.push_back(id);
        Expected e;
        e.rows.push_back({id, kReadValue});
        return Read(cls, 0,
                    StringPrintf("SELECT id, g_jni(blob, 10, 0, 0) FROM "
                                 "accounts WHERE id = %lld",
                                 static_cast<long long>(id)),
                    std::move(e));
      }
      case kRangeRead: {
        const int64_t lo = static_cast<int64_t>(stratum * (next_id - kRange));
        Expected e;
        e.ordered = false;
        for (int64_t id = lo; id < lo + kRange; ++id) {
          if (alive(id)) {
            e.rows.push_back({id, kReadValue});
          }
        }
        return Read(cls, 1,
                    StringPrintf("SELECT id, g_jni(blob, 10, 0, 0) FROM "
                                 "accounts WHERE id >= %lld AND id < %lld",
                                 static_cast<long long>(lo),
                                 static_cast<long long>(lo + kRange)),
                    std::move(e));
      }
      case kInsert: {
        const int64_t id = next_id++;
        const std::string name = StringPrintf("n%lld", static_cast<long long>(id));
        add(id, name);
        return Write(cls, 0,
                     StringPrintf("INSERT INTO accounts VALUES (%lld, '%s', "
                                  "randbytes(%zu, %lld))",
                                  static_cast<long long>(id), name.c_str(),
                                  kBlob,
                                  static_cast<long long>(RowSeed(seed, 31, id))),
                     1);
      }
      case kUpdate: {
        const int64_t id = pick_recent();
        const std::string name =
            StringPrintf("u%lld", static_cast<long long>(updates++));
        name_len[id] = name.size();
        return Write(cls, 1,
                     StringPrintf("UPDATE accounts SET name = '%s' WHERE id = "
                                  "%lld",
                                  name.c_str(), static_cast<long long>(id)),
                     1);
      }
      default: {
        const int64_t id = pick_recent();
        remove(id);
        return Write(kDelete, 1,
                     StringPrintf("DELETE FROM accounts WHERE id = %lld",
                                  static_cast<long long>(id)),
                     1);
      }
    }
  };

  for (int c = 0; c < static_cast<int>(w->classes.size()); ++c) {
    w->warmup.push_back(make(c, 0.5));
  }
  // A deck of 80 in the shares 60 / 15 / 17.5 / 3.75 / 3.75 percent.
  const int per_deck[5] = {48, 12, 14, 3, 3};
  const int decks = Decks(seconds, 6.0, 5);
  for (int i = 0; i < decks; ++i) {
    std::vector<int> order;
    for (int c = 0; c < 5; ++c) {
      for (int k = 0; k < per_deck[c]; ++k) order.push_back(c);
    }
    Shuffle(&order, &rng);
    int range_seen = 0;
    for (int c : order) {
      double stratum = 0;
      if (c == kRangeRead) {
        stratum = (range_seen++ + rng.NextDouble()) / per_deck[kRangeRead];
      }
      w->measured.push_back(make(c, stratum));
    }
  }
  for (int64_t id : live) w->user_bytes += 8 + name_len[id] + kBlob;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper_udf",
                                                 "analytic_parallel",
                                                 "oltp_wire"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, int seconds,
                  Workload* out) {
  *out = Workload();
  if (name == "paper_udf") {
    MakePaperUdf(seed, seconds, out);
  } else if (name == "analytic_parallel") {
    MakeAnalyticParallel(seed, seconds, out);
  } else if (name == "oltp_wire") {
    MakeOltpWire(seed, seconds, out);
  } else {
    return false;
  }
  return true;
}

std::string SerializeStatements(const Workload& w) {
  std::string out;
  for (const std::vector<Statement>* list : {&w.warmup, &w.measured}) {
    for (const Statement& s : *list) {
      out += w.classes[s.cls].name;
      out += '\t';
      out += s.sql;
      out += '\n';
    }
  }
  return out;
}

bool CheckResult(const Expected& expect, const jaguar::QueryResult& result,
                 std::string* why) {
  if (expect.affected >= 0) {
    if (static_cast<int64_t>(result.rows_affected) == expect.affected) {
      return true;
    }
    *why = StringPrintf("affected %llu rows, expected %lld",
                        static_cast<unsigned long long>(result.rows_affected),
                        static_cast<long long>(expect.affected));
    return false;
  }
  std::vector<std::vector<int64_t>> got;
  got.reserve(result.rows.size());
  for (const jaguar::Tuple& t : result.rows) {
    std::vector<int64_t> row;
    for (const jaguar::Value& v : t.values()) {
      if (v.type() != jaguar::TypeId::kInt) {
        *why = "non-integer cell " + v.ToString();
        return false;
      }
      row.push_back(v.AsInt());
    }
    got.push_back(std::move(row));
  }
  const std::vector<std::vector<int64_t>>* want = &expect.rows;
  std::vector<std::vector<int64_t>> sorted;
  if (!expect.ordered) {
    std::sort(got.begin(), got.end());
    sorted = expect.rows;
    std::sort(sorted.begin(), sorted.end());
    want = &sorted;
  }
  if (got.size() != want->size()) {
    *why = StringPrintf("%zu rows, expected %zu", got.size(), want->size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != (*want)[i]) {
      *why = StringPrintf("row %zu differs", i);
      return false;
    }
  }
  return true;
}

int64_t RowSeed(uint64_t seed, int table_tag, int64_t row) {
  // splitmix64 over (seed, table, row): distinct rows get unrelated streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
               (static_cast<uint64_t>(table_tag) << 40) +
               static_cast<uint64_t>(row);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<int64_t>(z >> 1) | 1;  // positive and non-zero
}

int64_t ByteSum(int64_t row_seed, size_t n) {
  Random rng(static_cast<uint64_t>(row_seed));
  int64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += static_cast<uint8_t>(rng.Next());
  return sum;
}

int64_t GenericExpected(int64_t byte_sum, int64_t indep, int64_t dep,
                        int64_t callbacks) {
  // Closed form of the C++ design (jaguar::GenericUdfExpected) from the
  // byte sum alone.
  return Tri(indep) + dep * byte_sum + Tri(callbacks);
}

}  // namespace perfbench
