// Tests for UDF placement (the paper's Section 7 future work): the cost
// model's crossovers, and client-side UDF execution through the client
// library against a live server.

#include <gtest/gtest.h>


#include "engine/database.h"
#include "net/client.h"
#include "net/server.h"
#include "temp_db.h"
#include "udf/placement.h"

namespace jaguar {
namespace {

PlacementCosts BaseCosts() {
  PlacementCosts c;
  c.tuples = 10000;
  c.selectivity = 0.01;
  c.bytes_per_tuple = 10000;            // Rel10000
  c.network_bytes_per_second = 10e6;    // 10 MB/s WAN-ish link
  c.network_round_trip_seconds = 1e-3;
  c.server_seconds_per_invocation = 2e-7;  // JNI-ish (Figure 5)
  c.client_seconds_per_invocation = 1e-7;  // trusted native at the client
  return c;
}

TEST(PlacementModelTest, SelectiveUdfOnBigBlobsStaysAtTheServer) {
  // The paper's REDNESS argument (Section 3.1): shipping all the images to
  // the client "is known to be a poor choice" — the server-side predicate
  // avoids moving 100 MB over the wire.
  PlacementCosts c = BaseCosts();
  PlacementDecision d = ChoosePlacement(c);
  EXPECT_EQ(d.placement, Placement::kServer) << d.ToString();
  // Client cost is dominated by shipping ~100 MB at 10 MB/s.
  EXPECT_GT(d.client_seconds, 9.0);
  EXPECT_LT(d.server_seconds, 1.0);
}

TEST(PlacementModelTest, NonSelectiveUdfOnTinyRowsCanGoEitherWay) {
  // When the predicate keeps everything, shipping costs are identical and
  // the cheaper UDF venue (no sandbox at the client) wins.
  PlacementCosts c = BaseCosts();
  c.selectivity = 1.0;
  c.bytes_per_tuple = 8;
  c.server_seconds_per_invocation = 5e-6;  // an expensive isolated design
  c.client_seconds_per_invocation = 1e-7;
  PlacementDecision d = ChoosePlacement(c);
  EXPECT_EQ(d.placement, Placement::kClient) << d.ToString();
}

TEST(PlacementModelTest, CallbackHeavyUdfsStayAtTheServer) {
  // Callbacks at the client become network round trips (Section 3.1: "the
  // latency of many such calls"); even a cheap client UDF loses.
  PlacementCosts c = BaseCosts();
  c.selectivity = 1.0;
  c.bytes_per_tuple = 8;
  c.server_seconds_per_invocation = 5e-6;
  c.client_seconds_per_invocation = 1e-7;
  c.callbacks_per_invocation = 2;
  PlacementDecision d = ChoosePlacement(c);
  EXPECT_EQ(d.placement, Placement::kServer) << d.ToString();
  // The client's modeled cost includes 20,000 round trips.
  EXPECT_GT(d.client_seconds, 10.0);
}

TEST(PlacementModelTest, BandwidthSweepHasACrossover) {
  // Fix the workload; sweep bandwidth: slow links favor the server-side
  // filter, fast links make data shipping competitive.
  PlacementCosts c = BaseCosts();
  c.selectivity = 0.5;
  c.server_seconds_per_invocation = 1e-5;  // expensive server design
  c.client_seconds_per_invocation = 1e-7;
  bool saw_server = false, saw_client = false;
  for (double bw = 1e6; bw <= 1e12; bw *= 10) {
    c.network_bytes_per_second = bw;
    PlacementDecision d = ChoosePlacement(c);
    (d.placement == Placement::kServer ? saw_server : saw_client) = true;
  }
  EXPECT_TRUE(saw_server);
  EXPECT_TRUE(saw_client);
}

TEST(PlacementModelTest, DecisionExplainsItself) {
  std::string text = ChoosePlacement(BaseCosts()).ToString();
  EXPECT_NE(text.find("SERVER"), std::string::npos);
  EXPECT_NE(text.find("server"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Client-side execution end to end
// ---------------------------------------------------------------------------

class ClientFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = Database::Open(path_).value();
    server_ = std::make_unique<net::Server>(db_.get());
    ASSERT_TRUE(server_->Start(0).ok());
    client_ = net::Client::Connect("127.0.0.1", server_->port()).value();
  }
  void TearDown() override {
    client_.reset();
    server_->Stop();
    server_.reset();
    db_.reset();
  }

  TempDb db_file_{"placement"};
  std::string path_ = db_file_.path();
  std::unique_ptr<Database> db_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<net::Client> client_;
};

TEST_F(ClientFilterTest, SecretFormulaNeverLeavesTheClient) {
  ASSERT_TRUE(client_->Execute("CREATE TABLE stocks (sym STRING, "
                               "history BYTEARRAY)")
                  .ok());
  ASSERT_TRUE(client_->Execute("INSERT INTO stocks VALUES "
                               "('A', randbytes(100, 1)), "
                               "('B', randbytes(100, 2)), "
                               "('C', zerobytes(100))")
                  .ok());

  // The investor's proprietary formula runs only in the client's VM.
  const char* secret = R"(
class Secret {
  static int score(byte[] h) {
    int acc = 0;
    for (int i = 0; i < h.length; i = i + 1) { acc = acc + h[i]; }
    return acc / h.length;
  }
})";
  QueryResult filtered =
      client_
          ->ExecuteWithClientFilter("SELECT sym, history FROM stocks",
                                    secret, "Secret.score", "history", 50)
          .value();
  // Rows A and B have random bytes (mean ~127 > 50); C is all zeros.
  ASSERT_EQ(filtered.rows.size(), 2u);
  EXPECT_EQ(filtered.rows[0].value(0).AsString(), "A");
  EXPECT_EQ(filtered.rows[1].value(0).AsString(), "B");
  // The server-side catalog never saw a UDF.
  EXPECT_TRUE(db_->catalog()->ListUdfs().empty());

  // Same predicate server-side (migrated) gives the same rows — the
  // placement choice is semantics-preserving.
  ASSERT_TRUE(client_
                  ->RegisterJJavaUdf("Secret", secret, "Secret.score",
                                     TypeId::kInt, {TypeId::kBytes})
                  .ok());
  QueryResult server_side =
      client_->Execute("SELECT sym, history FROM stocks "
                       "WHERE Secret(history) > 50")
          .value();
  ASSERT_EQ(server_side.rows.size(), filtered.rows.size());
  for (size_t i = 0; i < server_side.rows.size(); ++i) {
    EXPECT_TRUE(server_side.rows[i].value(0).Equals(
        filtered.rows[i].value(0)));
  }
}

TEST_F(ClientFilterTest, FilterErrorsSurfaceCleanly) {
  ASSERT_TRUE(client_->Execute("CREATE TABLE t (a INT, b BYTEARRAY)").ok());
  ASSERT_TRUE(client_->Execute("INSERT INTO t VALUES (1, zerobytes(4))").ok());
  const char* udf =
      "class F { static int f(byte[] b) { return b[100]; } }";  // will trap
  Result<QueryResult> r = client_->ExecuteWithClientFilter(
      "SELECT a, b FROM t", udf, "F.f", "b", 0);
  EXPECT_TRUE(r.status().IsRuntimeError());
  // Unknown column.
  EXPECT_TRUE(client_
                  ->ExecuteWithClientFilter("SELECT a FROM t",
                                            "class F { static int f(int x) "
                                            "{ return x; } }",
                                            "F.f", "nope", 0)
                  .status()
                  .IsNotFound());
  // Broken UDF source fails at compile time, before any shipping... (the
  // query runs first in this implementation; the compile error still wins).
  EXPECT_TRUE(client_
                  ->ExecuteWithClientFilter("SELECT a FROM t", "not jjava",
                                            "F.f", "a", 0)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace jaguar
