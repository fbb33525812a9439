// Load generator against a live server: every request accepted when the
// server is unconstrained, chains perfectly linked afterward (the
// generator's one-in-flight-per-object discipline), and graceful
// accounting — accepted + shed + failed always equals sent — when
// admission control sheds. Suite named Server* so the TSan stage covers
// the full client/driver/poll/executor thread soup.

#include "workload/load_generator.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "net/server.h"
#include "provenance/ingest_pipeline.h"
#include "provenance/verifier.h"
#include "storage/env.h"
#include "testing/test_pki.h"

namespace provdb::workload {
namespace {

using provdb::testing::TestPki;
using provenance::IngestOptions;
using provenance::IngestPipeline;
using storage::Env;

std::string FreshDir(const std::string& tag) {
  std::string root = ::testing::TempDir() + "/provdb_loadgen_" + tag;
  auto shards = Env::Default()->ListDir(root);
  if (shards.ok()) {
    for (const std::string& shard : *shards) {
      auto files = Env::Default()->ListDir(root + "/" + shard);
      if (!files.ok()) continue;
      for (const std::string& f : *files) {
        EXPECT_TRUE(
            Env::Default()->RemoveFile(root + "/" + shard + "/" + f).ok());
      }
    }
  }
  return root;
}

struct Harness {
  std::unique_ptr<IngestPipeline> pipeline;
  std::unique_ptr<net::ProvenanceServer> server;
};

Harness StartHarness(const std::string& tag,
                     net::ServerOptions options = net::ServerOptions()) {
  Harness harness;
  IngestOptions ingest;
  ingest.num_shards = 2;
  auto pipeline = IngestPipeline::Open(Env::Default(), FreshDir(tag), ingest);
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  harness.pipeline = std::move(pipeline).value();

  std::map<crypto::ParticipantId, const crypto::Participant*> participants;
  for (size_t i = 0; i < TestPki::kNumParticipants; ++i) {
    const auto& p = TestPki::Instance().participant(i);
    participants[p.certificate().participant_id] = &p;
  }
  auto server = net::ProvenanceServer::Start(
      harness.pipeline.get(), &TestPki::Instance().registry(), participants,
      options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  harness.server = std::move(server).value();
  return harness;
}

LoadOptions BaseOptions(const Harness& harness) {
  LoadOptions options;
  options.port = harness.server->port();
  for (size_t i = 0; i < TestPki::kNumParticipants; ++i) {
    options.participant_ids.push_back(
        TestPki::Instance().participant(i).certificate().participant_id);
  }
  return options;
}

TEST(ServerLoadGeneratorTest, UnconstrainedRunAcceptsEverythingVerified) {
  Harness harness = StartHarness("clean");
  LoadOptions options = BaseOptions(harness);
  options.num_clients = 4;
  options.num_driver_threads = 2;
  options.requests_per_client = 48;
  options.objects_per_client = 8;
  options.pipeline_depth = 8;

  auto report = RunLoad(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests_sent, 4u * 48u);
  EXPECT_EQ(report->accepted, report->requests_sent);
  EXPECT_EQ(report->shed, 0u);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_GT(report->records_per_second, 0.0);

  harness.server->Stop();
  harness.server.reset();
  ASSERT_TRUE(harness.pipeline->Drain().ok());
  const provenance::StoreSnapshot snapshot = harness.pipeline->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), report->accepted);
  // The generator's chain discipline must yield fully-linked,
  // signature-valid chains — the same gate the throughput bench enforces.
  auto verification =
      provenance::ProvenanceVerifier(&TestPki::Instance().registry())
          .VerifyStore(snapshot);
  EXPECT_TRUE(verification.ok());
  EXPECT_EQ(verification.records_checked, report->accepted);
}

TEST(ServerLoadGeneratorTest, ShedRequestsAccountedAndChainsStayLinked) {
  net::ServerOptions server_options;
  // Pending cap 1: any poll-loop read that parses two frames back-to-back
  // sheds the second. The executor fsyncs per batch (hundreds of µs)
  // while the client writes its whole window in microseconds, so a
  // 16-deep window sheds with near-certainty on every batch.
  server_options.max_pending_per_connection = 1;
  Harness harness = StartHarness("shed", server_options);
  LoadOptions options = BaseOptions(harness);
  options.num_clients = 2;
  options.num_driver_threads = 2;
  options.requests_per_client = 64;
  options.objects_per_client = 32;
  options.pipeline_depth = 16;

  auto report = RunLoad(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->requests_sent, 2u * 64u);
  EXPECT_EQ(report->accepted + report->shed + report->failed,
            report->requests_sent);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_GT(report->shed, 0u);
  EXPECT_GT(report->accepted, 0u);

  harness.server->Stop();
  harness.server.reset();
  ASSERT_TRUE(harness.pipeline->Drain().ok());
  const provenance::StoreSnapshot snapshot = harness.pipeline->OpenSnapshot();
  EXPECT_EQ(snapshot.record_count(), report->accepted);
  auto verification =
      provenance::ProvenanceVerifier(&TestPki::Instance().registry())
          .VerifyStore(snapshot);
  EXPECT_TRUE(verification.ok());
  EXPECT_EQ(verification.records_checked, report->accepted);
}

TEST(ServerLoadGeneratorTest, DisjointObjectSlicesNeverCollide) {
  Harness harness = StartHarness("slices");
  LoadOptions options = BaseOptions(harness);
  options.num_clients = 3;
  options.requests_per_client = 24;
  options.objects_per_client = 4;
  options.first_object = 100;

  auto report = RunLoad(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Striped slices mean no client ever races another for a chain, so
  // nothing can fail with kFailedPrecondition.
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->accepted, report->requests_sent);

  harness.server->Stop();
  harness.server.reset();
  ASSERT_TRUE(harness.pipeline->Drain().ok());
  // Every chain's object id lies inside some client's stripe.
  const provenance::StoreSnapshot snapshot = harness.pipeline->OpenSnapshot();
  for (const auto& [object, chain] : snapshot.AllChains()) {
    EXPECT_GE(object, options.first_object);
    EXPECT_LT(object, options.first_object +
                          options.num_clients * options.objects_per_client);
  }
}

TEST(ServerLoadGeneratorTest, InvalidOptionsRejected) {
  LoadOptions options;
  options.participant_ids = {1};
  options.num_clients = 0;
  EXPECT_FALSE(RunLoad(options).ok());
  options.num_clients = 1;
  options.objects_per_client = 0;
  EXPECT_FALSE(RunLoad(options).ok());
  options.objects_per_client = 1;
  options.participant_ids.clear();
  EXPECT_FALSE(RunLoad(options).ok());
}

}  // namespace
}  // namespace provdb::workload
