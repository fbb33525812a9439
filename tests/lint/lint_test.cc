// Unit tests for provdb-lint: each rule R01-R10 fires on its fixture,
// pragmas suppress, and a clean file (with banned tokens hidden inside
// comments and strings) stays clean. The fixtures live on disk so they
// double as human-readable documentation of what each rule catches.

#include "lint.h"

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace provdb::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  std::string path = std::string(PROVDB_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::set<std::string> RuleIds(const std::vector<Finding>& findings) {
  std::set<std::string> ids;
  for (const Finding& finding : findings) ids.insert(finding.rule_id);
  return ids;
}

TEST(LintRulesTest, R01FiresOnUnorderedIterationInDigestLayer) {
  Linter linter;
  std::string content = ReadFixture("r01_unordered_iteration.cc");
  auto findings =
      linter.LintContent("src/provenance/serialization.cc", content);
  ASSERT_EQ(findings.size(), 2u) << findings.size();
  EXPECT_EQ(findings[0].rule_id, "R01");
  EXPECT_EQ(findings[0].rule_name, "nondet-iteration");
  EXPECT_EQ(findings[1].rule_id, "R01");
  // Point lookups (`.count`) produce no third finding.

  // The same content outside the digest layer is not R01's business.
  auto elsewhere = linter.LintContent("src/workload/synthetic.cc", content);
  EXPECT_EQ(RuleIds(elsewhere).count("R01"), 0u);
}

TEST(LintRulesTest, R02FiresOnAmbientRandomnessOutsideRng) {
  Linter linter;
  std::string content = ReadFixture("r02_ambient_randomness.cc");
  auto findings = linter.LintContent("src/workload/synthetic.cc", content);
  // random_device, srand/time line, rand — at least three flagged lines.
  ASSERT_GE(findings.size(), 3u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule_id, "R02");
  }

  // The sanctioned RNG implementation itself is exempt.
  auto in_rng = linter.LintContent("src/common/rng.cc", content);
  EXPECT_TRUE(in_rng.empty());
}

TEST(LintRulesTest, R03FiresOnRawThreadsOutsideThreadPool) {
  Linter linter;
  std::string content = ReadFixture("r03_raw_thread.cc");
  auto findings = linter.LintContent("src/provenance/verifier.cc", content);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule_id, "R03");
  EXPECT_NE(findings[0].message.find("std::thread"), std::string::npos);
  EXPECT_EQ(findings[1].rule_id, "R03");
  EXPECT_NE(findings[1].message.find("std::async"), std::string::npos);

  // The pool implementation is exempt; std::this_thread never fires.
  auto in_pool = linter.LintContent("src/common/thread_pool.cc", content);
  EXPECT_TRUE(in_pool.empty());
}

TEST(LintRulesTest, R04FiresOnMemcmpInDigestLayer) {
  Linter linter;
  std::string content = ReadFixture("r04_memcmp_digest.cc");
  auto findings = linter.LintContent("src/crypto/hmac.cc", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "R04");
  EXPECT_EQ(findings[0].rule_name, "ct-memcmp");
  EXPECT_FALSE(findings[0].suggestion.empty());

  // memcmp outside the digest/MAC layer is allowed (e.g. src/storage/).
  auto in_storage = linter.LintContent("src/storage/value.cc", content);
  EXPECT_EQ(RuleIds(in_storage).count("R04"), 0u);
}

TEST(LintRulesTest, R05FiresOnlyWithCorpusAndHonorsBothReferenceKinds) {
  Linter no_corpus;
  auto skipped = no_corpus.LintContent("src/crypto/widget.cc", "int x;\n");
  EXPECT_TRUE(skipped.empty()) << "R05 must be skipped without a corpus";

  Linter linter;
  linter.SetTestCorpus({
      {"tests/crypto/covered_test.cc", "#include \"crypto/covered.h\"\n"},
      {"tests/storage/widget_test.cc", "TEST(Widget, Works) {}\n"},
  });

  // Uncovered file: fires at line 1, names both accepted reference kinds.
  auto findings = linter.LintContent("src/crypto/orphan.cc", "int x;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule_id, "R05");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("orphan_test.cc"), std::string::npos);

  // Covered by a <stem>_test.cc anywhere under tests/.
  EXPECT_TRUE(
      linter.LintContent("src/storage/widget.cc", "int x;\n").empty());
  // Covered by an #include reference from a test.
  EXPECT_TRUE(
      linter.LintContent("src/crypto/covered.cc", "int x;\n").empty());
  // Suppressible with the pragma.
  EXPECT_TRUE(linter
                  .LintContent("src/crypto/orphan.cc",
                               "// lint:allow no-test\nint x;\n")
                  .empty());
  // Headers are out of scope — only .cc files need tests.
  EXPECT_TRUE(linter.LintContent("src/crypto/orphan.h", "int x;\n").empty());
}

TEST(LintRulesTest, R06FiresOnRawFileIoOutsideEnvLayer) {
  Linter linter;
  std::string content = ReadFixture("r06_raw_file_io.cc");
  auto findings = linter.LintContent("src/storage/wal.cc", content);
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule_id, "R06");
    EXPECT_EQ(finding.rule_name, "raw-file-io");
  }
  EXPECT_NE(findings[0].message.find("fstream"), std::string::npos);
  EXPECT_NE(findings[1].message.find("fopen"), std::string::npos);
  EXPECT_NE(findings[2].message.find("rename"), std::string::npos);
  EXPECT_NE(findings[0].suggestion.find("storage::Env"), std::string::npos);

  // The Env layer itself is the sanctioned owner of these primitives.
  EXPECT_TRUE(linter.LintContent("src/storage/env.cc", content).empty());
  EXPECT_TRUE(linter.LintContent("src/storage/env.h", content).empty());
  // Tools and tests are out of scope.
  EXPECT_TRUE(linter.LintContent("tools/lint/lint.cc", content).empty());

  // Method calls and distinct identifiers never fire: RenameFile is not
  // rename, and `env->rename(...)`-style member access is left to the
  // Env API itself.
  std::string clean =
      "void F(Env* env) { Status s = env->RenameFile(\"a\", \"b\"); }\n"
      "int rename_count = 0;\n";
  EXPECT_TRUE(linter.LintContent("src/storage/wal.cc", clean).empty());
}

TEST(LintRulesTest, IngestPipelinePathCarriesNoThreadOrFileIoExemption) {
  // The sharded ingest pipeline concentrates exactly the temptations R03
  // and R06 police — hand-rolled signing threads and direct WAL file
  // writes. Pin that its path is NOT on either rule's exemption list, so
  // the real ingest_pipeline.cc must keep routing concurrency through
  // common/thread_pool and I/O through storage::Env to lint clean.
  Linter linter;
  auto r03 = linter.LintContent(
      "src/provenance/ingest_pipeline.cc",
      "void Flush() { std::thread signer(SignBatch); signer.join(); }\n");
  ASSERT_EQ(r03.size(), 1u);
  EXPECT_EQ(r03[0].rule_id, "R03");
  EXPECT_NE(r03[0].message.find("std::thread"), std::string::npos);

  auto r06 = linter.LintContent(
      "src/provenance/ingest_pipeline.cc",
      "void Flush() { std::FILE* f = std::fopen(\"wal.log\", \"ab\"); }\n");
  ASSERT_EQ(r06.size(), 1u);
  EXPECT_EQ(r06[0].rule_id, "R06");
  EXPECT_NE(r06[0].message.find("fopen"), std::string::npos);
  EXPECT_NE(r06[0].suggestion.find("storage::Env"), std::string::npos);
}

TEST(LintRulesTest, CheckpointPathCarriesNoTestOrFileIoExemption) {
  // The checkpoint subsystem writes and parses sealed snapshot files —
  // exactly where untested code (R05) or a direct filesystem call
  // bypassing Env's crash semantics (R06) would be most dangerous. Pin
  // that its path is on both rules' beats: coverage must come from a
  // real checkpoint_test.cc, and all I/O must route through storage::Env.
  Linter linter;
  linter.SetTestCorpus({
      {"tests/provenance/checkpoint_test.cc",
       "#include \"provenance/checkpoint.h\"\n"},
  });
  // Covered by its test; drop the corpus entry and the file must fire.
  EXPECT_TRUE(
      linter.LintContent("src/provenance/checkpoint.cc", "int x;\n").empty());
  Linter uncovered;
  uncovered.SetTestCorpus({{"tests/storage/wal_test.cc", "int y;\n"}});
  auto r05 =
      uncovered.LintContent("src/provenance/checkpoint.cc", "int x;\n");
  ASSERT_EQ(r05.size(), 1u);
  EXPECT_EQ(r05[0].rule_id, "R05");
  EXPECT_NE(r05[0].message.find("checkpoint_test.cc"), std::string::npos);

  auto r06 = linter.LintContent(
      "src/provenance/checkpoint.cc",
      "void Seal() { std::FILE* f = std::fopen(\"c.pvck.tmp\", \"wb\"); }\n");
  ASSERT_EQ(r06.size(), 1u);
  EXPECT_EQ(r06[0].rule_id, "R06");
  EXPECT_NE(r06[0].suggestion.find("storage::Env"), std::string::npos);
}

TEST(LintRulesTest, R07FiresOnAdhocChronoOutsideSanctionedOwners) {
  Linter linter;
  std::string content = ReadFixture("r07_adhoc_chrono.cc");
  auto findings = linter.LintContent("src/storage/wal.cc", content);
  ASSERT_GE(findings.size(), 3u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule_id, "R07");
    EXPECT_EQ(finding.rule_name, "adhoc-chrono");
  }
  EXPECT_NE(findings[0].suggestion.find("Stopwatch"), std::string::npos);

  // The two sanctioned clock owners are exempt.
  EXPECT_TRUE(
      linter.LintContent("src/common/stopwatch.h", content).empty());
  EXPECT_TRUE(
      linter.LintContent("src/observability/metrics.cc", content).empty());
  // Bench harnesses and tests are out of scope.
  EXPECT_TRUE(
      linter.LintContent("bench/bench_common.h", content).empty());

  // Suppressible like every rule, by id or name.
  std::string suppressed =
      "#include <chrono>  // lint:allow adhoc-chrono\n";
  EXPECT_TRUE(
      linter.LintContent("src/storage/wal.cc", suppressed).empty());
  // A mention inside a comment or string never fires.
  std::string clean =
      "// std::chrono is banned here; see R07\n"
      "const char* kDoc = \"std::chrono\";\n";
  EXPECT_TRUE(linter.LintContent("src/storage/wal.cc", clean).empty());
}

TEST(LintRulesTest, R08FiresOnMutexWithNoAnnotationUser) {
  Linter linter;
  std::string content = ReadFixture("r08_unannotated_mutex.cc");
  auto findings = linter.LintContent("src/provenance/cache.cc", content);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule_id, "R08");
  EXPECT_EQ(findings[0].rule_name, "unannotated-mutex");
  EXPECT_NE(findings[0].message.find("mu_"), std::string::npos);
  EXPECT_EQ(findings[1].rule_id, "R08");
  EXPECT_NE(findings[1].message.find("raw_mu_"), std::string::npos);
  EXPECT_NE(findings[0].suggestion.find("PROVDB_GUARDED_BY"),
            std::string::npos);

  // The annotation vocabulary itself wraps the raw primitive.
  EXPECT_TRUE(
      linter.LintContent("src/common/thread_annotations.h", content).empty());
  // Tools and tests are out of scope.
  EXPECT_TRUE(linter.LintContent("tools/lint/lint.cc", content).empty());

  // A PROVDB_REQUIRES user counts too: a mutex may guard functions only.
  std::string requires_only =
      "class Store {\n"
      "  void CompactLocked() PROVDB_REQUIRES(mu_);\n"
      "  mutable Mutex mu_;\n"
      "};\n";
  EXPECT_TRUE(
      linter.LintContent("src/storage/store.h", requires_only).empty());
  // Parameters and template arguments are not declarations.
  std::string not_decls =
      "void Wait(Mutex* mu);\n"
      "std::unique_lock<std::mutex> Hold();\n";
  EXPECT_TRUE(linter.LintContent("src/common/sync.h", not_decls).empty());
}

TEST(LintRulesTest, R09FiresOnBlockingIoInsideLiveLockScope) {
  Linter linter;
  std::string content = ReadFixture("r09_io_under_lock.cc");
  auto findings = linter.LintContent("src/storage/locked_log.cc", content);
  ASSERT_EQ(findings.size(), 2u) << findings.front().ToString();
  EXPECT_EQ(findings[0].rule_id, "R09");
  EXPECT_EQ(findings[0].rule_name, "io-under-lock");
  EXPECT_NE(findings[0].message.find("Append"), std::string::npos);
  EXPECT_EQ(findings[1].rule_id, "R09");
  EXPECT_NE(findings[1].message.find("Sync"), std::string::npos);
  EXPECT_NE(findings[0].suggestion.find("FooLocked"), std::string::npos);
  // The I/O after the guard's scope closed (FlushAfterRelease) is clean,
  // pinning that guard liveness tracks braces, not the whole function.

  // The sanctioned I/O layer is exempt: Env owns the primitives, and the
  // fault-injection double deliberately locks across forwarded calls.
  EXPECT_TRUE(linter.LintContent("src/storage/env.cc", content).empty());
  EXPECT_TRUE(
      linter.LintContent("src/storage/fault_injection_env.cc", content)
          .empty());

  // A FooLocked body with no lexical guard is R09-clean by design — the
  // lock is the caller's, expressed via PROVDB_REQUIRES, and clang (not
  // this lexical pass) checks that contract.
  std::string foo_locked =
      "Status Pipe::FlushLocked(Shard* s) {\n"
      "  return s->wal.Sync();\n"
      "}\n";
  EXPECT_TRUE(
      linter.LintContent("src/provenance/pipe.cc", foo_locked).empty());
}

TEST(LintRulesTest, R10FiresOnManualLockCalls) {
  Linter linter;
  std::string content = ReadFixture("r10_naked_lock.cc");
  auto findings = linter.LintContent("src/provenance/locker.cc", content);
  ASSERT_EQ(findings.size(), 4u) << findings.front().ToString();
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule_id, "R10");
    EXPECT_EQ(finding.rule_name, "naked-lock");
  }
  EXPECT_NE(findings[0].message.find(".lock()"), std::string::npos);
  EXPECT_NE(findings[1].message.find(".unlock()"), std::string::npos);
  EXPECT_NE(findings[2].message.find(".try_lock()"), std::string::npos);
  EXPECT_NE(findings[0].suggestion.find("MutexLock"), std::string::npos);

  // The lock plumbing itself is exempt: the annotated Mutex wrapper
  // forwards to std::mutex, and the pool's wait loop manages its own.
  EXPECT_TRUE(
      linter.LintContent("src/common/thread_annotations.h", content).empty());
  EXPECT_TRUE(
      linter.LintContent("src/common/thread_pool.cc", content).empty());
}

TEST(LintRulesTest, PragmasSuppressByIdAndByName) {
  Linter linter;
  std::string content = ReadFixture("suppressed.cc");
  auto findings = linter.LintContent("src/provenance/checksum.cc", content);
  EXPECT_TRUE(findings.empty()) << findings.front().ToString();
}

TEST(LintRulesTest, CleanFileWithBannedTokensInLiteralsStaysClean) {
  Linter linter;
  std::string content = ReadFixture("clean.cc");
  auto findings = linter.LintContent("src/provenance/bundle.cc", content);
  EXPECT_TRUE(findings.empty()) << findings.front().ToString();
}

TEST(LintRulesTest, FindingToStringIsGreppable) {
  Linter linter;
  std::string content = ReadFixture("r04_memcmp_digest.cc");
  auto findings = linter.LintContent("src/crypto/hmac.cc", content);
  ASSERT_EQ(findings.size(), 1u);
  std::string text = findings[0].ToString(/*with_suggestion=*/true);
  EXPECT_NE(text.find("src/crypto/hmac.cc:"), std::string::npos);
  EXPECT_NE(text.find("[R04/ct-memcmp]"), std::string::npos);
  EXPECT_NE(text.find("fix: "), std::string::npos);
}

TEST(LintRulesTest, RuleTableIsCompleteAndOrdered) {
  const auto& rules = Rules();
  ASSERT_EQ(rules.size(), 10u);
  for (size_t i = 0; i < rules.size(); ++i) {
    std::string expected =
        (i < 9 ? "R0" : "R") + std::to_string(i + 1);
    EXPECT_EQ(rules[i].id, expected);
    EXPECT_NE(std::string(rules[i].summary), "");
  }
}

}  // namespace
}  // namespace provdb::lint
