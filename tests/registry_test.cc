// Tests for the multi-tenant ModelRegistry (src/net/model_registry.*):
// artifact-mismatch isolation (a corrupt or truncated artifact fails its
// own AddTenant with a Status while every other tenant keeps serving),
// LoadDirectory's skip-and-warn policy, duplicate/invalid tenant names,
// the empty-mapping precondition, and the determinism contract of
// DefaultSgcFactory (same artifact, bit-identical logits).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "condense/artifact_io.h"
#include "coreset/coreset.h"
#include "data/datasets.h"
#include "eval/batching.h"
#include "net/model_registry.h"
#include "nn/sgc.h"
#include "scratch_path.h"

namespace mcond {
namespace net {
namespace {

namespace fs = std::filesystem;

class RegistryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new InductiveDataset(MakeDatasetByName("tiny-sim", 41));
    Rng rng(42);
    const std::vector<int64_t> selected =
        SelectCoreset(CoresetMethod::kRandom, data_->train_graph,
                      data_->train_graph.features(), /*num_select=*/24, rng);
    condensed_ =
        new CondensedGraph(BuildCoresetGraph(data_->train_graph, selected));
  }
  static void TearDownTestSuite() {
    delete condensed_;
    condensed_ = nullptr;
    delete data_;
    data_ = nullptr;
  }

  void SetUp() override {
    dir_ = ScratchPath(std::string("registry_") +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Deep copy (CondensedGraph is move-only friendly; tests hand copies to
  /// the registry, which takes ownership).
  static CondensedGraph CopyArtifact() { return *condensed_; }

  std::string SaveArtifact(const std::string& filename) {
    const std::string path = (dir_ / filename).string();
    const Status st = SaveCondensedGraph(path, *condensed_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return path;
  }

  /// Copies the first `bytes` of a valid artifact — a torn write.
  std::string TruncateArtifact(const std::string& filename, int64_t bytes) {
    const std::string full = SaveArtifact("full_tmp.bin");
    std::ifstream in(full, std::ios::binary);
    std::vector<char> head(static_cast<size_t>(bytes));
    in.read(head.data(), bytes);
    EXPECT_EQ(in.gcount(), bytes);
    in.close();
    fs::remove(full);
    const std::string path = (dir_ / filename).string();
    std::ofstream out(path, std::ios::binary);
    out.write(head.data(), bytes);
    return path;
  }

  static ModelRegistry::ModelFactory UntrainedSgcFactory() {
    return [](const CondensedGraph& cg)
        -> StatusOr<std::unique_ptr<GnnModel>> {
      GnnConfig gc;
      Rng rng(18);
      return std::unique_ptr<GnnModel>(std::make_unique<Sgc>(
          cg.graph.FeatureDim(), cg.graph.num_classes(), gc, rng));
    };
  }

  fs::path dir_;
  static InductiveDataset* data_;
  static CondensedGraph* condensed_;
};

InductiveDataset* RegistryTest::data_ = nullptr;
CondensedGraph* RegistryTest::condensed_ = nullptr;

TEST_F(RegistryTest, CorruptArtifactFailsWithoutTakingDownNeighbors) {
  ModelRegistry registry(UntrainedSgcFactory());
  ASSERT_TRUE(registry.AddTenant("alpha", CopyArtifact(), TenantConfig())
                  .ok());

  // Garbage bytes: not an artifact at all.
  const std::string garbage = (dir_ / "garbage.bin").string();
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "definitely not an artifact";
  }
  Status st = registry.AddTenant("bad", garbage, TenantConfig());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(registry.Find("bad"), nullptr);

  // Torn write: a valid header, then EOF mid-payload.
  st = registry.AddTenant("torn", TruncateArtifact("torn.bin", 64),
                          TenantConfig());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(registry.Find("torn"), nullptr);

  // Missing file.
  st = registry.AddTenant("ghost", (dir_ / "absent.bin").string(),
                          TenantConfig());
  EXPECT_FALSE(st.ok());

  // The surviving tenant still serves, end to end.
  EXPECT_EQ(registry.size(), 1);
  Tenant* alpha = registry.Find("alpha");
  ASSERT_NE(alpha, nullptr);
  const std::vector<HeldOutBatch> batches = SplitIntoBatches(data_->test, 8);
  Tensor out;
  const Status serve = alpha->server->ServeSync(batches[0], true, &out);
  ASSERT_TRUE(serve.ok()) << serve.ToString();
  EXPECT_EQ(out.rows(), batches[0].size());
  EXPECT_EQ(out.cols(), alpha->num_classes);
}

TEST_F(RegistryTest, ValidArtifactFileRoundTripsIntoAServingTenant) {
  ModelRegistry registry(UntrainedSgcFactory());
  const Status st =
      registry.AddTenant("disk", SaveArtifact("disk.bin"), TenantConfig());
  ASSERT_TRUE(st.ok()) << st.ToString();
  Tenant* tenant = registry.Find("disk");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->feat_dim, data_->train_graph.FeatureDim());
  EXPECT_EQ(tenant->num_classes, data_->train_graph.num_classes());
}

TEST_F(RegistryTest, LoadDirectorySkipsCorruptFilesAndCountsTheRest) {
  SaveArtifact("a.bin");
  SaveArtifact("b.bin");
  TruncateArtifact("c_truncated.bin", 32);
  {
    std::ofstream out((dir_ / "d_garbage.bin").string(), std::ios::binary);
    out << "nope";
  }

  ModelRegistry registry(UntrainedSgcFactory());
  const StatusOr<int> added =
      registry.LoadDirectory(dir_.string(), TenantConfig());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value(), 2);
  EXPECT_NE(registry.Find("a"), nullptr);
  EXPECT_NE(registry.Find("b"), nullptr);
  EXPECT_EQ(registry.Find("c_truncated"), nullptr);
  EXPECT_EQ(registry.Find("d_garbage"), nullptr);
}

TEST_F(RegistryTest, LoadDirectoryErrors) {
  ModelRegistry registry(UntrainedSgcFactory());
  // Nonexistent directory.
  EXPECT_FALSE(
      registry.LoadDirectory((dir_ / "absent").string(), TenantConfig())
          .ok());
  // A directory with nothing loadable.
  {
    std::ofstream out((dir_ / "junk.bin").string(), std::ios::binary);
    out << "junk";
  }
  EXPECT_FALSE(registry.LoadDirectory(dir_.string(), TenantConfig()).ok());
}

TEST_F(RegistryTest, DuplicateNameIsFailedPrecondition) {
  ModelRegistry registry(UntrainedSgcFactory());
  ASSERT_TRUE(registry.AddTenant("alpha", CopyArtifact(), TenantConfig())
                  .ok());
  const Status st =
      registry.AddTenant("alpha", CopyArtifact(), TenantConfig());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.size(), 1);
}

TEST_F(RegistryTest, TenantNameValidation) {
  EXPECT_TRUE(ModelRegistry::ValidTenantName("alpha_2"));
  EXPECT_FALSE(ModelRegistry::ValidTenantName(""));
  EXPECT_FALSE(ModelRegistry::ValidTenantName("Bad-Name"));
  EXPECT_FALSE(ModelRegistry::ValidTenantName("dots.break.metrics"));
  EXPECT_FALSE(ModelRegistry::ValidTenantName(std::string(65, 'a')));

  EXPECT_EQ(ModelRegistry::SanitizeTenantName("My Model-V2"), "my_model_v2");

  ModelRegistry registry(UntrainedSgcFactory());
  const Status st =
      registry.AddTenant("Bad Name", CopyArtifact(), TenantConfig());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(RegistryTest, EmptyMappingIsRejected) {
  CondensedGraph empty_mapping = CopyArtifact();
  empty_mapping.mapping = CsrMatrix();
  ModelRegistry registry(UntrainedSgcFactory());
  const Status st =
      registry.AddTenant("hollow", std::move(empty_mapping), TenantConfig());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.size(), 0);
}

TEST_F(RegistryTest, FactoryErrorPropagatesAndAddsNothing) {
  ModelRegistry registry([](const CondensedGraph&)
                             -> StatusOr<std::unique_ptr<GnnModel>> {
    return Status(StatusCode::kInternal, "factory exploded");
  });
  const Status st =
      registry.AddTenant("alpha", CopyArtifact(), TenantConfig());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(registry.size(), 0);
}

TEST_F(RegistryTest, DefaultSgcFactoryIsDeterministic) {
  // The loopback determinism gate depends on this: training the same
  // artifact twice must produce bit-identical parameters, hence logits.
  const std::vector<HeldOutBatch> batches = SplitIntoBatches(data_->test, 8);
  Tensor first, second;
  for (Tensor* out : {&first, &second}) {
    ModelRegistry registry(
        ModelRegistry::DefaultSgcFactory(/*train_epochs=*/5, /*seed=*/7));
    ASSERT_TRUE(registry.AddTenant("alpha", CopyArtifact(), TenantConfig())
                    .ok());
    const Status st =
        registry.Find("alpha")->server->ServeSync(batches[0], true, out);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  ASSERT_TRUE(first.SameShape(second));
  EXPECT_EQ(std::memcmp(first.data(), second.data(),
                        static_cast<size_t>(first.size()) * sizeof(float)),
            0)
      << "DefaultSgcFactory broke its determinism contract";
}

}  // namespace
}  // namespace net
}  // namespace mcond
